//! Streaming cross-module aggregation.
//!
//! [`ProfileStore::aggregate`](crate::ProfileStore::aggregate) folds every
//! live record through an [`AggregateBuilder`] one at a time — the store
//! streams segment files individually, so fleet-wide rollups over hundreds
//! of thousands of modules never hold more than one segment in memory.
//! The rollups mirror what the PARBOR paper reports across DIMMs:
//! how often each coupling distance appears fleet-wide (the paper's
//! neighborhood-size evidence), failure-count spread per module, and
//! per-vendor failure rates (the paper's Table 1 split by vendor A/B/C).

use std::collections::BTreeMap;

use serde::Serialize;

use parbor_core::FailureProfile;
use parbor_obs::hist::HdrHistogram;

/// Percentile summary of a streamed histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistSummary {
    /// Observations folded in.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Per-vendor rollup (vendors are the leading alphabetic prefix of the
/// module name — `A7` and `Avendor3` both land under `A`, matching the
/// paper's anonymised vendor labels).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VendorRollup {
    /// Modules attributed to the vendor.
    pub modules: usize,
    /// Failing cells across those modules.
    pub failures: u64,
    /// Mean failing cells per module.
    pub mean_failures: f64,
}

/// Fleet-wide rollups streamed out of the store.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetAggregate {
    /// Modules aggregated.
    pub modules: usize,
    /// Failing cells fleet-wide.
    pub total_failures: u64,
    /// How many modules exhibit each coupling distance.
    pub distance_counts: BTreeMap<i64, u64>,
    /// Distinct coupling distances seen fleet-wide.
    pub distinct_distances: usize,
    /// Failing-cell count distribution across modules.
    pub failures_per_module: HistSummary,
    /// Per-vendor failure-rate rollups, keyed by vendor prefix.
    pub vendors: BTreeMap<String, VendorRollup>,
}

/// Accumulates profiles one at a time into a [`FleetAggregate`].
#[derive(Debug)]
pub struct AggregateBuilder {
    modules: usize,
    total_failures: u64,
    distance_counts: BTreeMap<i64, u64>,
    failures_hist: HdrHistogram,
    vendors: BTreeMap<String, (usize, u64)>,
}

impl AggregateBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        AggregateBuilder {
            modules: 0,
            total_failures: 0,
            distance_counts: BTreeMap::new(),
            failures_hist: HdrHistogram::new(),
            vendors: BTreeMap::new(),
        }
    }

    /// Folds one module's profile in.
    pub fn add(&mut self, name: &str, profile: &FailureProfile) {
        self.add_counts(name, &profile.distances, profile.failures.len() as u64);
    }

    /// Folds one module in from what the rollups read of its profile: its
    /// coupling distances and its failing-cell count. The store's
    /// aggregate reads these from a record summary without building cells.
    pub fn add_counts(&mut self, name: &str, distances: &[i64], failures: u64) {
        self.modules += 1;
        self.total_failures += failures;
        self.failures_hist.record(failures);
        for &d in distances {
            *self.distance_counts.entry(d).or_insert(0) += 1;
        }
        let alpha = name.bytes().take_while(u8::is_ascii_alphabetic).count();
        let vendor = if alpha == 0 { "?" } else { &name[..alpha] };
        let slot = match self.vendors.get_mut(vendor) {
            Some(slot) => slot,
            None => self.vendors.entry(vendor.to_string()).or_insert((0, 0)),
        };
        slot.0 += 1;
        slot.1 += failures;
    }

    /// Finishes the rollup.
    pub fn finish(self) -> FleetAggregate {
        let snap = self.failures_hist.snapshot();
        FleetAggregate {
            modules: self.modules,
            total_failures: self.total_failures,
            distinct_distances: self.distance_counts.len(),
            distance_counts: self.distance_counts,
            failures_per_module: HistSummary {
                count: snap.count,
                mean: snap.mean(),
                p50: snap.p50(),
                p99: snap.p99(),
                p999: snap.p999(),
            },
            vendors: self
                .vendors
                .into_iter()
                .map(|(vendor, (modules, failures))| {
                    (
                        vendor,
                        VendorRollup {
                            modules,
                            failures,
                            mean_failures: if modules == 0 {
                                0.0
                            } else {
                                failures as f64 / modules as f64
                            },
                        },
                    )
                })
                .collect(),
        }
    }
}

impl Default for AggregateBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_core::FailingCell;

    fn profile(distances: Vec<i64>, cells: usize) -> FailureProfile {
        FailureProfile {
            victim_count: cells,
            discovery_rounds: 1,
            tests_per_level: vec![1],
            recursion_tests: 1,
            distances,
            chipwide_rounds: 1,
            failures: (0..cells)
                .map(|i| FailingCell {
                    unit: 0,
                    bank: 0,
                    row: i as u32,
                    col: 0,
                    value: i % 2 == 0,
                })
                .collect(),
        }
    }

    #[test]
    fn rollups_accumulate() {
        let mut b = AggregateBuilder::new();
        b.add("A1", &profile(vec![-8, 1], 3));
        b.add("A2", &profile(vec![1, 8], 5));
        b.add("B1", &profile(vec![1], 0));
        let agg = b.finish();
        assert_eq!(agg.modules, 3);
        assert_eq!(agg.total_failures, 8);
        assert_eq!(agg.distance_counts[&1], 3);
        assert_eq!(agg.distance_counts[&-8], 1);
        assert_eq!(agg.distinct_distances, 3);
        assert_eq!(agg.vendors["A"].modules, 2);
        assert_eq!(agg.vendors["A"].failures, 8);
        assert_eq!(agg.vendors["B"].modules, 1);
        assert!((agg.vendors["A"].mean_failures - 4.0).abs() < 1e-9);
        assert_eq!(agg.failures_per_module.count, 3);
    }

    #[test]
    fn vendor_prefix_is_the_alphabetic_run() {
        let mut b = AggregateBuilder::new();
        b.add("Avendor3", &profile(vec![], 1));
        b.add("7odd", &profile(vec![], 1));
        let agg = b.finish();
        assert_eq!(agg.vendors["Avendor"].modules, 1);
        assert_eq!(agg.vendors["?"].modules, 1);
    }
}
