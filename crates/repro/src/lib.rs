//! # parbor-repro — shared harness for regenerating the paper's results
//!
//! One binary per table/figure lives in `src/bin/`; this library holds the
//! pieces they share: the seeding of the simulated 18-module fleet (six
//! modules per vendor, as in the paper's §6), the equal-budget
//! PARBOR-vs-random comparison of §7.2, a figure timer, and a table-row
//! formatter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::sync::Arc;

use parbor_core::{random_pattern_test, Parbor, ParborConfig, ParborError};
use parbor_dram::{BitAddr, ChipGeometry, DramError, DramModule, ModuleConfig, ModuleId, Vendor};
use parbor_obs::metrics;
use parbor_obs::{Recorder, RecorderHandle, ShardedRecorder, SpanId};

pub mod servecli;

/// A failing bit observed through a module test port: (chip, address).
pub type FailBit = (u32, BitAddr);

/// Builds one module of the fleet (used to get a fresh, untested copy with
/// an identical fault population for equal-budget comparisons).
///
/// # Errors
///
/// Propagates configuration errors from the module builder.
pub fn build_module(
    vendor: Vendor,
    idx: u32,
    geometry: ChipGeometry,
) -> Result<DramModule, DramError> {
    let seed = 0x000F_1EE7_0000
        + u64::from(idx) * 997
        + match vendor {
            Vendor::A => 1,
            Vendor::B => 2,
            Vendor::C => 3,
        } * 131_071;
    // Per-module process variation: modules of one vendor differ in how
    // vulnerable they are (the paper's Fig 12 shows a wide within-vendor
    // spread), so jitter the coupling-population rate by ×0.5–1.5.
    let mut rates = vendor.default_rates();
    let jitter =
        0.5 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64;
    rates.interesting *= jitter;
    ModuleConfig::new(vendor)
        .geometry(geometry)
        .module_id(ModuleId(idx))
        .seed(seed)
        .fault_rates(rates)
        .build()
}

/// The result of running PARBOR and the equal-budget random baseline on one
/// module (paper §7.2).
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Module name (e.g. `A1`).
    pub module: String,
    /// PARBOR's full report.
    pub parbor_rounds: usize,
    /// Failures PARBOR's campaign detected (discovery + chip-wide rounds).
    pub parbor_failures: HashSet<FailBit>,
    /// Failures the equal-budget random-pattern test detected.
    pub random_failures: HashSet<FailBit>,
    /// The discovered neighbor distances.
    pub distances: Vec<i64>,
}

impl Comparison {
    /// Failures only PARBOR found.
    pub fn only_parbor(&self) -> usize {
        self.parbor_failures
            .difference(&self.random_failures)
            .count()
    }

    /// Failures only the random test found.
    pub fn only_random(&self) -> usize {
        self.random_failures
            .difference(&self.parbor_failures)
            .count()
    }

    /// Failures both found.
    pub fn both(&self) -> usize {
        self.parbor_failures
            .intersection(&self.random_failures)
            .count()
    }

    /// All distinct failures found by either method.
    pub fn union(&self) -> usize {
        self.parbor_failures.union(&self.random_failures).count()
    }

    /// Percentage increase in detected failures from adding PARBOR to the
    /// random baseline (the Fig 12 line).
    pub fn percent_increase(&self) -> f64 {
        let r = self.random_failures.len();
        if r == 0 {
            return 0.0;
        }
        self.only_parbor() as f64 * 100.0 / r as f64
    }
}

/// Runs PARBOR on a fresh copy of the module and the random baseline (with
/// exactly PARBOR's round budget) on another fresh copy.
///
/// # Errors
///
/// Propagates device and pipeline errors.
pub fn compare_parbor_vs_random(
    vendor: Vendor,
    idx: u32,
    geometry: ChipGeometry,
) -> Result<Comparison, ParborError> {
    let mut module = build_module(vendor, idx, geometry)?;
    let name = module.name();
    let parbor = Parbor::new(ParborConfig::default());

    // PARBOR campaign. Discovery flips count toward its detected set — the
    // discovery rounds are part of its budget.
    let victims = parbor.discover(&mut module)?;
    let mut parbor_failures: HashSet<FailBit> = victims
        .victims()
        .iter()
        .map(|v| (v.unit, BitAddr::new(v.row.bank, v.row.row, v.col)))
        .collect();
    let recursion = parbor.locate(&mut module, &victims)?;
    let chipwide = parbor.chip_test(&mut module, &recursion.distances)?;
    parbor_failures.extend(chipwide.failing.keys().copied());
    let budget = 10 + recursion.total_tests + chipwide.rounds;

    // Equal-budget random baseline on an identical fresh module.
    let mut fresh = build_module(vendor, idx, geometry)?;
    let rows: Vec<_> = geometry.rows().collect();
    let random = random_pattern_test(&mut fresh, &rows, budget, 0xBAD5EED ^ u64::from(idx))?;

    Ok(Comparison {
        module: name,
        parbor_rounds: budget,
        parbor_failures,
        random_failures: random.failing,
        distances: recursion.distances,
    })
}

/// Times one figure-regeneration binary with the observability spans and
/// prints a one-line summary to stderr when dropped (normally at the end of
/// `main`), so slow figure scripts are visible at a glance without
/// perturbing the archived stdout in `results/*.txt`.
pub struct FigureTimer {
    rec: Arc<ShardedRecorder>,
    span: SpanId,
    label: String,
}

impl FigureTimer {
    /// Starts timing; `label` is the binary name (e.g. `"fig13_coverage"`).
    pub fn start(label: impl Into<String>) -> Self {
        let rec = ShardedRecorder::handle();
        let span = rec.span_enter(metrics::figure::RUN, None);
        FigureTimer {
            rec,
            span,
            label: label.into(),
        }
    }

    /// A recorder handle for threading into pipelines run under this timer,
    /// so their counters and spans land in the same trace.
    pub fn recorder(&self) -> RecorderHandle {
        RecorderHandle::from(Arc::clone(&self.rec))
    }
}

impl Drop for FigureTimer {
    fn drop(&mut self) {
        self.rec.span_exit(self.span);
        let spans = self.rec.snapshot().spans;
        let us = spans
            .iter()
            .find(|s| s.id == self.span)
            .map(|s| s.duration_us())
            .unwrap_or(0);
        eprintln!(
            "[timing] {}: {}.{:03} s ({} spans recorded)",
            self.label,
            us / 1_000_000,
            (us / 1000) % 1000,
            spans.len(),
        );
    }
}

/// Formats a row of fixed-width columns for plain-text tables.
pub fn table_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_on_small_module_favors_parbor() {
        let g = ChipGeometry::new(1, 96, 8192).unwrap();
        let cmp = compare_parbor_vs_random(Vendor::C, 1, g).unwrap();
        assert!(cmp.only_parbor() > 0, "PARBOR found nothing unique");
        assert!(
            cmp.parbor_failures.len() > cmp.random_failures.len() / 2,
            "PARBOR implausibly behind"
        );
        assert_eq!(cmp.distances, vec![-49, -33, -16, 16, 33, 49]);
    }

    #[test]
    fn table_row_aligns() {
        let row = table_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }
}
