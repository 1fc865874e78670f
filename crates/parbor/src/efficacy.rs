//! Mechanism-efficacy harness: pipeline detection scored against ground truth.
//!
//! The simulator knows exactly which cells each [`FailureMechanism`] can
//! fail — the coupling model through its fault maps, the composable extras
//! (RowHammer, RowPress, retention drift) through their seeded
//! susceptibility hashes. This module runs the *full* PARBOR pipeline
//! against one mechanism at a time and scores the chip-wide detection set
//! per cell: true/false positives against the mechanism's truth set,
//! precision, recall.
//!
//! Two kinds of run make up the matrix:
//!
//! * **`coupling`** — the vendor's stock device model, no extras. Truth is
//!   the data-dependent oracle ([`oracle_data_dependent`]); the pipeline is
//!   *designed* for this population, so recall is pinned at 1.0 by tests.
//! * **one extra mechanism** — the coupling rates are zeroed and a single
//!   extra mechanism installed, so every observed flip is that mechanism's.
//!   The pipeline was never designed for these populations; the harness
//!   reports how much of each it still catches. A pipeline abort (no
//!   victims survive discovery, no distances survive filtering) is a
//!   legitimate outcome — the score records the error and zero detections.
//!
//! [`FailureMechanism`]: parbor_hal::FailureMechanism
//! [`oracle_data_dependent`]: parbor_dram::DramChip::oracle_data_dependent

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use parbor_dram::{ChipGeometry, FaultRates, ModuleConfig, ModuleId, RowId, Vendor};
use parbor_hal::{BitAddr, MechanismSpec, TestPort};
use parbor_obs::{metrics, RecorderHandle};

use crate::{Parbor, ParborConfig, ParborError};

/// Configuration of one efficacy sweep.
#[derive(Debug, Clone)]
pub struct EfficacyConfig {
    /// Vendor families to run the matrix over.
    pub vendors: Vec<Vendor>,
    /// Per-chip geometry (kept small: the matrix runs the full pipeline
    /// once per cell).
    pub geometry: ChipGeometry,
    /// Chips per module.
    pub chips: usize,
    /// Module fault seed.
    pub seed: u64,
    /// The extra mechanisms to score, one pipeline run each. The coupling
    /// model is always scored first and needs no spec.
    pub extras: Vec<MechanismSpec>,
    /// Pipeline configuration for every run.
    pub parbor: ParborConfig,
}

impl Default for EfficacyConfig {
    fn default() -> Self {
        EfficacyConfig {
            vendors: vec![Vendor::A, Vendor::B, Vendor::C],
            geometry: ChipGeometry::new(1, 128, 1024).expect("static geometry"),
            chips: 1,
            seed: 5,
            extras: MechanismSpec::parse_stack("hammer;press;drift")
                .expect("static mechanism stack"),
            parbor: ParborConfig::default(),
        }
    }
}

/// Per-cell detection score of one `(vendor, mechanism)` pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismScore {
    /// Vendor family (`"A"`, `"B"`, `"C"`).
    pub vendor: String,
    /// Mechanism name (`"coupling"`, `"hammer"`, `"press"`, `"drift"`).
    pub mechanism: String,
    /// Cells the mechanism can fail (per-unit, summed over the module).
    pub truth_cells: usize,
    /// Cells the chip-wide test reported failing.
    pub detected_cells: usize,
    /// Detected cells inside the truth set.
    pub true_positives: usize,
    /// Detected cells outside the truth set.
    pub false_positives: usize,
    /// Truth cells the pipeline missed.
    pub false_negatives: usize,
    /// `TP / (TP + FP)`; 1.0 when nothing was detected.
    pub precision: f64,
    /// `TP / (TP + FN)`; 1.0 when the truth set is empty.
    pub recall: f64,
    /// The pipeline abort that ended this run, if any (zeros above).
    pub error: Option<String>,
}

/// The matrix of scores an efficacy sweep produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficacyReport {
    /// One score per `(vendor, mechanism)` run, vendors outer.
    pub scores: Vec<MechanismScore>,
}

impl EfficacyReport {
    /// The score of one `(vendor, mechanism)` cell, if it was run.
    pub fn score(&self, vendor: Vendor, mechanism: &str) -> Option<&MechanismScore> {
        self.scores
            .iter()
            .find(|s| s.vendor == vendor.to_string() && s.mechanism == mechanism)
    }
}

/// Runs the full matrix: for every vendor, the coupling model plus each
/// configured extra mechanism, one pipeline run per cell.
///
/// # Errors
///
/// Returns module-construction errors ([`ParborError::Device`]). Pipeline
/// aborts inside a run are *not* errors — they are recorded in that run's
/// [`MechanismScore::error`].
pub fn run_efficacy(
    config: &EfficacyConfig,
    rec: &RecorderHandle,
) -> Result<EfficacyReport, ParborError> {
    let mut scores = Vec::new();
    for &vendor in &config.vendors {
        scores.push(score_coupling(config, vendor, rec)?);
        for spec in &config.extras {
            scores.push(score_extra(config, vendor, spec, rec)?);
        }
    }
    Ok(EfficacyReport { scores })
}

/// Scores the vendor's stock coupling model against the data-dependent
/// oracle.
fn score_coupling(
    config: &EfficacyConfig,
    vendor: Vendor,
    rec: &RecorderHandle,
) -> Result<MechanismScore, ParborError> {
    let mut module = ModuleConfig::new(vendor)
        .geometry(config.geometry)
        .chips(config.chips)
        .seed(config.seed)
        .module_id(ModuleId(0))
        .build()?;
    let detected = run_pipeline(config, &mut module);
    let mut truth: HashSet<(u32, BitAddr)> = HashSet::new();
    let units = module.chips().len();
    for (unit, chip) in module.chips_mut().iter_mut().enumerate() {
        for row in chip_rows(&config.geometry) {
            for (col, _) in chip.oracle_data_dependent(row) {
                truth.insert((unit as u32, BitAddr::new(row.bank, row.row, col)));
            }
        }
    }
    debug_assert_eq!(units, config.chips);
    Ok(score(vendor, "coupling", truth, detected, rec))
}

/// Scores one extra mechanism in isolation: coupling rates zeroed, the
/// mechanism installed, truth from its susceptibility hash.
fn score_extra(
    config: &EfficacyConfig,
    vendor: Vendor,
    spec: &MechanismSpec,
    rec: &RecorderHandle,
) -> Result<MechanismScore, ParborError> {
    let silent = FaultRates {
        interesting: 0.0,
        marginal: 0.0,
        vrt: 0.0,
        soft_per_bit_per_round: 0.0,
        ..vendor.default_rates()
    };
    let mut module = ModuleConfig::new(vendor)
        .geometry(config.geometry)
        .chips(config.chips)
        .seed(config.seed)
        .module_id(ModuleId(0))
        .fault_rates(silent)
        .mechanisms(vec![spec.clone()])
        .build()?;
    let detected = run_pipeline(config, &mut module);
    // Mechanism susceptibility keys on (mechanism seed, bank, row, col) —
    // not the chip seed — so every unit shares one per-row truth set.
    let mech = spec.build();
    let mut truth: HashSet<(u32, BitAddr)> = HashSet::new();
    for row in chip_rows(&config.geometry) {
        for col in mech.truth(row.bank, row.row, config.geometry.cols_per_row) {
            for unit in 0..config.chips as u32 {
                truth.insert((unit, BitAddr::new(row.bank, row.row, col)));
            }
        }
    }
    Ok(score(vendor, mech.name(), truth, detected, rec))
}

/// Runs the pipeline over a module, mapping aborts to the score's error
/// channel (empty detection set).
fn run_pipeline<P: TestPort>(
    config: &EfficacyConfig,
    port: &mut P,
) -> Result<HashSet<(u32, BitAddr)>, String> {
    Parbor::new(config.parbor.clone())
        .run(port)
        .map(|report| report.chipwide.failing_bits())
        .map_err(|e| e.to_string())
}

fn chip_rows(geometry: &ChipGeometry) -> impl Iterator<Item = RowId> + '_ {
    (0..geometry.banks)
        .flat_map(move |bank| (0..geometry.rows_per_bank).map(move |row| RowId::new(bank, row)))
}

/// Folds a run's detection and truth sets into a [`MechanismScore`], and
/// publishes the `efficacy.*` counters.
fn score(
    vendor: Vendor,
    mechanism: &str,
    truth: HashSet<(u32, BitAddr)>,
    detected: Result<HashSet<(u32, BitAddr)>, String>,
    rec: &RecorderHandle,
) -> MechanismScore {
    let (detected, error) = match detected {
        Ok(set) => (set, None),
        Err(e) => (HashSet::new(), Some(e)),
    };
    let true_positives = detected.intersection(&truth).count();
    let false_positives = detected.len() - true_positives;
    let false_negatives = truth.len() - true_positives;
    let precision = if detected.is_empty() {
        1.0
    } else {
        true_positives as f64 / detected.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        true_positives as f64 / truth.len() as f64
    };
    rec.incr(metrics::efficacy::RUNS, 1);
    rec.incr(metrics::efficacy::TRUE_POSITIVES, true_positives as u64);
    rec.incr(metrics::efficacy::FALSE_POSITIVES, false_positives as u64);
    rec.incr(metrics::efficacy::FALSE_NEGATIVES, false_negatives as u64);
    MechanismScore {
        vendor: vendor.to_string(),
        mechanism: mechanism.to_string(),
        truth_cells: truth.len(),
        detected_cells: detected.len(),
        true_positives,
        false_positives,
        false_negatives,
        precision,
        recall,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_obs::ShardedRecorder;

    fn tiny_config() -> EfficacyConfig {
        EfficacyConfig {
            vendors: vec![Vendor::A],
            geometry: ChipGeometry::new(1, 128, 1024).unwrap(),
            chips: 1,
            seed: 5,
            extras: Vec::new(),
            parbor: ParborConfig::default(),
        }
    }

    #[test]
    fn coupling_recall_is_pinned_at_one() {
        // The chip-wide test drives every cell through its worst case, so
        // every data-dependent cell in the oracle must be caught.
        let report = run_efficacy(&tiny_config(), &RecorderHandle::null()).unwrap();
        let score = report.score(Vendor::A, "coupling").unwrap();
        assert!(score.truth_cells > 0, "oracle empty: {score:?}");
        assert_eq!(score.recall, 1.0, "coupling recall not pinned: {score:?}");
        assert_eq!(score.false_negatives, 0);
        assert!(score.error.is_none());
    }

    #[test]
    fn inert_extra_scores_zero_detections_without_panicking() {
        // A rate-0 hammer on a silenced device gives the pipeline nothing
        // to find; the run must record the abort, not crash the sweep.
        let mut config = tiny_config();
        config.extras = vec![MechanismSpec::parse("hammer=rate:0").unwrap()];
        let report = run_efficacy(&config, &RecorderHandle::null()).unwrap();
        let score = report.score(Vendor::A, "hammer").unwrap();
        assert_eq!(score.detected_cells, 0);
        assert_eq!(score.truth_cells, 0);
        assert_eq!((score.precision, score.recall), (1.0, 1.0));
        assert!(score.error.is_some(), "expected a pipeline abort");
    }

    #[test]
    fn efficacy_counters_are_published() {
        let recorder = ShardedRecorder::handle();
        let report = run_efficacy(&tiny_config(), &RecorderHandle::from(recorder.clone())).unwrap();
        let score = report.score(Vendor::A, "coupling").unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("efficacy.runs"), 1);
        assert_eq!(
            snap.counter("efficacy.true_positives"),
            score.true_positives as u64
        );
        // Every name the harness (and the devices under it) emitted must be
        // in the obs registry — an unregistered emission fails here instead
        // of silently vanishing from dashboards.
        let unregistered: Vec<String> = snap
            .metric_names()
            .into_iter()
            .filter(|name| !parbor_obs::metrics::is_registered(name))
            .collect();
        assert!(
            unregistered.is_empty(),
            "efficacy run emitted unregistered metric names {unregistered:?}"
        );
    }

    #[test]
    fn report_serde_round_trips() {
        let report = EfficacyReport {
            scores: vec![MechanismScore {
                vendor: "A".into(),
                mechanism: "hammer".into(),
                truth_cells: 10,
                detected_cells: 8,
                true_positives: 7,
                false_positives: 1,
                false_negatives: 3,
                precision: 0.875,
                recall: 0.7,
                error: None,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: EfficacyReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
