//! A checkpointable, resumable form of the PARBOR pipeline, and the one
//! sequencer of its stages.
//!
//! [`Parbor::run`](crate::Parbor::run) is a [`ScanMachine`] run to
//! completion inside one process. A *deployed* profiler instead runs where
//! memory stays in service (paper §1, §3, §VII): between test rounds the
//! system serves traffic, and a long campaign must survive interruption.
//! The orchestrator in `parbor-fleet` periodically persists a [`ScanState`]
//! and, after a crash, rebuilds the device from its spec, fast-forwards its
//! round clock, and continues from the exact round where the checkpoint
//! was taken.
//!
//! [`ScanMachine`] makes that possible by exposing the pipeline as a state
//! machine advanced in bounded round batches; `advance(port, 1)` runs one
//! write→wait→read round per call, one maintenance slot at a time. Each
//! stage's checkpointable state — [`DiscoverState`](crate::DiscoverState),
//! [`RecursionState`], [`ChipwideState`](crate::ChipwideState) — lives next
//! to its stage and is the only code that runs that stage's rounds; the
//! stage entry points of [`Parbor`](crate::Parbor) step the same states
//! with an unbounded budget. Resume is bit-identical because every round's
//! content is a pure function of the config and the state accumulated so
//! far, and the simulated device's behavior is a pure function of its spec
//! plus the round counter (see
//! [`DramModule::fast_forward`](parbor_dram::DramModule::fast_forward)).
//!
//! ```
//! use parbor_core::{ParborConfig, ScanMachine};
//! use parbor_dram::{ChipGeometry, DramChip, Vendor};
//!
//! # fn main() -> Result<(), parbor_core::ParborError> {
//! let mut chip = DramChip::new(ChipGeometry::new(1, 64, 8192)?, Vendor::A, 1)?;
//! let mut machine = ScanMachine::new(ParborConfig::default());
//! while !machine.is_done() {
//!     machine.advance(&mut chip, 8)?; // checkpoint machine.state() here
//! }
//! assert!(!machine.profile().expect("done").failures.is_empty());
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use parbor_hal::hash::Mix64Map;
use parbor_hal::TestPort;
use parbor_obs::RecorderHandle;

use crate::chipwide::{ChipwideState, ChipwideTest};
use crate::error::ParborError;
use crate::pipeline::{Parbor, ParborConfig, ParborReport};
use crate::recursion::{RecursionOutcome, RecursionState};
use crate::victim::{DiscoverState, Victim, VictimKey};

/// One failing cell of a finished scan, with the polarity it failed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FailingCell {
    /// Unit (chip) index.
    pub unit: u32,
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// System column of the cell.
    pub col: u32,
    /// The data the cell held when it failed (its charged polarity) — what
    /// DC-REF's content check needs.
    pub value: bool,
}

/// The serializable end product of one scan — what the fleet's profile
/// store persists and the DC-REF/mitigation path reads back.
///
/// Equivalent to a [`ParborReport`] with the failing map flattened into a
/// list of cells in the map's (unit, bank, row, col) order (the report's
/// map is keyed by tuples, which do not serialize as JSON object keys).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureProfile {
    /// Victims found by discovery.
    pub victim_count: usize,
    /// Rounds spent on discovery (10 in the paper's setup).
    pub discovery_rounds: usize,
    /// Recursion rounds per level, coarsest first (one Table 1 row).
    pub tests_per_level: Vec<usize>,
    /// Total recursion rounds (Table 1's rightmost column).
    pub recursion_tests: usize,
    /// Final signed neighbor distances in bits.
    pub distances: Vec<i64>,
    /// Chip-wide test rounds including the inverse-polarity pass.
    pub chipwide_rounds: usize,
    /// Every distinct failing cell, sorted by (unit, bank, row, col).
    pub failures: Vec<FailingCell>,
}

impl FailureProfile {
    /// Flattens a pipeline report into a profile. The report's failing map
    /// is already in (unit, bank, row, col) order.
    pub fn from_report(report: &ParborReport) -> Self {
        let failures = report
            .chipwide
            .failing
            .iter()
            .map(|(&(unit, addr), &value)| FailingCell {
                unit,
                bank: addr.bank,
                row: addr.row,
                col: addr.col,
                value,
            })
            .collect();
        FailureProfile {
            victim_count: report.victim_count,
            discovery_rounds: report.discovery_rounds,
            tests_per_level: report.recursion.tests_per_level(),
            recursion_tests: report.recursion.total_tests,
            distances: report.recursion.distances.clone(),
            chipwide_rounds: report.chipwide.rounds,
            failures,
        }
    }

    /// Total rounds across all phases (the paper's test budget).
    pub fn total_rounds(&self) -> usize {
        self.discovery_rounds + self.recursion_tests + self.chipwide_rounds
    }

    /// Number of distinct failing cells.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }
}

/// Which pipeline stage a [`ScanState`] is in, with that stage's progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageState {
    /// Step 1: victim discovery.
    Discover {
        /// Discovery progress.
        state: DiscoverState,
    },
    /// Steps 2–4: the recursion over the selected victims.
    Recursion {
        /// Victims found by discovery (the full population's size).
        victim_count: usize,
        /// Victims selected for the recursion (one per unit/row).
        selected: Vec<Victim>,
        /// Recursion progress.
        state: RecursionState,
    },
    /// Step 5: the neighbor-aware chip-wide test.
    Chipwide {
        /// Victims found by discovery.
        victim_count: usize,
        /// The finished recursion outcome.
        recursion: RecursionOutcome,
        /// Chip-wide progress.
        state: ChipwideState,
    },
    /// All stages finished.
    Done {
        /// The final profile.
        profile: FailureProfile,
    },
}

/// The complete checkpointable state of one scan: the config it runs under,
/// the port rounds executed so far, and the active stage's progress.
///
/// Serializing this (the shims' `serde` derives) and deserializing it in
/// another process loses nothing: a [`ScanMachine`] rebuilt from the state —
/// against a port fast-forwarded by [`rounds_done`](Self::rounds_done) —
/// continues bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanState {
    /// The scan's pipeline configuration.
    pub config: ParborConfig,
    /// Port rounds executed so far (the device fast-forward amount on
    /// resume).
    pub rounds_done: u64,
    /// The active stage and its progress.
    pub stage: StageState,
}

impl ScanState {
    /// A fresh state positioned before discovery round 0.
    pub fn new(config: ParborConfig) -> Self {
        ScanState {
            config,
            rounds_done: 0,
            stage: StageState::Discover {
                state: DiscoverState::default(),
            },
        }
    }

    /// Short name of the active stage (`discover`, `recursion`, `chipwide`,
    /// `done`).
    pub fn stage_name(&self) -> &'static str {
        match &self.stage {
            StageState::Discover { .. } => "discover",
            StageState::Recursion { .. } => "recursion",
            StageState::Chipwide { .. } => "chipwide",
            StageState::Done { .. } => "done",
        }
    }
}

/// Drives a [`ScanState`] against a [`TestPort`] in bounded round batches.
///
/// [`Parbor::run`] is this machine run to completion, so the two run the
/// same rounds in the same order; the machine can also stop between any
/// two rounds and continue later, in this process or another (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct ScanMachine {
    state: ScanState,
    /// The state's config, the recorder, and the one arena every stage
    /// shares (a pure performance device, never checkpointed).
    pipeline: Parbor,
    /// Built at each transition, rebuilt lazily after a resume.
    cache: StageCache,
}

/// What the active stage derives from its checkpointed state.
#[derive(Debug, Clone)]
enum StageCache {
    /// Nothing built yet.
    Empty,
    /// The recursion's flip-attribution lookup.
    Recursion(Mix64Map<VictimKey, usize>),
    /// The chip-wide test and its round schedule.
    Chipwide(ChipwideTest),
    /// The report the chip-wide → done transition built.
    Done(ParborReport),
}

impl ScanMachine {
    /// A machine at the start of a fresh scan.
    pub fn new(config: ParborConfig) -> Self {
        Self::for_pipeline(Parbor::new(config))
    }

    /// A machine at the start of a fresh scan of `pipeline`'s config,
    /// sharing its recorder and arena.
    pub(crate) fn for_pipeline(pipeline: Parbor) -> Self {
        ScanMachine {
            state: ScanState::new(pipeline.config().clone()),
            pipeline,
            cache: StageCache::Empty,
        }
    }

    /// A machine resuming from a checkpointed state.
    ///
    /// The port passed to [`advance`](Self::advance) must be in the same
    /// device state as when the checkpoint was taken — for a simulated
    /// module, rebuilt from its spec and fast-forwarded by
    /// [`ScanState::rounds_done`].
    pub fn from_state(state: ScanState) -> Self {
        ScanMachine {
            pipeline: Parbor::new(state.config.clone()),
            state,
            cache: StageCache::Empty,
        }
    }

    /// Attaches a metrics recorder (stage counters and one `pipeline.*`
    /// span per stage step).
    pub fn with_recorder(self, rec: RecorderHandle) -> Self {
        ScanMachine {
            pipeline: self.pipeline.with_recorder(rec),
            ..self
        }
    }

    /// The current state (what a checkpoint persists).
    pub fn state(&self) -> &ScanState {
        &self.state
    }

    /// Port rounds executed so far.
    pub fn rounds_done(&self) -> u64 {
        self.state.rounds_done
    }

    /// Whether every stage has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.state.stage, StageState::Done { .. })
    }

    /// The final profile, once [`is_done`](Self::is_done).
    pub fn profile(&self) -> Option<&FailureProfile> {
        match &self.state.stage {
            StageState::Done { profile } => Some(profile),
            _ => None,
        }
    }

    /// The full report, if this machine ran the chip-wide stage to its end
    /// (a machine resumed from a finished checkpoint has only the profile).
    pub(crate) fn into_report(self) -> Option<ParborReport> {
        match self.cache {
            StageCache::Done(report) => Some(report),
            _ => None,
        }
    }

    /// Executes up to `budget` rounds of the active stage; when a stage's
    /// last round completes, transitions to the next stage (transitions
    /// cost zero rounds, so the checkpoint after a transition already holds
    /// the next stage's initial state). Returns the rounds executed — `0`
    /// once done.
    ///
    /// # Errors
    ///
    /// * [`ParborError::NoVictims`] when discovery completes empty.
    /// * [`ParborError::NoDistances`] when the recursion filters everything.
    /// * [`ParborError::InvalidConfig`] naming the field when a resumed
    ///   state contradicts its stage (a round cursor or recursion level out
    ///   of range, or per-victim vectors that do not match the selection).
    /// * Device errors from the port. The state is dead after an error.
    pub fn advance<P: TestPort + ?Sized>(
        &mut self,
        port: &mut P,
        budget: usize,
    ) -> Result<usize, ParborError> {
        let pipeline = &self.pipeline;
        let executed = match &mut self.state.stage {
            StageState::Discover { state } => {
                let (executed, victims) = state.step(pipeline, port, budget)?;
                if let Some(victims) = victims {
                    let (selected, state, lookup) = pipeline.start_recursion(port, &victims)?;
                    self.state.stage = StageState::Recursion {
                        victim_count: victims.len(),
                        selected,
                        state,
                    };
                    self.cache = StageCache::Recursion(lookup);
                }
                executed
            }
            StageState::Recursion {
                victim_count,
                selected,
                state,
            } => {
                if !matches!(self.cache, StageCache::Recursion(_)) {
                    self.cache = StageCache::Recursion(RecursionState::victim_lookup(selected));
                }
                let StageCache::Recursion(lookup) = &self.cache else {
                    unreachable!("the recursion lookup was just built")
                };
                let (executed, outcome) = state.step(pipeline, port, selected, lookup, budget)?;
                if let Some(recursion) = outcome {
                    let test = pipeline.chipwide_test(port, &recursion.distances)?;
                    self.state.stage = StageState::Chipwide {
                        victim_count: *victim_count,
                        recursion,
                        state: ChipwideState::default(),
                    };
                    self.cache = StageCache::Chipwide(test);
                }
                executed
            }
            StageState::Chipwide {
                victim_count,
                recursion,
                state,
            } => {
                if !matches!(self.cache, StageCache::Chipwide(_)) {
                    let test = pipeline.chipwide_test(port, &recursion.distances)?;
                    self.cache = StageCache::Chipwide(test);
                }
                let StageCache::Chipwide(test) = &self.cache else {
                    unreachable!("the chip-wide test was just built")
                };
                let (executed, outcome) = state.step(pipeline, test, port, budget)?;
                if let Some(chipwide) = outcome {
                    let (report, profile) =
                        pipeline.finish(*victim_count, recursion.clone(), chipwide);
                    self.state.stage = StageState::Done { profile };
                    self.cache = StageCache::Done(report);
                }
                executed
            }
            StageState::Done { .. } => 0,
        };
        self.state.rounds_done += executed as u64;
        Ok(executed)
    }

    /// Runs the remaining stages to completion and returns the profile.
    ///
    /// # Errors
    ///
    /// See [`advance`](Self::advance).
    pub fn run_to_completion<P: TestPort + ?Sized>(
        &mut self,
        port: &mut P,
    ) -> Result<&FailureProfile, ParborError> {
        while !self.is_done() {
            self.advance(port, usize::MAX)?;
        }
        Ok(self.profile().expect("machine is done"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Parbor;
    use parbor_dram::{ChipGeometry, DramChip, ModuleSpec, Vendor};

    fn fresh_chip(vendor: Vendor, seed: u64) -> DramChip {
        DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), vendor, seed).unwrap()
    }

    #[test]
    fn stage_entry_points_match_the_machine() {
        // The entry-point path a caller timing each stage takes: discover →
        // locate → chip_test, then the report and profile assembled by hand.
        for (vendor, seed) in [(Vendor::A, 1), (Vendor::B, 1), (Vendor::C, 2)] {
            let config = ParborConfig::default();
            let parbor = Parbor::new(config.clone());
            let mut chip = fresh_chip(vendor, seed);
            let victims = parbor.discover(&mut chip).unwrap();
            let recursion = parbor.locate(&mut chip, &victims).unwrap();
            let chipwide = parbor.chip_test(&mut chip, &recursion.distances).unwrap();
            let staged = FailureProfile::from_report(&ParborReport {
                victim_count: victims.len(),
                discovery_rounds: crate::VictimScout::new(config.discovery_seed).rounds(),
                recursion,
                chipwide,
            });

            let report = parbor.run(&mut fresh_chip(vendor, seed)).unwrap();
            assert_eq!(FailureProfile::from_report(&report), staged, "{vendor:?}");
            let mut machine = ScanMachine::new(config);
            let profile = machine
                .run_to_completion(&mut fresh_chip(vendor, seed))
                .unwrap();
            assert_eq!(profile, &staged, "{vendor:?}");
            assert_eq!(machine.into_report(), Some(report), "{vendor:?}");
        }
    }

    #[test]
    fn single_round_stepping_matches_batched() {
        let config = ParborConfig::default();
        let mut machine = ScanMachine::new(config.clone());
        let batched = machine
            .run_to_completion(&mut fresh_chip(Vendor::A, 3))
            .unwrap()
            .clone();

        let mut stepped = ScanMachine::new(config);
        let mut chip = fresh_chip(Vendor::A, 3);
        let mut rounds = 0u64;
        while !stepped.is_done() {
            rounds += stepped.advance(&mut chip, 1).unwrap() as u64;
        }
        assert_eq!(stepped.rounds_done(), rounds);
        assert_eq!(chip.rounds_run(), rounds);
        assert_eq!(stepped.profile().unwrap(), &batched);
    }

    #[test]
    fn any_step_budget_gives_the_same_stage_boundaries() {
        // Budgets of 1 and 3 rounds merge most steps' flips into a
        // non-empty discovery or chip-wide map; whole stages bulk-build
        // each map from one step.
        use std::collections::BTreeMap;
        let spec = ModuleSpec {
            chips: 2,
            geometry: ChipGeometry::new(1, 48, 8192).unwrap(),
            seed: 5,
            ..ModuleSpec::new(Vendor::A)
        };
        // The state JSON at every stage boundary, the digest of the state
        // JSON after every step (by rounds run), and the profile.
        let run = |budget: usize| {
            let mut machine = ScanMachine::new(ParborConfig::default());
            let mut module = spec.build().unwrap();
            let mut boundaries = Vec::new();
            let mut digests = BTreeMap::new();
            while !machine.is_done() {
                let stage = machine.state().stage_name();
                machine.advance(&mut module, budget).unwrap();
                let json = serde_json::to_string(machine.state()).unwrap();
                digests.insert(
                    machine.rounds_done(),
                    parbor_hal::hash::fnv1a64(json.as_bytes()),
                );
                if machine.state().stage_name() != stage {
                    boundaries.push(json);
                }
            }
            let profile = machine.profile().unwrap().clone();
            (boundaries, digests, profile)
        };
        let (whole, _, profile) = run(usize::MAX);
        assert_eq!(whole.len(), 3, "discover, recursion and chip-wide end");
        let (single, every_round, single_profile) = run(1);
        assert_eq!(single, whole, "budget 1");
        assert_eq!(single_profile, profile, "budget 1");
        let (triple, digests, triple_profile) = run(3);
        assert_eq!(triple, whole, "budget 3");
        assert_eq!(triple_profile, profile, "budget 3");
        // Mid-stage too: every state of the 3-round steps is the state the
        // 1-round steps reached after as many rounds.
        for (rounds, digest) in digests {
            assert_eq!(every_round[&rounds], digest, "after {rounds} rounds");
        }
    }

    #[test]
    fn checkpoint_resume_mid_scan_is_bit_identical() {
        // Interrupt after an arbitrary prefix, serialize the state, rebuild
        // a *fresh* device fast-forwarded by the rounds run, and finish.
        let spec = ModuleSpec {
            chips: 2,
            geometry: ChipGeometry::new(1, 48, 8192).unwrap(),
            seed: 77,
            ..ModuleSpec::new(Vendor::B)
        };
        let config = ParborConfig::default();
        let mut clean = ScanMachine::new(config.clone());
        let expected = clean
            .run_to_completion(&mut spec.build().unwrap())
            .unwrap()
            .clone();

        for (k, stage) in [
            (1usize, "discover"),
            (7, "discover"),
            (11, "recursion"),
            (40, "recursion"),
            (80, "chipwide"), // rebuilds the chip-wide test on resume
        ] {
            let mut machine = ScanMachine::new(config.clone());
            let mut module = spec.build().unwrap();
            let mut left = k;
            while left > 0 && !machine.is_done() {
                left -= machine.advance(&mut module, left).unwrap().min(left);
                if machine.rounds_done() as usize >= k {
                    break;
                }
            }
            assert_eq!(machine.state().stage_name(), stage, "after {k} rounds");
            // "Crash": keep only the serialized state.
            let json = serde_json::to_string(machine.state()).unwrap();
            drop(machine);
            drop(module);

            let state: ScanState = serde_json::from_str(&json).unwrap();
            let mut resumed = ScanMachine::from_state(state);
            let mut module = spec.build().unwrap();
            module.fast_forward(resumed.rounds_done());
            let profile = resumed.run_to_completion(&mut module).unwrap();
            assert_eq!(profile, &expected, "resume after {k} rounds diverged");
        }
    }

    #[test]
    fn state_json_roundtrip_is_lossless() {
        let mut machine = ScanMachine::new(ParborConfig::default());
        let mut chip = fresh_chip(Vendor::C, 4);
        machine.advance(&mut chip, 5).unwrap();
        let json = serde_json::to_string(machine.state()).unwrap();
        let back: ScanState = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, machine.state());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// Steps one round at a time until `target` rounds have run or the
    /// scan is done.
    fn advance_to(machine: &mut ScanMachine, chip: &mut DramChip, target: u64) {
        while machine.rounds_done() < target && !machine.is_done() {
            machine.advance(chip, 1).unwrap();
        }
    }

    #[test]
    fn checkpoint_format_is_pinned() {
        // Fleet journals persist this JSON; a changed digest means old
        // journals may no longer resume. Vendor A seed 1 runs 10 discovery,
        // 90 recursion and 32 chip-wide rounds.
        let mut machine = ScanMachine::new(ParborConfig::default());
        let mut chip = fresh_chip(Vendor::A, 1);
        let mut digests = Vec::new();
        for (target, stage) in [
            (5, "discover"),
            (40, "recursion"),
            (110, "chipwide"),
            (u64::MAX, "done"),
        ] {
            advance_to(&mut machine, &mut chip, target);
            assert_eq!(machine.state().stage_name(), stage);
            let json = serde_json::to_string(machine.state()).unwrap();
            digests.push(parbor_hal::hash::fnv1a64(json.as_bytes()));
        }
        assert_eq!(
            digests,
            [
                0x4865_9d03_2027_05c1,
                0x2b9a_5bbc_b635_9eeb,
                0x46ca_482e_30c8_dac1,
                0x3b33_c526_4047_3d97,
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn inconsistent_checkpoints_are_rejected_not_panicking() {
        use serde::{Deserialize, Value};

        // Applies `f` to the first entry named `key` under the stage.
        fn edit(v: &mut Value, key: &str, f: fn(&mut Value)) -> bool {
            match v {
                Value::Map(entries) => entries.iter_mut().any(|(k, v)| {
                    if k == key {
                        f(v);
                        true
                    } else {
                        edit(v, key, f)
                    }
                }),
                Value::Seq(items) => items.iter_mut().any(|v| edit(v, key, f)),
                _ => false,
            }
        }
        fn set_99(v: &mut Value) {
            *v = Value::I64(99);
        }
        fn drop_last(v: &mut Value) {
            if let Value::Seq(items) = v {
                items.pop();
            }
        }

        // Checkpoints mid-discover, mid-recursion (level 3 of 5) and
        // mid-chipwide of vendor A seed 1.
        let mut machine = ScanMachine::new(ParborConfig::default());
        let mut chip = fresh_chip(Vendor::A, 1);
        let mut checkpoints = Vec::new();
        for target in [5, 40, 110] {
            advance_to(&mut machine, &mut chip, target);
            let json = serde_json::to_string(machine.state()).unwrap();
            checkpoints.push(serde_json::parse_value(&json).unwrap());
        }
        type Edit = fn(&mut Value);
        let cases: [(usize, &str, Edit, &str); 7] = [
            (0, "next_round", set_99, "discover next_round"),
            (1, "next_round", set_99, "recursion next_round"),
            (1, "level", set_99, "recursion level"),
            (1, "alive", drop_last, "recursion alive"),
            (1, "fails", drop_last, "recursion fails"),
            (1, "observed", drop_last, "recursion observed"),
            (2, "next_round", set_99, "chipwide next_round"),
        ];
        for (at, key, f, field) in cases {
            let Value::Map(mut top) = checkpoints[at].clone() else {
                panic!("state is a map")
            };
            let stage = top.iter_mut().find(|(k, _)| k == "stage").unwrap();
            assert!(edit(&mut stage.1, key, f), "no {key} in checkpoint {at}");
            let state = ScanState::from_value(&Value::Map(top)).unwrap();
            let mut resumed = ScanMachine::from_state(state);
            match resumed.advance(&mut fresh_chip(Vendor::A, 1), 1) {
                Err(ParborError::InvalidConfig(msg)) => {
                    assert!(msg.contains(field), "{field}: {msg}")
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_discovery_reports_no_victims() {
        // With no rows to test no cell can fail, so discovery finds no
        // victims on either driver.
        let config = ParborConfig {
            rows: Some(vec![]),
            ..ParborConfig::default()
        };
        let one_shot = Parbor::new(config.clone()).run(&mut fresh_chip(Vendor::B, 1));
        assert!(
            matches!(one_shot, Err(ParborError::NoVictims)),
            "{one_shot:?}"
        );
        let mut machine = ScanMachine::new(config);
        let scanned = machine.run_to_completion(&mut fresh_chip(Vendor::B, 1));
        assert!(
            matches!(scanned, Err(ParborError::NoVictims)),
            "{scanned:?}"
        );
    }

    #[test]
    fn stepped_machine_records_arena_counters_and_stage_spans() {
        use parbor_dram::ModuleConfig;
        use parbor_obs::{metrics, RecorderHandle, ShardedRecorder};
        let rec = ShardedRecorder::handle();
        let mut module = ModuleConfig::new(Vendor::A)
            .geometry(ChipGeometry::new(1, 64, 1024).unwrap())
            .chips(4)
            .build()
            .unwrap();
        let mut machine = ScanMachine::new(ParborConfig::default())
            .with_recorder(RecorderHandle::from(rec.clone()));
        let mut stages = Vec::new();
        while !machine.is_done() {
            stages.push(machine.state().stage_name());
            machine.advance(&mut module, 7).unwrap();
            // Every take and recycle lands between an executor's arena
            // attach and its last round, so after any step the recorded
            // deltas sum to the arena's own counters.
            let snap = rec.snapshot();
            let recorded = (
                snap.counter(metrics::engine::ARENA_HITS),
                snap.counter(metrics::engine::ARENA_MISSES),
                snap.counter(metrics::engine::ARENA_RECYCLED),
            );
            assert_eq!(
                recorded,
                machine.pipeline.arena.counters(),
                "after a {} step",
                stages.last().unwrap()
            );
        }
        // The machine path emits every stage span.
        let spans = rec.snapshot().spans;
        for stage in ["discover", "recursion", "chipwide"] {
            assert!(stages.contains(&stage), "no {stage} step in {stages:?}");
            let span = format!("pipeline.{stage}");
            assert!(spans.iter().any(|s| s.name == span), "no span {span}");
        }
    }
}
