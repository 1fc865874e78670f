//! # parbor-core — PARBOR: parallel recursive neighbor testing
//!
//! A reproduction of *PARBOR: An Efficient System-Level Technique to Detect
//! Data-Dependent Failures in DRAM* (Khan, Lee, Mutlu — DSN 2016).
//!
//! DRAM cells fail depending on the data stored in their *physically*
//! adjacent cells, but vendors scramble the system→physical address mapping,
//! so a system-level tester does not know where a cell's neighbors live.
//! PARBOR discovers the neighbor locations — as a small set of system-address
//! *distances* — and then uses them to build worst-case test patterns that
//! uncover data-dependent failures chip-wide. The five steps (paper §5.1):
//!
//! 1. [`VictimScout`] — find an initial set of cells whose failures depend on
//!    the row's data content (10 pattern/inverse rounds).
//! 2. [`RecursionState`], or [`Parbor::locate`] — recursively split rows into regions
//!    (4096 → 512 → 64 → 8 → 1), testing many victim rows *in parallel* per
//!    round, to find which region holds each victim's coupled neighbor.
//! 3. Aggregate the per-victim distances ([`DistanceHistogram`]).
//! 4. Filter random failures: discard victims that fail in most regions,
//!    rank distances by frequency, and keep only frequent ones.
//! 5. [`ChipwideTest`] — neighbor-aware patterns that put every cell in its
//!    worst case while testing independent cells in parallel.
//!
//! [`ScanMachine`] is the one sequencer of the five steps against any
//! [`TestPort`](parbor_hal::TestPort) — the write / wait-one-refresh-interval
//! / read-back primitive of a system-level tester. It runs them in bounded,
//! checkpointable batches; `advance(port, 1)` runs one round per call, for
//! systems that stay in service between rounds. [`Parbor::run`] is the
//! machine run to completion, and [`Parbor`]'s stage entry points
//! (`discover`, `locate`, `chip_test`) step the same per-stage states
//! ([`DiscoverState`], [`RecursionState`], [`ChipwideState`]) through the
//! same transitions; each state is the only code that runs its stage's
//! rounds.
//!
//! ## Example
//!
//! ```
//! use parbor_core::{Parbor, ParborConfig};
//! use parbor_dram::{ChipGeometry, DramChip, Vendor};
//!
//! # fn main() -> Result<(), parbor_core::ParborError> {
//! let mut chip = DramChip::new(
//!     ChipGeometry::new(1, 64, 8192)?, Vendor::B, 7)?;
//! let report = Parbor::new(ParborConfig::default()).run(&mut chip)?;
//! // Vendor B's neighbors live at system distances {±1, ±64}.
//! assert!(report.distances().contains(&64));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod baseline;
mod chipwide;
mod content;
mod efficacy;
mod error;
mod mitigation;
mod pipeline;
mod recursion;
mod region;
mod report;
mod scan;
mod snapshot;
mod victim;

pub use aggregate::{DistanceHistogram, RankedDistances};
pub use baseline::{
    exhaustive_neighbor_search, linear_neighbor_search, random_pattern_test, solid_pattern_test,
    walking_pattern_test, BaselineOutcome,
};
pub use chipwide::{ChipwideOutcome, ChipwideState, ChipwideTest, RoundSchedule};
pub use content::{DcRefMonitor, VulnerableCell};
pub use efficacy::{run_efficacy, EfficacyConfig, EfficacyReport, MechanismScore};
pub use error::ParborError;
pub use mitigation::{FailureDirectory, MitigationPlan};
pub use pipeline::{Parbor, ParborConfig, ParborReport};
pub use recursion::{LevelOutcome, RecursionConfig, RecursionOutcome, RecursionState};
pub use region::LevelPlan;
pub use report::{naive_test_time, parbor_module_time, ReductionReport, TestTime};
pub use scan::{FailingCell, FailureProfile, ScanMachine, ScanState, StageState};
pub use snapshot::StencilSnapshot;
pub use victim::{CellKey, DiscoverState, SeenCell, Victim, VictimKey, VictimScout, VictimSet};
