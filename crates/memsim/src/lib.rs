//! # parbor-memsim — a DDR3 memory-system timing simulator
//!
//! The refresh-policy substrate for the PARBOR reproduction: the paper's
//! DC-REF evaluation (§8) runs Ramulator, a cycle-accurate DRAM simulator,
//! with 8 trace-driven cores over DDR3-1600. This crate implements the same
//! pipeline:
//!
//! * [`DramTiming`] — DDR3-1600 timing (Table 2), with density-dependent
//!   refresh latency (tRFC = 590 ns @ 16 Gbit, 1 µs @ 32 Gbit, per the
//!   paper's footnote 6);
//! * [`MemoryController`] — per-channel FR-FCFS scheduling over banked DRAM
//!   with open-row policy and refresh blocking;
//! * [`RefreshPolicy`] — the three schemes Figure 16 compares: the uniform
//!   64 ms baseline, RAIDR (weak rows fast, rest at 256 ms), and DC-REF
//!   (fast only while a weak row's *content* matches its worst-case
//!   pattern);
//! * [`TraceCore`] — a 3-wide, 128-entry-window trace-driven core model
//!   consuming [`parbor_workloads`] streams;
//! * [`Simulation`] — the 8-core multiprogrammed harness and
//!   weighted-speedup metrics. Its loop is event-driven: it visits only
//!   the memory cycles at which a controller or a core can act, with the
//!   same results as stepping every cycle.
//!
//! ## Example
//!
//! ```
//! use parbor_memsim::{Simulation, SystemConfig, RefreshPolicyKind};
//! use parbor_workloads::{paper_mixes};
//!
//! let mix = &paper_mixes(1, 2, 7)[0];
//! let config = SystemConfig { cores: 2, ..SystemConfig::paper() };
//! let report = Simulation::new(config, RefreshPolicyKind::Uniform64, mix, 1)
//!     .run(200_000);
//! assert!(report.total_instructions() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod cache;
mod controller;
mod core_model;
mod energy;
mod metrics;
mod refresh;
mod system;
mod timing;

pub use address::{AddressMapping, DramAddress};
pub use bank::{Bank, BankState};
pub use cache::{Cache, CacheOutcome};
pub use controller::{MemRequest, MemoryController, ReqKind};
pub use core_model::{CoreStats, TraceCore};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use metrics::{
    harmonic_speedup, max_slowdown, normalized_weighted_speedup, weighted_speedup, SimReport,
};
pub use refresh::{RefreshPolicy, RefreshPolicyKind, RowClassifier};
pub use system::{LlcConfig, Simulation, SystemConfig};
pub use timing::{Density, DramTiming};
