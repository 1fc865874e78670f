//! # parbor-dram — a DRAM device simulator with address scrambling
//!
//! This crate is the hardware substrate for the PARBOR reproduction
//! (Khan, Lee, Mutlu — *PARBOR: An Efficient System-Level Technique to Detect
//! Data-Dependent Failures in DRAM*, DSN 2016). The paper's evaluation uses
//! 144 real DRAM chips driven from an FPGA; this crate provides the closest
//! synthetic equivalent:
//!
//! * a **geometry** model (chips → banks → rows → columns),
//! * vendor-style **address scramblers** that remap system bit addresses to
//!   physical cell positions (the thing PARBOR reverse-engineers),
//! * a per-cell **fault model** with retention times, bitline-coupling
//!   penalties, true-/anti-cell polarity, and random-failure noise (weak
//!   cells, marginal cells, VRT, soft errors),
//! * a **test port** — write a row, wait one refresh interval, read it back —
//!   which is exactly the primitive a system-level tester has.
//!
//! The simulator is fully deterministic given a seed: every per-cell property
//! is a pure hash of `(seed, bank, row, physical column)`, and per-round noise
//! is a pure hash of the round counter, so experiments are reproducible and
//! no per-cell state needs to be stored.
//!
//! ## Example
//!
//! ```
//! use parbor_dram::{ModuleConfig, Vendor, PatternKind, RowId};
//!
//! # fn main() -> Result<(), parbor_dram::DramError> {
//! // A small module from "vendor A" (neighbor distances {±8, ±16, ±48}).
//! let mut module = ModuleConfig::new(Vendor::A)
//!     .geometry(parbor_dram::ChipGeometry::tiny())
//!     .seed(7)
//!     .build()?;
//!
//! // Write a column-stripe pattern into row 0 of every chip, wait one
//! // refresh interval, and read it back; flipped bits are reported.
//! let rows: Vec<RowId> = vec![RowId::new(0, 0)];
//! let flips = module.test_round_uniform(&rows, &PatternKind::ColStripe { period: 2 })?;
//! println!("observed {} bit flips", flips.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
mod cell;
mod census;
mod chip;
mod config;
pub mod ecc;
mod hash;
mod mechanism;
mod module;
mod noise;
mod pattern;
mod profiling;
mod remap;
mod retention;
mod scrambler;
mod stencil;
mod vendor;
mod walk;

// The shared data vocabulary now lives in `parbor-hal` and is re-exported
// here so geometry-level users keep one import path. The *port and engine*
// types (`TestPort`, `RowWrite`, `Flip`, `BitFlip`, `RoundPlan`,
// `RoundExecutor`, `ParallelMode`, `KernelMode`) are deliberately NOT
// re-exported: backends are interchangeable only if everyone names the
// interface by its own crate, so importing those from `parbor_dram` is a
// compile error by design.
pub use parbor_hal::{BitAddr, ChipGeometry, DramError, RowBits, RowId};

pub use cell::{CellClass, CellFault, CellProfile, CellRef, FaultKind, FaultRates, RowFaultMap};
pub use census::CellCensus;
pub use chip::{DramChip, DEFAULT_FAULT_MAP_CAPACITY};
pub use config::{Celsius, ModuleConfig, ModuleSpec, Seconds};
pub use mechanism::{oracle_cells, CouplingMechanism};
pub use module::{DramModule, ModuleId};
pub use noise::NoiseModel;
pub use pattern::{PatternKind, PatternSet};
pub use profiling::{RetentionProfile, RetentionProfiler};
pub use remap::RemapTable;
pub use retention::RetentionModel;
pub use scrambler::{IdentityScrambler, Scrambler, ScramblerLut, TileWalkScrambler};
pub use stencil::CouplingStencil;
pub use vendor::Vendor;
pub use walk::{hamiltonian_walk, walk_distance_set, WalkError};
