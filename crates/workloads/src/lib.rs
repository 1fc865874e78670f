//! # parbor-workloads — synthetic SPEC-like workloads for refresh studies
//!
//! The paper's DC-REF evaluation (§8) runs 32 random 8-core mixes of 17
//! SPEC CPU2006 applications through Ramulator, using Pin-captured traces.
//! Those traces are proprietary; this crate generates the closest synthetic
//! equivalent: deterministic per-application trace streams with calibrated
//! memory intensity (MPKI), row-buffer locality, footprint, write fraction,
//! and — the knob DC-REF cares about — the probability that written data
//! matches the worst-case coupling pattern of a vulnerable row.
//!
//! Traces use the post-LLC format Ramulator's standalone mode uses: each
//! entry is "`n` non-memory instructions, then one memory access".
//!
//! ## Example
//!
//! ```
//! use parbor_workloads::{AppProfile, TraceGenerator};
//!
//! let mcf = AppProfile::spec2006().iter().find(|a| a.name == "mcf").unwrap().clone();
//! let mut gen = TraceGenerator::new(&mcf, 42);
//! let op = gen.next_op();
//! assert!(op.nonmem_insts > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod mixes;
mod profiles;

pub use generator::{TraceGenerator, TraceOp};
pub use mixes::{paper_mixes, WorkloadMix};
pub use profiles::AppProfile;
