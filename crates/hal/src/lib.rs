//! # parbor-hal — the hardware-abstraction layer
//!
//! PARBOR (Khan, Lee, Mutlu — DSN 2016) is a *system-level* technique: the
//! whole methodology needs nothing from the device beyond "write rows, wait
//! one refresh interval, read back, report flipped bits". This crate is that
//! contract, extracted so the detection pipeline can run against **any**
//! backend — the bundled simulator (`parbor-dram`), a captured transcript, a
//! future real-hardware port — without depending on a device model:
//!
//! * [`TestPort`] — the trait every backend implements: per-unit
//!   [`ChipGeometry`], unit count, and the canonical round primitive
//!   ([`run_round`](TestPort::run_round) / batched
//!   [`run_rounds`](TestPort::run_rounds)).
//! * [`RoundPlan`] / [`RoundExecutor`] — the declarative round engine every
//!   pipeline stage builds on (and the paper's test-count accounting).
//! * Shared data vocabulary: [`RowBits`], [`RowId`], [`BitAddr`],
//!   [`RowWrite`], [`BitFlip`], [`Flip`], and the execution-mode knobs
//!   [`ParallelMode`] / [`KernelMode`].
//! * [`RecordingPort`] — a port decorator that captures every round
//!   (writes digest + observed flips) into a length+checksum-framed binary
//!   transcript — and [`ReplayPort`], which replays one bit-identically, no
//!   simulator required (the hook for replaying real-hardware captures).
//! * [`FailureMechanism`] — the composable failure-mechanism stack a
//!   simulated chip applies once per round: RowHammer, RowPress, retention
//!   drift, and [`InjectMechanism`], the seeded random and intermittent
//!   flips that are the paper's "random failure" adversary the filtering
//!   stage must reject. [`MechanismSpec`] is its serializable form.
//! * [`LoopbackPort`] — a trivial perfect-memory backend for tests.
//! * The workspace's codec primitives, one copy each: [`hash`] (FNV-1a,
//!   the SplitMix64 finalizer and word folds, the eight-lane hasher),
//!   [`varint`] (LEB128 + zigzag) and [`frame`] (the
//!   `[u32 len][u64 checksum][payload]` record frame).
//!
//! ```text
//! pipeline ─▶ RoundExecutor ─▶ RecordingPort ─▶ sim (coupling + mechanism stack)
//!                                   │
//!                                   ▼ transcript.pbt
//!                              ReplayPort  (later, without the sim)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bits;
mod engine;
mod error;
pub mod frame;
mod geometry;
pub mod hash;
mod loopback;
mod mechanism;
mod port;
mod transcript;
pub mod varint;

pub use arena::RoundArena;
pub use bits::RowBits;
pub use engine::{RoundExecutor, RoundPlan};
pub use error::DramError;
pub use geometry::{BitAddr, ChipGeometry, RowId};
pub use hash::unit_threshold;
pub use loopback::LoopbackPort;
pub use mechanism::{
    row_populations, unit_stack_flips, DriftMechanism, FailureMechanism, HammerMechanism,
    InjectMechanism, MechanismSpec, NeighborView, PressMechanism, RowView, StackWrite,
    ROW_OPEN_NS_PER_ACT,
};
pub use port::{BitFlip, Flip, KernelMode, ParallelMode, RowWrite, TestPort};
pub use transcript::{
    RecordingPort, ReplayPort, TranscriptInfo, TranscriptRound, TRANSCRIPT_MAGIC,
};
