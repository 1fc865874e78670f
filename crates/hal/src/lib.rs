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
//! * Composable **port decorators**, each wrapping any inner [`TestPort`]:
//!   * [`FaultInjectingPort`] — seeded, rate-parameterized random and
//!     intermittent bit flips (the paper's "random failure" adversary the
//!     filtering stage must reject);
//!   * [`RecordingPort`] — captures every round (writes digest + observed
//!     flips) into a length+checksum-framed JSONL transcript;
//!   * [`ReplayPort`] — replays a transcript bit-identically, no simulator
//!     required (the hook for replaying real-hardware captures).
//! * [`LoopbackPort`] — a trivial perfect-memory backend for tests and as a
//!   flip-free substrate under the fault injector.
//!
//! ```text
//! pipeline ─▶ RoundExecutor ─▶ RecordingPort ─▶ FaultInjectingPort ─▶ sim
//!                                   │
//!                                   ▼ transcript.jsonl
//!                              ReplayPort  (later, without the sim)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bits;
mod engine;
mod error;
mod geometry;
mod hash;
mod inject;
mod loopback;
mod mechanism;
mod port;
mod transcript;

pub use arena::RoundArena;
pub use bits::RowBits;
pub use engine::{RoundExecutor, RoundPlan};
pub use error::DramError;
pub use geometry::{BitAddr, ChipGeometry, RowId};
pub use hash::unit_threshold;
pub use inject::{FaultInjectingPort, InjectionConfig, MechanismInjectingPort};
pub use loopback::LoopbackPort;
pub use mechanism::{
    stack_flips, unit_stack_flips, DriftMechanism, FailureMechanism, HammerMechanism,
    MechanismSpec, NeighborView, PressMechanism, RowView, ROW_OPEN_NS_PER_ACT,
};
pub use port::{BitFlip, Flip, KernelMode, ParallelMode, RowWrite, TestPort};
pub use transcript::{
    RecordingPort, ReplayPort, TranscriptFormat, TranscriptInfo, TRANSCRIPT_MAGIC,
    TRANSCRIPT_MAGIC_BINARY,
};
