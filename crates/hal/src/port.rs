//! The system-level testing interface: the [`TestPort`] trait and its data
//! vocabulary.
//!
//! PARBOR's host-side harness needs exactly one primitive from the device
//! under test: write a set of rows, wait one refresh interval, read the rows
//! back, and report every bit that flipped. [`TestPort`] is that primitive
//! plus the bookkeeping around it (geometry, unit count, round accounting,
//! and optional execution-mode knobs). Everything above this trait — the
//! round engine, the detection pipeline, the fleet orchestrator — is backend
//! agnostic; everything below it is one backend's business.

use std::sync::Arc;

use parbor_obs::RecorderHandle;
use serde::{Deserialize, Serialize};

use crate::arena::RoundArena;
use crate::bits::RowBits;
use crate::engine::RoundPlan;
use crate::error::DramError;
use crate::geometry::{BitAddr, ChipGeometry, RowId};

/// A bit that read back different from what was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitFlip {
    /// System address of the flipped bit.
    pub addr: BitAddr,
    /// The value that was written (the read value is its inverse).
    pub expected: bool,
}

/// A bit flip observed through a test port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Flip {
    /// Unit (chip) index the flip occurred in.
    pub unit: u32,
    /// The flipped bit.
    pub flip: BitFlip,
}

/// A write of one row image into one unit (chip) of a test port.
///
/// The image is shared and read-only: a plan that writes one image into
/// many rows or units builds it once and hands each write a reference, and
/// a backend keeps the reference as the row's content instead of copying
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowWrite {
    /// Unit (chip) index.
    pub unit: u32,
    /// Target row.
    pub row: RowId,
    /// Row image in system bit order.
    pub data: Arc<RowBits>,
}

/// How a multi-unit backend schedules its units within a round batch.
///
/// Purely a performance knob: every mode is required to produce bit-identical
/// results. Backends without internal parallelism ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParallelMode {
    /// Units split into at most one group per hardware thread, each group
    /// but the first on a scoped thread (the default): serial on a
    /// single-core host, where threads would only add spawn overhead.
    #[default]
    Auto,
    /// At least two unit groups, even on a single-core host. Exists so
    /// tests can exercise the threaded merge path deterministically. A
    /// one-unit backend still runs inline.
    Always,
    /// Always run units serially (for measurement baselines).
    Never,
}

/// Which coupling kernel a backend evaluates reads with.
///
/// Like [`ParallelMode`], a performance knob with bit-identical results;
/// backends without an evaluation kernel (replay, loopback) ignore it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelMode {
    /// The compiled word-parallel stencil plus the sparse fault-map sampler
    /// (the shipped default).
    #[default]
    Stencil,
    /// The retained scalar kernel and reference sampler, exactly as shipped
    /// before the stencil existed. Results are bit-identical to `Stencil`;
    /// this mode exists as the measurement baseline and equivalence oracle.
    Reference,
}

/// The system-level testing interface: write rows, wait one refresh
/// interval, read back, observe flips.
///
/// Implemented by the simulator backend (`parbor_dram::DramChip` as one
/// unit, `parbor_dram::DramModule` as one unit per chip), by
/// [`ReplayPort`](crate::ReplayPort) for captured transcripts, by
/// [`LoopbackPort`](crate::LoopbackPort) for tests, and by the
/// [`RecordingPort`](crate::RecordingPort) decorator over any of the above.
/// PARBOR is written against this trait, mirroring the paper's host-side
/// test harness talking to the memory controller.
pub trait TestPort {
    /// Per-unit chip geometry.
    fn geometry(&self) -> ChipGeometry;

    /// Number of independently writable units (chips).
    fn units(&self) -> u32;

    /// Executes one test round: writes everything in `writes`, waits one
    /// refresh interval, reads the written rows back, and returns all flips.
    ///
    /// Writes are taken by value so implementations can keep the shared
    /// row images as device storage without copying them.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range units/rows or width mismatches.
    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError>;

    /// Executes a batch of *mutually independent* rounds, returning each
    /// round's flips in plan order.
    ///
    /// The default implementation loops [`run_round`](TestPort::run_round),
    /// so existing `TestPort` implementations keep working unchanged.
    /// The simulator module overrides it to run its chips in parallel across
    /// the whole batch; results are bit-identical to the serial loop.
    ///
    /// # Errors
    ///
    /// Fails on the first round that fails; earlier rounds stay applied.
    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        plans
            .into_iter()
            .map(|plan| self.run_round(plan.into_writes()))
            .collect()
    }

    /// Number of rounds executed so far (the paper's test-count metric).
    fn rounds_run(&self) -> u64;

    /// Advances the port's round clock by `rounds` without testing anything,
    /// as if that many rounds had already run.
    ///
    /// Resumable pipelines use this to restore determinism hooks (per-round
    /// noise seeds, transcript cursors) before continuing a partially
    /// completed scan. The default is a no-op for backends whose rounds are
    /// history-independent.
    fn fast_forward(&mut self, rounds: u64) {
        let _ = rounds;
    }

    /// Sets the unit-scheduling mode. Default: ignored (see [`ParallelMode`]).
    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        let _ = mode;
    }

    /// Sets the evaluation kernel. Default: ignored (see [`KernelMode`]).
    fn set_kernel_mode(&mut self, mode: KernelMode) {
        let _ = mode;
    }

    /// Attaches an observability recorder for backend-internal metrics.
    /// Default: ignored, for backends with nothing to report.
    fn set_recorder(&mut self, rec: RecorderHandle) {
        let _ = rec;
    }

    /// Attaches a shared [`RoundArena`]: the backend takes its round
    /// scratch (coupling-evaluation index buffers) from it, so the reuse
    /// shows in the attaching executor's `engine.arena_*` counters. A pure
    /// performance knob — results are bit-identical with or without an
    /// arena. Default: ignored, for backends with no round scratch.
    fn set_arena(&mut self, arena: RoundArena) {
        let _ = arena;
    }
}

// A boxed port is a port, so pipeline code can hold `Box<dyn TestPort>` and
// still hand `&mut` to APIs taking `P: TestPort`. Every method forwards —
// including the ones with default bodies, which would otherwise shadow the
// inner type's overrides.
impl<P: TestPort + ?Sized> TestPort for Box<P> {
    fn geometry(&self) -> ChipGeometry {
        (**self).geometry()
    }

    fn units(&self) -> u32 {
        (**self).units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        (**self).run_round(writes)
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        (**self).run_rounds(plans)
    }

    fn rounds_run(&self) -> u64 {
        (**self).rounds_run()
    }

    fn fast_forward(&mut self, rounds: u64) {
        (**self).fast_forward(rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        (**self).set_parallel_mode(mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        (**self).set_kernel_mode(mode);
    }

    fn set_recorder(&mut self, rec: RecorderHandle) {
        (**self).set_recorder(rec);
    }

    fn set_arena(&mut self, arena: RoundArena) {
        (**self).set_arena(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_dyn_port_forwards_everything() {
        let mut port: Box<dyn TestPort> =
            Box::new(crate::LoopbackPort::new(crate::ChipGeometry::tiny(), 2));
        assert_eq!(port.units(), 2);
        assert_eq!(port.geometry(), crate::ChipGeometry::tiny());
        let flips = port
            .run_round(vec![RowWrite {
                unit: 1,
                row: RowId::new(0, 3),
                data: RowBits::zeros(1024).into(),
            }])
            .unwrap();
        assert!(flips.is_empty());
        assert_eq!(port.rounds_run(), 1);
        port.fast_forward(4);
        assert_eq!(port.rounds_run(), 5);
        // Mode setters and recorders are accepted (and ignored) everywhere.
        port.set_parallel_mode(ParallelMode::Never);
        port.set_kernel_mode(KernelMode::Reference);
        port.set_recorder(RecorderHandle::null());
        port.set_arena(RoundArena::new());
    }

    #[test]
    fn flip_serde_round_trips() {
        let flip = Flip {
            unit: 3,
            flip: BitFlip {
                addr: BitAddr::new(1, 2, 3),
                expected: true,
            },
        };
        let json = serde_json::to_string(&flip).unwrap();
        let back: Flip = serde_json::from_str(&json).unwrap();
        assert_eq!(back, flip);
    }
}
