//! The timing `TestPort` decorator the `detect` workload drives PARBOR
//! through: every call into the device becomes a `dram.port` span (when
//! tracing) and is counted (always; the counts are a few additions).

use parbor_hal::{
    ChipGeometry, DramError, Flip, KernelMode, ParallelMode, RoundArena, RoundPlan, RowWrite,
    TestPort,
};
use parbor_obs::RecorderHandle;

use crate::trace::Tracer;

/// Work the port saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounts {
    /// Device rounds executed.
    pub rounds: u64,
    /// Row images written.
    pub rows_written: u64,
    /// Flips read back.
    pub flips: u64,
}

/// Forwards every [`TestPort`] call to `inner`, timing and counting the
/// round calls.
#[derive(Debug)]
pub struct TimedPort<'a, P: TestPort + ?Sized> {
    inner: &'a mut P,
    /// The span recorder stage spans are opened on, so port spans nest
    /// under them.
    pub tracer: &'a mut Tracer,
    id: u64,
    /// Work seen so far.
    pub counts: PortCounts,
}

impl<'a, P: TestPort + ?Sized> TimedPort<'a, P> {
    /// Wraps `inner`; spans carry `id` (the module index).
    pub fn new(inner: &'a mut P, tracer: &'a mut Tracer, id: u64) -> Self {
        TimedPort {
            inner,
            tracer,
            id,
            counts: PortCounts::default(),
        }
    }
}

impl<P: TestPort + ?Sized> TestPort for TimedPort<'_, P> {
    fn geometry(&self) -> ChipGeometry {
        self.inner.geometry()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        self.counts.rounds += 1;
        self.counts.rows_written += writes.len() as u64;
        self.tracer.enter("dram.port", self.id);
        let flips = self.inner.run_round(writes);
        self.tracer.exit();
        let flips = flips?;
        self.counts.flips += flips.len() as u64;
        Ok(flips)
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        self.counts.rounds += plans.len() as u64;
        self.counts.rows_written += plans.iter().map(|p| p.len() as u64).sum::<u64>();
        self.tracer.enter("dram.port", self.id);
        let rounds = self.inner.run_rounds(plans);
        self.tracer.exit();
        let rounds = rounds?;
        self.counts.flips += rounds.iter().map(|r| r.len() as u64).sum::<u64>();
        Ok(rounds)
    }

    fn rounds_run(&self) -> u64 {
        self.inner.rounds_run()
    }

    fn fast_forward(&mut self, rounds: u64) {
        self.inner.fast_forward(rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.inner.set_parallel_mode(mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.inner.set_kernel_mode(mode);
    }

    fn set_recorder(&mut self, rec: RecorderHandle) {
        self.inner.set_recorder(rec);
    }

    fn set_arena(&mut self, arena: RoundArena) {
        self.inner.set_arena(arena);
    }
}
