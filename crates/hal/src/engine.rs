//! The round-execution engine: declarative [`RoundPlan`]s executed through a
//! [`RoundExecutor`].
//!
//! PARBOR's whole methodology is *rounds* — write rows, wait one refresh
//! interval, read back, diff flips — and the paper's test-count metric
//! (Table 1, Fig 16) is literally a round count. Every pipeline stage used to
//! hand-roll its own `Vec<RowWrite>` loops and feed them to
//! [`TestPort::run_round`] one at a time; the engine replaces that with one
//! shared vocabulary:
//!
//! ```text
//! stage ──builds──▶ RoundPlan ──▶ RoundExecutor ──▶ TestPort::run_rounds
//! ```
//!
//! A [`RoundPlan`] describes one round's writes declaratively. The
//! [`RoundExecutor`] submits plans — batched where the rounds are mutually
//! independent — and centralizes the observability counters that were
//! previously sprinkled across call sites. Batching matters because a
//! multi-unit backend (the simulator's `DramModule`, say) can override
//! [`TestPort::run_rounds`] to execute its independent chips on scoped
//! threads, amortizing the thread spawns across the whole batch.

use std::sync::Arc;

use parbor_obs::metrics;
use parbor_obs::RecorderHandle;

use crate::arena::RoundArena;
use crate::bits::RowBits;
use crate::error::DramError;
use crate::geometry::{ChipGeometry, RowId};
use crate::port::{Flip, RowWrite, TestPort};

/// A declarative description of one test round: which row images to write
/// into which units before the refresh-interval wait.
///
/// Plans carry no device state; they can be built ahead of time, cloned,
/// inspected, and replayed. Write order is preserved — a later write to the
/// same `(unit, row)` wins, exactly as it would at the port. Row images are
/// shared (`Arc<RowBits>`): cloning a plan, or writing one image into many
/// rows and units, copies no row data.
///
/// # Examples
///
/// ```
/// use parbor_hal::{RoundPlan, RowBits, RowId};
///
/// let rows = [RowId::new(0, 0), RowId::new(0, 1)];
/// // The same row-alternating stripe image in both rows of both units.
/// let plan = RoundPlan::broadcast(2, &rows, |row| {
///     RowBits::from_fn(1024, |_| row.row % 2 == 0)
/// });
/// assert_eq!(plan.len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundPlan {
    writes: Vec<RowWrite>,
}

impl RoundPlan {
    /// An empty plan. Executing it still costs one round — every unit waits
    /// a refresh interval — which is exactly how the paper counts tests.
    pub fn new() -> Self {
        RoundPlan { writes: Vec::new() }
    }

    /// An empty plan with room for `n` writes.
    pub fn with_capacity(n: usize) -> Self {
        RoundPlan {
            writes: Vec::with_capacity(n),
        }
    }

    /// Wraps raw writes into a plan.
    pub fn from_writes(writes: Vec<RowWrite>) -> Self {
        RoundPlan { writes }
    }

    /// Adds one row write. Takes an owned image or a shared one, so a
    /// caller writing the same image into several rows builds it once.
    pub fn write(&mut self, unit: u32, row: RowId, data: impl Into<Arc<RowBits>>) -> &mut Self {
        self.writes.push(RowWrite {
            unit,
            row,
            data: data.into(),
        });
        self
    }

    /// Adds a prebuilt [`RowWrite`].
    pub fn push(&mut self, write: RowWrite) -> &mut Self {
        self.writes.push(write);
        self
    }

    /// The common "same content in every unit" shape: materializes
    /// `data_for(row)` once per row and writes a reference to it into that
    /// row of each of the `units` units (unit-major order). Returning the
    /// same shared image for several rows shares it across those rows too.
    pub fn broadcast<D: Into<Arc<RowBits>>>(
        units: u32,
        rows: &[RowId],
        mut data_for: impl FnMut(RowId) -> D,
    ) -> Self {
        let images: Vec<Arc<RowBits>> = rows.iter().map(|&row| data_for(row).into()).collect();
        let mut plan = RoundPlan::with_capacity(rows.len() * units as usize);
        for unit in 0..units {
            for (&row, image) in rows.iter().zip(&images) {
                plan.write(unit, row, Arc::clone(image));
            }
        }
        plan
    }

    /// The planned writes, in execution order.
    pub fn writes(&self) -> &[RowWrite] {
        &self.writes
    }

    /// Number of planned writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the plan writes nothing (it still costs a round to execute).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Consumes the plan into its writes.
    pub fn into_writes(self) -> Vec<RowWrite> {
        self.writes
    }
}

impl From<Vec<RowWrite>> for RoundPlan {
    fn from(writes: Vec<RowWrite>) -> Self {
        RoundPlan::from_writes(writes)
    }
}

/// Executes [`RoundPlan`]s against a [`TestPort`], counting rounds and
/// centralizing per-stage observability.
///
/// Every executed plan increments the `engine.rounds` counter and feeds the
/// `engine.round_writes` / `engine.round_flips` histograms; a stage can
/// additionally name its own round counter (the paper-facing test counts
/// like `recursion.tests`) and flip histogram.
///
/// [`run_batch`](RoundExecutor::run_batch) submits *mutually independent*
/// rounds in one call to [`TestPort::run_rounds`], which lets a multi-unit
/// backend run its chips in parallel across the whole batch. Results come
/// back in plan order either way.
///
/// # Examples
///
/// ```
/// use parbor_hal::{ChipGeometry, LoopbackPort, RoundExecutor, RoundPlan, RowBits, RowId};
///
/// # fn main() -> Result<(), parbor_hal::DramError> {
/// let mut port = LoopbackPort::new(ChipGeometry::tiny(), 1);
/// let rows: Vec<RowId> = (0..8).map(|r| RowId::new(0, r)).collect();
/// let plan = RoundPlan::broadcast(1, &rows, |_| RowBits::ones(1024));
/// let mut exec = RoundExecutor::new(&mut port);
/// let flips = exec.run(plan)?;
/// assert!(flips.is_empty());
/// assert_eq!(exec.rounds_executed(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RoundExecutor<'p, P: TestPort + ?Sized> {
    port: &'p mut P,
    rec: RecorderHandle,
    round_counter: Option<&'static str>,
    flip_histogram: Option<&'static str>,
    rounds: usize,
    arena: RoundArena,
    /// Arena counter values already emitted to the recorder, so each
    /// executor reports only the deltas accrued during its own lifetime
    /// (the arena itself is shared across executors).
    arena_seen: (u64, u64, u64),
}

impl<'p, P: TestPort + ?Sized> RoundExecutor<'p, P> {
    /// Wraps a port. The default recorder is the null recorder.
    pub fn new(port: &'p mut P) -> Self {
        RoundExecutor {
            port,
            rec: RecorderHandle::null(),
            round_counter: None,
            flip_histogram: None,
            rounds: 0,
            arena: RoundArena::new(),
            arena_seen: (0, 0, 0),
        }
    }

    /// Attaches a metrics recorder (`engine.*` plus the stage names below).
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.rec = rec;
        self
    }

    /// Attaches a shared [`RoundArena`], forwarding it to the port so the
    /// backend draws its round scratch from it. Arena counter deltas are
    /// emitted alongside the round metrics (`engine.arena_*`).
    pub fn with_arena(mut self, arena: RoundArena) -> Self {
        self.port.set_arena(arena.clone());
        self.arena_seen = arena.counters();
        self.arena = arena;
        self
    }

    /// Additionally increments `counter` once per executed round (e.g.
    /// `"recursion.tests"` — the paper's Table 1 accounting).
    pub fn count_rounds_as(mut self, counter: &'static str) -> Self {
        self.round_counter = Some(counter);
        self
    }

    /// Additionally observes each round's flip count into `histogram`.
    pub fn observe_flips_as(mut self, histogram: &'static str) -> Self {
        self.flip_histogram = Some(histogram);
        self
    }

    /// The port's per-unit geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.port.geometry()
    }

    /// The port's unit count.
    pub fn units(&self) -> u32 {
        self.port.units()
    }

    /// Rounds executed through this executor so far.
    pub fn rounds_executed(&self) -> usize {
        self.rounds
    }

    fn record(&mut self, writes: u64, flips: u64) {
        self.rounds += 1;
        self.rec.incr(metrics::engine::ROUNDS, 1);
        self.rec.observe(metrics::engine::ROUND_WRITES, writes);
        self.rec.observe(metrics::engine::ROUND_FLIPS, flips);
        if let Some(counter) = self.round_counter {
            self.rec.incr(counter, 1);
        }
        if let Some(histogram) = self.flip_histogram {
            self.rec.observe(histogram, flips);
        }
        let (hits, misses, recycled) = self.arena.counters();
        let (seen_h, seen_m, seen_r) = self.arena_seen;
        if hits > seen_h {
            self.rec.incr(metrics::engine::ARENA_HITS, hits - seen_h);
        }
        if misses > seen_m {
            self.rec
                .incr(metrics::engine::ARENA_MISSES, misses - seen_m);
        }
        if recycled > seen_r {
            self.rec
                .incr(metrics::engine::ARENA_RECYCLED, recycled - seen_r);
        }
        self.arena_seen = (hits, misses, recycled);
    }

    /// Executes one plan (one device round).
    ///
    /// # Errors
    ///
    /// Propagates device errors from the port.
    pub fn run(&mut self, plan: RoundPlan) -> Result<Vec<Flip>, DramError> {
        let writes = plan.len() as u64;
        let flips = self.port.run_round(plan.into_writes())?;
        self.record(writes, flips.len() as u64);
        Ok(flips)
    }

    /// Executes a batch of *mutually independent* rounds, returning each
    /// round's flips in plan order.
    ///
    /// The rounds still execute in order on every unit (each costs one
    /// refresh-interval wait); independence means no plan's content depends
    /// on an earlier plan's flips, which is what lets a multi-chip port
    /// parallelize across units for the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the port; no per-round results are
    /// returned on error.
    pub fn run_batch(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        let write_counts: Vec<u64> = plans.iter().map(|p| p.len() as u64).collect();
        // Batch size feeds the kernel-throughput accounting in bench
        // reports: larger batches amortize thread spawns across both
        // parallelism levels (per-chip and per-row) of the port.
        self.rec
            .observe(metrics::engine::BATCH_ROUNDS, write_counts.len() as u64);
        let results = self.port.run_rounds(plans)?;
        for (&writes, flips) in write_counts.iter().zip(&results) {
            self.record(writes, flips.len() as u64);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackPort;
    use parbor_obs::ShardedRecorder;

    fn rows(n: u32) -> Vec<RowId> {
        (0..n).map(|r| RowId::new(0, r)).collect()
    }

    fn loopback() -> LoopbackPort {
        LoopbackPort::new(ChipGeometry::tiny(), 1)
    }

    #[test]
    fn broadcast_orders_writes_unit_major() {
        let plan = RoundPlan::broadcast(2, &rows(2), |row| {
            RowBits::from_fn(64, |_| row.row % 2 == 0)
        });
        let units: Vec<u32> = plan.writes().iter().map(|w| w.unit).collect();
        assert_eq!(units, vec![0, 0, 1, 1]);
        let row_ids: Vec<u32> = plan.writes().iter().map(|w| w.row.row).collect();
        assert_eq!(row_ids, vec![0, 1, 0, 1]);
        // Unit 0 and unit 1 get the same image, built once.
        assert_eq!(plan.writes()[0].data, plan.writes()[2].data);
    }

    #[test]
    fn broadcast_shares_one_image_per_row_across_units() {
        let plan = RoundPlan::broadcast(8, &rows(3), |row| {
            RowBits::from_fn(1024, |c| (c as u32 ^ row.row).is_multiple_of(3))
        });
        let writes = plan.writes();
        for (i, w) in writes.iter().enumerate() {
            let first = &writes[i % 3];
            assert_eq!(w.row, first.row);
            assert!(
                Arc::ptr_eq(&w.data, &first.data),
                "write {i} copied its image"
            );
        }
        // Distinct rows keep distinct images.
        assert!(!Arc::ptr_eq(&writes[0].data, &writes[1].data));
        // Cloning a plan copies references, not rows.
        let clone = plan.clone();
        assert!(Arc::ptr_eq(&clone.writes()[5].data, &writes[5].data));
    }

    #[test]
    fn executor_counts_rounds_and_stage_counters() {
        let recorder = ShardedRecorder::handle();
        let mut port = loopback();
        let plans: Vec<RoundPlan> = (0..3)
            .map(|i| {
                RoundPlan::broadcast(1, &rows(4), |row| {
                    RowBits::from_fn(1024, |c| (c as u32 ^ row.row ^ i).is_multiple_of(3))
                })
            })
            .collect();
        let mut exec = RoundExecutor::new(&mut port)
            .with_recorder(RecorderHandle::from(recorder.clone()))
            .count_rounds_as("stage.rounds")
            .observe_flips_as("stage.flips");
        let results = exec.run_batch(plans).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(exec.rounds_executed(), 3);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("engine.rounds"), 3);
        assert_eq!(snap.counter("stage.rounds"), 3);
        assert_eq!(snap.histogram("engine.round_writes").unwrap().count, 3);
        assert_eq!(snap.histogram("stage.flips").unwrap().count, 3);
        assert_eq!(port.rounds_run(), 3);
    }

    #[test]
    fn empty_plan_still_costs_a_round() {
        let mut port = loopback();
        let mut exec = RoundExecutor::new(&mut port);
        let flips = exec.run(RoundPlan::new()).unwrap();
        assert!(flips.is_empty());
        assert_eq!(port.rounds_run(), 1);
    }
}
