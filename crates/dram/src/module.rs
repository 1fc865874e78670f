//! A DRAM module: several chips behind one test port.
//!
//! The paper's modules have one rank of eight x8 chips; the host writes
//! arbitrary bytes, so each chip's 8192-bit row slice is independently
//! controllable. [`DramModule`] exposes that as *units*: unit `u` is chip
//! `u`'s row address space.

use std::fmt;
use std::sync::Arc;

use parbor_obs::metrics;
use parbor_obs::RecorderHandle;
use serde::{Deserialize, Serialize};

use parbor_hal::{
    BitFlip, ChipGeometry, DramError, Flip, KernelMode, ParallelMode, RoundArena, RoundPlan, RowId,
    RowWrite, TestPort,
};

use crate::cell::FaultRates;
use crate::chip::DramChip;
use crate::config::{Celsius, Seconds};
use crate::hash::mix64;
use crate::pattern::PatternKind;
use crate::retention::RetentionModel;
use crate::scrambler::Scrambler;
use crate::vendor::Vendor;
use parbor_hal::FailureMechanism;

/// Identifier of a module within an experiment population (e.g. the paper's
/// A₁ is vendor A, module index 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModuleId(pub u32);

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

// The simulator side of the HAL contract: [`parbor_hal::TestPort`] is
// implemented here (rather than in `parbor-hal`) because the trait and the
// backend now live in different crates, with the backend depending on the
// interface.
impl TestPort for DramChip {
    fn geometry(&self) -> ChipGeometry {
        DramChip::geometry(self)
    }

    fn units(&self) -> u32 {
        1
    }

    fn run_round(&mut self, mut writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        if let Some(w) = writes.iter().find(|w| w.unit != 0) {
            return Err(DramError::AddressOutOfRange {
                what: format!("unit {}", w.unit),
                limit: "1 unit".into(),
            });
        }
        let n_writes = writes.len();
        let mut flips = Vec::new();
        self.round_into(&mut writes, &mut flips)?;
        let flips: Vec<Flip> = flips
            .into_iter()
            .map(|flip| Flip { unit: 0, flip })
            .collect();
        let rec = self.recorder();
        rec.incr(metrics::dram::PORT_ROUNDS, 1);
        rec.observe(metrics::dram::PORT_ROUND_WRITES, n_writes as u64);
        rec.observe(metrics::dram::PORT_ROUND_FLIPS, flips.len() as u64);
        Ok(flips)
    }

    fn rounds_run(&self) -> u64 {
        DramChip::rounds_run(self)
    }

    fn fast_forward(&mut self, rounds: u64) {
        DramChip::fast_forward(self, rounds);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        DramChip::set_kernel_mode(self, mode);
    }

    fn set_recorder(&mut self, rec: RecorderHandle) {
        DramChip::set_recorder(self, rec);
    }

    fn set_arena(&mut self, arena: RoundArena) {
        DramChip::set_arena(self, arena);
    }
}

/// Runs one chip's slice of a round batch: each round either writes + waits +
/// reads back, or — when the chip is untouched that round — just waits, so
/// module time stays coherent across chips. Stops at the chip's first
/// failing round.
fn chip_rounds(
    chip: &mut DramChip,
    rounds: &mut [&mut [RowWrite]],
) -> Result<Vec<Vec<BitFlip>>, DramError> {
    rounds
        .iter_mut()
        .map(|writes| {
            let mut flips = Vec::new();
            if writes.is_empty() {
                chip.advance_round();
            } else {
                chip.round_into(writes, &mut flips)?;
            }
            Ok(flips)
        })
        .collect()
}

/// A DRAM module: a population of chips of one vendor, sharing geometry and
/// scrambler but with independent fault seeds (process variation).
///
/// Because the chips are independent (separate fault seeds, separate row
/// contents), the module splits them into contiguous groups, one per
/// hardware thread at most, and runs every group but the first on a scoped
/// thread; results are bit-identical to serial execution, since every fault
/// is drawn by stateless per-cell hashing. Use
/// [`set_parallel_mode`](DramModule::set_parallel_mode) with
/// [`ParallelMode::Never`] to force the serial path.
///
/// # Examples
///
/// ```
/// use parbor_dram::{ModuleConfig, Vendor, ChipGeometry, PatternKind, RowId};
/// use parbor_hal::TestPort;
///
/// # fn main() -> Result<(), parbor_dram::DramError> {
/// let mut m = ModuleConfig::new(Vendor::A)
///     .geometry(ChipGeometry::tiny())
///     .seed(3)
///     .build()?;
/// let rows: Vec<RowId> = (0..8).map(|r| RowId::new(0, r)).collect();
/// let flips = m.test_round_uniform(&rows, &PatternKind::Solid(false))?;
/// assert_eq!(m.rounds_run(), 1);
/// # drop(flips);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DramModule {
    id: ModuleId,
    vendor: Vendor,
    geometry: ChipGeometry,
    chips: Vec<DramChip>,
    rounds: u64,
    parallel: ParallelMode,
    kernel: KernelMode,
    rec: RecorderHandle,
}

impl DramModule {
    /// Assembles a module; called by [`ModuleConfig::build`](crate::ModuleConfig::build).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        id: ModuleId,
        vendor: Vendor,
        geometry: ChipGeometry,
        chips: usize,
        seed: u64,
        rates: FaultRates,
        retention: RetentionModel,
        temperature: Celsius,
        refresh_interval: Seconds,
        scrambler: Arc<dyn Scrambler>,
    ) -> Result<Self, DramError> {
        let chips = (0..chips)
            .map(|i| {
                DramChip::with_parts(
                    geometry,
                    Arc::clone(&scrambler),
                    mix64(seed ^ (i as u64).wrapping_mul(0xA5A5_5A5A)),
                    rates,
                    retention,
                    temperature,
                    refresh_interval,
                )
                .map(|chip| chip.in_unit(i as u32))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DramModule {
            id,
            vendor,
            geometry,
            chips,
            rounds: 0,
            parallel: ParallelMode::Auto,
            kernel: KernelMode::default(),
            rec: RecorderHandle::null(),
        })
    }

    /// Attaches a metrics recorder to the module and all its chips.
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.set_recorder(rec);
        self
    }

    /// Replaces the metrics recorder of the module and all its chips.
    pub fn set_recorder(&mut self, rec: RecorderHandle) {
        for chip in &mut self.chips {
            chip.set_recorder(rec.clone());
        }
        self.rec = rec;
    }

    /// The module identifier.
    pub fn id(&self) -> ModuleId {
        self.id
    }

    /// The module's vendor.
    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    /// Human-readable module name in the paper's style (e.g. `A1`).
    pub fn name(&self) -> String {
        format!("{}{}", self.vendor, self.id.0)
    }

    /// The chips of the module.
    pub fn chips(&self) -> &[DramChip] {
        &self.chips
    }

    /// Mutable access to the chips (for oracle queries in experiments).
    pub fn chips_mut(&mut self) -> &mut [DramChip] {
        &mut self.chips
    }

    /// The current chip-scheduling mode.
    pub fn parallel_mode(&self) -> ParallelMode {
        self.parallel
    }

    /// Sets the chip-scheduling mode explicitly.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.parallel = mode;
    }

    /// Changes the operating conditions of every chip.
    pub fn set_conditions(&mut self, temperature: Celsius, refresh_interval: Seconds) {
        for c in &mut self.chips {
            c.set_conditions(temperature, refresh_interval);
        }
    }

    /// Installs the same extra-mechanism stack on every chip (shared
    /// handles — mechanisms are stateless, seeded by cell coordinates, so
    /// chips distinguish themselves by bank/row addressing, not by
    /// mechanism instance).
    pub fn set_mechanisms(&mut self, mechanisms: Vec<Arc<dyn FailureMechanism>>) {
        for c in &mut self.chips {
            c.set_mechanisms(mechanisms.clone());
        }
    }

    /// The extra-mechanism stack (every chip holds the same one).
    pub fn mechanisms(&self) -> &[Arc<dyn FailureMechanism>] {
        self.chips.first().map_or(&[], |c| c.mechanisms())
    }

    /// The coupling kernel the module's chips evaluate reads with.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Switches every chip between the compiled stencil kernel (default) and
    /// the retained scalar reference kernel. Results are bit-identical in
    /// both modes; `Reference` exists as the measurement baseline.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode;
        for c in &mut self.chips {
            c.set_kernel_mode(mode);
        }
    }

    /// Hands every chip the same index scratch pool; the arena handle is
    /// thread-safe, so chip groups on scoped threads share it.
    pub fn set_arena(&mut self, arena: RoundArena) {
        for c in &mut self.chips {
            c.set_arena(arena.clone());
        }
    }

    /// Advances every chip's round clock by `rounds` refresh intervals
    /// without running any test rounds — the resume hook for checkpointed
    /// scans (see [`DramChip::fast_forward`]).
    ///
    /// A module rebuilt from its spec and fast-forwarded by the number of
    /// port rounds a previous process ran behaves, for all future rounds,
    /// bit-identically to the module that process held in memory.
    pub fn fast_forward(&mut self, rounds: u64) {
        for c in &mut self.chips {
            c.fast_forward(rounds);
        }
        self.rounds += rounds;
    }

    /// Convenience round: writes the same pattern to the given rows of every
    /// chip, waits, reads back, and returns all flips.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range rows.
    pub fn test_round_uniform(
        &mut self,
        rows: &[RowId],
        pattern: &PatternKind,
    ) -> Result<Vec<Flip>, DramError> {
        let width = self.geometry.cols_per_row as usize;
        let units = self.chips.len() as u32;
        let plan = RoundPlan::broadcast(units, rows, |row| pattern.row_bits(row.row, width));
        TestPort::run_round(self, plan.into_writes())
    }

    /// Shared core of [`TestPort::run_round`] and [`TestPort::run_rounds`]:
    /// splits each plan's writes per chip, executes every chip's slice of
    /// the batch (chip groups on scoped threads when parallelism is
    /// enabled), and merges flips back in unit order per round.
    fn execute_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        let n_rounds = plans.len();
        if n_rounds == 0 {
            return Ok(Vec::new());
        }
        let n_chips = self.chips.len();
        let mut rounds: Vec<Vec<RowWrite>> =
            plans.into_iter().map(RoundPlan::into_writes).collect();
        let write_counts: Vec<u64> = rounds.iter().map(|writes| writes.len() as u64).collect();
        // Each chip runs its writes in place: with a round's writes in unit
        // order (a stable sort when a plan interleaves units), every chip's
        // share is one sub-slice. `shares[unit * n_rounds + round]` is that
        // sub-slice.
        let mut shares: Vec<&mut [RowWrite]> = Vec::with_capacity(n_chips * n_rounds);
        shares.resize_with(n_chips * n_rounds, Default::default);
        for (round, writes) in rounds.iter_mut().enumerate() {
            if !writes.is_sorted_by_key(|w| w.unit) {
                writes.sort_by_key(|w| w.unit);
            }
            if let Some(w) = writes.last().filter(|w| w.unit as usize >= n_chips) {
                return Err(DramError::AddressOutOfRange {
                    what: format!("unit {}", w.unit),
                    limit: format!("{n_chips} units"),
                });
            }
            let mut rest = writes.as_mut_slice();
            while let Some(unit) = rest.first().map(|w| w.unit as usize) {
                let len = rest.partition_point(|w| w.unit as usize == unit);
                let (share, tail) = std::mem::take(&mut rest).split_at_mut(len);
                shares[unit * n_rounds + round] = share;
                rest = tail;
            }
        }
        let mut jobs = self.chips.iter_mut().zip(shares.chunks_mut(n_rounds));
        // One parallelism level: the chips, in at most one contiguous group
        // per hardware thread (DESIGN.md §3c). The calling thread runs
        // group 0, so a serial run spawns nothing.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = match self.parallel {
            ParallelMode::Never => 1,
            ParallelMode::Auto => hw,
            // Always forces two groups, so tests exercise the threaded
            // merge even on single-core hosts.
            ParallelMode::Always => hw.max(2),
        }
        .min(n_chips);
        let mut groups: Vec<Vec<_>> = (0..threads)
            .map(|g| {
                let size = n_chips / threads + usize::from(g < n_chips % threads);
                jobs.by_ref().take(size).collect()
            })
            .collect();
        let run_group = |group: Vec<(&mut DramChip, &mut [&mut [RowWrite]])>| -> Vec<_> {
            group
                .into_iter()
                .map(|(chip, rounds)| chip_rounds(chip, rounds))
                .collect()
        };
        let results: Vec<_> = std::thread::scope(|scope| {
            let spawned: Vec<_> = groups
                .split_off(1)
                .into_iter()
                .map(|group| scope.spawn(move || run_group(group)))
                .collect();
            let mut results = run_group(groups.pop().expect("at least one group"));
            for handle in spawned {
                results.extend(handle.join().expect("chip group thread panicked"));
            }
            results
        });
        // The writes now hold the images the chips replaced; free them
        // before the merge allocates.
        drop(shares);
        drop(rounds);
        // On error, report the lowest failing unit (matching the old serial
        // order); completed chips keep their state.
        let chips = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut merged: Vec<Vec<Flip>> = (0..n_rounds)
            .map(|round| Vec::with_capacity(chips.iter().map(|flips| flips[round].len()).sum()))
            .collect();
        for (unit, rounds) in chips.into_iter().enumerate() {
            for (merged, flips) in merged.iter_mut().zip(rounds) {
                merged.extend(flips.into_iter().map(|flip| Flip {
                    unit: unit as u32,
                    flip,
                }));
            }
        }
        self.rounds += n_rounds as u64;
        for (&writes, flips) in write_counts.iter().zip(&merged) {
            self.rec.incr(metrics::dram::PORT_ROUNDS, 1);
            self.rec.observe(metrics::dram::PORT_ROUND_WRITES, writes);
            self.rec
                .observe(metrics::dram::PORT_ROUND_FLIPS, flips.len() as u64);
        }
        Ok(merged)
    }
}

impl TestPort for DramModule {
    fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    fn units(&self) -> u32 {
        self.chips.len() as u32
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        let mut rounds = self.execute_rounds(vec![RoundPlan::from_writes(writes)])?;
        Ok(rounds.pop().expect("one plan yields one round"))
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        self.execute_rounds(plans)
    }

    fn rounds_run(&self) -> u64 {
        self.rounds
    }

    fn fast_forward(&mut self, rounds: u64) {
        DramModule::fast_forward(self, rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        DramModule::set_parallel_mode(self, mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        DramModule::set_kernel_mode(self, mode);
    }

    fn set_recorder(&mut self, rec: RecorderHandle) {
        DramModule::set_recorder(self, rec);
    }

    fn set_arena(&mut self, arena: RoundArena) {
        DramModule::set_arena(self, arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModuleConfig;
    use parbor_hal::{RoundPlan, RowBits};

    fn small_module(seed: u64) -> DramModule {
        ModuleConfig::new(Vendor::A)
            .geometry(ChipGeometry::new(1, 16, 8192).unwrap())
            .chips(2)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn chips_have_distinct_seeds() {
        let m = small_module(1);
        assert_ne!(m.chips()[0].seed(), m.chips()[1].seed());
    }

    #[test]
    fn per_unit_writes_are_independent() {
        let mut m = small_module(1);
        let width = 8192;
        let writes = vec![
            RowWrite {
                unit: 0,
                row: RowId::new(0, 0),
                data: RowBits::ones(width).into(),
            },
            RowWrite {
                unit: 1,
                row: RowId::new(0, 0),
                data: RowBits::zeros(width).into(),
            },
        ];
        m.run_round(writes).unwrap();
        assert_eq!(
            m.chips()[0]
                .written_row(RowId::new(0, 0))
                .unwrap()
                .count_ones(),
            width
        );
        assert_eq!(
            m.chips()[1]
                .written_row(RowId::new(0, 0))
                .unwrap()
                .count_ones(),
            0
        );
    }

    #[test]
    fn invalid_unit_rejected() {
        let mut m = small_module(1);
        let err = m
            .run_round(vec![RowWrite {
                unit: 9,
                row: RowId::new(0, 0),
                data: RowBits::zeros(8192).into(),
            }])
            .unwrap_err();
        assert!(matches!(err, DramError::AddressOutOfRange { .. }));
    }

    #[test]
    fn rounds_counted_per_module() {
        let mut m = small_module(1);
        let rows = [RowId::new(0, 0)];
        m.test_round_uniform(&rows, &PatternKind::Solid(true))
            .unwrap();
        m.test_round_uniform(&rows, &PatternKind::Solid(false))
            .unwrap();
        assert_eq!(m.rounds_run(), 2);
        // Chip rounds advance in lockstep.
        assert_eq!(DramChip::rounds_run(&m.chips()[0]), 2);
        assert_eq!(DramChip::rounds_run(&m.chips()[1]), 2);
    }

    #[test]
    fn module_name_matches_paper_style() {
        let m = ModuleConfig::new(Vendor::B)
            .geometry(ChipGeometry::tiny())
            .module_id(ModuleId(1))
            .build()
            .unwrap();
        assert_eq!(m.name(), "B1");
    }

    #[test]
    fn chip_as_test_port() {
        let mut chip = DramChip::new(ChipGeometry::tiny(), Vendor::B, 1).unwrap();
        let flips = TestPort::run_round(
            &mut chip,
            vec![RowWrite {
                unit: 0,
                row: RowId::new(0, 0),
                data: RowBits::zeros(1024).into(),
            }],
        )
        .unwrap();
        for f in flips {
            assert_eq!(f.unit, 0);
        }
        assert_eq!(TestPort::units(&chip), 1);
    }

    fn stripe_plans(chips: u32, rounds: u64) -> Vec<RoundPlan> {
        (0..rounds)
            .map(|r| {
                let mut plan = RoundPlan::new();
                for unit in 0..chips {
                    for row in 0..16 {
                        plan.write(
                            unit,
                            RowId::new(0, row),
                            PatternKind::Random {
                                seed: r ^ u64::from(unit) << 8,
                            }
                            .row_bits(row, 8192),
                        );
                    }
                }
                plan
            })
            .collect()
    }

    #[test]
    fn parallel_rounds_bit_identical_to_serial() {
        let mut par = small_module(7);
        let mut ser = small_module(7);
        // Always-threads, so this exercises the threaded merge path even on
        // single-core CI hosts where Auto would degrade to serial.
        par.set_parallel_mode(ParallelMode::Always);
        ser.set_parallel_mode(ParallelMode::Never);
        assert_eq!(par.parallel_mode(), ParallelMode::Always);
        assert_eq!(ser.parallel_mode(), ParallelMode::Never);
        let plans = stripe_plans(2, 4);
        let a = par.run_rounds(plans.clone()).unwrap();
        let b = ser.run_rounds(plans).unwrap();
        assert_eq!(a, b);
        assert_eq!(par.rounds_run(), 4);
        assert_eq!(ser.rounds_run(), 4);
    }

    #[test]
    fn chip_group_errors_merge_in_unit_order() {
        // Out-of-range rows on units 2 (round 1) and 4 (round 0) of five:
        // the lowest failing unit's error wins, and every other chip still
        // runs its whole slice, however the chips are grouped.
        let run = |mode| {
            let mut m = ModuleConfig::new(Vendor::A)
                .geometry(ChipGeometry::new(1, 16, 8192).unwrap())
                .chips(5)
                .seed(4)
                .build()
                .unwrap();
            m.set_parallel_mode(mode);
            let mut plans = stripe_plans(5, 3);
            plans[1].write(2, RowId::new(0, 99), RowBits::zeros(8192));
            plans[0].write(4, RowId::new(0, 77), RowBits::zeros(8192));
            let err = m.run_rounds(plans).unwrap_err();
            let rounds: Vec<u64> = m.chips().iter().map(DramChip::rounds_run).collect();
            (err, rounds)
        };
        let (err, rounds) = run(ParallelMode::Never);
        assert!(err.to_string().contains("99"), "{err}");
        assert_eq!(rounds, [3, 3, 1, 3, 0]);
        assert_eq!(run(ParallelMode::Always), (err.clone(), rounds.clone()));
        assert_eq!(run(ParallelMode::Auto), (err, rounds));
    }

    #[test]
    fn batched_rounds_match_one_at_a_time() {
        let mut batched = small_module(3);
        let mut looped = small_module(3);
        let plans = stripe_plans(2, 3);
        let a = batched.run_rounds(plans.clone()).unwrap();
        let b: Vec<Vec<Flip>> = plans
            .into_iter()
            .map(|p| looped.run_round(p.into_writes()).unwrap())
            .collect();
        assert_eq!(a, b);
        assert_eq!(batched.rounds_run(), looped.rounds_run());
    }

    #[test]
    fn interleaved_units_run_in_plan_order_per_chip() {
        // The plan interleaves units, and unit 0 writes row 1 twice: each
        // chip runs its own writes in plan order, and the flips come back
        // unit-major.
        let module = || {
            ModuleConfig::new(Vendor::A)
                .geometry(ChipGeometry::new(1, 16, 8192).unwrap())
                .chips(3)
                .seed(12)
                .build()
                .unwrap()
        };
        let writes: Vec<RowWrite> = [(2, 0), (0, 1), (1, 0), (0, 2), (2, 1), (0, 1), (1, 3)]
            .into_iter()
            .enumerate()
            .map(|(i, (unit, row))| RowWrite {
                unit,
                row: RowId::new(0, row),
                data: PatternKind::Random { seed: i as u64 }
                    .row_bits(row, 8192)
                    .into(),
            })
            .collect();
        let mut chips = module();
        let mut want = Vec::new();
        for unit in 0..3 {
            let own: Vec<_> = writes
                .iter()
                .filter(|w| w.unit == unit)
                .map(|w| (w.row, Arc::clone(&w.data)))
                .collect();
            let flips = chips.chips_mut()[unit as usize].run_round(own).unwrap();
            want.extend(flips.into_iter().map(|flip| Flip { unit, flip }));
        }
        assert!(!want.is_empty());
        assert_eq!(module().run_round(writes).unwrap(), want);
    }

    #[test]
    fn untouched_chips_advance_in_batches() {
        let mut m = small_module(5);
        // Only unit 0 is written; unit 1 must still advance both rounds.
        let mut plan = RoundPlan::new();
        plan.write(0, RowId::new(0, 0), RowBits::zeros(8192));
        m.run_rounds(vec![plan.clone(), plan]).unwrap();
        assert_eq!(DramChip::rounds_run(&m.chips()[0]), 2);
        assert_eq!(DramChip::rounds_run(&m.chips()[1]), 2);
    }

    /// A 2-chip module whose only failures come from an `inject=` stack.
    fn injected_module(spec: &str) -> DramModule {
        let silent = crate::cell::FaultRates {
            interesting: 0.0,
            marginal: 0.0,
            vrt: 0.0,
            soft_per_bit_per_round: 0.0,
            ..Vendor::A.default_rates()
        };
        ModuleConfig::new(Vendor::A)
            .geometry(ChipGeometry::new(1, 16, 8192).unwrap())
            .chips(2)
            .seed(9)
            .fault_rates(silent)
            .mechanisms(parbor_hal::MechanismSpec::parse_stack(spec).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn injected_fast_forward_keeps_the_schedule_aligned() {
        let plans = stripe_plans(2, 10);
        let mut full = injected_module("inject=rate:0.5,seed:11");
        let all = full.run_rounds(plans.clone()).unwrap();
        let mut resumed = injected_module("inject=rate:0.5,seed:11");
        resumed.fast_forward(6);
        let tail = resumed.run_rounds(plans[6..].to_vec()).unwrap();
        assert!(
            tail.iter().any(|flips| !flips.is_empty()),
            "nothing injected"
        );
        assert_eq!(tail, all[6..]);
    }

    #[test]
    fn injected_chips_get_independent_weak_columns() {
        // Only the weak column fires; each chip must have its own.
        let mut m = injected_module("inject=rate:0,seed:5,intermittent:1");
        let mut plan = RoundPlan::new();
        for unit in 0..2 {
            plan.write(unit, RowId::new(0, 0), RowBits::zeros(8192));
        }
        let mut cols = [
            std::collections::HashSet::new(),
            std::collections::HashSet::new(),
        ];
        for flips in m.run_rounds(vec![plan; 8]).unwrap() {
            for f in flips {
                cols[f.unit as usize].insert(f.flip.addr.col);
            }
        }
        assert_eq!((cols[0].len(), cols[1].len()), (1, 1));
        assert_ne!(cols[0], cols[1], "chips share a weak column");
    }
}
