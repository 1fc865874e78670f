//! One simulated DRAM chip: persistent row contents plus fault evaluation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parbor_obs::metrics;
use parbor_obs::RecorderHandle;

use crate::cell::{marginal_fails, vrt_leaky, CellClass, FaultKind, FaultRates, RowFaultMap};
use crate::config::{Celsius, Seconds};
use crate::mechanism::CouplingMechanism;
use crate::noise::NoiseModel;
use crate::retention::RetentionModel;
use crate::scrambler::{Scrambler, ScramblerLut};
use parbor_hal::{unit_stack_flips, FailureMechanism};
use parbor_hal::{BitAddr, BitFlip, ChipGeometry, DramError, RowBits, RowId};
use parbor_hal::{KernelMode, RoundArena};

use crate::stencil::CouplingStencil;

/// Default bound on the per-chip fault-map cache (entries, i.e. rows).
///
/// A fault map costs one scrambler translation per column to build and is
/// fully deterministic, so eviction only trades CPU for memory; 8192 rows
/// covers an entire bank of the paper-scale geometry.
pub const DEFAULT_FAULT_MAP_CAPACITY: usize = 8192;

/// One simulated DRAM chip.
///
/// A chip owns its written row contents (system bit order) and evaluates the
/// fault model on read-after-wait. The canonical test primitive is
/// [`run_round`](DramChip::run_round): write a set of rows, wait one refresh
/// interval, read them back, and report every flipped bit — exactly what a
/// system-level tester can do through the memory controller.
///
/// Fault maps (deterministic, rebuildable) and their compiled stencils are
/// cached per row and evicted FIFO past [`DEFAULT_FAULT_MAP_CAPACITY`]; the
/// cache size is published as the `dram.fault_map_cache` gauge.
///
/// # Examples
///
/// ```
/// use parbor_dram::{DramChip, ChipGeometry, Vendor, RowId, PatternKind};
///
/// # fn main() -> Result<(), parbor_dram::DramError> {
/// let mut chip = DramChip::new(ChipGeometry::tiny(), Vendor::B, 42)?;
/// let pattern = PatternKind::Checkerboard;
/// let writes: Vec<_> = (0..8)
///     .map(|r| (RowId::new(0, r), pattern.row_bits(r, 1024)))
///     .collect();
/// let flips = chip.run_round(writes)?;
/// // Flips (if any) are inside the written region.
/// for f in &flips {
///     assert!(f.addr.col < 1024);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DramChip {
    geometry: ChipGeometry,
    // The paper's data-dependent failure model (seed, scrambler + LUT,
    // fault rates, retention physics) as one composable mechanism. The
    // chip's cached fast path (fault maps, stencils) evaluates through it.
    coupling: CouplingMechanism,
    // Additional mechanisms (RowHammer, RowPress, retention drift, …)
    // composed on top of the coupling model; evaluated once per round over
    // the round's write set, after the base model.
    extras: Vec<Arc<dyn FailureMechanism>>,
    temperature: Celsius,
    refresh_interval: Seconds,
    noise: NoiseModel,
    rows: HashMap<RowId, RowBits>,
    fault_maps: HashMap<RowId, RowFaultMap>,
    fault_map_order: VecDeque<RowId>,
    fault_map_cap: usize,
    // Compiled per-row coupling stencils; populated lazily in Stencil mode,
    // invalidated with their fault maps and on margin-shift changes.
    stencils: HashMap<RowId, CouplingStencil>,
    kernel: KernelMode,
    round: u64,
    rec: RecorderHandle,
    // Buffer pool closing the round cycle: replaced row images go back in,
    // pooled clones come out. Swapped for a shared handle by `set_arena`.
    arena: RoundArena,
}

impl DramChip {
    /// Creates a chip with the vendor's default scrambler and fault rates at
    /// the paper's reference conditions (45 °C, 4 s refresh interval).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if the vendor scrambler cannot be
    /// built for the geometry's row width.
    pub fn new(
        geometry: ChipGeometry,
        vendor: crate::Vendor,
        seed: u64,
    ) -> Result<Self, DramError> {
        let scrambler = vendor.scrambler(geometry.cols_per_row as usize);
        Self::with_parts(
            geometry,
            scrambler,
            seed,
            vendor.default_rates(),
            RetentionModel::default(),
            Celsius(45.0),
            Seconds(4.0),
        )
    }

    /// Creates a chip from explicit parts. Used by
    /// [`ModuleConfig`](crate::ModuleConfig); exposed for custom setups.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the scrambler width does not
    /// match the geometry or the rates are invalid.
    pub fn with_parts(
        geometry: ChipGeometry,
        scrambler: Arc<dyn Scrambler>,
        seed: u64,
        rates: FaultRates,
        retention: RetentionModel,
        temperature: Celsius,
        refresh_interval: Seconds,
    ) -> Result<Self, DramError> {
        if scrambler.row_bits() != geometry.cols_per_row as usize {
            return Err(DramError::InvalidConfig(format!(
                "scrambler width {} != geometry cols {}",
                scrambler.row_bits(),
                geometry.cols_per_row
            )));
        }
        let coupling = CouplingMechanism::new(
            seed,
            scrambler,
            rates,
            retention,
            temperature,
            refresh_interval,
        )?;
        let noise = NoiseModel::new(rates.soft_per_bit_per_round);
        Ok(DramChip {
            geometry,
            coupling,
            extras: Vec::new(),
            temperature,
            refresh_interval,
            noise,
            rows: HashMap::new(),
            fault_maps: HashMap::new(),
            fault_map_order: VecDeque::new(),
            fault_map_cap: DEFAULT_FAULT_MAP_CAPACITY,
            stencils: HashMap::new(),
            kernel: KernelMode::default(),
            round: 0,
            rec: RecorderHandle::null(),
            arena: RoundArena::new(),
        })
    }

    /// Attaches a metrics recorder (`dram.*` counters). The default is the
    /// null recorder, which observes nothing.
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.rec = rec;
        self
    }

    /// Replaces the metrics recorder in place.
    pub fn set_recorder(&mut self, rec: RecorderHandle) {
        self.rec = rec;
    }

    /// The attached metrics recorder.
    pub fn recorder(&self) -> &RecorderHandle {
        &self.rec
    }

    /// The chip geometry.
    pub fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    /// The chip's scrambler (shared, read-only).
    pub fn scrambler(&self) -> &Arc<dyn Scrambler> {
        self.coupling.scrambler()
    }

    /// The scrambler compiled into dense lookup tables at construction.
    pub fn scrambler_lut(&self) -> &Arc<ScramblerLut> {
        self.coupling.lut()
    }

    /// The chip's base failure model as a mechanism.
    pub fn coupling(&self) -> &CouplingMechanism {
        &self.coupling
    }

    /// The extra mechanisms composed on top of the coupling model.
    pub fn mechanisms(&self) -> &[Arc<dyn FailureMechanism>] {
        &self.extras
    }

    /// Replaces the extra-mechanism stack. Mechanisms observe each round's
    /// write set (activations, open time, neighbor content) and add their
    /// flips after the base model; inert mechanisms are kept but never
    /// consulted on the hot path.
    pub fn set_mechanisms(&mut self, mechanisms: Vec<Arc<dyn FailureMechanism>>) {
        self.extras = mechanisms;
    }

    /// Replaces the chip's buffer pool with a shared handle, so row images
    /// recycled here serve the stage that builds the next round's plan.
    /// Purely a performance hook: results are identical with any arena.
    pub fn set_arena(&mut self, arena: RoundArena) {
        self.arena = arena;
    }

    /// The chip's buffer pool.
    pub fn arena(&self) -> &RoundArena {
        &self.arena
    }

    /// The fault seed.
    pub fn seed(&self) -> u64 {
        self.coupling.seed()
    }

    /// Number of refresh-interval waits executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// Current effective margin shift (`κ · log2(stress factor)`).
    pub fn theta_shift(&self) -> f64 {
        self.coupling.theta_shift()
    }

    /// The coupling kernel the chip evaluates reads with.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Switches between the compiled stencil kernel (default) and the
    /// retained scalar reference kernel. Results are bit-identical in both
    /// modes — this is a measurement/verification switch, not a behavior
    /// switch — so fault maps survive the change; only compiled stencils
    /// are dropped.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        if self.kernel != mode {
            self.kernel = mode;
            self.stencils.clear();
        }
    }

    /// Current number of cached fault maps (also the `dram.fault_map_cache`
    /// gauge).
    pub fn fault_map_cache_len(&self) -> usize {
        self.fault_maps.len()
    }

    /// Bounds the fault-map cache to `cap` rows (clamped to ≥ 1), evicting
    /// oldest-built maps immediately if over. Fault maps are deterministic,
    /// so eviction never changes results — only rebuild cost.
    pub fn set_fault_map_capacity(&mut self, cap: usize) {
        self.fault_map_cap = cap.max(1);
        self.evict_fault_maps();
    }

    /// Changes operating temperature and refresh interval. Fault maps are
    /// seeded, not stateful, so only the margin shift changes — which
    /// invalidates the compiled stencils.
    pub fn set_conditions(&mut self, temperature: Celsius, refresh_interval: Seconds) {
        self.temperature = temperature;
        self.refresh_interval = refresh_interval;
        self.coupling.set_conditions(temperature, refresh_interval);
        // Stencils are compiled against the margin shift, so they are stale
        // now; fault maps are shift-independent and survive.
        self.stencils.clear();
    }

    /// Writes a full row (system bit order).
    ///
    /// # Errors
    ///
    /// Returns an error if the row is out of range or the data width does not
    /// match the geometry.
    pub fn write_row(&mut self, row: RowId, data: RowBits) -> Result<(), DramError> {
        self.geometry.check_row(row)?;
        if data.len() != self.geometry.cols_per_row as usize {
            return Err(DramError::WidthMismatch {
                got: data.len(),
                expected: self.geometry.cols_per_row as usize,
            });
        }
        if let Some(old) = self.rows.insert(row, data) {
            // The replaced image is the pool's main feed: every steady-state
            // round returns one buffer per rewritten row.
            self.arena.recycle_row(old);
        }
        self.rec.incr(metrics::dram::ROW_WRITES, 1);
        Ok(())
    }

    /// Advances time by one refresh interval (the "wait" between write and
    /// read of a test round).
    pub fn advance_round(&mut self) {
        self.round += 1;
        self.rec.incr(metrics::dram::ROUNDS, 1);
    }

    /// Advances the round clock by `rounds` refresh intervals without
    /// writing or reading anything — the resume hook for checkpointed scans.
    ///
    /// Every round-dependent fault population (marginal windows, VRT
    /// epochs, soft-error draws) keys on the chip seed and the round
    /// counter alone, so a chip rebuilt from its seed and fast-forwarded by
    /// the number of rounds a previous process ran is bit-identical, for
    /// all future rounds, to the chip that process held in memory.
    pub fn fast_forward(&mut self, rounds: u64) {
        self.round += rounds;
        self.rec.incr(metrics::dram::ROUNDS, rounds);
    }

    /// The last data written to a row, without fault effects.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowNeverWritten`] if the row has no content.
    pub fn written_row(&self, row: RowId) -> Result<&RowBits, DramError> {
        self.rows
            .get(&row)
            .ok_or_else(|| DramError::RowNeverWritten {
                row: row.to_string(),
            })
    }

    /// Reads a row after the waits executed so far, applying the fault model
    /// at the current round.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::RowNeverWritten`] if the row has no content, or
    /// an address error if the row is out of range.
    pub fn read_row(&mut self, row: RowId) -> Result<RowBits, DramError> {
        let flips = self.eval_rows(&[row], 1)?;
        let data = self.rows.get(&row).expect("checked by eval_rows");
        let mut out = data.clone();
        for f in flips {
            out.flip(f.addr.col as usize);
        }
        Ok(out)
    }

    /// The canonical test primitive: write all `writes`, wait one refresh
    /// interval, read each written row back, and return every flipped bit.
    ///
    /// Writes are taken by value and moved straight into row storage — no
    /// per-row clone on the hot path.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range rows or width mismatches; no writes are rolled
    /// back on error.
    pub fn run_round(&mut self, writes: Vec<(RowId, RowBits)>) -> Result<Vec<BitFlip>, DramError> {
        self.run_round_split(writes, 1)
    }

    /// [`run_round`](DramChip::run_round) with the read-back evaluation split
    /// across `row_threads` scoped threads; see
    /// [`eval_rows`](DramChip::eval_rows). Flips come back in write order,
    /// bit-identical for any `row_threads`.
    pub(crate) fn run_round_split(
        &mut self,
        writes: Vec<(RowId, RowBits)>,
        row_threads: usize,
    ) -> Result<Vec<BitFlip>, DramError> {
        let rows: Vec<RowId> = writes.iter().map(|(row, _)| *row).collect();
        for (row, data) in writes {
            self.write_row(row, data)?;
        }
        self.advance_round();
        let mut flips = self.eval_rows(&rows, row_threads)?;
        // Extra mechanisms observe the round's write set as a whole (they
        // need neighbor activations, not just this row), so they evaluate
        // once per round after the base model — serially, in stack order,
        // identically under any `row_threads`.
        if !self.extras.is_empty() {
            self.merge_extra_flips(&mut flips, &rows);
        }
        Ok(flips)
    }

    /// Evaluates the extra-mechanism stack over the round's write set and
    /// merges its flips into the base model's, deduplicating by address
    /// (the base model wins; a mechanism re-flipping the same bit would
    /// cancel the observation, which no physical mechanism does).
    fn merge_extra_flips(&mut self, flips: &mut Vec<BitFlip>, rows: &[RowId]) {
        let extra = {
            let writes: Vec<(RowId, &RowBits)> =
                rows.iter().map(|&row| (row, &self.rows[&row])).collect();
            // `advance_round` already ran: `round - 1` is this round's
            // 0-based index, matching `MechanismInjectingPort`'s keying, and
            // the elapsed clock lands at the round's end.
            unit_stack_flips(
                &self.extras,
                &writes,
                0,
                self.round - 1,
                self.round as f64 * self.refresh_interval.0,
            )
        };
        self.rec.incr(metrics::mech::ROUNDS, 1);
        // The stack already deduplicates its own flips by address, so only
        // the base flips can suppress one.
        let base: HashSet<BitAddr> = flips.iter().map(|f| f.addr).collect();
        let mut added = 0u64;
        let mut suppressed = 0u64;
        for flip in extra {
            if base.contains(&flip.addr) {
                suppressed += 1;
            } else {
                flips.push(flip);
                added += 1;
            }
        }
        if added > 0 {
            self.rec.incr(metrics::mech::FLIPS, added);
        }
        if suppressed > 0 {
            self.rec.incr(metrics::mech::SUPPRESSED, suppressed);
        }
    }

    /// Computes the flips a read of each of `rows` observes at the current
    /// round, in `rows` order, splitting the work across `row_threads`
    /// scoped threads (with one thread it runs inline and spawns nothing).
    ///
    /// Per-row evaluation is pure in the chip's state as of the call (row
    /// contents, fault maps, stencils, round counter), so unique rows
    /// evaluate concurrently in first-occurrence order; a duplicate re-reads
    /// the same final content and repeats its first occurrence's flips.
    /// Fault maps and stencils a row lacks are built on its evaluating
    /// thread and installed serially afterwards in first-occurrence order,
    /// so FIFO eviction and counters do not depend on `row_threads`, and no
    /// install can evict a map the round still reads.
    fn eval_rows(&mut self, rows: &[RowId], row_threads: usize) -> Result<Vec<BitFlip>, DramError> {
        let mut unique: Vec<RowId> = Vec::with_capacity(rows.len());
        let mut slot: HashMap<RowId, usize> = HashMap::with_capacity(rows.len());
        for &row in rows {
            if slot.contains_key(&row) {
                continue;
            }
            self.geometry.check_row(row)?;
            if !self.rows.contains_key(&row) {
                return Err(DramError::RowNeverWritten {
                    row: row.to_string(),
                });
            }
            slot.insert(row, unique.len());
            unique.push(row);
        }

        let results: Vec<RowEval> = {
            let this: &DramChip = self;
            let eval_chunk = move |rows: &[RowId]| -> Vec<RowEval> {
                let mut coupled = this.arena.indices();
                let out = rows
                    .iter()
                    .map(|&row| this.eval_row(row, &mut coupled))
                    .collect();
                this.arena.recycle_indices(coupled);
                out
            };
            if row_threads <= 1 || unique.len() <= 1 {
                eval_chunk(&unique)
            } else {
                let chunk = unique.len().div_ceil(row_threads);
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = unique
                        .chunks(chunk)
                        .map(|rows| scope.spawn(move |_| eval_chunk(rows)))
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("row eval thread panicked"))
                        .collect()
                })
                .expect("scoped execution cannot fail to join")
            }
        };

        self.rec.incr(metrics::dram::ROW_READS, rows.len() as u64);
        let mut flips: Vec<Vec<BitFlip>> = Vec::with_capacity(results.len());
        for (&row, eval) in unique.iter().zip(results) {
            if let Some(map) = eval.map {
                self.install_fault_map(row, map);
            }
            // An earlier install in this loop may have evicted this row's
            // cached map; a stencil is only kept alongside its map.
            if let Some(st) = eval.stencil.filter(|_| self.fault_maps.contains_key(&row)) {
                self.stencils.insert(row, st);
            }
            flips.push(eval.flips);
        }
        Ok(rows
            .iter()
            .flat_map(|row| flips[slot[row]].iter().copied())
            .collect())
    }

    /// Pure per-row evaluation: the row's flips, plus the fault map and
    /// stencil it had to build because none was cached. `coupled` is
    /// scratch for the failing coupling indices. Takes `&self` so a round's
    /// rows can evaluate on concurrent threads.
    fn eval_row(&self, row: RowId, coupled: &mut Vec<u32>) -> RowEval {
        let data = &self.rows[&row];
        let built_map = (!self.fault_maps.contains_key(&row)).then(|| self.build_fault_map(row));
        let map = built_map.as_ref().unwrap_or_else(|| &self.fault_maps[&row]);
        let shift = self.coupling.theta_shift();
        let mut built_stencil = None;
        match self.kernel {
            KernelMode::Stencil => {
                let stencil = match self.stencils.get(&row) {
                    Some(st) => st,
                    None => built_stencil.insert(CouplingStencil::compile(map, shift)),
                };
                stencil.eval_into(data, coupled);
            }
            KernelMode::Reference => *coupled = map.coupling_fail_indices(data, shift),
        }
        RowEval {
            flips: self.assemble_flips(map, data, coupled, row),
            map: built_map,
            stencil: built_stencil,
        }
    }

    /// Expands failing coupling indices plus the round-dependent populations
    /// (marginal, VRT, soft noise) into the row's flip list.
    ///
    /// Single pass over the entries, walking the sorted failing-index list
    /// in lockstep, so flip order is identical to direct evaluation.
    fn assemble_flips(
        &self,
        map: &RowFaultMap,
        data: &RowBits,
        coupled: &[u32],
        row: RowId,
    ) -> Vec<BitFlip> {
        let mut flips = Vec::new();
        let mut ci = 0usize;
        for (idx, e) in map.entries.iter().enumerate() {
            let fails = match &e.kind {
                FaultKind::Coupling(_) => {
                    if coupled.get(ci) == Some(&(idx as u32)) {
                        ci += 1;
                        true
                    } else {
                        false
                    }
                }
                FaultKind::Marginal { fail_prob } => {
                    data.get(e.sys as usize) != e.anti
                        && marginal_fails(self.coupling.seed(), row, e.sys, self.round, *fail_prob)
                }
                FaultKind::Vrt => {
                    data.get(e.sys as usize) != e.anti
                        && vrt_leaky(
                            self.coupling.seed(),
                            row,
                            e.sys,
                            self.round,
                            self.coupling.rates().vrt_epoch_rounds,
                        )
                }
            };
            if fails {
                flips.push(BitFlip {
                    addr: BitAddr::new(row.bank, row.row, e.sys),
                    expected: data.get(e.sys as usize),
                });
            }
        }
        if let Some(col) = self.noise.soft_flip(
            self.coupling.seed(),
            row,
            self.round,
            self.geometry.cols_per_row as usize,
        ) {
            let addr = BitAddr::new(row.bank, row.row, col as u32);
            if !flips.iter().any(|f| f.addr == addr) {
                flips.push(BitFlip {
                    addr,
                    expected: data.get(col),
                });
            }
        }
        flips
    }

    /// The fault map of a row (built lazily, cached with FIFO eviction).
    pub fn fault_map(&mut self, row: RowId) -> &RowFaultMap {
        self.ensure_fault_map(row);
        self.fault_maps.get(&row).expect("just built")
    }

    /// Compiles a fresh [`CouplingStencil`] for a row, bypassing the chip's
    /// caches. Pure in `(seed, row, scrambler, rates, retention,
    /// theta_shift)` and `&self`, so snapshot builders (`parbor-serve`) can
    /// compile stencils for many rows without mutating the chip — and the
    /// result is bit-identical to the stencil the chip itself would serve
    /// from its cache for the same row at current conditions.
    pub fn compile_stencil(&self, row: RowId) -> CouplingStencil {
        self.coupling.compile_stencil(row)
    }

    /// Ground-truth oracle: every data-dependent cell of a row with its
    /// class at current conditions. For validation and coverage accounting
    /// only — PARBOR itself never calls this.
    pub fn oracle_data_dependent(&mut self, row: RowId) -> Vec<(u32, CellClass)> {
        let shift = self.coupling.theta_shift();
        crate::mechanism::oracle_cells(self.fault_map(row), shift)
    }

    fn ensure_fault_map(&mut self, row: RowId) {
        if self.fault_maps.contains_key(&row) {
            return;
        }
        let map = self.build_fault_map(row);
        self.install_fault_map(row, map);
    }

    /// Builds a row's fault map with the sampler matching the kernel mode.
    /// Pure (`&self`): safe to run for many rows on concurrent threads.
    ///
    /// The stencil (shipped) path translates through the compiled LUT —
    /// indexed loads instead of the div/mod chains — while the reference
    /// path keeps the arithmetic scrambler as the measurement baseline.
    /// Both produce identical maps: the LUT's tables are filled from the
    /// same scrambler.
    fn build_fault_map(&self, row: RowId) -> RowFaultMap {
        self.coupling.build_fault_map(row, self.kernel)
    }

    /// Caches a built fault map with FIFO eviction and build accounting.
    fn install_fault_map(&mut self, row: RowId, map: RowFaultMap) {
        // Building a fault map translates every system column once — through
        // the LUT on the stencil path, through the arithmetic scrambler on
        // the reference path. The split counters are what lets bench_report
        // show the per-call translations collapsing into table lookups.
        let translations = match self.kernel {
            KernelMode::Stencil => metrics::dram::SCRAMBLER_LUT_LOOKUPS,
            KernelMode::Reference => metrics::dram::SCRAMBLER_TRANSLATIONS,
        };
        self.rec
            .incr(translations, u64::from(self.geometry.cols_per_row));
        self.rec.incr(metrics::dram::FAULT_MAPS_BUILT, 1);
        self.fault_maps.insert(row, map);
        self.fault_map_order.push_back(row);
        self.evict_fault_maps();
        self.rec
            .gauge(metrics::dram::FAULT_MAP_CACHE, self.fault_maps.len() as i64);
    }

    fn evict_fault_maps(&mut self) {
        while self.fault_maps.len() > self.fault_map_cap {
            if let Some(old) = self.fault_map_order.pop_front() {
                self.fault_maps.remove(&old);
                // A stencil is only valid alongside its fault map.
                self.stencils.remove(&old);
                self.rec.incr(metrics::dram::FAULT_MAPS_EVICTED, 1);
            } else {
                break;
            }
        }
    }
}

/// One row's evaluation, plus the fault map and stencil it built because
/// none was cached (installed by the serial merge in
/// [`eval_rows`](DramChip::eval_rows)).
struct RowEval {
    flips: Vec<BitFlip>,
    map: Option<RowFaultMap>,
    stencil: Option<CouplingStencil>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use crate::vendor::Vendor;
    use parbor_obs::InMemoryRecorder;

    fn test_chip(seed: u64) -> DramChip {
        DramChip::new(ChipGeometry::new(1, 16, 8192).unwrap(), Vendor::A, seed).unwrap()
    }

    fn stripe_writes(rows: u32) -> Vec<(RowId, RowBits)> {
        (0..rows)
            .map(|r| {
                (
                    RowId::new(0, r),
                    PatternKind::ColStripe { period: 1 }.row_bits(r, 8192),
                )
            })
            .collect()
    }

    #[test]
    fn read_before_write_errors() {
        let mut chip = test_chip(1);
        assert!(matches!(
            chip.read_row(RowId::new(0, 0)),
            Err(DramError::RowNeverWritten { .. })
        ));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut chip = test_chip(1);
        let err = chip
            .write_row(RowId::new(0, 0), RowBits::zeros(100))
            .unwrap_err();
        assert!(matches!(err, DramError::WidthMismatch { .. }));
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut chip = test_chip(1);
        let err = chip
            .write_row(RowId::new(0, 99), RowBits::zeros(8192))
            .unwrap_err();
        assert!(matches!(err, DramError::AddressOutOfRange { .. }));
    }

    #[test]
    fn coupling_failures_are_data_dependent() {
        // With a high interesting rate, a striped pattern must produce some
        // coupling flips, and flips must change when the data changes.
        let mut chip = DramChip::with_parts(
            ChipGeometry::new(1, 32, 8192).unwrap(),
            Vendor::A.scrambler(8192),
            11,
            FaultRates {
                interesting: 0.02,
                marginal: 0.0,
                vrt: 0.0,
                soft_per_bit_per_round: 0.0,
                ..FaultRates::default()
            },
            RetentionModel::default(),
            Celsius(45.0),
            Seconds(4.0),
        )
        .unwrap();
        let rows: Vec<RowId> = (0..32).map(|r| RowId::new(0, r)).collect();
        let stripe: Vec<_> = rows
            .iter()
            .map(|&r| {
                (
                    r,
                    PatternKind::ColStripe { period: 1 }.row_bits(r.row, 8192),
                )
            })
            .collect();
        let solid: Vec<_> = rows
            .iter()
            .map(|&r| (r, PatternKind::Solid(true).row_bits(r.row, 8192)))
            .collect();
        let f_stripe = chip.run_round(stripe).unwrap();
        let f_solid = chip.run_round(solid).unwrap();
        assert!(!f_stripe.is_empty(), "stripe pattern found no failures");
        // Same cells should not all fail under both patterns: data dependence.
        let set_a: std::collections::HashSet<_> = f_stripe.iter().map(|f| f.addr).collect();
        let set_b: std::collections::HashSet<_> = f_solid.iter().map(|f| f.addr).collect();
        assert_ne!(set_a, set_b, "failure sets identical across patterns");
    }

    #[test]
    fn deterministic_across_identical_chips() {
        let mut a = test_chip(77);
        let mut b = test_chip(77);
        let writes: Vec<_> = (0..16)
            .map(|r| {
                (
                    RowId::new(0, r),
                    PatternKind::Random { seed: 3 }.row_bits(r, 8192),
                )
            })
            .collect();
        assert_eq!(
            a.run_round(writes.clone()).unwrap(),
            b.run_round(writes).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = test_chip(1);
        let mut b = test_chip(2);
        assert_ne!(
            a.run_round(stripe_writes(16)).unwrap(),
            b.run_round(stripe_writes(16)).unwrap()
        );
    }

    #[test]
    fn read_row_reflects_flips() {
        let mut chip = test_chip(5);
        let row = RowId::new(0, 3);
        let data = PatternKind::ColStripe { period: 1 }.row_bits(3, 8192);
        chip.write_row(row, data.clone()).unwrap();
        chip.advance_round();
        let read = chip.read_row(row).unwrap();
        let diffs = data.diff_indices(&read);
        // Flips may be zero for this seed/row, but reading twice at the same
        // round must be stable.
        let read2 = chip.read_row(row).unwrap();
        assert_eq!(read, read2);
        for d in diffs {
            assert!(d < 8192);
        }
    }

    #[test]
    fn conditions_affect_failure_population() {
        let mut cold = test_chip(9);
        let mut hot = test_chip(9);
        hot.set_conditions(Celsius(75.0), Seconds(4.0));
        let f_cold = cold.run_round(stripe_writes(16)).unwrap().len();
        let f_hot = hot.run_round(stripe_writes(16)).unwrap().len();
        assert!(f_hot > f_cold, "hot {f_hot} should exceed cold {f_cold}");
    }

    #[test]
    fn oracle_reports_data_dependent_cells() {
        let mut chip = test_chip(123);
        let mut total = 0;
        for r in 0..16 {
            total += chip.oracle_data_dependent(RowId::new(0, r)).len();
        }
        assert!(total > 0, "no data-dependent cells in 16 rows");
    }

    #[test]
    fn threaded_eval_matches_inline_with_duplicate_rows() {
        // Row 3 is written twice: both reads see its final content.
        let mut writes = stripe_writes(16);
        writes.push((
            RowId::new(0, 3),
            PatternKind::Random { seed: 9 }.row_bits(3, 8192),
        ));
        let mut inline = test_chip(31);
        let mut threaded = test_chip(31);
        for _ in 0..3 {
            let a = inline.run_round_split(writes.clone(), 1).unwrap();
            let b = threaded.run_round_split(writes.clone(), 4).unwrap();
            assert_eq!(a, b);
            let row = RowId::new(0, 3);
            let written = inline.written_row(row).unwrap().clone();
            let once = written.diff_indices(&inline.read_row(row).unwrap());
            assert!(!once.is_empty());
            let mut got: Vec<usize> = a
                .iter()
                .filter(|f| f.addr.row == 3)
                .map(|f| f.addr.col as usize)
                .collect();
            got.sort_unstable();
            let mut want = [once.clone(), once].concat();
            want.sort_unstable();
            assert_eq!(got, want, "duplicate read did not repeat its flips");
        }
    }

    #[test]
    fn rounds_larger_than_the_fault_map_cache_keep_results() {
        let mut roomy = test_chip(17);
        let mut tight = test_chip(17);
        tight.set_fault_map_capacity(2);
        for _ in 0..3 {
            let a = roomy.run_round(stripe_writes(16)).unwrap();
            let b = tight.run_round(stripe_writes(16)).unwrap();
            assert_eq!(a, b);
            assert_eq!(tight.fault_map_cache_len(), 2);
        }
    }

    #[test]
    fn condition_change_recompiles_stencils() {
        let mut chip = test_chip(9);
        let before = chip.run_round(stripe_writes(16)).unwrap();
        chip.set_conditions(Celsius(75.0), Seconds(4.0));
        let after = chip.run_round(stripe_writes(16)).unwrap();
        assert!(after.len() > before.len());
    }

    #[test]
    fn fault_map_cache_bounded_with_fifo_eviction() {
        let recorder = InMemoryRecorder::handle();
        let mut chip = test_chip(2).with_recorder(RecorderHandle::from(recorder.clone()));
        chip.set_fault_map_capacity(4);
        for r in 0..16 {
            chip.fault_map(RowId::new(0, r));
        }
        assert_eq!(chip.fault_map_cache_len(), 4);
        assert_eq!(recorder.counter("dram.fault_maps_evicted"), 12);
        assert_eq!(recorder.gauge_value("dram.fault_map_cache"), Some(4));
        // Rebuilding an evicted map is deterministic: results unchanged.
        let before: Vec<u32> = chip
            .fault_map(RowId::new(0, 0))
            .entries
            .iter()
            .map(|e| e.sys)
            .collect();
        chip.set_fault_map_capacity(1);
        chip.fault_map(RowId::new(0, 5));
        let after: Vec<u32> = chip
            .fault_map(RowId::new(0, 0))
            .entries
            .iter()
            .map(|e| e.sys)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn kernel_modes_bit_identical_through_lut() {
        // The stencil path now builds fault maps through the compiled LUT;
        // the reference path keeps the arithmetic scrambler. Same rounds,
        // same flips — the LUT must be invisible in results.
        let mut lut_chip = test_chip(21);
        let mut ref_chip = test_chip(21);
        ref_chip.set_kernel_mode(KernelMode::Reference);
        for _ in 0..3 {
            let a = lut_chip.run_round(stripe_writes(16)).unwrap();
            let b = ref_chip.run_round(stripe_writes(16)).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scrambler_counters_split_by_kernel_mode() {
        let lut_rec = InMemoryRecorder::handle();
        let mut chip = test_chip(6).with_recorder(RecorderHandle::from(lut_rec.clone()));
        chip.fault_map(RowId::new(0, 0));
        assert_eq!(lut_rec.counter("dram.scrambler_lut_lookups"), 8192);
        assert_eq!(lut_rec.counter("dram.scrambler_translations"), 0);

        let ref_rec = InMemoryRecorder::handle();
        let mut chip = test_chip(6).with_recorder(RecorderHandle::from(ref_rec.clone()));
        chip.set_kernel_mode(KernelMode::Reference);
        chip.fault_map(RowId::new(0, 0));
        assert_eq!(ref_rec.counter("dram.scrambler_lut_lookups"), 0);
        assert_eq!(ref_rec.counter("dram.scrambler_translations"), 8192);
    }

    #[test]
    fn arena_closes_the_round_buffer_cycle() {
        use parbor_hal::RoundArena;
        let arena = RoundArena::new();
        let mut chip = test_chip(13);
        chip.set_arena(arena.clone());
        // Round 1 inserts fresh rows (nothing replaced yet), round 2
        // replaces all 8 and must recycle every replaced image.
        chip.run_round(stripe_writes(8)).unwrap();
        let after_first = arena.recycled();
        chip.run_round(stripe_writes(8)).unwrap();
        assert!(
            arena.recycled() >= after_first + 8,
            "replaced row images were not recycled: {} -> {}",
            after_first,
            arena.recycled()
        );
        // Results stay identical to an arena-less chip.
        let mut plain = test_chip(13);
        plain.run_round(stripe_writes(8)).unwrap();
        let a = plain.run_round(stripe_writes(8)).unwrap();
        let mut pooled = test_chip(13);
        pooled.set_arena(RoundArena::new());
        pooled.run_round(stripe_writes(8)).unwrap();
        let b = pooled.run_round(stripe_writes(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_map_capacity_clamped_to_one() {
        let mut chip = test_chip(3);
        chip.set_fault_map_capacity(0);
        chip.fault_map(RowId::new(0, 7));
        // The just-built map must survive even at the minimum capacity.
        assert_eq!(chip.fault_map_cache_len(), 1);
    }
}
