//! One simulated DRAM chip: persistent row contents plus fault evaluation.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use parbor_obs::metrics;
use parbor_obs::RecorderHandle;

use crate::cell::{marginal_fails, vrt_leaky, CellClass, FaultKind, FaultRates, RowFaultMap};
use crate::config::{Celsius, Seconds};
use crate::mechanism::CouplingMechanism;
use crate::noise::NoiseModel;
use crate::retention::RetentionModel;
use crate::scrambler::{Scrambler, ScramblerLut};
use parbor_hal::hash::{Mix64Map, Mix64Set};
use parbor_hal::{row_populations, unit_stack_flips, FailureMechanism, StackWrite};
use parbor_hal::{BitAddr, BitFlip, ChipGeometry, DramError, RowBits, RowId, RowWrite};
use parbor_hal::{KernelMode, RoundArena};

use crate::stencil::CouplingStencil;

/// Default bound on the per-chip fault-map cache (entries, i.e. rows).
///
/// A fault map costs one hash screen per column to build (plus one
/// scrambler translation per faulty cell and per neighbor it references)
/// and is fully deterministic, so eviction only trades CPU for memory; 8192
/// rows covers an entire bank of the paper-scale geometry.
pub const DEFAULT_FAULT_MAP_CAPACITY: usize = 8192;

/// One simulated DRAM chip.
///
/// A chip owns its written row contents (system bit order) and evaluates the
/// fault model on read-after-wait. The canonical test primitive is
/// [`run_round`](DramChip::run_round): write a set of rows, wait one refresh
/// interval, read them back, and report every flipped bit — exactly what a
/// system-level tester can do through the memory controller.
///
/// Each row the chip has touched has one slot: its written image plus its
/// derived, rebuildable state — the fault map, the compiled stencil and the
/// extra mechanisms' populations. The derived state is evicted as a unit,
/// FIFO past [`DEFAULT_FAULT_MAP_CAPACITY`] rows; the cache size is
/// published as the `dram.fault_map_cache` gauge.
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
    // The chip's index in its module (0 for a standalone chip): the unit
    // the mechanism stack sees in each `RowView`.
    unit: u32,
    // The paper's data-dependent failure model (seed, scrambler + LUT,
    // fault rates, retention physics) in one struct. The chip's cached
    // fast path (fault maps, stencils) evaluates through it.
    coupling: CouplingMechanism,
    // Additional mechanisms (RowHammer, RowPress, retention drift, random
    // injection, …)
    // composed on top of the coupling model; evaluated once per round over
    // the round's write set, after the base model.
    extras: Vec<Arc<dyn FailureMechanism>>,
    temperature: Celsius,
    refresh_interval: Seconds,
    noise: NoiseModel,
    // One slot per touched row: every phase of a round finds all of a
    // row's state with one lookup.
    slots: Mix64Map<RowId, RowSlot>,
    // Rows holding derived state, oldest first (the FIFO eviction order).
    fault_map_order: VecDeque<RowId>,
    fault_map_cap: usize,
    kernel: KernelMode,
    round: u64,
    // Read calls so far: the stamp that tells a row's first read in a
    // call from a duplicate.
    reads: u64,
    rec: RecorderHandle,
    // Scratch pool for the coupling evaluation's failing-lane lists.
    // Swapped for a shared handle by `set_arena`.
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
            unit: 0,
            coupling,
            extras: Vec::new(),
            temperature,
            refresh_interval,
            noise,
            slots: Mix64Map::default(),
            fault_map_order: VecDeque::new(),
            fault_map_cap: DEFAULT_FAULT_MAP_CAPACITY,
            kernel: KernelMode::default(),
            round: 0,
            reads: 0,
            rec: RecorderHandle::null(),
            arena: RoundArena::new(),
        })
    }

    /// Places the chip at index `unit` of its module; set once at assembly.
    pub(crate) fn in_unit(mut self, unit: u32) -> Self {
        self.unit = unit;
        self
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

    /// The extra mechanisms composed on top of the coupling model.
    pub fn mechanisms(&self) -> &[Arc<dyn FailureMechanism>] {
        &self.extras
    }

    /// Replaces the extra-mechanism stack. Mechanisms observe each round's
    /// write set (activations, open time, neighbor content) and add their
    /// flips after the base model; inert mechanisms are kept but never
    /// consulted on the hot path. The cached per-row populations belong to
    /// the old stack and are dropped.
    pub fn set_mechanisms(&mut self, mechanisms: Vec<Arc<dyn FailureMechanism>>) {
        self.extras = mechanisms;
        for derived in self.derived_mut() {
            derived.populations = None;
        }
    }

    /// The derived state of every row that holds some.
    fn derived_mut(&mut self) -> impl Iterator<Item = &mut RowDerived> {
        self.slots
            .values_mut()
            .filter_map(|slot| slot.derived.as_deref_mut())
    }

    /// Replaces the chip's index scratch pool with a shared handle, so its
    /// reuse shows in the attaching executor's counters. Purely a
    /// performance hook: results are identical with any arena.
    pub fn set_arena(&mut self, arena: RoundArena) {
        self.arena = arena;
    }

    /// The chip's index scratch pool.
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
            self.drop_stencils();
        }
    }

    fn drop_stencils(&mut self) {
        for derived in self.derived_mut() {
            derived.stencil = None;
        }
    }

    /// Current number of cached fault maps (also the `dram.fault_map_cache`
    /// gauge).
    fn fault_map_cache_len(&self) -> usize {
        self.fault_map_order.len()
    }

    /// Bounds the fault-map cache to `cap` rows (clamped to ≥ 1), evicting
    /// oldest-built maps immediately if over. Fault maps are deterministic,
    /// so eviction never changes results — only rebuild cost.
    #[cfg(test)]
    fn set_fault_map_capacity(&mut self, cap: usize) {
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
        self.drop_stencils();
    }

    /// Writes a full row (system bit order). The image is kept as the row's
    /// content without copying: the chip only ever reads it. It is swapped
    /// into the row's slot, so `data` comes back holding the image it
    /// replaced (or still its own, shared, on a row's first write), and the
    /// caller drops the old image.
    ///
    /// # Errors
    ///
    /// Returns an error if the row is out of range or the data width does not
    /// match the geometry.
    fn write_row(&mut self, row: RowId, data: &mut Arc<RowBits>) -> Result<(), DramError> {
        self.geometry.check_row(row)?;
        if data.len() != self.geometry.cols_per_row as usize {
            return Err(DramError::WidthMismatch {
                got: data.len(),
                expected: self.geometry.cols_per_row as usize,
            });
        }
        match &mut self.slots.entry(row).or_default().image {
            Some(image) => std::mem::swap(image, data),
            empty => *empty = Some(Arc::clone(data)),
        }
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
        self.slots
            .get(&row)
            .and_then(|slot| slot.image.as_deref())
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
    #[cfg(test)]
    fn read_row(&mut self, row: RowId) -> Result<RowBits, DramError> {
        let mut flips = Vec::new();
        self.eval_rows([row], &mut flips)?;
        let mut out = self.written_row(row).expect("checked by eval_rows").clone();
        for f in flips {
            out.flip(f.addr.col as usize);
        }
        Ok(out)
    }

    /// The canonical test primitive: write all `writes`, wait one refresh
    /// interval, read each written row back, and return every flipped bit.
    ///
    /// Each image becomes the row's content as given: an owned image moves
    /// in, a shared one is kept by reference — no per-row copy.
    ///
    /// # Errors
    ///
    /// Fails on out-of-range rows or width mismatches; no writes are rolled
    /// back on error.
    pub fn run_round<D: Into<Arc<RowBits>>>(
        &mut self,
        writes: Vec<(RowId, D)>,
    ) -> Result<Vec<BitFlip>, DramError> {
        let mut writes: Vec<RowWrite> = writes
            .into_iter()
            .map(|(row, data)| RowWrite {
                unit: 0,
                row,
                data: data.into(),
            })
            .collect();
        let mut flips = Vec::new();
        self.round_into(&mut writes, &mut flips)?;
        Ok(flips)
    }

    /// [`run_round`](DramChip::run_round) in place: writes each image (each
    /// write comes back holding the image it replaced, see `write_row`),
    /// waits one refresh interval and appends the round's flips to `flips`
    /// in write order. Units are the caller's business.
    pub(crate) fn round_into(
        &mut self,
        writes: &mut [RowWrite],
        flips: &mut Vec<BitFlip>,
    ) -> Result<(), DramError> {
        let mut written = 0;
        let result = writes.iter_mut().try_for_each(|w| {
            self.write_row(w.row, &mut w.data)?;
            written += 1;
            Ok(())
        });
        self.rec.incr(metrics::dram::ROW_WRITES, written);
        result?;
        self.advance_round();
        let start = flips.len();
        let rows = writes.iter().map(|w| w.row);
        self.eval_rows(rows.clone(), flips)?;
        // Extra mechanisms observe the round's write set as a whole (they
        // need neighbor activations, not just this row), so they evaluate
        // once per round after the base model, in stack order.
        if !self.extras.is_empty() {
            self.merge_extra_flips(flips, start, rows);
        }
        Ok(())
    }

    /// Evaluates the extra-mechanism stack over the round's write set and
    /// merges its flips into the base model's, deduplicating by address
    /// (the base model wins; a mechanism re-flipping the same bit would
    /// cancel the observation, which no physical mechanism does).
    ///
    /// Each row's mechanism populations are drawn the first round the stack
    /// sees the row and kept in its slot beside the fault map. A row whose
    /// derived state was already evicted (a cache smaller than the round)
    /// draws them for this round only.
    fn merge_extra_flips(
        &mut self,
        flips: &mut Vec<BitFlip>,
        start: usize,
        rows: impl Iterator<Item = RowId> + Clone,
    ) {
        let width = self.geometry.cols_per_row;
        let mut uncached: Mix64Map<RowId, Vec<Vec<u32>>> = Mix64Map::default();
        for row in rows.clone() {
            let slot = self.slots.get_mut(&row).expect("written this round");
            match slot.derived.as_deref_mut() {
                Some(derived) => {
                    derived
                        .populations
                        .get_or_insert_with(|| row_populations(&self.extras, row, width));
                }
                None => {
                    uncached
                        .entry(row)
                        .or_insert_with(|| row_populations(&self.extras, row, width));
                }
            }
        }
        let extra = {
            let writes: Vec<StackWrite<'_>> = rows
                .map(|row| {
                    let slot = &self.slots[&row];
                    StackWrite {
                        row,
                        data: slot.image.as_deref().expect("written this round"),
                        populations: match slot.derived.as_deref() {
                            Some(derived) => derived.populations.as_deref().expect("drawn above"),
                            None => &uncached[&row],
                        },
                    }
                })
                .collect();
            // `advance_round` already ran: `round - 1` is this round's
            // 0-based index (the port's round clock before the round ran),
            // and the elapsed clock lands at the round's end.
            unit_stack_flips(
                &self.extras,
                &writes,
                self.unit,
                self.round - 1,
                self.round as f64 * self.refresh_interval.0,
            )
        };
        self.rec.incr(metrics::mech::ROUNDS, 1);
        // The stack already deduplicates its own flips by address, so only
        // the base flips can suppress one.
        let base: Mix64Set<BitAddr> = flips[start..].iter().map(|f| f.addr).collect();
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

    /// Appends the flips a read of each of `rows` observes at the current
    /// round to `flips`, in `rows` order, in one pass with one slot lookup
    /// per row.
    ///
    /// A row's first read in the call evaluates its final content; a
    /// duplicate copies that read's flips. A row without a cached fault map
    /// or stencil builds it and installs it in place. FIFO eviction waits
    /// for the end of the call, so no row loses state a later row of the
    /// call reads, and the cache ends as if each build had been installed
    /// in first-occurrence order. On error, the rows before the failing one
    /// keep what they built; results never depend on the cache.
    fn eval_rows(
        &mut self,
        rows: impl IntoIterator<Item = RowId>,
        flips: &mut Vec<BitFlip>,
    ) -> Result<(), DramError> {
        self.reads += 1;
        let mut tally = ReadTally::default();
        let mut coupled = self.arena.indices();
        let result = rows
            .into_iter()
            .try_for_each(|row| self.read_into(row, &mut tally, &mut coupled, flips));
        self.arena.recycle_indices(coupled);
        self.rec.incr(metrics::dram::ROW_READS, tally.rows);
        if tally.built > 0 {
            self.count_builds(tally.built, tally.translations);
            self.evict_fault_maps();
        }
        result
    }

    /// One row of [`eval_rows`](DramChip::eval_rows). `coupled` is scratch
    /// for the failing coupling cells as `(entry, column)` pairs.
    fn read_into(
        &mut self,
        row: RowId,
        tally: &mut ReadTally,
        coupled: &mut Vec<u32>,
        flips: &mut Vec<BitFlip>,
    ) -> Result<(), DramError> {
        self.geometry.check_row(row)?;
        let slot = self
            .slots
            .get_mut(&row)
            .filter(|slot| slot.image.is_some())
            .ok_or_else(|| DramError::RowNeverWritten {
                row: row.to_string(),
            })?;
        tally.rows += 1;
        if slot.read_call == self.reads {
            let (start, end) = slot.read_flips;
            flips.extend_from_within(start as usize..end as usize);
            return Ok(());
        }
        if slot.derived.is_none() {
            let map = self.coupling.build_fault_map(row, self.kernel);
            tally.built += 1;
            tally.translations += map.translations();
            slot.derived = Some(RowDerived::new(map));
            self.fault_map_order.push_back(row);
        }
        let data = slot.image.as_deref().expect("filtered above");
        let RowDerived {
            map,
            round_cells,
            stencil,
            ..
        } = slot.derived.as_deref_mut().expect("built above");
        let shift = self.coupling.theta_shift();
        coupled.clear();
        match self.kernel {
            KernelMode::Stencil => stencil
                .get_or_insert_with(|| CouplingStencil::compile(map, shift))
                .for_each_fail(data, |entry, col| coupled.extend([entry, col])),
            KernelMode::Reference => {
                for entry in map.coupling_fail_indices(data, shift) {
                    coupled.extend([entry, map.entries[entry as usize].sys]);
                }
            }
        }

        // Merge the failing coupling cells with the round-dependent cells
        // that fail this round, in entry order.
        let start = flips.len();
        let flip = |col: u32| BitFlip {
            addr: BitAddr::new(row.bank, row.row, col),
            expected: data.get(col as usize),
        };
        let (seed, round) = (self.coupling.seed(), self.round);
        let epoch = self.coupling.rates().vrt_epoch_rounds;
        let mut fails = coupled
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .peekable();
        let mut cells = round_cells
            .iter()
            .filter(|cell| cell.fails(seed, row, round, epoch, data))
            .map(|cell| (cell.entry, cell.col))
            .peekable();
        loop {
            let next = match (fails.peek(), cells.peek()) {
                (Some(f), Some(c)) if c.0 < f.0 => cells.next(),
                (Some(_), _) => fails.next(),
                (None, _) => cells.next(),
            };
            let Some((_, col)) = next else { break };
            flips.push(flip(col));
        }
        let width = self.geometry.cols_per_row as usize;
        if let Some(col) = self.noise.soft_flip(seed, row, round, width) {
            let col = col as u32;
            if !flips[start..].iter().any(|f| f.addr.col == col) {
                flips.push(flip(col));
            }
        }
        let offset = |at: usize| u32::try_from(at).expect("a chip-round holds under 2^32 flips");
        slot.read_call = self.reads;
        slot.read_flips = (offset(start), offset(flips.len()));
        Ok(())
    }

    /// The fault map of a row (built lazily, cached with FIFO eviction).
    pub fn fault_map(&mut self, row: RowId) -> &RowFaultMap {
        self.ensure_fault_map(row);
        &self.slots[&row].derived.as_ref().expect("just built").map
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
        if self
            .slots
            .get(&row)
            .is_some_and(|slot| slot.derived.is_some())
        {
            return;
        }
        let map = self.coupling.build_fault_map(row, self.kernel);
        self.count_builds(1, map.translations());
        self.slots.entry(row).or_default().derived = Some(RowDerived::new(map));
        self.fault_map_order.push_back(row);
        self.evict_fault_maps();
    }

    /// Counts fault-map builds and the scrambler translations they made:
    /// a build screens every column but translates only the cells it keeps,
    /// through the LUT on the stencil path and through the arithmetic
    /// scrambler on the reference path.
    fn count_builds(&self, built: u64, translations: u64) {
        let counter = match self.kernel {
            KernelMode::Stencil => metrics::dram::SCRAMBLER_LUT_LOOKUPS,
            KernelMode::Reference => metrics::dram::SCRAMBLER_TRANSLATIONS,
        };
        self.rec.incr(counter, translations);
        self.rec.incr(metrics::dram::FAULT_MAPS_BUILT, built);
    }

    /// Drops the oldest rows' derived state (map, stencil and populations
    /// together) until the cache fits its capacity, and publishes the cache
    /// size. A slot left with no written image goes with it.
    fn evict_fault_maps(&mut self) {
        while self.fault_map_order.len() > self.fault_map_cap {
            let Some(old) = self.fault_map_order.pop_front() else {
                break;
            };
            if let Entry::Occupied(mut slot) = self.slots.entry(old) {
                slot.get_mut().derived = None;
                if slot.get().image.is_none() {
                    slot.remove();
                }
            }
            self.rec.incr(metrics::dram::FAULT_MAPS_EVICTED, 1);
        }
        self.rec.gauge(
            metrics::dram::FAULT_MAP_CACHE,
            self.fault_map_cache_len() as i64,
        );
    }
}

/// Everything a chip keeps for one row.
#[derive(Debug, Default)]
struct RowSlot {
    /// The last data written (system bit order); `None` for a row whose
    /// fault map was inspected but which was never written.
    image: Option<Arc<RowBits>>,
    /// Rebuildable state derived from the row's address, FIFO-bounded by
    /// the fault-map capacity (boxed: the stencil is large, and the slot
    /// table stays compact).
    derived: Option<Box<RowDerived>>,
    /// The read call that last evaluated the row, and the range of that
    /// call's flips the read appended: a duplicate in the call copies them.
    read_call: u64,
    read_flips: (u32, u32),
}

/// A row's derived state; all of it is a pure function of the chip's
/// parameters and the row address, so eviction only costs a rebuild.
#[derive(Debug)]
struct RowDerived {
    map: RowFaultMap,
    /// The map's marginal and VRT cells, in entry order, so a read never
    /// walks the map's entries.
    round_cells: Vec<RoundCell>,
    /// Compiled lazily in stencil mode; dropped on kernel-mode and
    /// margin-shift changes, since θ is compiled in.
    stencil: Option<CouplingStencil>,
    /// The extra mechanisms' populations for this row
    /// ([`row_populations`]), drawn the first round the stack evaluates the
    /// row; dropped by `set_mechanisms`.
    populations: Option<Vec<Vec<u32>>>,
}

impl RowDerived {
    fn new(map: RowFaultMap) -> Box<Self> {
        let round_cells = map
            .entries
            .iter()
            .enumerate()
            .filter_map(|(entry, e)| {
                let kind = match e.kind {
                    FaultKind::Coupling(_) => return None,
                    FaultKind::Marginal { fail_prob } => RoundKind::Marginal(fail_prob),
                    FaultKind::Vrt => RoundKind::Vrt,
                };
                Some(RoundCell {
                    entry: entry as u32,
                    col: e.sys,
                    anti: e.anti,
                    kind,
                })
            })
            .collect();
        Box::new(RowDerived {
            map,
            round_cells,
            stencil: None,
            populations: None,
        })
    }
}

/// A fault-map cell whose failure depends on the round: its entry index
/// (the merge key against the stencil's failing lanes), system column and
/// polarity.
#[derive(Debug)]
struct RoundCell {
    entry: u32,
    col: u32,
    anti: bool,
    kind: RoundKind,
}

#[derive(Debug)]
enum RoundKind {
    /// Fails with this probability in each round it is charged.
    Marginal(f64),
    /// Fails while charged during its leaky VRT epochs.
    Vrt,
}

impl RoundCell {
    /// Whether the cell fails a read of `data` at `round`.
    fn fails(&self, seed: u64, row: RowId, round: u64, epoch_rounds: u64, data: &RowBits) -> bool {
        data.get(self.col as usize) != self.anti
            && match self.kind {
                RoundKind::Marginal(p) => marginal_fails(seed, row, self.col, round, p),
                RoundKind::Vrt => vrt_leaky(seed, row, self.col, round, epoch_rounds),
            }
    }
}

/// What one read call did, counted once at its end.
#[derive(Debug, Default)]
struct ReadTally {
    rows: u64,
    built: u64,
    translations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use crate::vendor::Vendor;
    use parbor_obs::ShardedRecorder;

    fn test_chip(seed: u64) -> DramChip {
        DramChip::new(ChipGeometry::new(1, 16, 8192).unwrap(), Vendor::A, seed).unwrap()
    }

    fn stripe_writes(rows: u32) -> Vec<(RowId, Arc<RowBits>)> {
        (0..rows)
            .map(|r| {
                (
                    RowId::new(0, r),
                    PatternKind::ColStripe { period: 1 }
                        .row_bits(r, 8192)
                        .into(),
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
            .write_row(RowId::new(0, 0), &mut Arc::new(RowBits::zeros(100)))
            .unwrap_err();
        assert!(matches!(err, DramError::WidthMismatch { .. }));
    }

    #[test]
    fn out_of_range_row_rejected() {
        let mut chip = test_chip(1);
        let err = chip
            .write_row(RowId::new(0, 99), &mut Arc::new(RowBits::zeros(8192)))
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
        chip.write_row(row, &mut Arc::new(data.clone())).unwrap();
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
    fn duplicate_rows_repeat_the_final_contents_flips() {
        // Row 3 is written twice: both reads see its final content.
        let mut writes = stripe_writes(16);
        writes.push((
            RowId::new(0, 3),
            PatternKind::Random { seed: 9 }.row_bits(3, 8192).into(),
        ));
        let mut chip = test_chip(31);
        for _ in 0..3 {
            let a = chip.run_round(writes.clone()).unwrap();
            let row = RowId::new(0, 3);
            let written = chip.written_row(row).unwrap().clone();
            let once = written.diff_indices(&chip.read_row(row).unwrap());
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
        let recorder = ShardedRecorder::handle();
        let mut chip = test_chip(2).with_recorder(RecorderHandle::from(recorder.clone()));
        chip.set_fault_map_capacity(4);
        for r in 0..16 {
            chip.fault_map(RowId::new(0, r));
        }
        assert_eq!(chip.fault_map_cache_len(), 4);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("dram.fault_maps_evicted"), 12);
        assert_eq!(snap.gauge("dram.fault_map_cache"), Some(4));
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
        let lut_rec = ShardedRecorder::handle();
        let mut chip = test_chip(6).with_recorder(RecorderHandle::from(lut_rec.clone()));
        chip.fault_map(RowId::new(0, 0));
        let lut = lut_rec.snapshot();
        // One translation per faulty cell and per neighbor it references,
        // not one per column.
        assert_eq!(lut.counter("dram.scrambler_lut_lookups"), 103);
        assert_eq!(lut.counter("dram.scrambler_translations"), 0);

        let ref_rec = ShardedRecorder::handle();
        let mut chip = test_chip(6).with_recorder(RecorderHandle::from(ref_rec.clone()));
        chip.set_kernel_mode(KernelMode::Reference);
        chip.fault_map(RowId::new(0, 0));
        let reference = ref_rec.snapshot();
        assert_eq!(reference.counter("dram.scrambler_lut_lookups"), 0);
        assert_eq!(reference.counter("dram.scrambler_translations"), 103);
    }

    #[test]
    fn shared_images_are_stored_without_copying() {
        let image = Arc::new(RowBits::ones(8192));
        let mut chip = test_chip(13);
        chip.run_round(vec![
            (RowId::new(0, 0), Arc::clone(&image)),
            (RowId::new(0, 1), Arc::clone(&image)),
        ])
        .unwrap();
        for r in 0..2 {
            let stored = chip.written_row(RowId::new(0, r)).unwrap();
            assert!(std::ptr::eq(stored, &*image), "row {r} copied its image");
        }
        // Rewriting a row drops the chip's reference to the old image.
        chip.write_row(RowId::new(0, 0), &mut Arc::new(RowBits::zeros(8192)))
            .unwrap();
        assert_eq!(Arc::strong_count(&image), 2);
    }

    #[test]
    fn shared_arena_serves_index_scratch_without_changing_results() {
        use parbor_hal::RoundArena;
        let arena = RoundArena::new();
        let mut pooled = test_chip(13);
        pooled.set_arena(arena.clone());
        pooled.run_round(stripe_writes(8)).unwrap();
        let b = pooled.run_round(stripe_writes(8)).unwrap();
        // Each round's evaluation takes its scratch list from the shared pool.
        assert_eq!(arena.hits() + arena.misses(), 2);
        let mut plain = test_chip(13);
        plain.run_round(stripe_writes(8)).unwrap();
        let a = plain.run_round(stripe_writes(8)).unwrap();
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

    fn hammer(seed: u64) -> Vec<Arc<dyn FailureMechanism>> {
        vec![Arc::new(parbor_hal::HammerMechanism {
            rate: 0.01,
            seed,
            ..parbor_hal::HammerMechanism::default()
        })]
    }

    #[test]
    fn replacing_the_stack_drops_the_cached_populations() {
        // Both chips run the same rounds; `swapped` caches seed-1
        // populations first, then switches to the seed-2 stack `fresh`
        // carried all along. Stale populations would keep seed 1's cells.
        let mut swapped = test_chip(41);
        let mut fresh = test_chip(41);
        swapped.set_mechanisms(hammer(1));
        fresh.set_mechanisms(hammer(2));
        let mut before = Vec::new();
        for _ in 0..2 {
            before = swapped.run_round(stripe_writes(16)).unwrap();
            fresh.run_round(stripe_writes(16)).unwrap();
        }
        swapped.set_mechanisms(hammer(2));
        for _ in 0..2 {
            let a = swapped.run_round(stripe_writes(16)).unwrap();
            let b = fresh.run_round(stripe_writes(16)).unwrap();
            assert_eq!(a, b);
            assert_ne!(a, before, "the two hammer seeds flip the same cells");
        }
    }

    #[test]
    fn a_tight_fault_map_cache_keeps_stack_flips() {
        // At capacity 1 all but the last row of a round lose their derived
        // state before the stack runs, so their populations are drawn per
        // round instead of cached; the flips must not change.
        let mut roomy = test_chip(43);
        let mut tight = test_chip(43);
        roomy.set_mechanisms(hammer(5));
        tight.set_mechanisms(hammer(5));
        tight.set_fault_map_capacity(1);
        let mut stack_flips = 0;
        for _ in 0..3 {
            let a = roomy.run_round(stripe_writes(16)).unwrap();
            let b = tight.run_round(stripe_writes(16)).unwrap();
            assert_eq!(a, b);
            assert_eq!(tight.fault_map_cache_len(), 1);
            stack_flips += a.len();
        }
        let mut plain = test_chip(43);
        let bare: usize = (0..3)
            .map(|_| plain.run_round(stripe_writes(16)).unwrap().len())
            .sum();
        assert!(stack_flips > bare, "the hammer stack added no flips");
    }

    #[test]
    fn a_read_that_fails_midway_leaves_later_rounds_unchanged() {
        let mut failed = test_chip(29);
        let mut clean = test_chip(29);
        for chip in [&mut failed, &mut clean] {
            chip.set_fault_map_capacity(2);
        }
        // Four fresh rows build their maps before the read reaches a row
        // that was never written.
        for (row, mut data) in stripe_writes(4) {
            failed.write_row(row, &mut data).unwrap();
        }
        failed.advance_round();
        clean.advance_round();
        let rows = (0..4).map(|r| RowId::new(0, r)).chain([RowId::new(0, 12)]);
        let mut flips = Vec::new();
        assert!(matches!(
            failed.eval_rows(rows, &mut flips),
            Err(DramError::RowNeverWritten { .. })
        ));
        assert_eq!(failed.fault_map_cache_len(), 2);
        for _ in 0..2 {
            assert_eq!(
                failed.run_round(stripe_writes(16)).unwrap(),
                clean.run_round(stripe_writes(16)).unwrap()
            );
        }
    }

    /// The read the chip made before its one-pass read, kept as the
    /// oracle: walk every entry of the row's fault map in order, coupling
    /// cells from the scalar kernel, then add the soft error.
    fn walk_flips(chip: &DramChip, row: RowId) -> Vec<BitFlip> {
        let data = chip.written_row(row).unwrap();
        let map = chip.coupling.build_fault_map(row, KernelMode::Stencil);
        let coupled = map.coupling_fail_indices(data, chip.theta_shift());
        let (seed, round) = (chip.seed(), chip.round);
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
                        && marginal_fails(seed, row, e.sys, round, *fail_prob)
                }
                FaultKind::Vrt => {
                    data.get(e.sys as usize) != e.anti
                        && vrt_leaky(
                            seed,
                            row,
                            e.sys,
                            round,
                            chip.coupling.rates().vrt_epoch_rounds,
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
        let width = chip.geometry.cols_per_row as usize;
        if let Some(col) = chip.noise.soft_flip(seed, row, round, width) {
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

    mod one_pass {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn chip_reads_match_the_fault_map_walk(
                vendor in 0usize..3,
                seed in any::<u64>(),
                contents in any::<u64>(),
                structured in any::<bool>(),
                reference in any::<bool>(),
                cap in 1usize..12,
                rounds in 2u32..6,
                every_read_soft in any::<bool>(),
            ) {
                // Raised rates: most rows carry marginal and VRT cells, VRT
                // epochs turn over every two rounds, and soft errors land
                // on about one read in ten, or on every read (some on a
                // cell that already failed).
                let vendor = Vendor::ALL[vendor];
                let rates = FaultRates {
                    interesting: 0.02,
                    marginal: 0.004,
                    vrt: 0.004,
                    vrt_epoch_rounds: 2,
                    soft_per_bit_per_round: if every_read_soft { 1e-3 } else { 1e-4 },
                    ..vendor.default_rates()
                };
                let mut chip = DramChip::with_parts(
                    ChipGeometry::new(1, 16, 1024).unwrap(),
                    vendor.scrambler(1024),
                    seed,
                    rates,
                    RetentionModel::default(),
                    Celsius(45.0),
                    Seconds(4.0),
                )
                .unwrap();
                // Mostly smaller than a round's nine reads.
                chip.set_fault_map_capacity(cap);
                if reference {
                    chip.set_kernel_mode(KernelMode::Reference);
                }
                for round in 0..rounds {
                    let mix = crate::hash::mix64(contents ^ u64::from(round));
                    let mut rows: Vec<RowId> =
                        (0..8).map(|i| RowId::new(0, (mix >> (4 * i)) as u32 % 16)).collect();
                    // At least one duplicate, written twice with different
                    // contents: both reads see the final one.
                    rows.push(rows[0]);
                    let writes: Vec<(RowId, RowBits)> = rows
                        .iter()
                        .enumerate()
                        .map(|(i, &row)| {
                            let pick = mix.rotate_left(i as u32 * 7);
                            let pattern = match (structured, pick % 4) {
                                (false, _) => PatternKind::Random { seed: pick },
                                (true, 0) => PatternKind::Solid(pick & 4 != 0),
                                (true, 1) => PatternKind::Checkerboard,
                                (true, _) => PatternKind::ColStripe { period: 1 + (pick >> 8) as u32 % 4 },
                            };
                            (row, pattern.row_bits(row.row, 1024))
                        })
                        .collect();
                    let got = chip.run_round(writes).unwrap();
                    let want: Vec<BitFlip> =
                        rows.iter().flat_map(|&row| walk_flips(&chip, row)).collect();
                    prop_assert_eq!(got, want);
                    prop_assert!(chip.fault_map_cache_len() <= cap);
                }
            }
        }
    }
}
