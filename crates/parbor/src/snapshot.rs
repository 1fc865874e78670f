//! Immutable compiled-stencil snapshots for online content checks.
//!
//! PARBOR's payoff is the online question DC-REF asks on the live access
//! path: *is this row's current content a worst-case coupling pattern?*
//! Answering it at memory-system rates means the per-query work must be a
//! single compiled-kernel evaluation — no fault-map builds, no scrambler
//! arithmetic, no locks. A [`StencilSnapshot`] front-loads all of that: it
//! compiles every tracked row's [`CouplingStencil`] once (plus the chip's
//! [`ScramblerLut`] translation tables), freezes them behind a dense
//! `(unit, bank, row) → slot` index, and from then on serves lookups from
//! shared immutable memory. `parbor-serve` shards these per module across
//! worker cores.
//!
//! Two build scopes exist:
//!
//! - [`StencilSnapshot::compile`] covers **every row** of the module — the
//!   ground truth used by benchmarks and the bit-identity proptests.
//! - [`StencilSnapshot::compile_filtered`] covers only the rows a scanned
//!   [`FailureProfile`] flagged — the production path, where the fleet's
//!   profile store tells the daemon which rows are worth watching.
//!
//! Both compile through [`DramChip::compile_stencil`], so a snapshot answer
//! is bit-identical to what the chip itself would report for the same row
//! content at the same conditions.

use std::collections::BTreeSet;
use std::sync::Arc;

use parbor_dram::{CouplingStencil, DramModule, RowBits, RowId, ScramblerLut};

use crate::scan::FailureProfile;

/// Index sentinel for rows without a compiled stencil.
const UNTRACKED: u32 = u32::MAX;

/// One module's compiled content-check state: a dense row index over
/// compiled [`CouplingStencil`]s plus the per-chip scrambler LUTs.
///
/// Immutable after compilation and cheap to share (`Arc` it); evaluation
/// takes `&self` and writes the indices of the failing fault-map entries
/// into a caller-provided buffer, so the hot path allocates nothing.
///
/// # Examples
///
/// ```
/// use parbor_core::StencilSnapshot;
/// use parbor_dram::{ChipGeometry, ModuleConfig, RowId, Vendor};
/// use parbor_hal::RowBits;
///
/// let module = ModuleConfig::new(Vendor::A)
///     .geometry(ChipGeometry::tiny())
///     .chips(1)
///     .build()
///     .unwrap();
/// let snap = StencilSnapshot::compile(&module);
/// let row = RowId::new(0, 3);
/// let content = RowBits::ones(snap.row_len());
/// let mut fails = Vec::new();
/// assert!(snap.eval_into(0, row, &content, &mut fails));
/// // Bit-identical to asking the chip directly:
/// let direct = module.chips()[0].compile_stencil(row).eval(&content);
/// assert_eq!(fails, direct);
/// ```
#[derive(Debug, Clone)]
pub struct StencilSnapshot {
    name: String,
    units: u32,
    banks: u32,
    rows_per_bank: u32,
    row_len: usize,
    /// Dense `(unit, bank, row) → stencil slot` map; [`UNTRACKED`] marks
    /// rows with no compiled stencil.
    index: Vec<u32>,
    stencils: Vec<CouplingStencil>,
    /// Per-unit scrambler translation tables, shared with the chips.
    luts: Vec<Arc<ScramblerLut>>,
    stored: bool,
}

impl StencilSnapshot {
    /// Compiles stencils for **every row of every chip** in the module.
    ///
    /// This is the ground-truth scope: content checks against it answer
    /// for any row, which is what benchmarks and bit-identity tests want.
    /// Cost is one fault-map build + stencil compile per row, so keep the
    /// geometry modest (the experiment-slice presets compile in
    /// milliseconds; the full paper geometry would take minutes).
    pub fn compile(module: &DramModule) -> StencilSnapshot {
        Self::compile_inner(module, None, false)
    }

    /// Compiles stencils only for the rows `profile` flagged as failing.
    ///
    /// This is the production scope: a fleet scan found the vulnerable
    /// rows, the profile landed in the store, and the daemon only needs
    /// stencils for those. Content checks on unflagged rows report
    /// *untracked* (no failing lanes), matching DC-REF's contract that
    /// unprofiled rows stay on the conservative refresh schedule.
    /// Cells outside the module's geometry are ignored.
    pub fn compile_filtered(module: &DramModule, profile: &FailureProfile) -> StencilSnapshot {
        let rows: BTreeSet<(u32, RowId)> = profile
            .failures
            .iter()
            .map(|c| (c.unit, RowId::new(c.bank, c.row)))
            .collect();
        Self::compile_inner(module, Some(&rows), true)
    }

    fn compile_inner(
        module: &DramModule,
        filter: Option<&BTreeSet<(u32, RowId)>>,
        stored: bool,
    ) -> StencilSnapshot {
        let chips = module.chips();
        let geom = chips
            .first()
            .expect("a built module has at least one chip")
            .geometry();
        let units = chips.len() as u32;
        let slots = units as usize * geom.banks as usize * geom.rows_per_bank as usize;
        let mut index = vec![UNTRACKED; slots];
        let mut stencils = Vec::new();
        let mut luts = Vec::with_capacity(chips.len());
        for (unit, chip) in chips.iter().enumerate() {
            luts.push(Arc::clone(chip.scrambler_lut()));
            for row in geom.rows() {
                if let Some(wanted) = filter {
                    if !wanted.contains(&(unit as u32, row)) {
                        continue;
                    }
                }
                let slot = stencils.len() as u32;
                stencils.push(chip.compile_stencil(row));
                let flat = Self::flat(&geom, unit as u32, row);
                index[flat] = slot;
            }
        }
        StencilSnapshot {
            name: module.name(),
            units,
            banks: geom.banks,
            rows_per_bank: geom.rows_per_bank,
            row_len: geom.cols_per_row as usize,
            index,
            stencils,
            luts,
            stored,
        }
    }

    fn flat(geom: &parbor_dram::ChipGeometry, unit: u32, row: RowId) -> usize {
        (unit as usize * geom.banks as usize + row.bank as usize) * geom.rows_per_bank as usize
            + row.row as usize
    }

    /// The module name this snapshot was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the snapshot was restricted to a stored profile's rows
    /// ([`compile_filtered`](StencilSnapshot::compile_filtered)).
    pub fn stored(&self) -> bool {
        self.stored
    }

    /// Row width in bits (request content must match).
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Number of compiled stencils (tracked rows).
    pub fn stencil_count(&self) -> usize {
        self.stencils.len()
    }

    /// Number of chips (units) in the module.
    pub fn units(&self) -> u32 {
        self.units
    }

    /// Every tracked `(unit, row)` pair, in index order. Load generators
    /// use this as the target population.
    pub fn tracked_rows(&self) -> Vec<(u32, RowId)> {
        let mut out = Vec::with_capacity(self.stencils.len());
        let per_unit = self.banks as usize * self.rows_per_bank as usize;
        for (flat, slot) in self.index.iter().enumerate() {
            if *slot == UNTRACKED {
                continue;
            }
            let unit = (flat / per_unit) as u32;
            let rem = flat % per_unit;
            let bank = (rem / self.rows_per_bank as usize) as u32;
            let row = (rem % self.rows_per_bank as usize) as u32;
            out.push((unit, RowId::new(bank, row)));
        }
        out
    }

    /// The scrambler translation tables of a unit, shared with the chip.
    /// `None` for out-of-range units.
    pub fn lut(&self, unit: u32) -> Option<&Arc<ScramblerLut>> {
        self.luts.get(unit as usize)
    }

    /// Evaluates the row's compiled stencil against `content`, writing the
    /// indices of the failing entries of the row's fault map into `out`
    /// (cleared first, ascending order). They are positions in the map, not
    /// column numbers.
    ///
    /// Returns `true` when the row is tracked. Untracked or out-of-range
    /// rows clear `out` and return `false` — the conservative "no profile,
    /// no exemption" answer. The result is bit-identical to
    /// [`DramChip::compile_stencil`] + [`CouplingStencil::eval`] on the
    /// same inputs.
    ///
    /// [`DramChip::compile_stencil`]: parbor_dram::DramChip::compile_stencil
    pub fn eval_into(&self, unit: u32, row: RowId, content: &RowBits, out: &mut Vec<u32>) -> bool {
        match self.slot(unit, row) {
            Some(slot) => {
                self.stencils[slot].eval_into(content, out);
                true
            }
            None => {
                out.clear();
                false
            }
        }
    }

    fn slot(&self, unit: u32, row: RowId) -> Option<usize> {
        if unit >= self.units || row.bank >= self.banks || row.row >= self.rows_per_bank {
            return None;
        }
        let flat = (unit as usize * self.banks as usize + row.bank as usize)
            * self.rows_per_bank as usize
            + row.row as usize;
        match self.index[flat] {
            UNTRACKED => None,
            slot => Some(slot as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FailingCell;
    use parbor_dram::{ChipGeometry, ModuleConfig, Vendor};

    fn tiny_module() -> DramModule {
        ModuleConfig::new(Vendor::A)
            .chips(2)
            .geometry(ChipGeometry::tiny())
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn full_snapshot_matches_direct_stencil_eval() {
        let module = tiny_module();
        let snap = StencilSnapshot::compile(&module);
        assert_eq!(snap.stencil_count(), 2 * 8);
        let content = RowBits::from_fn(snap.row_len(), |i| i % 3 == 0);
        let mut fails = Vec::new();
        for (unit, row) in snap.tracked_rows() {
            assert!(snap.eval_into(unit, row, &content, &mut fails));
            let direct = module.chips()[unit as usize]
                .compile_stencil(row)
                .eval(&content);
            assert_eq!(fails, direct, "unit {unit} row {row:?}");
        }
    }

    #[test]
    fn filtered_snapshot_tracks_only_profiled_rows() {
        let module = tiny_module();
        let profile = FailureProfile {
            failures: vec![
                FailingCell {
                    unit: 1,
                    bank: 0,
                    row: 3,
                    col: 5,
                    value: true,
                },
                FailingCell {
                    unit: 1,
                    bank: 0,
                    row: 3,
                    col: 9,
                    value: false,
                },
                // Out-of-geometry cell: ignored, not a panic.
                FailingCell {
                    unit: 9,
                    bank: 4,
                    row: 999,
                    col: 0,
                    value: true,
                },
            ],
            victim_count: 2,
            discovery_rounds: 0,
            tests_per_level: Vec::new(),
            recursion_tests: 0,
            distances: Vec::new(),
            chipwide_rounds: 0,
        };
        let snap = StencilSnapshot::compile_filtered(&module, &profile);
        assert!(snap.stored());
        assert_eq!(snap.stencil_count(), 1);
        assert_eq!(snap.tracked_rows(), vec![(1, RowId::new(0, 3))]);
        let content = RowBits::ones(snap.row_len());
        let mut fails = Vec::new();
        assert!(snap.eval_into(1, RowId::new(0, 3), &content, &mut fails));
        let direct = module.chips()[1]
            .compile_stencil(RowId::new(0, 3))
            .eval(&content);
        assert_eq!(fails, direct);
        // Untracked row: cleared output, `false`, no panic.
        fails.push(42);
        assert!(!snap.eval_into(0, RowId::new(0, 0), &content, &mut fails));
        assert!(fails.is_empty());
        // Out-of-range coordinates are untracked, not a panic.
        assert!(!snap.eval_into(7, RowId::new(3, 900), &content, &mut fails));
    }
}
