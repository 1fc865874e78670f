//! Step 1: discovering the initial set of victim cells (paper §5.2.1).
//!
//! PARBOR needs known data-dependent victims to anchor the recursion: testing
//! a random cell would likely find nothing, because most cells are robust.
//! The scout writes a family of diverse data patterns — each with its inverse
//! so both true- and anti-cells get charged (paper footnote 3) — and keeps
//! every cell that failed under *some* pattern but passed under another.
//! Such cells are *likely* data-dependent; cells that are actually marginal
//! or VRT sneak in and are filtered later (§5.2.4).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use parbor_dram::{BitAddr, PatternSet, RowId};
use parbor_hal::hash::Mix64Map;
use parbor_hal::{RoundExecutor, RoundPlan, TestPort};
use parbor_obs::metrics;
use parbor_obs::{span, RecorderHandle};

use crate::error::{check_round, ParborError};
use crate::pipeline::Parbor;

/// Identifies the row-space a victim lives in: a unit (chip) and a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VictimKey {
    /// Unit (chip) index within the test port.
    pub unit: u32,
    /// The row.
    pub row: RowId,
}

/// A cell that exhibited a data-dependent-looking failure during discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Victim {
    /// Unit (chip) index.
    pub unit: u32,
    /// Row containing the victim.
    pub row: RowId,
    /// System column of the victim.
    pub col: u32,
    /// The written value under which the victim failed (i.e. the value that
    /// charges the cell). The recursion writes this value back into the
    /// victim so it stays vulnerable.
    pub fail_value: bool,
}

impl Victim {
    /// The victim's row-space key.
    pub fn key(&self) -> VictimKey {
        VictimKey {
            unit: self.unit,
            row: self.row,
        }
    }
}

// Lets `VictimKey` key serialized maps (JSON object keys must be strings).
impl serde::MapKey for VictimKey {
    fn to_key(&self) -> String {
        format!("{}:{}:{}", self.unit, self.row.bank, self.row.row)
    }

    fn from_key(s: &str) -> Result<Self, serde::Error> {
        let bad = || serde::Error::msg(format!("invalid VictimKey map key {s:?}"));
        let mut parts = s.splitn(3, ':');
        let mut next = || parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad);
        Ok(VictimKey {
            unit: next()?,
            row: RowId::new(next()?, next()?),
        })
    }
}

/// The discovered victim population.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VictimSet {
    victims: Vec<Victim>,
}

impl VictimSet {
    /// Creates a victim set from raw victims, sorted by (unit, bank, row,
    /// column).
    fn from_victims(mut victims: Vec<Victim>) -> Self {
        victims.sort_by_key(|v| (v.unit, v.row.bank, v.row.row, v.col));
        VictimSet { victims }
    }

    /// All victims, sorted by (unit, bank, row, column).
    pub fn victims(&self) -> &[Victim] {
        &self.victims
    }

    /// Number of victims.
    pub fn len(&self) -> usize {
        self.victims.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty()
    }

    /// Selects victims for the recursion: at most one per (unit, row) — the
    /// parallel rounds write one victim-specific pattern per row — truncated
    /// to `limit` if given (the paper's *sample size*, Fig 15).
    pub fn select_for_recursion(&self, limit: Option<usize>) -> Vec<Victim> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for v in &self.victims {
            if seen.insert(v.key()) {
                out.push(*v);
                if let Some(l) = limit {
                    if out.len() >= l {
                        break;
                    }
                }
            }
        }
        out
    }
}

/// The discovery pattern family: builds each discovery round, and is what
/// [`DiscoverState`] steps through.
#[derive(Debug, Clone)]
pub struct VictimScout {
    patterns: PatternSet,
}

impl VictimScout {
    /// The paper's 10-round discovery scout (5 patterns × pattern/inverse).
    pub fn new(seed: u64) -> Self {
        VictimScout {
            patterns: PatternSet::discovery(seed),
        }
    }

    /// Number of test rounds the scout will run.
    pub fn rounds(&self) -> usize {
        self.patterns.round_count()
    }

    /// Builds discovery round `index` — the `index / 2`-th pattern, or its
    /// inverse for odd indices — one image per row, shared by every unit.
    /// Any round can be built on its own, so a checkpointed scan resumes
    /// mid-stage without materializing the prefix it already ran.
    fn round_plan(&self, index: usize, units: u32, rows: &[RowId], width: usize) -> RoundPlan {
        let pattern = &self.patterns.patterns()[index / 2];
        let invert = index % 2 == 1;
        RoundPlan::broadcast(units, rows, |row| {
            if invert {
                pattern.inverse().row_bits(row.row, width)
            } else {
                pattern.row_bits(row.row, width)
            }
        })
    }
}

/// Address of one cell across the whole port: unit (chip) plus bit address.
///
/// Orderable and usable as a serialized map key, so checkpointed per-cell
/// accumulations serialize deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Unit (chip) index within the test port.
    pub unit: u32,
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// System column (bit) index within the row.
    pub col: u32,
}

impl CellKey {
    /// Builds the key of one flip location.
    pub fn new(unit: u32, addr: BitAddr) -> Self {
        CellKey {
            unit,
            bank: addr.bank,
            row: addr.row,
            col: addr.col,
        }
    }

    /// The bit address part of the key.
    pub fn addr(&self) -> BitAddr {
        BitAddr::new(self.bank, self.row, self.col)
    }
}

// Lets `CellKey` key serialized maps (JSON object keys must be strings).
impl serde::MapKey for CellKey {
    fn to_key(&self) -> String {
        format!("{}:{}:{}:{}", self.unit, self.bank, self.row, self.col)
    }

    fn from_key(s: &str) -> Result<Self, serde::Error> {
        let bad = || serde::Error::msg(format!("invalid CellKey map key {s:?}"));
        let mut parts = s.splitn(4, ':');
        let mut next = || parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad);
        Ok(CellKey {
            unit: next()?,
            bank: next()?,
            row: next()?,
            col: next()?,
        })
    }
}

/// Merges one step's per-cell accumulation into a stage's checkpointed
/// map: each distinct cell enters the map once, in key order, and an empty
/// map is bulk-built. For a cell already in the map, `fold` merges the
/// step's entry into the earlier one.
pub(crate) fn merge_sorted<V>(
    map: &mut BTreeMap<CellKey, V>,
    step: Mix64Map<CellKey, V>,
    mut fold: impl FnMut(&mut V, V),
) {
    let mut cells: Vec<(CellKey, V)> = step.into_iter().collect();
    cells.sort_unstable_by_key(|&(key, _)| key);
    if map.is_empty() {
        *map = cells.into_iter().collect();
        return;
    }
    for (key, value) in cells {
        match map.entry(key) {
            Entry::Occupied(mut earlier) => fold(earlier.get_mut(), value),
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
    }
}

/// Per-cell accumulation of the discovery stage: how often the cell failed
/// and the value written at its first failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeenCell {
    /// Rounds in which the cell flipped.
    pub fails: usize,
    /// The value written at the first observed failure (the cell's charged
    /// polarity).
    pub value: bool,
}

/// Checkpointable progress of the discovery stage: the only place its
/// rounds run. [`Parbor::discover`](crate::Parbor::discover) steps one of
/// these to completion in a single call; a checkpointed scan
/// ([`ScanMachine`](crate::ScanMachine)) serializes it between steps.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiscoverState {
    next_round: usize,
    /// Every cell that flipped in the rounds run so far: its fail count and
    /// the value written at its first failure. Each step folds its flips
    /// per cell before they enter the map, and steps run in round order, so
    /// any split of the rounds into steps gives the same map.
    seen: BTreeMap<CellKey, SeenCell>,
}

impl DiscoverState {
    /// Executes up to `budget` of the remaining rounds as one batch (a
    /// multi-chip module runs it chip-parallel) in one `pipeline.discover`
    /// span, on `parbor`'s rows and arena. Returns the rounds executed and,
    /// once the last round has run, the victim set.
    pub(crate) fn step<P: TestPort + ?Sized>(
        &mut self,
        parbor: &Parbor,
        port: &mut P,
        budget: usize,
    ) -> Result<(usize, Option<VictimSet>), ParborError> {
        let _span = span!(parbor.rec, metrics::pipeline::DISCOVER);
        let scout = VictimScout::new(parbor.config().discovery_seed);
        let rows = parbor.config().rows_for(port);
        let total = scout.rounds();
        check_round("discover next_round", self.next_round, total)?;
        let width = port.geometry().cols_per_row as usize;
        let units = port.units();
        let end = self.next_round.saturating_add(budget).min(total);
        let mut exec = RoundExecutor::new(port)
            .with_recorder(parbor.rec.clone())
            .with_arena(parbor.arena.clone())
            .count_rounds_as(metrics::discover::ROUNDS)
            .observe_flips_as(metrics::discover::ROUND_FLIPS);
        let batch: Vec<RoundPlan> = (self.next_round..end)
            .map(|i| scout.round_plan(i, units, &rows, width))
            .collect();
        let mut step: Mix64Map<CellKey, SeenCell> = Mix64Map::default();
        for flips in exec.run_batch(batch)? {
            for flip in flips {
                step.entry(CellKey::new(flip.unit, flip.flip.addr))
                    .or_insert(SeenCell {
                        fails: 0,
                        value: flip.flip.expected,
                    })
                    .fails += 1;
            }
        }
        // An earlier step's entry holds the earlier first failure.
        merge_sorted(&mut self.seen, step, |seen, cell| seen.fails += cell.fails);
        let executed = end - self.next_round;
        self.next_round = end;
        let victims = (end == total).then(|| self.finish(total, &parbor.rec));
        Ok((executed, victims))
    }

    /// Turns the accumulated observations into the victim set: a cell
    /// qualifies if it failed under *some* pattern but passed under another.
    fn finish(&self, total_rounds: usize, rec: &RecorderHandle) -> VictimSet {
        let victims = self
            .seen
            .iter()
            .filter(|(_, s)| s.fails >= 1 && s.fails < total_rounds)
            .map(|(k, s)| Victim {
                unit: k.unit,
                row: RowId::new(k.bank, k.row),
                col: k.col,
                fail_value: s.value,
            })
            .collect();
        let set = VictimSet::from_victims(victims);
        rec.incr(metrics::discover::VICTIMS, set.len() as u64);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParborConfig;
    use parbor_dram::{ChipGeometry, DramChip, Vendor};

    /// Discovery with pattern seed `seed` over `rows`.
    fn discover(chip: &mut DramChip, seed: u64, rows: Vec<RowId>) -> VictimSet {
        Parbor::new(ParborConfig {
            discovery_seed: seed,
            rows: Some(rows),
            ..ParborConfig::default()
        })
        .discover(chip)
        .unwrap()
    }

    #[test]
    fn merge_sorted_keeps_the_earlier_entry_of_a_cell() {
        // A cell fails only in its charged polarity, so the stepping test
        // in `scan.rs` cannot tell which value a merge keeps; pin it here.
        let key = |col| CellKey::new(0, BitAddr::new(0, 0, col));
        let step = |cells: &[(u32, usize)]| -> Mix64Map<CellKey, usize> {
            cells.iter().map(|&(col, v)| (key(col), v)).collect()
        };
        let mut first = BTreeMap::new();
        merge_sorted(&mut first, step(&[(5, 1), (1, 2)]), |_, _| {});
        merge_sorted(&mut first, step(&[(1, 3), (3, 4)]), |_, _| {});
        let mut summed = BTreeMap::new();
        merge_sorted(&mut summed, step(&[(5, 1), (1, 2)]), |a, b| *a += b);
        merge_sorted(&mut summed, step(&[(1, 3), (3, 4)]), |a, b| *a += b);
        let entries = |map: BTreeMap<CellKey, usize>| -> Vec<(u32, usize)> {
            map.into_iter().map(|(k, v)| (k.col, v)).collect()
        };
        assert_eq!(entries(first), [(1, 2), (3, 4), (5, 1)]);
        assert_eq!(entries(summed), [(1, 5), (3, 4), (5, 1)]);
    }

    #[test]
    fn select_for_recursion_one_per_row() {
        let v = |row: u32, col: u32| Victim {
            unit: 0,
            row: RowId::new(0, row),
            col,
            fail_value: true,
        };
        let set = VictimSet::from_victims(vec![v(0, 5), v(0, 9), v(1, 3), v(2, 7)]);
        let sel = set.select_for_recursion(None);
        assert_eq!(sel.len(), 3);
        assert_eq!(sel[0].col, 5, "first victim per row wins");
        let sel2 = set.select_for_recursion(Some(2));
        assert_eq!(sel2.len(), 2);
    }

    #[test]
    fn victims_are_sorted_deterministically() {
        let v = |unit: u32, col: u32| Victim {
            unit,
            row: RowId::new(0, 0),
            col,
            fail_value: false,
        };
        let set = VictimSet::from_victims(vec![v(1, 2), v(0, 9), v(0, 1)]);
        let cols: Vec<_> = set.victims().iter().map(|v| (v.unit, v.col)).collect();
        assert_eq!(cols, vec![(0, 1), (0, 9), (1, 2)]);
    }

    #[test]
    fn scout_runs_ten_rounds_and_finds_victims() {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, 99).unwrap();
        let rows: Vec<RowId> = (0..64).map(|r| RowId::new(0, r)).collect();
        assert_eq!(VictimScout::new(7).rounds(), 10);
        let set = discover(&mut chip, 7, rows);
        assert_eq!(chip.rounds_run(), 10);
        assert!(!set.is_empty(), "no victims found in 64 rows of vendor A");
    }

    #[test]
    fn victims_are_really_data_dependent_cells_mostly() {
        // Cross-check the scout against the device oracle: a healthy majority
        // of discovered victims should be oracle data-dependent cells.
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::B, 5).unwrap();
        let rows: Vec<RowId> = (0..64).map(|r| RowId::new(0, r)).collect();
        let set = discover(&mut chip, 1, rows);
        let mut dd = 0usize;
        let mut total = 0usize;
        for v in set.victims() {
            let oracle = chip.oracle_data_dependent(v.row);
            total += 1;
            if oracle.iter().any(|&(sys, _)| sys == v.col) {
                dd += 1;
            }
        }
        assert!(total > 0);
        assert!(
            dd * 2 > total,
            "only {dd}/{total} victims are oracle data-dependent"
        );
    }
}
