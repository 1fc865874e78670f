//! From detection to deployment: turning PARBOR's findings into the
//! system-level mitigations the paper's introduction enumerates — refresh
//! management (DC-REF/RAIDR row groups), reliability guardbands (ECC hazard
//! words), and avoidance (retiring the worst pages).
//!
//! The [`FailureDirectory`] is the persistent artifact a deployment keeps
//! after a test campaign: every failing bit with its polarity, queryable by
//! row, plus the discovered neighbor distances. A [`MitigationPlan`] is a
//! policy-ready digest of it.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use parbor_dram::ecc::EccAnalysis;
use parbor_dram::RowId;

use crate::chipwide::ChipwideOutcome;
use crate::content::{DcRefMonitor, VulnerableCell};
use crate::error::ParborError;
use crate::victim::VictimKey;

/// Persistent registry of a test campaign's findings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureDirectory {
    distances: Vec<i64>,
    /// Failing cells per (unit, row), sorted for deterministic output.
    /// Serialized as a sequence of entries (JSON maps need string keys).
    #[serde(with = "rows_as_seq")]
    rows: BTreeMap<(u32, u32, u32), Vec<VulnerableCell>>,
}

mod rows_as_seq {
    use super::VulnerableCell;
    use serde::{Deserialize, Serialize, Value};
    use std::collections::BTreeMap;

    type Rows = BTreeMap<(u32, u32, u32), Vec<VulnerableCell>>;

    pub(super) fn to_value(rows: &Rows) -> Value {
        let seq: Vec<((u32, u32, u32), Vec<VulnerableCell>)> = rows
            .iter()
            .map(|(key, cells)| (*key, cells.clone()))
            .collect();
        seq.to_value()
    }

    pub(super) fn from_value(value: &Value) -> Result<Rows, serde::Error> {
        let seq = <Vec<((u32, u32, u32), Vec<VulnerableCell>)>>::from_value(value)?;
        Ok(seq.into_iter().collect())
    }
}

impl FailureDirectory {
    /// Builds the directory from a chip-wide test outcome. The outcome's
    /// map is ordered by (unit, address), so each row's cells arrive sorted
    /// by column.
    pub fn from_chipwide(outcome: &ChipwideOutcome, distances: &[i64]) -> Self {
        let mut rows: BTreeMap<(u32, u32, u32), Vec<VulnerableCell>> = BTreeMap::new();
        for (&(unit, addr), &fail_value) in &outcome.failing {
            rows.entry((unit, addr.bank, addr.row))
                .or_default()
                .push(VulnerableCell {
                    col: addr.col,
                    fail_value,
                });
        }
        FailureDirectory {
            distances: distances.to_vec(),
            rows,
        }
    }

    /// The discovered neighbor distances.
    pub fn distances(&self) -> &[i64] {
        &self.distances
    }

    /// Number of rows with at least one failing cell.
    pub fn affected_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total failing cells.
    pub fn failing_cells(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// The failing cells of one row, sorted by column (empty if clean).
    #[cfg(test)]
    fn cells_of(&self, unit: u32, row: RowId) -> &[VulnerableCell] {
        self.rows
            .get(&(unit, row.bank, row.row))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterator over affected rows as `(unit, row, cells)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, RowId, &[VulnerableCell])> + '_ {
        self.rows
            .iter()
            .map(|(&(unit, bank, row), cells)| (unit, RowId::new(bank, row), cells.as_slice()))
    }

    /// Builds a DC-REF content monitor over this directory.
    ///
    /// # Errors
    ///
    /// See [`DcRefMonitor::new`].
    pub fn dcref_monitor(&self) -> Result<DcRefMonitor, ParborError> {
        let mut monitor = DcRefMonitor::new(&self.distances)?;
        for (unit, row, cells) in self.iter() {
            for &cell in cells {
                monitor.add_cell(unit, row, cell);
            }
        }
        Ok(monitor)
    }

    /// Digests the directory into a deployment plan.
    ///
    /// `retire_threshold` is the failing-cell count at which a row is
    /// recommended for page retirement rather than refresh management
    /// (heavily faulty rows waste fast-refresh slots and ECC margin).
    pub fn plan(&self, retire_threshold: usize) -> MitigationPlan {
        let mut plan = MitigationPlan::default();
        for (unit, row, cells) in self.iter() {
            let key = VictimKey { unit, row };
            if cells.len() >= retire_threshold {
                plan.retire_pages.insert(key);
                continue; // retired rows need no refresh management
            }
            plan.fast_refresh_rows.insert(key);
            let cols: Vec<u32> = cells.iter().map(|c| c.col).collect();
            let ecc = EccAnalysis::of_row_failures(&cols);
            plan.ecc.merge(&ecc);
            if ecc.uncorrectable_words > 0 {
                plan.ecc_hazard_rows.insert(key);
            }
        }
        plan
    }
}

/// Policy-ready digest of a [`FailureDirectory`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MitigationPlan {
    /// Rows to keep in the fast (64 ms) refresh group — DC-REF then demotes
    /// them dynamically while their content is benign.
    pub fast_refresh_rows: BTreeSet<VictimKey>,
    /// Rows whose failing cells cluster ≥ 2 per 64-bit word: SECDED cannot
    /// protect them; they need scrubbing priority or stronger codes.
    pub ecc_hazard_rows: BTreeSet<VictimKey>,
    /// Rows recommended for OS page retirement.
    pub retire_pages: BTreeSet<VictimKey>,
    /// Aggregate ECC word analysis over managed (non-retired) rows.
    pub ecc: EccAnalysis,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Parbor, ParborConfig};
    use parbor_dram::{ChipGeometry, DramChip, Vendor};

    fn directory() -> FailureDirectory {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, 21).unwrap();
        let report = Parbor::new(ParborConfig::default()).run(&mut chip).unwrap();
        FailureDirectory::from_chipwide(&report.chipwide, report.distances())
    }

    #[test]
    fn directory_round_trips_findings() {
        let dir = directory();
        assert!(dir.affected_rows() > 0);
        assert!(dir.failing_cells() >= dir.affected_rows());
        assert_eq!(dir.distances(), Vendor::A.paper_distances());
        // cells_of agrees with iter().
        let (unit, row, cells) = dir.iter().next().unwrap();
        assert_eq!(dir.cells_of(unit, row), cells);
        // Unknown rows are clean.
        assert!(dir.cells_of(7, RowId::new(3, 999)).is_empty());
    }

    #[test]
    fn cells_are_sorted_by_column() {
        let dir = directory();
        for (_, _, cells) in dir.iter() {
            assert!(cells.windows(2).all(|w| w[0].col <= w[1].col));
        }
    }

    #[test]
    fn plan_partitions_rows() {
        let dir = directory();
        let plan = dir.plan(1_000_000); // nothing retired
        assert_eq!(plan.fast_refresh_rows.len(), dir.affected_rows());
        assert!(plan.retire_pages.is_empty());

        let aggressive = dir.plan(1); // everything retired
        assert_eq!(aggressive.retire_pages.len(), dir.affected_rows());
        assert!(aggressive.fast_refresh_rows.is_empty());
        // Retired rows contribute no ECC words.
        assert_eq!(
            aggressive.ecc.correctable_words + aggressive.ecc.uncorrectable_words,
            0
        );
    }

    #[test]
    fn hazard_rows_have_uncorrectable_words() {
        let dir = directory();
        let plan = dir.plan(usize::MAX);
        for key in &plan.ecc_hazard_rows {
            let cols: Vec<u32> = dir
                .cells_of(key.unit, key.row)
                .iter()
                .map(|c| c.col)
                .collect();
            let ecc = EccAnalysis::of_row_failures(&cols);
            assert!(ecc.uncorrectable_words > 0);
        }
        assert!(plan.ecc_hazard_rows.len() <= plan.fast_refresh_rows.len());
    }

    #[test]
    fn dcref_monitor_matches_directory() {
        let dir = directory();
        let monitor = dir.dcref_monitor().unwrap();
        assert_eq!(monitor.vulnerable_row_count(), dir.affected_rows());
        assert_eq!(monitor.cell_count(), dir.failing_cells());
    }
}
