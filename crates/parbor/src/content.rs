//! The PARBOR → DC-REF bridge (paper §8).
//!
//! DC-REF refreshes a row at the fast rate *only while its data content
//! matches the worst-case pattern* of some vulnerable cell in it. PARBOR
//! supplies exactly the two inputs that check needs: where the vulnerable
//! cells are (the chip-wide test's failing bits) and what their worst case
//! looks like (the failing polarity plus the neighbor distances). This
//! module packages them as a [`DcRefMonitor`] — the model of the content
//! check DC-REF hardware performs on every write.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use parbor_dram::{RowBits, RowId};

use crate::chipwide::ChipwideOutcome;
use crate::error::ParborError;
use crate::victim::VictimKey;

/// A vulnerable cell as DC-REF tracks it: its column and the data value
/// under which it fails (its charged polarity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VulnerableCell {
    /// System column of the cell.
    pub col: u32,
    /// The data value that charges (and can therefore lose) the cell.
    pub fail_value: bool,
}

/// Checks row contents against the worst-case coupling condition of the
/// rows' vulnerable cells.
///
/// # Examples
///
/// ```
/// use parbor_core::{DcRefMonitor, VulnerableCell};
/// use parbor_dram::{RowBits, RowId};
///
/// # fn main() -> Result<(), parbor_core::ParborError> {
/// let mut monitor = DcRefMonitor::new(&[-2, 2])?;
/// monitor.add_cell(0, RowId::new(0, 7), VulnerableCell { col: 10, fail_value: true });
///
/// // Worst case: the cell holds its failing value and both neighbors the
/// // opposite — this row must stay on the fast refresh rate.
/// let mut hot = RowBits::ones(32);
/// hot.set(8, false);
/// hot.set(12, false);
/// assert_eq!(monitor.hot_fraction(|_, _| hot.clone()), 1.0);
///
/// // Benign content: neighbors hold the same value, no interference.
/// assert_eq!(monitor.hot_fraction(|_, _| RowBits::ones(32)), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DcRefMonitor {
    distances: Vec<i64>,
    cells: HashMap<VictimKey, Vec<VulnerableCell>>,
}

impl DcRefMonitor {
    /// Creates a monitor for the given neighbor distances.
    ///
    /// # Errors
    ///
    /// Returns [`ParborError::InvalidConfig`] if `distances` is empty or
    /// contains zero.
    pub fn new(distances: &[i64]) -> Result<Self, ParborError> {
        if distances.is_empty() || distances.contains(&0) {
            return Err(ParborError::InvalidConfig(
                "neighbor distances must be nonempty and nonzero".into(),
            ));
        }
        Ok(DcRefMonitor {
            distances: distances.to_vec(),
            cells: HashMap::new(),
        })
    }

    /// Builds the monitor straight from a chip-wide test outcome: every
    /// failing bit becomes a tracked vulnerable cell with its observed
    /// failing polarity.
    ///
    /// # Errors
    ///
    /// See [`DcRefMonitor::new`].
    pub fn from_chipwide(
        outcome: &ChipwideOutcome,
        distances: &[i64],
    ) -> Result<Self, ParborError> {
        let mut monitor = Self::new(distances)?;
        for (&(unit, addr), &fail_value) in &outcome.failing {
            monitor.add_cell(
                unit,
                addr.row(),
                VulnerableCell {
                    col: addr.col,
                    fail_value,
                },
            );
        }
        Ok(monitor)
    }

    /// Registers one vulnerable cell.
    pub fn add_cell(&mut self, unit: u32, row: RowId, cell: VulnerableCell) {
        self.cells
            .entry(VictimKey { unit, row })
            .or_default()
            .push(cell);
    }

    /// The tracked neighbor distances.
    pub fn distances(&self) -> &[i64] {
        &self.distances
    }

    /// Number of rows containing at least one vulnerable cell — RAIDR would
    /// refresh all of these fast, unconditionally.
    pub fn vulnerable_row_count(&self) -> usize {
        self.cells.len()
    }

    /// Total tracked vulnerable cells.
    pub fn cell_count(&self) -> usize {
        self.cells.values().map(Vec::len).sum()
    }

    /// The DC-REF write-path check: does this row content put any of the
    /// row's vulnerable cells into its worst case (cell charged, every
    /// existing neighbor-distance position opposite)?
    ///
    /// Rows with no vulnerable cells never need the fast rate.
    fn row_needs_fast_refresh(&self, unit: u32, row: RowId, data: &RowBits) -> bool {
        let Some(cells) = self.cells.get(&VictimKey { unit, row }) else {
            return false;
        };
        cells.iter().any(|cell| {
            if data.get(cell.col as usize) != cell.fail_value {
                return false; // cell not charged: cannot lose data
            }
            let mut any_neighbor = false;
            let all_opposite = self.distances.iter().all(|&d| {
                let n = i64::from(cell.col) + d;
                if n < 0 || n as usize >= data.len() {
                    return true; // off-row positions cannot interfere
                }
                any_neighbor = true;
                data.get(n as usize) != cell.fail_value
            });
            any_neighbor && all_opposite
        })
    }

    /// Fraction of vulnerable rows whose content (supplied by `content`)
    /// currently matches the worst case — the paper's "2.7 % on average"
    /// statistic for DC-REF versus RAIDR's fixed 16.4 %.
    pub fn hot_fraction(&self, mut content: impl FnMut(u32, RowId) -> RowBits) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        let hot = self
            .cells
            .keys()
            .filter(|key| {
                let data = content(key.unit, key.row);
                self.row_needs_fast_refresh(key.unit, key.row, &data)
            })
            .count();
        hot as f64 / self.cells.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_dram::PatternKind;

    fn monitor_with(cell: VulnerableCell) -> DcRefMonitor {
        let mut m = DcRefMonitor::new(&[-2, 2]).unwrap();
        m.add_cell(0, RowId::new(0, 0), cell);
        m
    }

    #[test]
    fn worst_case_content_is_hot() {
        let m = monitor_with(VulnerableCell {
            col: 10,
            fail_value: true,
        });
        let mut data = RowBits::ones(64);
        data.set(8, false);
        data.set(12, false);
        assert!(m.row_needs_fast_refresh(0, RowId::new(0, 0), &data));
    }

    #[test]
    fn partial_interference_is_cold() {
        let m = monitor_with(VulnerableCell {
            col: 10,
            fail_value: true,
        });
        // Only one neighbor opposite: the worst case needs both.
        let mut data = RowBits::ones(64);
        data.set(8, false);
        assert!(!m.row_needs_fast_refresh(0, RowId::new(0, 0), &data));
    }

    #[test]
    fn uncharged_cell_is_cold() {
        let m = monitor_with(VulnerableCell {
            col: 10,
            fail_value: true,
        });
        // Cell holds 0 (discharged for a true cell): nothing to lose.
        let mut data = RowBits::zeros(64);
        data.set(8, true);
        data.set(12, true);
        assert!(!m.row_needs_fast_refresh(0, RowId::new(0, 0), &data));
    }

    #[test]
    fn anti_cell_polarity_respected() {
        // fail_value = false: the cell is charged when holding 0.
        let m = monitor_with(VulnerableCell {
            col: 10,
            fail_value: false,
        });
        let mut data = RowBits::zeros(64);
        data.set(8, true);
        data.set(12, true);
        assert!(m.row_needs_fast_refresh(0, RowId::new(0, 0), &data));
    }

    #[test]
    fn untracked_rows_never_hot() {
        let m = monitor_with(VulnerableCell {
            col: 10,
            fail_value: true,
        });
        let data = RowBits::zeros(64);
        assert!(!m.row_needs_fast_refresh(0, RowId::new(0, 9), &data));
        assert!(!m.row_needs_fast_refresh(1, RowId::new(0, 0), &data));
    }

    #[test]
    fn edge_cells_use_existing_neighbors_only() {
        let m = monitor_with(VulnerableCell {
            col: 1,
            fail_value: true,
        });
        // col 1 with distances ±2: left neighbor (-1) is off-row; only +3
        // exists... (1 - 2 = -1 < 0, 1 + 2 = 3).
        let mut data = RowBits::ones(8);
        data.set(3, false);
        assert!(m.row_needs_fast_refresh(0, RowId::new(0, 0), &data));
    }

    #[test]
    fn hot_fraction_counts_matching_rows() {
        let mut m = DcRefMonitor::new(&[-1, 1]).unwrap();
        for r in 0..4 {
            m.add_cell(
                0,
                RowId::new(0, r),
                VulnerableCell {
                    col: 5,
                    fail_value: true,
                },
            );
        }
        // Rows 0 and 2 hold the worst case; 1 and 3 hold solid ones.
        let frac = m.hot_fraction(|_, row| {
            if row.row % 2 == 0 {
                let mut d = RowBits::ones(16);
                d.set(4, false);
                d.set(6, false);
                d
            } else {
                RowBits::ones(16)
            }
        });
        assert!((frac - 0.5).abs() < 1e-12);
        assert_eq!(m.vulnerable_row_count(), 4);
        assert_eq!(m.cell_count(), 4);
    }

    #[test]
    fn random_content_rarely_matches() {
        // With distances ±1 and ±64, a random row matches a given cell's
        // worst case with probability 2^-5; across many rows the hot
        // fraction should be well below RAIDR's "always hot".
        let mut m = DcRefMonitor::new(&[-64, -1, 1, 64]).unwrap();
        for r in 0..512 {
            m.add_cell(
                0,
                RowId::new(0, r),
                VulnerableCell {
                    col: 100 + r % 64,
                    fail_value: true,
                },
            );
        }
        let frac = m.hot_fraction(|_, row| PatternKind::Random { seed: 9 }.row_bits(row.row, 8192));
        assert!(frac < 0.15, "frac = {frac}");
        assert!(frac > 0.0, "some rows should match by chance");
    }

    #[test]
    fn invalid_distances_rejected() {
        assert!(DcRefMonitor::new(&[]).is_err());
        assert!(DcRefMonitor::new(&[0]).is_err());
    }
}
