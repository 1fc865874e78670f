//! DRAM organization: chips, banks, rows, and columns.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::DramError;

/// Physical organization of one DRAM chip.
///
/// The PARBOR paper tests 2 GB modules built from eight x8 chips; each chip
/// has 8 banks of 32 K rows with 8 K cells per row. Simulating the full
/// device is rarely needed, so presets of several sizes are provided.
///
/// # Examples
///
/// ```
/// use parbor_hal::ChipGeometry;
///
/// let g = ChipGeometry::paper();
/// assert_eq!(g.cols_per_row, 8192);
/// assert_eq!(g.banks * g.rows_per_bank, 8 * 32_768);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChipGeometry {
    /// Number of banks in the chip.
    pub banks: u32,
    /// Number of rows per bank.
    pub rows_per_bank: u32,
    /// Number of cells (bits) per row.
    pub cols_per_row: u32,
}

impl ChipGeometry {
    /// Creates a geometry after validating that all dimensions are nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if any dimension is zero.
    pub fn new(banks: u32, rows_per_bank: u32, cols_per_row: u32) -> Result<Self, DramError> {
        if banks == 0 || rows_per_bank == 0 || cols_per_row == 0 {
            return Err(DramError::InvalidConfig(
                "chip geometry dimensions must be nonzero".into(),
            ));
        }
        Ok(ChipGeometry {
            banks,
            rows_per_bank,
            cols_per_row,
        })
    }

    /// The geometry of the chips tested in the paper:
    /// 8 banks × 32 K rows × 8 K columns (2 Gbit per chip).
    pub fn paper() -> Self {
        ChipGeometry {
            banks: 8,
            rows_per_bank: 32_768,
            cols_per_row: 8192,
        }
    }

    /// A reduced slice of the paper geometry used by the reproduction
    /// experiments: full-width rows (so neighbor distances are unchanged)
    /// but only one bank of 512 rows, keeping whole-module campaigns fast.
    pub fn experiment_slice() -> Self {
        ChipGeometry {
            banks: 1,
            rows_per_bank: 512,
            cols_per_row: 8192,
        }
    }

    /// A tiny geometry for unit tests: 1 bank × 8 rows × 1024 columns
    /// (1024 is the smallest width every built-in vendor scrambler accepts).
    pub fn tiny() -> Self {
        ChipGeometry {
            banks: 1,
            rows_per_bank: 8,
            cols_per_row: 1024,
        }
    }

    /// Checks that a row identifier is in range.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] when the bank or row index
    /// exceeds the geometry.
    pub fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.bank >= self.banks || row.row >= self.rows_per_bank {
            return Err(DramError::AddressOutOfRange {
                what: format!("{row}"),
                limit: format!("banks {} rows {}", self.banks, self.rows_per_bank),
            });
        }
        Ok(())
    }

    /// Iterator over every row identifier in the chip, bank-major.
    pub fn rows(&self) -> impl Iterator<Item = RowId> + '_ {
        let banks = self.banks;
        let rows = self.rows_per_bank;
        (0..banks).flat_map(move |b| (0..rows).map(move |r| RowId::new(b, r)))
    }
}

/// Identifier of one DRAM row: a bank index plus a row index within the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId {
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
}

impl RowId {
    /// Creates a row identifier.
    pub fn new(bank: u32, row: u32) -> Self {
        RowId { bank, row }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank {} row {}", self.bank, self.row)
    }
}

// Lets `RowId` key serialized maps (JSON object keys must be strings).
impl serde::MapKey for RowId {
    fn to_key(&self) -> String {
        format!("{}:{}", self.bank, self.row)
    }

    fn from_key(s: &str) -> Result<Self, serde::Error> {
        let (bank, row) = s
            .split_once(':')
            .ok_or_else(|| serde::Error::msg(format!("invalid RowId map key {s:?}")))?;
        match (bank.parse(), row.parse()) {
            (Ok(bank), Ok(row)) => Ok(RowId { bank, row }),
            _ => Err(serde::Error::msg(format!("invalid RowId map key {s:?}"))),
        }
    }
}

/// Address of a single bit (cell) in the *system* address space of one chip:
/// bank, row, and system column index within the row.
///
/// The system column is what software sees; the physical position of the cell
/// in the mat is determined by the backend's column scrambler (for the
/// simulator, `parbor_dram::Scrambler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BitAddr {
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// System column (bit) index within the row.
    pub col: u32,
}

impl BitAddr {
    /// Creates a bit address.
    pub fn new(bank: u32, row: u32, col: u32) -> Self {
        BitAddr { bank, row, col }
    }

    /// The row containing this bit.
    pub fn row(&self) -> RowId {
        RowId::new(self.bank, self.row)
    }
}

impl fmt::Display for BitAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank {} row {} col {}", self.bank, self.row, self.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(ChipGeometry::new(0, 1, 1).is_err());
        assert!(ChipGeometry::new(1, 0, 1).is_err());
        assert!(ChipGeometry::new(1, 1, 0).is_err());
        assert!(ChipGeometry::new(1, 1, 1).is_ok());
    }

    #[test]
    fn check_row_bounds() {
        let g = ChipGeometry::tiny();
        assert!(g.check_row(RowId::new(0, 7)).is_ok());
        assert!(g.check_row(RowId::new(0, 8)).is_err());
        assert!(g.check_row(RowId::new(1, 0)).is_err());
    }

    #[test]
    fn rows_iterates_all() {
        let g = ChipGeometry::tiny();
        let rows: Vec<_> = g.rows().collect();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0], RowId::new(0, 0));
        assert_eq!(rows[7], RowId::new(0, 7));
    }

    #[test]
    fn display_formats() {
        assert_eq!(RowId::new(1, 2).to_string(), "bank 1 row 2");
        assert_eq!(BitAddr::new(1, 2, 3).to_string(), "bank 1 row 2 col 3");
    }
}
