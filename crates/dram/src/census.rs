//! Chip-level fault census: aggregate the per-cell fault population the way
//! a characterization study reports it (class counts, bit-error rates, rows
//! affected) — the device-side ground truth behind the paper's §7 analyses.

use serde::{Deserialize, Serialize};

use crate::cell::{CellClass, FaultKind};
use crate::chip::DramChip;
use parbor_hal::DramError;
use parbor_hal::RowId;

/// Aggregate census of a set of rows on one chip.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellCensus {
    /// Rows inspected.
    pub rows: u64,
    /// Total bits inspected.
    pub bits: u64,
    /// Retention-weak cells (fail unaided).
    pub retention_weak: u64,
    /// Strongly coupled cells (single-neighbor failures), both sides
    /// combined.
    pub strongly_coupled: u64,
    /// Weakly coupled cells (need both neighbors).
    pub weakly_coupled: u64,
    /// Deep window-coupled cells (need both neighbors plus a biased
    /// second-order window).
    pub deep_coupled: u64,
    /// Cells with a coupling profile that cannot fail at current conditions.
    pub robust: u64,
    /// Marginal (intermittent) cells.
    pub marginal: u64,
    /// Variable-retention-time cells.
    pub vrt: u64,
    /// Rows containing at least one data-dependent cell.
    pub rows_with_coupling: u64,
}

impl CellCensus {
    /// Takes the census of the given rows.
    ///
    /// # Errors
    ///
    /// Returns an address error if a row is out of range.
    pub fn take(chip: &mut DramChip, rows: &[RowId]) -> Result<Self, DramError> {
        let width = u64::from(chip.geometry().cols_per_row);
        let shift = chip.theta_shift();
        let mut census = CellCensus::default();
        for &row in rows {
            chip.geometry().check_row(row)?;
            census.rows += 1;
            census.bits += width;
            let mut row_has_coupling = false;
            for entry in &chip.fault_map(row).entries {
                match &entry.kind {
                    FaultKind::Coupling(profile) => {
                        let class = profile.classify(shift);
                        if class.is_data_dependent() {
                            row_has_coupling = true;
                        }
                        match class {
                            CellClass::RetentionWeak => census.retention_weak += 1,
                            CellClass::StrongLeft
                            | CellClass::StrongRight
                            | CellClass::StrongBoth => census.strongly_coupled += 1,
                            CellClass::WeaklyCoupled => census.weakly_coupled += 1,
                            CellClass::DeepCoupled => census.deep_coupled += 1,
                            CellClass::Robust => census.robust += 1,
                        }
                    }
                    FaultKind::Marginal { .. } => census.marginal += 1,
                    FaultKind::Vrt => census.vrt += 1,
                }
            }
            if row_has_coupling {
                census.rows_with_coupling += 1;
            }
        }
        Ok(census)
    }

    /// Total data-dependent cells.
    fn data_dependent(&self) -> u64 {
        self.strongly_coupled + self.weakly_coupled + self.deep_coupled
    }

    /// Data-dependent bit-error rate (cells per bit).
    pub fn coupling_ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.data_dependent() as f64 / self.bits as f64
        }
    }

    /// Fraction of inspected rows containing a data-dependent cell.
    pub fn coupling_row_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.rows_with_coupling as f64 / self.rows as f64
        }
    }

    /// Merges another census into this one (e.g. across the chips of a
    /// module).
    pub fn merge(&mut self, other: &CellCensus) {
        self.rows += other.rows;
        self.bits += other.bits;
        self.retention_weak += other.retention_weak;
        self.strongly_coupled += other.strongly_coupled;
        self.weakly_coupled += other.weakly_coupled;
        self.deep_coupled += other.deep_coupled;
        self.robust += other.robust;
        self.marginal += other.marginal;
        self.vrt += other.vrt;
        self.rows_with_coupling += other.rows_with_coupling;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use parbor_hal::ChipGeometry;

    fn census_of(vendor: Vendor, rows: u32, seed: u64) -> CellCensus {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, rows, 8192).unwrap(), vendor, seed).unwrap();
        let ids: Vec<RowId> = (0..rows).map(|r| RowId::new(0, r)).collect();
        CellCensus::take(&mut chip, &ids).unwrap()
    }

    #[test]
    fn census_counts_population() {
        let c = census_of(Vendor::A, 64, 3);
        assert_eq!(c.rows, 64);
        assert_eq!(c.bits, 64 * 8192);
        assert!(c.data_dependent() > 0);
        assert!(c.retention_weak > 0);
        // Rate should be near the configured population rate (2e-3 for A,
        // minus the retention-weak and robust shares).
        let ber = c.coupling_ber();
        assert!((5e-4..3e-3).contains(&ber), "ber = {ber}");
    }

    #[test]
    fn vendor_c_has_higher_ber_than_b() {
        let b = census_of(Vendor::B, 64, 3).coupling_ber();
        let c = census_of(Vendor::C, 64, 3).coupling_ber();
        assert!(c > 2.0 * b, "C {c} vs B {b}");
    }

    #[test]
    fn merge_adds_fields() {
        let a = census_of(Vendor::A, 16, 1);
        let b = census_of(Vendor::A, 16, 2);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.rows, 32);
        assert_eq!(
            merged.data_dependent(),
            a.data_dependent() + b.data_dependent()
        );
    }

    #[test]
    fn strongly_coupled_dominate_weakly_under_margin_model() {
        // The margin draw concentrates mass near the worst case, but the
        // strong band (θ ≤ max weight) still holds a solid share — the
        // recursion depends on it.
        let c = census_of(Vendor::A, 128, 9);
        assert!(c.strongly_coupled > 0 && c.weakly_coupled > 0 && c.deep_coupled > 0);
        let strong_share = c.strongly_coupled as f64
            / (c.strongly_coupled + c.weakly_coupled + c.deep_coupled) as f64;
        assert!((0.1..0.6).contains(&strong_share), "share = {strong_share}");
    }

    #[test]
    fn out_of_range_row_errors() {
        let mut chip = DramChip::new(ChipGeometry::new(1, 4, 8192).unwrap(), Vendor::A, 1).unwrap();
        assert!(CellCensus::take(&mut chip, &[RowId::new(0, 99)]).is_err());
    }
}
