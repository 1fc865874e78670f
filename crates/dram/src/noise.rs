//! Randomly-occurring (non-data-dependent) failure noise.
//!
//! Besides coupling failures, real chips exhibit soft errors (particle
//! strikes), which occur at random positions and random rounds. They matter
//! for PARBOR because they can masquerade as data-dependent failures during
//! the recursion (paper §5.2.4) — the filtering stage exists to reject them.

use serde::{Deserialize, Serialize};

use crate::hash::{cell_hash01, hash_words, mix64};
use parbor_hal::RowId;

/// Soft-error injector: at most one flip per row per round, drawn with
/// probability `row_bits × per_bit_rate`.
///
/// # Examples
///
/// ```
/// use parbor_dram::NoiseModel;
///
/// let noise = NoiseModel::new(1e-9);
/// // Deterministic: the same round always produces the same outcome.
/// let a = noise.soft_flip(1, parbor_dram::RowId::new(0, 0), 3, 8192);
/// let b = noise.soft_flip(1, parbor_dram::RowId::new(0, 0), 3, 8192);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    per_bit_rate: f64,
}

impl NoiseModel {
    /// Creates a soft-error model with the given per-bit per-round rate.
    pub fn new(per_bit_rate: f64) -> Self {
        NoiseModel { per_bit_rate }
    }

    /// Returns the system column struck by a soft error in this row and
    /// round, if any.
    pub fn soft_flip(&self, seed: u64, row: RowId, round: u64, row_bits: usize) -> Option<usize> {
        let p_row = self.per_bit_rate * row_bits as f64;
        let u = cell_hash01(seed, u64::from(row.bank), u64::from(row.row), round, 0x50F7);
        if u < p_row {
            let h = hash_words(&[seed, u64::from(row.bank), u64::from(row.row), round, 0x50F8]);
            Some((mix64(h) % row_bits as u64) as usize)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_flips() {
        let noise = NoiseModel::new(0.0);
        for round in 0..1000 {
            assert_eq!(noise.soft_flip(1, RowId::new(0, 0), round, 8192), None);
        }
    }

    #[test]
    fn high_rate_flips_often_and_in_range() {
        let noise = NoiseModel::new(1e-4); // 0.82 per row per round
        let mut hits = 0;
        for round in 0..1000 {
            if let Some(col) = noise.soft_flip(1, RowId::new(0, 3), round, 8192) {
                assert!(col < 8192);
                hits += 1;
            }
        }
        assert!(hits > 500, "hits = {hits}");
    }

    #[test]
    fn rate_is_respected_statistically() {
        let noise = NoiseModel::new(1e-6); // ~0.008 per row per round
        let mut hits = 0;
        for round in 0..10_000 {
            if noise.soft_flip(9, RowId::new(0, 0), round, 8192).is_some() {
                hits += 1;
            }
        }
        // Expected ≈ 82; allow wide slack.
        assert!((30..200).contains(&hits), "hits = {hits}");
    }
}
