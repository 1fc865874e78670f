//! Region arithmetic for the recursive test.
//!
//! A *level plan* is the sequence of region sizes the recursion steps
//! through. The paper's plan for 8 K-cell rows is 4096 → 512 → 64 → 8 → 1:
//! the row splits in two at the first level, and every kept region splits
//! into eight subregions at each following level (§7.1). Divide-and-conquer
//! with constant kept-region count per level makes the whole search
//! `Θ(n)`-equivalent with a tiny constant (paper appendix).

use serde::{Deserialize, Serialize};

use crate::error::ParborError;

/// The sequence of region sizes used by the recursion, ending at size 1.
///
/// # Examples
///
/// ```
/// use parbor_core::LevelPlan;
///
/// # fn main() -> Result<(), parbor_core::ParborError> {
/// let plan = LevelPlan::paper(8192)?;
/// assert_eq!(plan.sizes(), &[4096, 512, 64, 8, 1]);
/// assert_eq!(plan.fanout(1), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LevelPlan {
    row_bits: usize,
    sizes: Vec<usize>,
}

impl LevelPlan {
    /// The paper's plan: first split the row in half, then split each kept
    /// region into 8 until the region size reaches 1.
    ///
    /// # Errors
    ///
    /// Returns [`ParborError::InvalidConfig`] unless `row_bits` is twice a
    /// power of 8 (e.g. 2·8³ = 1024, 2·8⁴ = 8192).
    pub fn paper(row_bits: usize) -> Result<Self, ParborError> {
        Self::with_fanout(row_bits, 2, 8)
    }

    /// A plan with a custom first divisor and per-level fanout.
    ///
    /// # Errors
    ///
    /// Returns [`ParborError::InvalidConfig`] when the divisors do not reach
    /// a region size of exactly 1.
    fn with_fanout(
        row_bits: usize,
        first_divisor: usize,
        fanout: usize,
    ) -> Result<Self, ParborError> {
        if row_bits == 0 || first_divisor < 2 || fanout < 2 {
            return Err(ParborError::InvalidConfig(
                "row_bits must be nonzero; divisors must be at least 2".into(),
            ));
        }
        if !row_bits.is_multiple_of(first_divisor) {
            return Err(ParborError::InvalidConfig(format!(
                "first divisor {first_divisor} does not divide row width {row_bits}"
            )));
        }
        let mut sizes = vec![row_bits / first_divisor];
        while *sizes.last().expect("nonempty") > 1 {
            let prev = *sizes.last().expect("nonempty");
            if prev % fanout != 0 {
                return Err(ParborError::InvalidConfig(format!(
                    "fanout {fanout} does not divide region size {prev}"
                )));
            }
            sizes.push(prev / fanout);
        }
        Ok(LevelPlan { row_bits, sizes })
    }

    /// Row width the plan was built for.
    pub fn row_bits(&self) -> usize {
        self.row_bits
    }

    /// Region sizes, one per level, ending at 1.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.sizes.len()
    }

    /// How many subregions a kept region of level `level - 1` splits into at
    /// `level` (for level 0, how many regions the whole row splits into).
    pub fn fanout(&self, level: usize) -> usize {
        if level == 0 {
            self.row_bits / self.sizes[0]
        } else {
            self.sizes[level - 1] / self.sizes[level]
        }
    }

    /// Region index containing bit `pos` at the given level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn region_of(&self, pos: usize, level: usize) -> usize {
        pos / self.sizes[level]
    }

    /// Number of regions at a level.
    pub fn region_count(&self, level: usize) -> usize {
        self.row_bits / self.sizes[level]
    }

    /// Bit range `(lo, hi)` of region `index` at `level`, or `None` if the
    /// index is out of range.
    pub fn region_range(&self, index: usize, level: usize) -> Option<(usize, usize)> {
        let size = self.sizes[level];
        let lo = index.checked_mul(size)?;
        if lo >= self.row_bits {
            return None;
        }
        Some((lo, (lo + size).min(self.row_bits)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_matches_section_7_1() {
        let plan = LevelPlan::paper(8192).unwrap();
        assert_eq!(plan.sizes(), &[4096, 512, 64, 8, 1]);
        assert_eq!(plan.levels(), 5);
        assert_eq!(plan.fanout(0), 2);
        for level in 1..5 {
            assert_eq!(plan.fanout(level), 8);
        }
    }

    #[test]
    fn paper_plan_scales_down() {
        let plan = LevelPlan::paper(1024).unwrap();
        assert_eq!(plan.sizes(), &[512, 64, 8, 1]);
    }

    #[test]
    fn invalid_widths_rejected() {
        // 1000/2 = 500, not a power of 8.
        assert!(LevelPlan::paper(1000).is_err());
        assert!(LevelPlan::paper(0).is_err());
        assert!(LevelPlan::with_fanout(64, 1, 8).is_err());
    }

    #[test]
    fn region_arithmetic() {
        let plan = LevelPlan::paper(8192).unwrap();
        assert_eq!(plan.region_of(5000, 0), 1);
        assert_eq!(plan.region_of(5000, 1), 9);
        assert_eq!(plan.region_count(0), 2);
        assert_eq!(plan.region_count(4), 8192);
        assert_eq!(plan.region_range(9, 1), Some((4608, 5120)));
        assert_eq!(plan.region_range(16, 1), None);
    }

    #[test]
    fn custom_fanout() {
        let plan = LevelPlan::with_fanout(64, 4, 4).unwrap();
        assert_eq!(plan.sizes(), &[16, 4, 1]);
        assert_eq!(plan.fanout(0), 4);
    }
}
