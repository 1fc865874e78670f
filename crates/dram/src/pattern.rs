//! Data patterns used by memory tests.
//!
//! Manufacturers and system-level testers probe DRAM with families of data
//! backgrounds (paper §2.3, §5.2.1). Because DRAM mixes true and anti cells,
//! every pattern is paired with its **inverse** so both cell polarities get
//! charged at least once (paper footnote 3).

use serde::{Deserialize, Serialize};

use crate::hash::{hash_words, mix64};
use parbor_hal::RowBits;

/// A row-wise data pattern, materializable for any row index.
///
/// # Examples
///
/// ```
/// use parbor_dram::PatternKind;
///
/// let p = PatternKind::Checkerboard;
/// let row0 = p.row_bits(0, 8);
/// let row1 = p.row_bits(1, 8);
/// // Checkerboard alternates by both column and row.
/// assert_eq!(row0.get(0), !row1.get(0));
/// assert_eq!(row0.get(0), !row0.get(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Every bit set to the given value (all-0s / all-1s).
    Solid(bool),
    /// Columns alternate in blocks of `period` (period 2 ⇒ 0101…).
    ColStripe {
        /// Stripe width in columns.
        period: u32,
    },
    /// Rows alternate solid values.
    RowStripe,
    /// Checkerboard in both row and column.
    Checkerboard,
    /// Pseudo-random data derived from a seed, distinct per row.
    Random {
        /// Seed of the pseudo-random stream.
        seed: u64,
    },
    /// Walking-1: bit set at every position ≡ `phase (mod period)` against
    /// a zero background (the classic walking memory test).
    Walking {
        /// Spacing of the walked bits.
        period: u32,
        /// Offset of the walked bits within each period.
        phase: u32,
    },
}

impl PatternKind {
    /// Materializes the pattern for one row of the given width.
    pub fn row_bits(&self, row: u32, width: usize) -> RowBits {
        match *self {
            PatternKind::Solid(v) => RowBits::filled(width, v),
            PatternKind::ColStripe { period } => col_stripe(period, width),
            PatternKind::RowStripe => RowBits::filled(width, !row.is_multiple_of(2)),
            PatternKind::Checkerboard => {
                // Alternating bits are a constant word pattern.
                let word = if row % 2 == 1 {
                    0x5555_5555_5555_5555u64
                } else {
                    0xAAAA_AAAA_AAAA_AAAAu64
                };
                RowBits::from_word_fn(width, |_| word)
            }
            PatternKind::Random { seed } => RowBits::from_word_fn(width, |w| {
                mix64(hash_words(&[seed, u64::from(row), w as u64]))
            }),
            PatternKind::Walking { period, phase } => {
                // One set bit per period — touch only those bits.
                let p = period.max(1) as usize;
                let mut bits = RowBits::zeros(width);
                let mut i = phase as usize % p;
                while i < width {
                    bits.set(i, true);
                    i += p;
                }
                bits
            }
        }
    }

    /// The logical inverse of this pattern (bitwise NOT of every row).
    pub fn inverse(&self) -> InversePattern {
        InversePattern(self.clone())
    }
}

/// The bitwise inverse of a [`PatternKind`], produced by
/// [`PatternKind::inverse`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InversePattern(PatternKind);

impl InversePattern {
    /// Materializes the inverted pattern for one row.
    pub fn row_bits(&self, row: u32, width: usize) -> RowBits {
        let mut bits = self.0.row_bits(row, width);
        bits.invert();
        bits
    }
}

/// Columns alternating in blocks of `period` (a period of 0 counts as 1),
/// starting with a block of zeros.
///
/// When a stripe cycle (`2 * period`) divides 64, every word of the row is
/// the same constant and the row is built a word at a time; other periods
/// fill their odd blocks as word-masked ranges.
fn col_stripe(period: u32, width: usize) -> RowBits {
    let p = period.max(1) as usize;
    if 64 % (2 * p) == 0 {
        let word = (0..64)
            .filter(|i| (i / p) % 2 == 1)
            .fold(0u64, |w, i| w | 1 << i);
        return RowBits::from_word_fn(width, |_| word);
    }
    let mut bits = RowBits::zeros(width);
    let mut lo = p;
    while lo < width {
        bits.set_range(lo, (lo + p).min(width), true);
        lo += 2 * p;
    }
    bits
}

/// The standard victim-discovery pattern set: a family of diverse patterns,
/// each paired with its inverse — 10 rounds total, matching the paper's
/// "initial tests for locating sample victim bits (10)".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    patterns: Vec<PatternKind>,
}

impl PatternSet {
    /// The paper's 5-pattern discovery family (each later run with its
    /// inverse for 10 rounds total).
    pub fn discovery(seed: u64) -> Self {
        PatternSet {
            patterns: vec![
                PatternKind::Solid(false),
                PatternKind::ColStripe { period: 1 },
                PatternKind::RowStripe,
                PatternKind::Checkerboard,
                PatternKind::Random { seed },
            ],
        }
    }

    /// A set of `n` distinct random patterns (used by the equal-budget
    /// random-test baseline of Fig 12/13).
    pub fn random(seed: u64, n: usize) -> Self {
        PatternSet {
            patterns: (0..n)
                .map(|i| PatternKind::Random {
                    seed: mix64(seed ^ (i as u64).wrapping_mul(0x9E37)),
                })
                .collect(),
        }
    }

    /// The patterns in the set (inverses not included; callers materialize
    /// them per round).
    pub fn patterns(&self) -> &[PatternKind] {
        &self.patterns
    }

    /// Number of test rounds the set implies: one per pattern and one per
    /// inverse.
    pub fn round_count(&self) -> usize {
        self.patterns.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_patterns() {
        assert_eq!(PatternKind::Solid(true).row_bits(3, 64).count_ones(), 64);
        assert_eq!(PatternKind::Solid(false).row_bits(3, 64).count_ones(), 0);
    }

    #[test]
    fn col_stripe_period() {
        let r = PatternKind::ColStripe { period: 4 }.row_bits(0, 16);
        for i in 0..16 {
            assert_eq!(r.get(i), (i / 4) % 2 == 1, "bit {i}");
        }
    }

    #[test]
    fn word_level_patterns_match_per_bit_predicates() {
        // The range-fill / word-constant constructions must agree with the
        // defining per-bit predicates at awkward widths and periods.
        for width in [1usize, 63, 64, 65, 130, 8192] {
            for period in [1u32, 2, 3, 64, 100] {
                let p = period as usize;
                let stripe = PatternKind::ColStripe { period }.row_bits(0, width);
                assert_eq!(stripe, RowBits::from_fn(width, |i| (i / p) % 2 == 1));
                for phase in [0u32, 1, 63] {
                    let walk = PatternKind::Walking { period, phase }.row_bits(0, width);
                    assert_eq!(
                        walk,
                        RowBits::from_fn(width, |i| i % p == phase as usize % p),
                        "width {width} period {period} phase {phase}"
                    );
                }
            }
            for row in [0u32, 1] {
                let board = PatternKind::Checkerboard.row_bits(row, width);
                let flip = row % 2 == 1;
                assert_eq!(board, RowBits::from_fn(width, |i| (i % 2 == 1) != flip));
            }
        }
    }

    #[test]
    fn word_constant_col_stripes_match_the_range_fill() {
        // The range-fill construction every period used before stripes
        // whose cycle divides 64 became one constant word.
        fn range_fill(period: u32, width: usize) -> RowBits {
            let p = period.max(1) as usize;
            let mut bits = RowBits::zeros(width);
            let mut lo = p;
            while lo < width {
                bits.set_range(lo, (lo + p).min(width), true);
                lo += 2 * p;
            }
            bits
        }
        let widths = (1..=400).chain([1024, 8191, 8192]);
        for width in widths {
            for period in 0..=260 {
                assert_eq!(
                    PatternKind::ColStripe { period }.row_bits(0, width),
                    range_fill(period, width),
                    "width {width} period {period}"
                );
            }
        }
    }

    #[test]
    fn row_stripe_alternates_by_row() {
        let p = PatternKind::RowStripe;
        assert_eq!(p.row_bits(0, 8).count_ones(), 0);
        assert_eq!(p.row_bits(1, 8).count_ones(), 8);
    }

    #[test]
    fn random_is_deterministic_and_row_dependent() {
        let p = PatternKind::Random { seed: 5 };
        assert_eq!(p.row_bits(0, 256), p.row_bits(0, 256));
        assert_ne!(p.row_bits(0, 256), p.row_bits(1, 256));
    }

    #[test]
    fn random_is_balanced() {
        let ones = PatternKind::Random { seed: 5 }
            .row_bits(0, 8192)
            .count_ones();
        assert!((3600..4600).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn inverse_inverts() {
        let p = PatternKind::Checkerboard;
        let inv = p.inverse();
        let a = p.row_bits(2, 64);
        let b = inv.row_bits(2, 64);
        for i in 0..64 {
            assert_eq!(a.get(i), !b.get(i));
        }
    }

    #[test]
    fn walking_pattern_sets_one_bit_per_period() {
        let r = PatternKind::Walking {
            period: 8,
            phase: 3,
        }
        .row_bits(0, 64);
        assert_eq!(r.count_ones(), 8);
        for i in 0..64 {
            assert_eq!(r.get(i), i % 8 == 3, "bit {i}");
        }
    }

    #[test]
    fn discovery_set_is_ten_rounds() {
        assert_eq!(PatternSet::discovery(1).round_count(), 10);
    }

    #[test]
    fn random_set_has_distinct_patterns() {
        let s = PatternSet::random(7, 8);
        let mut seen = std::collections::HashSet::new();
        for p in s.patterns() {
            assert!(seen.insert(p.clone()), "duplicate pattern {p:?}");
        }
    }
}
