//! SECDED ECC (Hamming 72,64) word analysis: the standard server-DRAM
//! protection layer.
//!
//! System-level detection matters even on ECC machines: SECDED corrects one
//! flipped bit per 64-bit word, so sparse data-dependent failures hide under
//! ECC until a second failure (or a soft error) lands in the same word —
//! exactly the "escape the manufacturing tests" risk the paper's intro
//! cites. This module analyzes a failure set at word level: how many
//! PARBOR-found failing bits would ECC absorb, and how many words already
//! hold ≥ 2 failures (uncorrectable).

use serde::{Deserialize, Serialize};

/// Number of data bits per ECC word.
const DATA_BITS: u32 = 64;

/// Word-level analysis of a failing-bit set under SECDED.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EccAnalysis {
    /// Words containing exactly one failing bit (ECC absorbs them — and
    /// hides them from naive system-level scans through the ECC path).
    pub correctable_words: u64,
    /// Words containing two or more failing bits (uncorrectable: data loss
    /// the moment the worst-case content lands).
    pub uncorrectable_words: u64,
    /// Total failing bits analyzed.
    pub failing_bits: u64,
}

impl EccAnalysis {
    /// Groups failing bit columns (within one row) into 64-bit ECC words
    /// and counts correctable vs uncorrectable words.
    pub fn of_row_failures(failing_cols: &[u32]) -> Self {
        use std::collections::HashMap;
        let mut words: HashMap<u32, u64> = HashMap::new();
        for &col in failing_cols {
            *words.entry(col / DATA_BITS).or_insert(0) += 1;
        }
        let mut analysis = EccAnalysis {
            failing_bits: failing_cols.len() as u64,
            ..Default::default()
        };
        for &count in words.values() {
            if count == 1 {
                analysis.correctable_words += 1;
            } else {
                analysis.uncorrectable_words += 1;
            }
        }
        analysis
    }

    /// Merges another analysis (e.g. across rows/chips).
    pub fn merge(&mut self, other: &EccAnalysis) {
        self.correctable_words += other.correctable_words;
        self.uncorrectable_words += other.uncorrectable_words;
        self.failing_bits += other.failing_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_groups_by_word() {
        // Columns 3 and 70 sit in different words; 130 and 150 share one.
        let analysis = EccAnalysis::of_row_failures(&[3, 70, 130, 150]);
        assert_eq!(analysis.failing_bits, 4);
        assert_eq!(analysis.correctable_words, 2);
        assert_eq!(analysis.uncorrectable_words, 1);
    }

    #[test]
    fn analysis_merges() {
        let mut a = EccAnalysis::of_row_failures(&[0]);
        a.merge(&EccAnalysis::of_row_failures(&[64, 65]));
        assert_eq!(a.correctable_words, 1);
        assert_eq!(a.uncorrectable_words, 1);
        assert_eq!(a.failing_bits, 3);
    }
}
