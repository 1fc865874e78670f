//! SECDED ECC (Hamming 72,64): the standard server-DRAM protection layer.
//!
//! System-level detection matters even on ECC machines: SECDED corrects one
//! flipped bit per 64-bit word, so sparse data-dependent failures hide under
//! ECC until a second failure (or a soft error) lands in the same word —
//! exactly the "escape the manufacturing tests" risk the paper's intro
//! cites. This module implements the code and the word-level analysis of a
//! failure set: how many PARBOR-found failing bits would ECC absorb, and
//! how many words already hold ≥ 2 failures (uncorrectable).

use serde::{Deserialize, Serialize};

/// Number of data bits per ECC word.
const DATA_BITS: u32 = 64;

/// A 72-bit SECDED codeword: 64 data bits plus 8 check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Codeword {
    /// The data bits.
    pub data: u64,
    /// The check bits (7 Hamming syndromes + overall parity in bit 7).
    pub check: u8,
}

/// Outcome of decoding a possibly corrupted codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decoded {
    /// No error detected.
    Clean(u64),
    /// A single-bit error was corrected (data or check bit).
    Corrected(u64),
    /// A double-bit error was detected; the data cannot be trusted.
    Uncorrectable,
}

/// Hamming parity-check masks: check bit `i` covers the data bits whose
/// (1-based, check-position-skipping) Hamming index has bit `i` set.
/// Computed once per process.
fn hamming_masks() -> [u64; 7] {
    let mut masks = [0u64; 7];
    // Map each of the 64 data bits to its Hamming code position: positions
    // 1.. skipping powers of two (which hold check bits).
    let mut position = 1u32;
    for data_bit in 0..64 {
        while position.is_power_of_two() {
            position += 1;
        }
        for (i, mask) in masks.iter_mut().enumerate() {
            if position & (1 << i) != 0 {
                *mask |= 1u64 << data_bit;
            }
        }
        position += 1;
    }
    masks
}

/// Hamming position of data bit `i` (inverse of the mapping in
/// [`hamming_masks`]).
fn data_bit_position(i: u32) -> u32 {
    let mut position = 1u32;
    let mut seen = 0;
    loop {
        while position.is_power_of_two() {
            position += 1;
        }
        if seen == i {
            return position;
        }
        seen += 1;
        position += 1;
    }
}

/// Encodes 64 data bits into a SECDED codeword.
///
/// # Examples
///
/// ```
/// use parbor_dram::ecc::{decode, encode, Decoded};
///
/// let word = encode(0xDEAD_BEEF_0123_4567);
/// assert_eq!(decode(word), Decoded::Clean(0xDEAD_BEEF_0123_4567));
/// ```
pub fn encode(data: u64) -> Codeword {
    let masks = hamming_masks();
    let mut check = 0u8;
    for (i, mask) in masks.iter().enumerate() {
        if (data & mask).count_ones() % 2 == 1 {
            check |= 1 << i;
        }
    }
    // Overall parity over data + the 7 Hamming bits.
    let overall = (data.count_ones() + u32::from(check).count_ones()) % 2;
    check |= (overall as u8) << 7;
    Codeword { data, check }
}

/// Decodes a codeword, correcting a single flipped bit anywhere in the
/// 72 bits and detecting (but not correcting) double flips.
pub fn decode(word: Codeword) -> Decoded {
    let expected = encode(word.data);
    let syndrome = (word.check ^ expected.check) & 0x7F;
    let parity_mismatch = {
        let overall = (word.data.count_ones() + u32::from(word.check & 0x7F).count_ones()) % 2;
        (word.check >> 7) != overall as u8
    };
    match (syndrome, parity_mismatch) {
        (0, false) => Decoded::Clean(word.data),
        (0, true) => Decoded::Corrected(word.data), // overall-parity bit flipped
        (_, false) => Decoded::Uncorrectable,       // two flips: syndrome w/o parity
        (s, true) => {
            // Single flip at Hamming position `s`: either a check bit
            // (power of two) or a data bit.
            if u32::from(s).is_power_of_two() {
                return Decoded::Corrected(word.data); // check bit flipped
            }
            for bit in 0..64 {
                if data_bit_position(bit) == u32::from(s) {
                    return Decoded::Corrected(word.data ^ (1u64 << bit));
                }
            }
            // Syndrome pointing outside the code: multi-bit corruption.
            Decoded::Uncorrectable
        }
    }
}

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
    fn clean_round_trip() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            assert_eq!(decode(encode(data)), Decoded::Clean(data));
        }
    }

    #[test]
    fn every_single_data_flip_is_corrected() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let word = encode(data);
        for bit in 0..64 {
            let corrupted = Codeword {
                data: word.data ^ (1u64 << bit),
                check: word.check,
            };
            assert_eq!(
                decode(corrupted),
                Decoded::Corrected(data),
                "flip at data bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_check_flip_is_corrected() {
        let data = 0x1234_5678_9ABC_DEF0u64;
        let word = encode(data);
        for bit in 0..8 {
            let corrupted = Codeword {
                data: word.data,
                check: word.check ^ (1 << bit),
            };
            assert_eq!(
                decode(corrupted),
                Decoded::Corrected(data),
                "flip at check bit {bit}"
            );
        }
    }

    #[test]
    fn double_data_flips_are_detected() {
        let data = 0xFFFF_0000_FFFF_0000u64;
        let word = encode(data);
        for (a, b) in [(0u32, 1u32), (5, 40), (62, 63), (13, 27)] {
            let corrupted = Codeword {
                data: word.data ^ (1u64 << a) ^ (1u64 << b),
                check: word.check,
            };
            assert_eq!(
                decode(corrupted),
                Decoded::Uncorrectable,
                "flips at {a},{b}"
            );
        }
    }

    #[test]
    fn data_plus_check_flip_is_detected() {
        let data = 7u64;
        let word = encode(data);
        let corrupted = Codeword {
            data: word.data ^ 2,
            check: word.check ^ 1,
        };
        assert_eq!(decode(corrupted), Decoded::Uncorrectable);
    }

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
