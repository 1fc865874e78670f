//! Packed bit vector representing the data content of one DRAM row.

use std::fmt;

/// A fixed-width packed bit vector holding the data of one DRAM row.
///
/// Bits are addressed by *system column index* (`0..len`). The underlying
/// storage is `u64` words, little-endian within a word (bit `i` lives in word
/// `i / 64` at position `i % 64`).
///
/// # Examples
///
/// ```
/// use parbor_hal::RowBits;
///
/// let mut row = RowBits::zeros(128);
/// row.set(3, true);
/// assert!(row.get(3));
/// assert_eq!(row.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RowBits {
    words: Vec<u64>,
    len: usize,
}

impl RowBits {
    /// Creates a row of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        RowBits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a row of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut row = RowBits {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        row.mask_tail();
        row
    }

    /// Creates a row of `len` bits all equal to `fill`.
    pub fn filled(len: usize, fill: bool) -> Self {
        if fill {
            RowBits::ones(len)
        } else {
            RowBits::zeros(len)
        }
    }

    /// Creates a row from a closure mapping each column index to a bit.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut row = RowBits::zeros(len);
        for i in 0..len {
            if f(i) {
                row.set(i, true);
            }
        }
        row
    }

    /// Creates a row from a closure producing whole 64-bit words — 64× fewer
    /// closure calls than [`from_fn`](RowBits::from_fn) for dense pseudo-random
    /// fills. Tail bits beyond `len` are masked off.
    pub fn from_word_fn(len: usize, mut f: impl FnMut(usize) -> u64) -> Self {
        let mut row = RowBits {
            words: (0..len.div_ceil(64)).map(&mut f).collect(),
            len,
        };
        row.mask_tail();
        row
    }

    /// Number of bits in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes the bit at column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the bit at column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Sets every bit in `lo..hi` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `hi > len()` or `lo > hi`.
    pub fn set_range(&mut self, lo: usize, hi: usize, v: bool) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        if lo == hi {
            return;
        }
        // Whole words at a time: a partial mask for the first and last words,
        // solid fills in between.
        let (first_word, first_bit) = (lo / 64, lo % 64);
        let last_word = (hi - 1) / 64; // inclusive; hi > lo guarantees hi >= 1
        let head = !0u64 << first_bit;
        let tail = match hi % 64 {
            0 => !0u64,
            rem => (1u64 << rem) - 1,
        };
        for w in first_word..=last_word {
            let mut mask = !0u64;
            if w == first_word {
                mask &= head;
            }
            if w == last_word {
                mask &= tail;
            }
            if v {
                self.words[w] |= mask;
            } else {
                self.words[w] &= !mask;
            }
        }
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns the inverse (bitwise NOT) of this row.
    pub fn inverted(&self) -> Self {
        let mut out = RowBits {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Flips every bit in place — the allocation-free form of
    /// [`inverted`](RowBits::inverted).
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Indices where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn diff_indices(&self, other: &RowBits) -> Vec<usize> {
        assert_eq!(self.len, other.len, "length mismatch in diff_indices");
        let mut out = Vec::new();
        for (w, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let bit = x.trailing_zeros() as usize;
                out.push(w * 64 + bit);
                x &= x - 1;
            }
        }
        out
    }

    /// Iterator over all bits in column order.
    ///
    /// Walks the packed words directly (one word load per 64 bits, like
    /// [`diff_indices`](RowBits::diff_indices)) instead of re-indexing the
    /// word vector per bit; tail bits beyond `len` are never yielded.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.words
            .iter()
            .flat_map(|&w| (0..64).map(move |b| (w >> b) & 1 == 1))
            .take(self.len)
    }

    /// The packed words backing the row (bit `i` is word `i / 64`, position
    /// `i % 64`; tail bits beyond [`len`](RowBits::len) are always zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for RowBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RowBits[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = RowBits::zeros(100);
        assert_eq!(z.count_ones(), 0);
        let o = RowBits::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.len(), 100);
    }

    #[test]
    fn set_get_flip() {
        let mut r = RowBits::zeros(130);
        r.set(0, true);
        r.set(64, true);
        r.set(129, true);
        assert!(r.get(0) && r.get(64) && r.get(129));
        assert_eq!(r.count_ones(), 3);
        r.flip(64);
        assert!(!r.get(64));
        assert_eq!(r.count_ones(), 2);
    }

    #[test]
    fn inverted_respects_tail() {
        let r = RowBits::zeros(70);
        let inv = r.inverted();
        assert_eq!(inv.count_ones(), 70);
    }

    #[test]
    fn diff_indices_reports_flips() {
        let a = RowBits::zeros(200);
        let mut b = a.clone();
        b.flip(5);
        b.flip(77);
        b.flip(199);
        assert_eq!(a.diff_indices(&b), vec![5, 77, 199]);
    }

    #[test]
    fn from_fn_matches_closure() {
        let r = RowBits::from_fn(65, |i| i % 3 == 0);
        for i in 0..65 {
            assert_eq!(r.get(i), i % 3 == 0);
        }
    }

    #[test]
    fn set_range_sets_every_bit() {
        let mut r = RowBits::zeros(128);
        r.set_range(10, 90, true);
        assert_eq!(r.count_ones(), 80);
        r.set_range(20, 30, false);
        assert_eq!(r.count_ones(), 70);
    }

    #[test]
    fn set_range_matches_bitwise_oracle() {
        // The word-masked fill must agree with per-bit set() for every
        // boundary alignment: within one word, across words, word-aligned
        // ends, and empty ranges.
        for len in [1usize, 63, 64, 65, 130, 200] {
            for &(lo, hi) in &[
                (0usize, 0usize),
                (0, 1),
                (0, len),
                (len / 2, len / 2),
                (1, len.min(63)),
                (len / 3, 2 * len / 3),
                (len.saturating_sub(1), len),
                (len / 2, len),
            ] {
                for v in [true, false] {
                    let base = RowBits::from_fn(len, |i| i % 3 == 0);
                    let mut fast = base.clone();
                    fast.set_range(lo, hi, v);
                    let mut slow = base;
                    for i in lo..hi {
                        slow.set(i, v);
                    }
                    assert_eq!(fast, slow, "len {len} range {lo}..{hi} v {v}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        RowBits::zeros(8).get(8);
    }

    #[test]
    fn iter_masks_tail_word() {
        // 70 bits spans two words; the second word's upper 58 bits must not
        // be yielded even when the storage words are saturated.
        let r = RowBits::ones(70);
        let bits: Vec<bool> = r.iter().collect();
        assert_eq!(bits.len(), 70);
        assert!(bits.iter().all(|&b| b));
        // from_word_fn saturates whole words before tail masking; iter must
        // agree with get() bit-for-bit on every width near a word boundary.
        for len in [1usize, 63, 64, 65, 127, 128, 130] {
            let r = RowBits::from_word_fn(len, |w| 0xDEAD_BEEF_F00D_5EED ^ (w as u64) << 1);
            let via_iter: Vec<bool> = r.iter().collect();
            let via_get: Vec<bool> = (0..len).map(|i| r.get(i)).collect();
            assert_eq!(via_iter, via_get, "len {len}");
        }
    }

    #[test]
    fn words_expose_masked_storage() {
        let r = RowBits::ones(70);
        assert_eq!(r.words().len(), 2);
        assert_eq!(r.words()[1], (1u64 << 6) - 1);
    }
}
