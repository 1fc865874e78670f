//! Deterministic, stateless hashing used for all per-cell and per-round draws.
//!
//! Every stochastic property of the simulated device (cell class, retention
//! time, coupling penalties, marginal/VRT behaviour, soft errors) is a pure
//! function of a seed and the cell coordinates, computed with the SplitMix64
//! finalizer. This keeps the device stateless and perfectly reproducible: two
//! reads of the same cell in the same round observe the same world.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combine a sequence of words into one hash value.
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    let mut acc = 0x51ab_dead_beef_0001u64;
    for &w in words {
        acc = mix64(acc ^ w);
    }
    acc
}

/// Hash of a cell coordinate plus a stream tag, as a `u64`.
#[inline]
pub(crate) fn cell_hash(seed: u64, bank: u64, row: u64, col: u64, tag: u64) -> u64 {
    hash_words(&[seed, bank, row, col, tag])
}

/// Hash mapped to the unit interval `[0, 1)`.
#[inline]
pub(crate) fn hash01(h: u64) -> f64 {
    // 53 significant bits, like rand's standard float conversion.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Convenience: unit-interval hash of a cell coordinate.
#[inline]
pub(crate) fn cell_hash01(seed: u64, bank: u64, row: u64, col: u64, tag: u64) -> f64 {
    hash01(cell_hash(seed, bank, row, col, tag))
}

/// Partial [`hash_words`] fold of `[seed, bank, row]` — the accumulator state
/// shared by every per-cell stream of one row.
///
/// [`cell_hash`] folds five words (five `mix64` calls); factoring the
/// row-constant prefix out means completing any `(col, tag)` stream costs two
/// more calls ([`prefix_col`] + [`finish_tag`]), and all tag streams of one
/// column share the [`prefix_col`] result. The fault-map sampler leans on
/// this: per physical position it pays 1 + one call per screened stream
/// instead of 5 per stream, bit-identical by construction.
#[inline]
pub(crate) fn stream_prefix(seed: u64, bank: u64, row: u64) -> u64 {
    hash_words(&[seed, bank, row])
}

/// Folds a column into a [`stream_prefix`]; shared by all tag streams of the
/// cell.
#[inline]
pub(crate) fn prefix_col(prefix: u64, col: u64) -> u64 {
    mix64(prefix ^ col)
}

/// Completes a per-cell stream: `finish_tag(prefix_col(p, col), tag)` equals
/// `cell_hash(seed, bank, row, col, tag)` exactly.
#[inline]
pub(crate) fn finish_tag(mid: u64, tag: u64) -> u64 {
    mix64(mid ^ tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn hash01_in_unit_interval() {
        for i in 0..10_000u64 {
            let v = hash01(mix64(i));
            assert!((0.0..1.0).contains(&v), "hash01({i}) = {v} out of range");
        }
    }

    #[test]
    fn hash01_roughly_uniform() {
        // Mean of many draws should be close to 0.5.
        let n = 100_000u64;
        let sum: f64 = (0..n).map(|i| hash01(mix64(i))).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn cell_hash_varies_with_every_coordinate() {
        let base = cell_hash(1, 2, 3, 4, 5);
        assert_ne!(base, cell_hash(9, 2, 3, 4, 5));
        assert_ne!(base, cell_hash(1, 9, 3, 4, 5));
        assert_ne!(base, cell_hash(1, 2, 9, 4, 5));
        assert_ne!(base, cell_hash(1, 2, 3, 9, 5));
        assert_ne!(base, cell_hash(1, 2, 3, 4, 9));
    }

    #[test]
    fn hash_words_sensitive_to_order() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn prefix_decomposition_matches_cell_hash() {
        for (seed, bank, row, col, tag) in [
            (1u64, 0u64, 0u64, 0u64, 1u64),
            (42, 3, 8191, 511, 8),
            (u64::MAX, 7, 123, 4096, 5),
        ] {
            let prefix = stream_prefix(seed, bank, row);
            let mid = prefix_col(prefix, col);
            assert_eq!(finish_tag(mid, tag), cell_hash(seed, bank, row, col, tag));
        }
    }
}
