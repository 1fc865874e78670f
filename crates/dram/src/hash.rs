//! Deterministic, stateless hashing used for all per-cell and per-round draws.
//!
//! Every stochastic property of the simulated device (cell class, retention
//! time, coupling penalties, marginal/VRT behaviour, soft errors) is a pure
//! function of a seed and the cell coordinates, computed with the SplitMix64
//! finalizer. This keeps the device stateless and perfectly reproducible: two
//! reads of the same cell in the same round observe the same world.
//!
//! The primitives (`mix64`, `hash_words`, `hash01`) live in
//! `parbor_hal::hash`; this module only defines the device's per-cell
//! streams on top of them.

pub(crate) use parbor_hal::hash::{hash01, hash_words, mix64};

/// Hash of a cell coordinate plus a stream tag, as a `u64`.
#[inline]
pub(crate) fn cell_hash(seed: u64, bank: u64, row: u64, col: u64, tag: u64) -> u64 {
    hash_words(&[seed, bank, row, col, tag])
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
    fn cell_hash_varies_with_every_coordinate() {
        let base = cell_hash(1, 2, 3, 4, 5);
        assert_ne!(base, cell_hash(9, 2, 3, 4, 5));
        assert_ne!(base, cell_hash(1, 9, 3, 4, 5));
        assert_ne!(base, cell_hash(1, 2, 9, 4, 5));
        assert_ne!(base, cell_hash(1, 2, 3, 9, 5));
        assert_ne!(base, cell_hash(1, 2, 3, 4, 9));
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
