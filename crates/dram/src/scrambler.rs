//! System-address ↔ physical-cell mapping (vendor address scrambling).
//!
//! DRAM vendors scramble the system address space for cost reasons: data
//! passes through hierarchical buffers (global and local sense amplifiers) of
//! mismatched widths, so system-adjacent bits land in non-adjacent physical
//! cells (paper §3, challenge 1). The mapping is never exposed, which is what
//! makes system-level detection of data-dependent failures hard — and what
//! PARBOR reverse-engineers.
//!
//! This module models scrambling as a per-row permutation organized in
//! **tiles**: physical cell positions are grouped into tiles (subarrays /
//! mats), physical adjacency exists only *within* a tile, and each tile picks
//! up a fixed arithmetic-progression subset of the system offsets in a fixed
//! *walk* order. The observable neighbor-distance set of such a scrambler is
//! `stride ×` the step set of the walk — see [`crate::walk_distance_set`].

use std::fmt;
use std::sync::Arc;

use crate::walk::{is_permutation, is_permutation_table};
use parbor_hal::DramError;

/// A system→physical address mapping for the columns of one DRAM row.
///
/// All rows of a chip share the same column mapping (the paper's observation
/// of tile regularity across rows); different chips of the same vendor share
/// it too.
///
/// Implementors must guarantee that [`system_to_physical`] is a permutation
/// of `0..row_bits()` and that [`physical_to_system`] is its inverse.
///
/// [`system_to_physical`]: Scrambler::system_to_physical
/// [`physical_to_system`]: Scrambler::physical_to_system
pub trait Scrambler: fmt::Debug + Send + Sync {
    /// Number of columns (bits) in a row.
    fn row_bits(&self) -> usize;

    /// Physical position of the cell holding system column `col`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `col >= row_bits()`.
    fn system_to_physical(&self, col: usize) -> usize;

    /// System column held by the cell at physical position `pos`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `pos >= row_bits()`.
    fn physical_to_system(&self, pos: usize) -> usize;

    /// Bounds `(start, end)` of the tile containing physical position `pos`.
    ///
    /// Physical adjacency (bitline coupling) exists only within a tile; the
    /// first and last cells of a tile have a single neighbor. The default
    /// treats the whole row as one tile.
    fn tile_bounds(&self, pos: usize) -> (usize, usize) {
        let _ = pos;
        (0, self.row_bits())
    }

    /// System columns of the physical left and right neighbors of the cell
    /// holding system column `col` (`None` at tile edges).
    ///
    /// This is the ground truth PARBOR tries to discover; production code
    /// paths never call it — it exists for validation and oracle baselines.
    fn physical_neighbors(&self, col: usize) -> (Option<usize>, Option<usize>) {
        let pos = self.system_to_physical(col);
        let (lo, hi) = self.tile_bounds(pos);
        let left = (pos > lo).then(|| self.physical_to_system(pos - 1));
        let right = (pos + 1 < hi).then(|| self.physical_to_system(pos + 1));
        (left, right)
    }

    /// The full set of signed neighbor distances observable in the system
    /// address space, sorted ascending. Validation/oracle use only.
    fn distance_set(&self) -> Vec<i64> {
        let mut set = std::collections::BTreeSet::new();
        for col in 0..self.row_bits() {
            let (l, r) = self.physical_neighbors(col);
            for n in [l, r].into_iter().flatten() {
                set.insert(n as i64 - col as i64);
            }
        }
        set.into_iter().collect()
    }

    /// Precomputes dense permutation tables `(sys→phys, phys→sys)` for bulk
    /// row translation.
    fn build_tables(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.row_bits();
        let mut s2p = vec![0u32; n];
        let mut p2s = vec![0u32; n];
        for (col, entry) in s2p.iter_mut().enumerate() {
            let pos = self.system_to_physical(col);
            *entry = pos as u32;
            p2s[pos] = col as u32;
        }
        (s2p, p2s)
    }
}

impl<S: Scrambler + ?Sized> Scrambler for Arc<S> {
    fn row_bits(&self) -> usize {
        (**self).row_bits()
    }
    fn system_to_physical(&self, col: usize) -> usize {
        (**self).system_to_physical(col)
    }
    fn physical_to_system(&self, pos: usize) -> usize {
        (**self).physical_to_system(pos)
    }
    fn tile_bounds(&self, pos: usize) -> (usize, usize) {
        (**self).tile_bounds(pos)
    }
}

/// A scrambler compiled into dense lookup tables.
///
/// The arithmetic scramblers translate one column per call (div/mod chains
/// in [`TileWalkScrambler`]); a chip-sized scan performs millions of such
/// translations while building fault maps. `ScramblerLut` pays the
/// arithmetic exactly once per column at construction and serves every
/// later translation — both directions, plus tile bounds — as an indexed
/// load.
///
/// The LUT implements [`Scrambler`] itself, so it drops into every
/// consumer of the trait unchanged; because its tables are filled *from*
/// the wrapped scrambler, bit-identity with the reference path is by
/// construction (and double-checked at build time: the table pair must be
/// a permutation and its inverse).
///
/// # Examples
///
/// ```
/// use parbor_dram::{Scrambler, ScramblerLut, Vendor};
///
/// let reference = Vendor::A.scrambler(8192);
/// let lut = ScramblerLut::build(reference.as_ref());
/// assert_eq!(lut.system_to_physical(100), reference.system_to_physical(100));
/// assert_eq!(lut.distance_set(), reference.distance_set());
/// ```
#[derive(Debug, Clone)]
pub struct ScramblerLut {
    row_bits: usize,
    s2p: Vec<u32>,
    p2s: Vec<u32>,
    /// Tile bounds per physical position, `(start, end)`.
    bounds: Vec<(u32, u32)>,
}

impl ScramblerLut {
    /// Compiles `inner` into lookup tables. This is the only place the
    /// wrapped scrambler's arithmetic runs: `2 × row_bits` translations
    /// plus one `tile_bounds` call per position.
    ///
    /// # Panics
    ///
    /// Panics if `inner` violates the [`Scrambler`] contract (its mapping
    /// is not a permutation of `0..row_bits` with a consistent inverse).
    pub fn build(inner: &(impl Scrambler + ?Sized)) -> Self {
        let n = inner.row_bits();
        let (s2p, p2s) = inner.build_tables();
        assert!(
            is_permutation_table(&p2s),
            "scrambler p2s table is not a permutation of 0..{n}"
        );
        for (col, &pos) in s2p.iter().enumerate() {
            assert_eq!(
                p2s[pos as usize] as usize, col,
                "scrambler tables are not inverse at column {col}"
            );
        }
        let bounds = (0..n)
            .map(|pos| {
                let (lo, hi) = inner.tile_bounds(pos);
                (lo as u32, hi as u32)
            })
            .collect();
        ScramblerLut {
            row_bits: n,
            s2p,
            p2s,
            bounds,
        }
    }
}

impl Scrambler for ScramblerLut {
    fn row_bits(&self) -> usize {
        self.row_bits
    }

    #[inline]
    fn system_to_physical(&self, col: usize) -> usize {
        self.s2p[col] as usize
    }

    #[inline]
    fn physical_to_system(&self, pos: usize) -> usize {
        self.p2s[pos] as usize
    }

    #[inline]
    fn tile_bounds(&self, pos: usize) -> (usize, usize) {
        let (lo, hi) = self.bounds[pos];
        (lo as usize, hi as usize)
    }

    fn build_tables(&self) -> (Vec<u32>, Vec<u32>) {
        (self.s2p.clone(), self.p2s.clone())
    }
}

/// The trivial mapping: system column `i` is physical position `i`.
///
/// Useful as a control: with no scrambling, naive adjacent-address tests
/// would find all data-dependent failures, which is the paper's Figure 1
/// baseline intuition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentityScrambler {
    row_bits: usize,
}

impl IdentityScrambler {
    /// Creates an identity mapping over `row_bits` columns.
    pub fn new(row_bits: usize) -> Self {
        IdentityScrambler { row_bits }
    }
}

impl Scrambler for IdentityScrambler {
    fn row_bits(&self) -> usize {
        self.row_bits
    }

    fn system_to_physical(&self, col: usize) -> usize {
        assert!(col < self.row_bits, "column {col} out of range");
        col
    }

    fn physical_to_system(&self, pos: usize) -> usize {
        assert!(pos < self.row_bits, "position {pos} out of range");
        pos
    }
}

/// A tile-structured scrambler.
///
/// The row's system offsets are split into *groups* of `span` consecutive
/// offsets. Within a group there are `stride` tiles; tile `r` holds the
/// offsets congruent to `r (mod stride)`, in the order given by `walk`:
/// physical position `j` of the tile holds system offset
/// `group·span + walk[j]·stride + r`.
///
/// Any trailing partial group (`row_bits mod span` columns) maps identity as
/// a single tile — this models edge/spare columns at the end of the array and
/// feeds the paper's §7.3 "limitation" discussion.
///
/// # Examples
///
/// ```
/// use parbor_dram::{Scrambler, TileWalkScrambler, Vendor};
///
/// let s = Vendor::B.scrambler(8192);
/// // Vendor B's observable neighbor distances are {±1, ±64}.
/// assert_eq!(s.distance_set(), vec![-64, -1, 1, 64]);
/// ```
#[derive(Debug, Clone)]
pub struct TileWalkScrambler {
    row_bits: usize,
    span: usize,
    stride: usize,
    tile_len: usize,
    segment_len: usize,
    walk: Vec<usize>,
    inv_walk: Vec<usize>,
}

impl TileWalkScrambler {
    /// Builds a tile-walk scrambler whose tiles are whole walks.
    ///
    /// `walk` must be a permutation of `0..span/stride`; `stride` must divide
    /// `span`; `span` must not exceed `row_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the walk is not a valid
    /// permutation or the dimensions are inconsistent.
    pub fn new(
        row_bits: usize,
        span: usize,
        stride: usize,
        walk: Vec<usize>,
    ) -> Result<Self, DramError> {
        let segment_len = walk.len();
        Self::with_segments(row_bits, span, stride, walk, segment_len)
    }

    /// Builds a tile-walk scrambler whose walk is split into physical
    /// *segments* of `segment_len` positions: physical adjacency (bitline
    /// coupling) exists only within a segment. Real chips produce such
    /// structure when burst pairs land in small sense-amplifier islands
    /// (the paper's Figure 5 shows 2-bit swapped groups).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the walk is invalid or
    /// `segment_len` does not divide the walk length.
    pub fn with_segments(
        row_bits: usize,
        span: usize,
        stride: usize,
        walk: Vec<usize>,
        segment_len: usize,
    ) -> Result<Self, DramError> {
        if span == 0 || stride == 0 || !span.is_multiple_of(stride) {
            return Err(DramError::InvalidConfig(format!(
                "span {span} must be a nonzero multiple of stride {stride}"
            )));
        }
        if span > row_bits {
            return Err(DramError::InvalidConfig(format!(
                "span {span} exceeds row width {row_bits}"
            )));
        }
        let tile_len = span / stride;
        if walk.len() != tile_len {
            return Err(DramError::InvalidConfig(format!(
                "walk length {} must equal span/stride = {tile_len}",
                walk.len()
            )));
        }
        if !is_permutation(&walk) {
            return Err(DramError::InvalidConfig(
                "walk must be a permutation of 0..span/stride".into(),
            ));
        }
        if segment_len == 0 || !tile_len.is_multiple_of(segment_len) {
            return Err(DramError::InvalidConfig(format!(
                "segment length {segment_len} must divide walk length {tile_len}"
            )));
        }
        let mut inv_walk = vec![0usize; tile_len];
        for (j, &m) in walk.iter().enumerate() {
            inv_walk[m] = j;
        }
        Ok(TileWalkScrambler {
            row_bits,
            span,
            stride,
            tile_len,
            segment_len,
            walk,
            inv_walk,
        })
    }

    /// Start of the trailing identity-mapped region (equals `row_bits` when
    /// `span` divides the row width exactly).
    fn trailing_start(&self) -> usize {
        (self.row_bits / self.span) * self.span
    }
}

impl Scrambler for TileWalkScrambler {
    fn row_bits(&self) -> usize {
        self.row_bits
    }

    fn system_to_physical(&self, col: usize) -> usize {
        assert!(col < self.row_bits, "column {col} out of range");
        if col >= self.trailing_start() {
            return col;
        }
        let group = col / self.span;
        let rem = col % self.span;
        let residue = rem % self.stride;
        let m = rem / self.stride;
        group * self.span + residue * self.tile_len + self.inv_walk[m]
    }

    fn physical_to_system(&self, pos: usize) -> usize {
        assert!(pos < self.row_bits, "position {pos} out of range");
        if pos >= self.trailing_start() {
            return pos;
        }
        let group = pos / self.span;
        let rem = pos % self.span;
        let residue = rem / self.tile_len;
        let j = rem % self.tile_len;
        group * self.span + self.walk[j] * self.stride + residue
    }

    fn tile_bounds(&self, pos: usize) -> (usize, usize) {
        let trailing = self.trailing_start();
        if pos >= trailing {
            return (trailing, self.row_bits);
        }
        let seg_start = (pos / self.segment_len) * self.segment_len;
        (seg_start, seg_start + self.segment_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;

    fn assert_bijective(s: &dyn Scrambler) {
        let n = s.row_bits();
        let mut seen = vec![false; n];
        for col in 0..n {
            let pos = s.system_to_physical(col);
            assert!(pos < n);
            assert!(!seen[pos], "physical position {pos} hit twice");
            seen[pos] = true;
            assert_eq!(s.physical_to_system(pos), col, "inverse broken at {col}");
        }
    }

    #[test]
    fn identity_is_bijective() {
        assert_bijective(&IdentityScrambler::new(257));
    }

    #[test]
    fn identity_distance_set_is_unit() {
        let s = IdentityScrambler::new(64);
        assert_eq!(s.distance_set(), vec![-1, 1]);
    }

    #[test]
    fn vendor_scramblers_are_bijective() {
        for v in [Vendor::A, Vendor::B, Vendor::C] {
            assert_bijective(&*v.scrambler(8192));
        }
    }

    #[test]
    fn vendor_a_distances_match_paper() {
        let s = Vendor::A.scrambler(8192);
        assert_eq!(s.distance_set(), vec![-48, -16, -8, 8, 16, 48]);
    }

    #[test]
    fn vendor_b_distances_match_paper() {
        let s = Vendor::B.scrambler(8192);
        assert_eq!(s.distance_set(), vec![-64, -1, 1, 64]);
    }

    #[test]
    fn vendor_c_distances_match_paper() {
        let s = Vendor::C.scrambler(8192);
        assert_eq!(s.distance_set(), vec![-49, -33, -16, 16, 33, 49]);
    }

    #[test]
    fn tile_edges_have_one_neighbor() {
        let s = Vendor::B.scrambler(512);
        // Physical position 0 is the start of the first tile.
        let col = s.physical_to_system(0);
        let (l, _r) = s.physical_neighbors(col);
        assert!(l.is_none());
    }

    #[test]
    fn neighbors_are_symmetric() {
        let s = Vendor::A.scrambler(2048);
        for col in 0..2048 {
            let (l, r) = s.physical_neighbors(col);
            if let Some(l) = l {
                let (_, lr) = s.physical_neighbors(l);
                assert_eq!(lr, Some(col), "left neighbor of {col} not symmetric");
            }
            if let Some(r) = r {
                let (rl, _) = s.physical_neighbors(r);
                assert_eq!(rl, Some(col), "right neighbor of {col} not symmetric");
            }
        }
    }

    #[test]
    fn build_tables_round_trip() {
        let s = Vendor::C.scrambler(512);
        let (s2p, p2s) = s.build_tables();
        for col in 0..512usize {
            assert_eq!(p2s[s2p[col] as usize] as usize, col);
        }
    }

    /// The satellite oracle: over every vendor family and a full row, the
    /// compiled LUT must agree with the arithmetic reference on every query
    /// the trait exposes — both translation directions, tile bounds,
    /// neighbors, and the derived distance set.
    #[test]
    fn lut_matches_reference_exhaustively_for_every_vendor() {
        for v in [Vendor::A, Vendor::B, Vendor::C] {
            let reference = v.scrambler(8192);
            let lut = ScramblerLut::build(reference.as_ref());
            assert_eq!(lut.row_bits(), reference.row_bits());
            for col in 0..reference.row_bits() {
                assert_eq!(
                    lut.system_to_physical(col),
                    reference.system_to_physical(col),
                    "{v:?} s2p diverges at column {col}"
                );
                assert_eq!(
                    lut.physical_to_system(col),
                    reference.physical_to_system(col),
                    "{v:?} p2s diverges at position {col}"
                );
                assert_eq!(
                    lut.tile_bounds(col),
                    reference.tile_bounds(col),
                    "{v:?} tile bounds diverge at position {col}"
                );
                assert_eq!(
                    lut.physical_neighbors(col),
                    reference.physical_neighbors(col),
                    "{v:?} neighbors diverge at column {col}"
                );
            }
            assert_eq!(lut.distance_set(), reference.distance_set());
        }
    }

    #[test]
    fn lut_handles_trailing_identity_region() {
        // 100 columns with span 64 leaves a 36-column identity tail.
        let s = TileWalkScrambler::new(100, 64, 8, (0..8).rev().collect()).unwrap();
        let lut = ScramblerLut::build(&s);
        for col in 0..100 {
            assert_eq!(lut.system_to_physical(col), s.system_to_physical(col));
            assert_eq!(lut.physical_to_system(col), s.physical_to_system(col));
            assert_eq!(lut.tile_bounds(col), s.tile_bounds(col));
        }
    }

    #[test]
    fn lut_build_tables_round_trips() {
        let s = Vendor::B.scrambler(512);
        let lut = ScramblerLut::build(s.as_ref());
        assert_eq!(lut.build_tables(), s.build_tables());
        // A LUT of a LUT is the same LUT.
        let relut = ScramblerLut::build(&lut);
        assert_eq!(relut.build_tables(), lut.build_tables());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn lut_rejects_contract_violations() {
        /// Deliberately broken: maps everything to position 0.
        #[derive(Debug)]
        struct Collapsing;
        impl Scrambler for Collapsing {
            fn row_bits(&self) -> usize {
                8
            }
            fn system_to_physical(&self, _col: usize) -> usize {
                0
            }
            fn physical_to_system(&self, _pos: usize) -> usize {
                0
            }
        }
        ScramblerLut::build(&Collapsing);
    }

    #[test]
    fn new_rejects_bad_walks() {
        // Not a permutation.
        assert!(TileWalkScrambler::new(64, 4, 1, vec![0, 0, 1, 2]).is_err());
        // Wrong length.
        assert!(TileWalkScrambler::new(64, 4, 1, vec![0, 1, 2]).is_err());
        // Stride does not divide span.
        assert!(TileWalkScrambler::new(64, 5, 2, vec![0, 1]).is_err());
        // Span larger than row.
        assert!(TileWalkScrambler::new(4, 8, 1, (0..8).collect()).is_err());
    }
}
