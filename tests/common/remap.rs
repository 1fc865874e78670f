//! Redundant-column remapping (the paper's §7.3 limitation), as a test
//! scrambler.
//!
//! Manufacturers repair faulty columns by steering them to spare columns
//! elsewhere in the array. A remapped cell's *physical* neighbors are the
//! spare location's neighbors, so its neighbor distances in the system
//! address space differ from the regular population — PARBOR's frequency
//! ranking discards them as infrequent, which is exactly the paper's
//! coverage limitation. This module models remapping as a wrapper scrambler
//! that swaps pairs of physical positions.
//!
//! The property it exercises: discovery, neighbor location and the
//! Hamiltonian walks still work, and still find the regular population's
//! distances, on a scrambler with spare-column swaps. `properties.rs` and
//! `sensitivity.rs` include it with `#[path]`.

use std::sync::Arc;

use parbor_dram::{DramError, Scrambler};

/// A set of physical position swaps applied on top of a base scrambler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapTable {
    swaps: Vec<(usize, usize)>,
}

impl RemapTable {
    /// Creates a remap table from `(faulty, spare)` physical position pairs.
    /// Fails if any position appears twice or a pair is degenerate.
    pub fn new(swaps: Vec<(usize, usize)>) -> Result<Self, DramError> {
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &swaps {
            if a == b {
                return Err(DramError::InvalidConfig(format!(
                    "degenerate remap pair ({a}, {b})"
                )));
            }
            if !seen.insert(a) || !seen.insert(b) {
                return Err(DramError::InvalidConfig(format!(
                    "physical position reused in remap pair ({a}, {b})"
                )));
            }
        }
        Ok(RemapTable { swaps })
    }

    /// Wraps a scrambler so the swapped physical positions exchange their
    /// system columns. Fails if any position exceeds the row width.
    pub fn apply(&self, base: Arc<dyn Scrambler>) -> Result<RemappedScrambler, DramError> {
        let n = base.row_bits();
        for &(a, b) in &self.swaps {
            if a >= n || b >= n {
                return Err(DramError::AddressOutOfRange {
                    what: format!("remap pair ({a}, {b})"),
                    limit: format!("row width {n}"),
                });
            }
        }
        let mut phys_swap: Vec<u32> = (0..n as u32).collect();
        for &(a, b) in &self.swaps {
            phys_swap.swap(a, b);
        }
        Ok(RemappedScrambler { base, phys_swap })
    }
}

/// A scrambler with remapped (swapped) physical positions; produced by
/// [`RemapTable::apply`].
#[derive(Debug, Clone)]
pub struct RemappedScrambler {
    base: Arc<dyn Scrambler>,
    /// Involution over physical positions: `phys_swap[p]` is where the cell
    /// that would nominally sit at `p` actually lives.
    phys_swap: Vec<u32>,
}

impl Scrambler for RemappedScrambler {
    fn row_bits(&self) -> usize {
        self.base.row_bits()
    }

    fn system_to_physical(&self, col: usize) -> usize {
        self.phys_swap[self.base.system_to_physical(col)] as usize
    }

    fn physical_to_system(&self, pos: usize) -> usize {
        self.base.physical_to_system(self.phys_swap[pos] as usize)
    }

    fn tile_bounds(&self, pos: usize) -> (usize, usize) {
        self.base.tile_bounds(pos)
    }
}

mod tests {
    use super::*;
    use parbor_dram::{IdentityScrambler, Vendor};

    #[test]
    fn swap_is_involution() {
        let base = Arc::new(IdentityScrambler::new(64));
        let s = RemapTable::new(vec![(1, 60), (2, 61)])
            .unwrap()
            .apply(base)
            .unwrap();
        for col in 0..64 {
            assert_eq!(s.physical_to_system(s.system_to_physical(col)), col);
        }
    }

    #[test]
    fn remap_changes_neighbors() {
        let base = Vendor::B.scrambler(512);
        let col = base.physical_to_system(10);
        let before = base.physical_neighbors(col);
        let s = RemapTable::new(vec![(10, 200)])
            .unwrap()
            .apply(base)
            .unwrap();
        let after = s.physical_neighbors(col);
        assert_ne!(before, after, "remapping must relocate neighbors");
    }

    #[test]
    fn rejects_duplicates_and_degenerates() {
        assert!(RemapTable::new(vec![(1, 1)]).is_err());
        assert!(RemapTable::new(vec![(1, 2), (2, 3)]).is_err());
        assert!(RemapTable::new(vec![(1, 2), (3, 4)]).is_ok());
    }

    #[test]
    fn rejects_out_of_range() {
        let base = Arc::new(IdentityScrambler::new(16));
        let err = RemapTable::new(vec![(1, 99)]).unwrap().apply(base);
        assert!(err.is_err());
    }

    #[test]
    fn remapped_scrambler_stays_bijective() {
        let base = Vendor::A.scrambler(2048);
        let s = RemapTable::new(vec![(5, 1000), (77, 1500)])
            .unwrap()
            .apply(base)
            .unwrap();
        let mut seen = vec![false; 2048];
        for col in 0..2048 {
            let p = s.system_to_physical(col);
            assert!(!seen[p]);
            seen[p] = true;
        }
    }
}
