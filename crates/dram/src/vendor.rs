//! The three vendor families evaluated in the paper.
//!
//! The paper tests 18 modules (144 chips) from three anonymized major vendors
//! **A**, **B**, **C** and reports the neighbor-distance set PARBOR discovers
//! for each (Fig 11):
//!
//! | Vendor | distances | recursion tests (Table 1) |
//! |--------|-----------|---------------------------|
//! | A      | {±8, ±16, ±48}  | 90 |
//! | B      | {±1, ±64}       | 66 |
//! | C      | {±16, ±33, ±49} | 90 |
//!
//! Each vendor here is a [`TileWalkScrambler`] hand-constructed so its
//! observable distance set equals the paper's, plus per-vendor fault-rate
//! calibration (vendor C is the most vulnerable in the paper's Fig 12).

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::cell::FaultRates;
use crate::scrambler::{Scrambler, TileWalkScrambler};

/// One of the paper's three anonymized DRAM vendors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Vendor {
    /// Vendor A: neighbor distances {±8, ±16, ±48}.
    A,
    /// Vendor B: neighbor distances {±1, ±64}.
    B,
    /// Vendor C: neighbor distances {±16, ±33, ±49}.
    C,
}

impl Vendor {
    /// All three vendors, in paper order.
    pub const ALL: [Vendor; 3] = [Vendor::A, Vendor::B, Vendor::C];

    /// The vendor's address scrambler for a row of `row_bits` columns.
    ///
    /// # Panics
    ///
    /// Panics if `row_bits` is smaller than the vendor's tile span
    /// (1024 for A, 128 for B and C).
    pub fn scrambler(self, row_bits: usize) -> Arc<dyn Scrambler> {
        let s = match self {
            Vendor::A => TileWalkScrambler::with_segments(row_bits, 1024, 8, vendor_a_walk(), 16),
            Vendor::B => TileWalkScrambler::with_segments(row_bits, 512, 1, vendor_b_walk(), 16),
            Vendor::C => TileWalkScrambler::new(row_bits, 128, 1, vendor_c_walk()),
        };
        Arc::new(s.expect("built-in vendor walk is valid"))
    }

    /// Ground-truth signed neighbor distances for this vendor (paper Fig 11,
    /// level 5).
    pub fn paper_distances(self) -> &'static [i64] {
        match self {
            Vendor::A => &[-48, -16, -8, 8, 16, 48],
            Vendor::B => &[-64, -1, 1, 64],
            Vendor::C => &[-49, -33, -16, 16, 33, 49],
        }
    }

    /// Per-vendor fault-rate calibration.
    ///
    /// Rates are chosen so that whole-module failure counts land in the
    /// paper's reported ranges (Fig 12: 1 K–45 K extra failures per module,
    /// vendor C most vulnerable, B least).
    pub fn default_rates(self) -> FaultRates {
        match self {
            Vendor::A => FaultRates {
                interesting: 2.0e-3,
                soft_per_bit_per_round: 2.0e-8,
                ..FaultRates::default()
            },
            Vendor::B => FaultRates {
                interesting: 8.0e-4,
                // B modules are noisier: the paper's B1 shows ~5 % of
                // failures found only by the random test, attributed to
                // randomly-occurring failures.
                soft_per_bit_per_round: 2.5e-7,
                ..FaultRates::default()
            },
            Vendor::C => FaultRates {
                interesting: 5.0e-3,
                soft_per_bit_per_round: 1.5e-8,
                ..FaultRates::default()
            },
        }
    }

    /// Number of modules of this vendor in the paper's 18-module population.
    pub fn paper_module_count(self) -> usize {
        6
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vendor::A => write!(f, "A"),
            Vendor::B => write!(f, "B"),
            Vendor::C => write!(f, "C"),
        }
    }
}

/// Parses a vendor letter, either case: `"B".parse::<Vendor>()`.
///
/// The error is the message the command-line tools print,
/// `unknown vendor X (use A, B, or C)`.
impl FromStr for Vendor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "A" | "a" => Ok(Vendor::A),
            "B" | "b" => Ok(Vendor::B),
            "C" | "c" => Ok(Vendor::C),
            other => Err(format!("unknown vendor {other} (use A, B, or C)")),
        }
    }
}

/// Vendor A walk: physical islands of 16 cells over spans of 1024 system
/// offsets with stride 8. Each island holds 16 consecutive stride-units in
/// the order `[2,0,1,3,9,7,8,6,12,14,15,13,11,5,4,10]` (plus the island
/// base), so every step magnitude is in {1, 2, 6} stride-units — the
/// distance set {±8, ±16, ±48} with shares ≈ 27 % / 47 % / 27 % and nearly
/// half the adjacencies straddling an 8-unit (64-bit) region boundary,
/// which is what makes the ±1 regions *frequent* at recursion level 3
/// (paper Fig 11a).
fn vendor_a_walk() -> Vec<usize> {
    const SEQ: [usize; 16] = [2, 0, 1, 3, 9, 7, 8, 6, 12, 14, 15, 13, 11, 5, 4, 10];
    let mut walk = Vec::with_capacity(128);
    for block in 0..8 {
        for s in SEQ {
            walk.push(block * 16 + s);
        }
    }
    walk
}

/// Vendor B walk: 32 physical islands of 16 cells per 512-offset span.
/// Island `k` chains the pairs `(64j + 2k, 64j + 2k + 1)` for `j = 0..8`,
/// entering even pairs low-first and odd pairs high-first
/// (steps +1, +64, -1, +64, +1, ...), giving the distance set {±1, ±64}.
/// This mirrors the paper's Figure 5 example, where burst pairs land in
/// different arrays and get swapped; crucially, every ±1 adjacency starts at
/// an even offset, so ±1 neighbors never straddle an 8-bit region boundary
/// (Fig 11b: vendor B's level-4 regions are only {0, ±8}).
fn vendor_b_walk() -> Vec<usize> {
    let mut walk = Vec::with_capacity(512);
    for k in 0..32 {
        for j in 0..8 {
            let base = 64 * j + 2 * k;
            if j % 2 == 0 {
                walk.push(base);
                walk.push(base + 1);
            } else {
                walk.push(base + 1);
                walk.push(base);
            }
        }
    }
    walk
}

/// Vendor C walk: one tile of 128 cells per span, with every step magnitude
/// in {16, 33, 49}. Found by randomized Hamiltonian-path search (see
/// [`hamiltonian_walk`](crate::hamiltonian_walk)) and fixed here so the step
/// shares are balanced (≈ 35 % / 34 % / 31 %), making all three distances
/// *frequent* — which PARBOR's ranking requires to keep them (paper Fig 14).
fn vendor_c_walk() -> Vec<usize> {
    const WALK: [usize; 128] = [
        34, 1, 17, 50, 83, 116, 100, 67, 18, 2, 51, 35, 84, 117, 68, 101, 52, 19, 3, 36, 85, 118,
        69, 20, 4, 53, 102, 86, 119, 103, 70, 37, 21, 5, 54, 38, 87, 120, 104, 71, 22, 6, 55, 39,
        88, 121, 105, 72, 23, 7, 56, 40, 89, 122, 106, 73, 24, 8, 57, 90, 123, 107, 74, 41, 25, 9,
        58, 42, 91, 124, 75, 26, 10, 59, 108, 92, 125, 109, 76, 43, 27, 11, 60, 44, 93, 126, 110,
        77, 28, 12, 61, 45, 94, 127, 78, 29, 13, 62, 111, 95, 46, 79, 112, 96, 63, 30, 14, 47, 31,
        15, 48, 32, 16, 0, 33, 66, 99, 115, 82, 49, 98, 114, 65, 81, 97, 64, 113, 80,
    ];
    WALK.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::walk_distance_set;

    #[test]
    fn vendor_a_walk_steps() {
        // The raw walk includes inter-island hops (8); the scrambler's
        // 16-cell segments exclude them from physical adjacency.
        assert_eq!(walk_distance_set(&vendor_a_walk()), vec![1, 2, 6, 8]);
        let s = Vendor::A.scrambler(8192);
        assert_eq!(s.distance_set(), vec![-48, -16, -8, 8, 16, 48]);
    }

    #[test]
    fn vendor_b_walk_steps() {
        // The raw walk includes the inter-island hops (446); the scrambler's
        // 16-cell segments exclude them from physical adjacency.
        assert_eq!(walk_distance_set(&vendor_b_walk()), vec![1, 64, 446]);
        let s = Vendor::B.scrambler(8192);
        assert_eq!(s.distance_set(), vec![-64, -1, 1, 64]);
    }

    #[test]
    fn vendor_c_walk_steps() {
        assert_eq!(walk_distance_set(&vendor_c_walk()), vec![16, 33, 49]);
    }

    #[test]
    fn scrambler_distances_match_paper_table() {
        for v in Vendor::ALL {
            let observed = v.scrambler(8192).distance_set();
            for d in v.paper_distances() {
                assert!(observed.contains(d), "vendor {v}: missing distance {d}");
            }
        }
    }

    #[test]
    fn vendor_c_is_most_vulnerable() {
        let a = Vendor::A.default_rates().interesting;
        let b = Vendor::B.default_rates().interesting;
        let c = Vendor::C.default_rates().interesting;
        assert!(c > a && a > b);
    }

    #[test]
    fn display_is_single_letter() {
        assert_eq!(Vendor::A.to_string(), "A");
        assert_eq!(Vendor::C.to_string(), "C");
    }

    #[test]
    fn parse_round_trips_display_in_either_case() {
        for v in Vendor::ALL {
            assert_eq!(v.to_string().parse::<Vendor>(), Ok(v));
            assert_eq!(v.to_string().to_lowercase().parse::<Vendor>(), Ok(v));
        }
        assert_eq!(
            "D".parse::<Vendor>(),
            Err("unknown vendor D (use A, B, or C)".to_string())
        );
    }
}
