//! Property tests for the columnar segment codec: any profile the scanner
//! can produce must survive an encode/decode roundtrip bit for bit.

use proptest::prelude::*;

use parbor_core::{FailingCell, FailureProfile};
use parbor_store::segment::{decode_payload, encode_payload};

/// A seed-derived profile with the full range of shapes the codec must
/// carry: empty columns, negative and wide distances, dense and sparse
/// sorted cell lists, and large scalar counters.
fn synth_profile(seed: u64, n_cells: usize, n_dist: usize, n_levels: usize) -> FailureProfile {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut failures: Vec<FailingCell> = (0..n_cells)
        .map(|_| FailingCell {
            unit: (next() % 8) as u32,
            bank: (next() % 16) as u32,
            row: next() as u32,
            col: (next() % 65536) as u32,
            value: next() % 2 == 0,
        })
        .collect();
    // The scanner emits a sorted, deduplicated cell list; the codec's
    // row-delta column relies on that order.
    failures.sort();
    failures.dedup();
    let tests_per_level: Vec<usize> = (0..n_levels).map(|_| (next() % 1000) as usize).collect();
    FailureProfile {
        victim_count: (next() % 10_000) as usize,
        discovery_rounds: (next() % 64) as usize,
        recursion_tests: tests_per_level.iter().sum(),
        tests_per_level,
        distances: (0..n_dist)
            .map(|_| (next() % 140_000) as i64 - 70_000)
            .collect(),
        chipwide_rounds: (next() % 64) as usize,
        failures,
    }
}

proptest! {
    /// Columnar encode → decode is the identity for any profile shape.
    #[test]
    fn columnar_roundtrip_is_identity(
        seed in any::<u64>(),
        n_cells in 0usize..40,
        n_dist in 0usize..8,
        n_levels in 0usize..6,
    ) {
        let profile = synth_profile(seed, n_cells, n_dist, n_levels);
        let name = format!("mod-{}", seed % 10_000);
        let payload = encode_payload(&name, &profile);
        let decoded = decode_payload(&payload, true).expect("strict decode");
        prop_assert_eq!(decoded.name, name);
        prop_assert!(decoded.complete);
        prop_assert_eq!(decoded.profile, profile);
    }
}
