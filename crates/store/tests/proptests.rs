//! Property tests for the columnar segment codec: any profile the scanner
//! can produce must survive an encode/decode roundtrip bit for bit, and
//! the streaming FNV the store hashes records with must equal the one-shot
//! hash.

use proptest::prelude::*;

use parbor_core::{FailingCell, FailureProfile};
use parbor_hal::hash::{fnv1a64, Fnv1a64};
use parbor_store::segment::{decode_payload, encode_payload, summarize_payload};

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
        let summary = summarize_payload(&payload).expect("summary");
        prop_assert_eq!(summary.name, name.as_str());
        prop_assert_eq!(summary.cells, profile.failures.len());
        prop_assert_eq!(&summary.distances, &profile.distances);
        prop_assert_eq!(decoded.name, name);
        prop_assert!(decoded.complete);
        prop_assert_eq!(decoded.profile, profile);
    }

    /// Several FNV states fed one input in pieces, each piece to any
    /// subset of the states, each equal `fnv1a64` of what it was fed.
    #[test]
    fn streaming_fnv_equals_one_shot_over_any_split(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..6),
        masks in prop::collection::vec(1u8..8, 7..8),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.push(0);
        cuts.push(bytes.len());
        cuts.sort_unstable();
        let mut states = [Fnv1a64::new(); 3];
        let mut fed: [Vec<u8>; 3] = Default::default();
        for (piece, mask) in cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).zip(masks.iter().cycle()) {
            let [a, b, c] = &mut states;
            match mask {
                1 => a.update(piece),
                2 => Fnv1a64::update_all([b], piece),
                3 => Fnv1a64::update_all([a, b], piece),
                4 => c.update(piece),
                5 => Fnv1a64::update_all([a, c], piece),
                6 => Fnv1a64::update_all([b, c], piece),
                _ => Fnv1a64::update_all([a, b, c], piece),
            }
            for (k, f) in fed.iter_mut().enumerate() {
                if mask & (1 << k) != 0 {
                    f.extend_from_slice(piece);
                }
            }
        }
        for (state, f) in states.iter().zip(&fed) {
            prop_assert_eq!(state.finish(), fnv1a64(f));
        }
    }
}
