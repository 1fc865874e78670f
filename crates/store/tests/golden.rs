//! Golden bytes for the put traffic of a `detect`-shaped run: hundreds of
//! puts into one store that is never compacted, a re-put of an existing
//! name, reads, an aggregate and the ledger, then a compaction and more
//! puts. Every file the store writes, the `FleetAggregate` and the
//! `StoreStats` are pinned, so a change to any store read or write path
//! that moves a byte or a count fails here.

use std::path::{Path, PathBuf};

use parbor_core::{FailingCell, FailureProfile};
use parbor_hal::hash::fnv1a64;
use parbor_store::{FleetAggregate, ProfileStore, StoreStats};

fn temp_store(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("parbor-store-golden-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// A seeded profile on an 8-chip, 128-row, 8 Ki-column module with the
/// given number of failing cells (sorted, deduplicated, as a scan emits).
fn profile(seed: u64, cells: usize) -> FailureProfile {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut failures: Vec<FailingCell> = (0..cells)
        .map(|_| FailingCell {
            unit: (next() % 8) as u32,
            bank: 0,
            row: (next() % 128) as u32,
            col: (next() % 8192) as u32,
            value: next() % 2 == 0,
        })
        .collect();
    failures.sort();
    failures.dedup_by(|a, b| (a.unit, a.bank, a.row, a.col) == (b.unit, b.bank, b.row, b.col));
    let distances = match seed % 4 {
        0 => vec![-8, -1, 1, 8],
        1 => vec![-16, -2, 2, 16],
        2 => vec![-4, 4],
        _ => vec![],
    };
    FailureProfile {
        victim_count: 200 + (next() % 800) as usize,
        discovery_rounds: 10,
        tests_per_level: vec![2, 8, 8, 24, 12 * distances.len()],
        recursion_tests: 42 + 12 * distances.len(),
        distances,
        chipwide_rounds: 16 + (next() % 8) as usize,
        failures,
    }
}

/// Failing cells of module `i`: mostly hundreds, every seventh large, a
/// few empty.
fn cells(i: u64) -> usize {
    match i % 7 {
        0 => 4_000 + (i as usize * 131) % 3_000,
        3 if i.is_multiple_of(5) => 0,
        _ => (i as usize * 53) % 900,
    }
}

fn name(i: u64) -> String {
    let vendor = ["A", "B", "C"][(i % 3) as usize];
    format!("{vendor}{i}")
}

/// One digest over every file under `root`: sorted relative paths, each
/// followed by its length and bytes.
fn tree_digest(root: &Path) -> u64 {
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                files.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    let mut all = Vec::new();
    for (rel, bytes) in files {
        all.extend_from_slice(rel.as_bytes());
        all.push(0);
        all.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        all.extend_from_slice(&bytes);
    }
    fnv1a64(&all)
}

fn aggregate_digest(agg: &FleetAggregate) -> u64 {
    fnv1a64(format!("{agg:?}").as_bytes())
}

/// The pinned figures of one checkpoint of the script.
#[derive(Debug, PartialEq)]
struct Pins {
    tree: u64,
    aggregate: u64,
    modules: usize,
    total_failures: u64,
    stats: StoreStats,
}

fn pins(store: &ProfileStore) -> Pins {
    let agg = store.aggregate().unwrap();
    let stats = store.stats().unwrap();
    Pins {
        tree: tree_digest(store.root()),
        aggregate: aggregate_digest(&agg),
        modules: agg.modules,
        total_failures: agg.total_failures,
        stats,
    }
}

#[test]
fn detect_shaped_put_traffic_is_byte_pinned() {
    let root = temp_store("detect");
    let mut store = ProfileStore::open(&root).unwrap();
    for i in 0..300u64 {
        store.put(&name(i), &profile(i, cells(i))).unwrap();
    }
    // `detect` re-puts its first module after the loop.
    store.put(&name(0), &profile(0, cells(0))).unwrap();
    for i in (0..300u64).step_by(23) {
        let got = store.get(&name(i)).unwrap();
        assert!(got.complete && !got.recovered);
        assert_eq!(got.profile, profile(i, cells(i)), "module {}", name(i));
    }
    let before = pins(&store);

    store.compact().unwrap();
    let compacted = pins(&store);

    // More puts after the compaction: new names, and re-puts that leave
    // dead records in the generation.
    for i in 290..320u64 {
        store.put(&name(i), &profile(i + 1_000, cells(i))).unwrap();
    }
    for i in (0..320u64).step_by(29) {
        let want = if i >= 290 {
            profile(i + 1_000, cells(i))
        } else {
            profile(i, cells(i))
        };
        assert_eq!(store.get(&name(i)).unwrap().profile, want);
    }
    let after = pins(&store);
    std::fs::remove_dir_all(&root).ok();

    let stats =
        |modules, l0, gens: Vec<(u32, usize)>, shards, live, dead, failures, bytes| StoreStats {
            modules,
            l0_segments: l0,
            generation_segments: gens,
            index_shards: shards,
            live_records: live,
            dead_records: dead,
            corrupt_records: 0,
            total_failures: failures,
            segment_bytes: bytes,
            ledger_balanced: true,
        };
    assert_eq!(
        before,
        Pins {
            tree: 0x55d655ba2470c0d4,
            aggregate: 0x247e12accdb2a9ff,
            modules: 300,
            total_failures: 339_765,
            stats: stats(300, 300, vec![], 16, 300, 0, 339_765, 1_750_263),
        }
    );
    assert_eq!(
        compacted,
        Pins {
            tree: 0xc51329cda8473f4f,
            aggregate: 0x247e12accdb2a9ff,
            modules: 300,
            total_failures: 339_765,
            stats: stats(300, 0, vec![(1, 1)], 16, 300, 0, 339_765, 1_747_871),
        }
    );
    assert_eq!(
        after,
        Pins {
            tree: 0xdacc6526e4e1e017,
            aggregate: 0xba79398b357b8cc0,
            modules: 320,
            total_failures: 364_006,
            stats: stats(320, 30, vec![(1, 1)], 16, 320, 10, 364_006, 1_920_428),
        }
    );
}

#[test]
fn salvaging_compaction_is_byte_pinned() {
    // Compaction re-encodes a record whose checksum fails and drops one
    // with no readable name; the output generation is pinned.
    let root = temp_store("salvage");
    let mut store = ProfileStore::open(&root).unwrap();
    for i in 0..24u64 {
        store.put(&name(i), &profile(i, cells(i) / 4)).unwrap();
    }
    drop(store);
    let seg = |i: u64| root.join("segments").join(format!("L0-{}.pbs", name(i)));
    let mut flipped = std::fs::read(seg(7)).unwrap();
    let at = flipped.len() - 40;
    flipped[at] ^= 0x04;
    std::fs::write(seg(7), &flipped).unwrap();
    let torn = std::fs::read(seg(8)).unwrap();
    std::fs::write(seg(8), &torn[..torn.len() / 2]).unwrap();
    std::fs::write(seg(9), &std::fs::read(seg(9)).unwrap()[..8 + 12 + 1]).unwrap();

    let mut store = ProfileStore::open(&root).unwrap();
    let report = store.compact().unwrap();
    let after = pins(&store);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(
        (report.salvaged, report.dropped, report.output_records),
        (2, 1, 23)
    );
    assert_eq!(report.output_bytes, 35_394);
    assert_eq!(
        after,
        Pins {
            tree: 0xfdf24f0d2d7b5899,
            aggregate: 0x5e354f33e80fd46a,
            modules: 23,
            total_failures: 6_760,
            stats: StoreStats {
                modules: 23,
                l0_segments: 0,
                generation_segments: vec![(1, 1)],
                index_shards: 14,
                live_records: 23,
                dead_records: 0,
                corrupt_records: 0,
                total_failures: 6_760,
                segment_bytes: 35_402,
                ledger_balanced: true,
            },
        }
    );
}
