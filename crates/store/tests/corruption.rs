//! Fault-injection tests: every way a segment, index, or manifest can be
//! damaged on disk must be detected (never served silently), salvaged
//! where the bytes allow it, surfaced through `store.recovery`, and must
//! never panic or abort the process.

use std::path::PathBuf;

use parbor_core::{FailingCell, FailureProfile};
use parbor_obs::{metrics, RecorderHandle, ShardedRecorder};
use parbor_store::{ProfileStore, StoreError};

fn temp_store(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("parbor-store-corrupt-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn profile(seed: u32, cells: usize) -> FailureProfile {
    FailureProfile {
        victim_count: cells,
        discovery_rounds: 10,
        tests_per_level: vec![2, 4, 6],
        recursion_tests: 12,
        distances: vec![-8, -1, 1, 8],
        chipwide_rounds: 3,
        failures: (0..cells as u32)
            .map(|i| FailingCell {
                unit: 0,
                bank: seed % 4,
                row: seed + i,
                col: 7 * i,
                value: i % 2 == 0,
            })
            .collect(),
    }
}

#[test]
fn put_get_survives_reopen() {
    let root = temp_store("reopen");
    let mut store = ProfileStore::open(&root).unwrap();
    for i in 0..20u32 {
        store.put(&format!("M{i:02}"), &profile(i, 4)).unwrap();
    }
    // Latest write wins.
    store.put("M03", &profile(99, 7)).unwrap();
    drop(store);

    let store = ProfileStore::open(&root).unwrap();
    assert_eq!(store.modules().unwrap().len(), 20);
    let got = store.get("M03").unwrap();
    assert_eq!(got.profile, profile(99, 7));
    assert!(got.complete && !got.recovered);
    assert!(store.verify().unwrap().iter().all(|(_, intact)| *intact));
    let stats = store.stats().unwrap();
    assert!(stats.ledger_balanced);
    assert_eq!(stats.modules, 20);
    // An L0 overwrite replaces the module's own file, so no dead record
    // yet; superseding a *compacted* record leaves one behind.
    assert_eq!(stats.dead_records, 0);
    let mut store = ProfileStore::open(&root).unwrap();
    store.compact().unwrap();
    store.put("M05", &profile(55, 2)).unwrap();
    let stats = store.stats().unwrap();
    assert_eq!(stats.dead_records, 1, "the compacted M05 record");
    assert!(stats.ledger_balanced);
    assert_eq!(store.get("M05").unwrap().profile, profile(55, 2));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn invalid_names_are_rejected() {
    let root = temp_store("names");
    let mut store = ProfileStore::open(&root).unwrap();
    for bad in ["", "..", ".hidden", "a/b", "x y", "nul\0"] {
        assert!(
            matches!(
                store.put(bad, &profile(1, 1)),
                Err(StoreError::InvalidConfig(_))
            ),
            "name {bad:?} must be rejected"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn retired_v1_layout_fails_open_and_is_left_untouched() {
    // The v1 layout: one `index.json` plus one JSONL segment per module,
    // and no `manifest.json`.
    let root = temp_store("v1");
    std::fs::create_dir_all(root.join("segments")).unwrap();
    let index = r#"{"version":1,"segments":{"M0":{"file":"M0.jsonl","hash":"fnv64:0000000000000000","failures":0,"bytes":2}}}"#;
    std::fs::write(root.join("index.json"), index).unwrap();
    std::fs::write(root.join("segments").join("M0.jsonl"), "{}").unwrap();
    let listing = |root: &PathBuf| -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for dir in [root.clone(), root.join("segments")] {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_file() {
                    out.push((path.clone(), std::fs::read(&path).unwrap()));
                }
            }
        }
        out.sort();
        out
    };
    let before = listing(&root);

    match ProfileStore::open(&root) {
        Err(e @ StoreError::RetiredLayout { .. }) => {
            assert!(e.to_string().contains("v1 store"), "{e}");
        }
        other => panic!("v1 root must fail open with RetiredLayout, got {other:?}"),
    }
    assert_eq!(listing(&root), before, "open must not touch a v1 root");
    assert!(!root.join("manifest.json").exists());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn identical_writes_are_byte_identical() {
    let snapshot = |root: &PathBuf| -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        let mut dirs = vec![root.clone()];
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
                    out.push((rel, std::fs::read(&path).unwrap()));
                }
            }
        }
        out.sort();
        out
    };
    let (a, b) = (temp_store("det-a"), temp_store("det-b"));
    // Same records, staged in opposite orders, flushed differently.
    let mut sa = ProfileStore::open(&a).unwrap();
    for i in 0..10u32 {
        sa.put(&format!("M{i}"), &profile(i, 3)).unwrap();
    }
    let mut sb = ProfileStore::open(&b).unwrap();
    for i in (0..10u32).rev() {
        sb.stage(&format!("M{i}"), &profile(i, 3)).unwrap();
    }
    sb.flush().unwrap();
    assert_eq!(
        snapshot(&a),
        snapshot(&b),
        "stores diverge before compaction"
    );
    sa.compact().unwrap();
    sb.compact().unwrap();
    assert_eq!(
        snapshot(&a),
        snapshot(&b),
        "stores diverge after compaction"
    );
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn truncated_segment_tail_salvages_prefix() {
    let root = temp_store("truncate");
    let mut store = ProfileStore::open(&root).unwrap();
    store.put("victim", &profile(5, 8)).unwrap();
    drop(store);

    // Tear the tail off the L0 segment, as a crash mid-write would.
    let seg = root.join("segments").join("L0-victim.pbs");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();

    let recorder = ShardedRecorder::handle();
    let store =
        ProfileStore::open_with_recorder(&root, RecorderHandle::from(recorder.clone())).unwrap();
    let got = store.get("victim").unwrap();
    assert!(got.recovered, "torn frame must be flagged");
    assert!(!got.complete, "a cut-off cell column cannot be complete");
    assert!(
        got.profile.failures.len() < 8,
        "salvage keeps a strict prefix of the cells"
    );
    assert_eq!(got.profile.distances, vec![-8, -1, 1, 8]);
    assert!(recorder.snapshot().counter(metrics::store::RECOVERY) > 0);
    assert_eq!(store.verify().unwrap(), vec![("victim".to_string(), false)]);
    let stats = store.stats().unwrap();
    assert_eq!(stats.corrupt_records, 1);
    assert!(!stats.ledger_balanced);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bit_flipped_checksum_detected_and_compacted_out() {
    let root = temp_store("bitflip");
    let mut store = ProfileStore::open(&root).unwrap();
    store.put("good", &profile(1, 3)).unwrap();
    store.put("flip", &profile(2, 6)).unwrap();
    drop(store);

    // Flip one bit near the end of the payload: the checksum no longer
    // holds, but the name and the leading columns still decode.
    let seg = root.join("segments").join("L0-flip.pbs");
    let mut bytes = std::fs::read(&seg).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();

    let recorder = ShardedRecorder::handle();
    let mut store =
        ProfileStore::open_with_recorder(&root, RecorderHandle::from(recorder.clone())).unwrap();
    let got = store.get("flip").unwrap();
    assert!(got.recovered);
    assert!(recorder.snapshot().counter(metrics::store::RECOVERY) > 0);
    // The untouched neighbor is served clean.
    let good = store.get("good").unwrap();
    assert!(!good.recovered && good.complete);

    // Compaction re-encodes the salvageable part and repairs the ledger.
    let report = store.compact().unwrap();
    assert_eq!(report.salvaged, 1);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.output_records, 2);
    let stats = store.stats().unwrap();
    assert!(stats.ledger_balanced, "compaction rewrites a clean store");
    assert!(store.verify().unwrap().iter().all(|(_, intact)| *intact));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn torn_manifest_rebuilds_from_segments() {
    let root = temp_store("manifest");
    let mut store = ProfileStore::open(&root).unwrap();
    for i in 0..12u32 {
        store.put(&format!("M{i:02}"), &profile(i, 2)).unwrap();
    }
    store.compact().unwrap();
    store.put("M99", &profile(99, 2)).unwrap();
    let expected = store.load_all().unwrap();
    drop(store);

    // Tear the manifest mid-write (torn rename target / partial JSON).
    let manifest = root.join("manifest.json");
    let text = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();

    let recorder = ShardedRecorder::handle();
    let store =
        ProfileStore::open_with_recorder(&root, RecorderHandle::from(recorder.clone())).unwrap();
    assert!(recorder.snapshot().counter(metrics::store::RECOVERY) > 0);
    assert_eq!(store.load_all().unwrap(), expected);
    let stats = store.stats().unwrap();
    assert!(stats.ledger_balanced);
    assert_eq!(stats.modules, 13);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn missing_manifest_rebuilds_from_segments() {
    let root = temp_store("no-manifest");
    let mut store = ProfileStore::open(&root).unwrap();
    for i in 0..6u32 {
        store.put(&format!("M{i}"), &profile(i, 2)).unwrap();
    }
    let expected = store.load_all().unwrap();
    drop(store);
    std::fs::remove_file(root.join("manifest.json")).unwrap();

    let store = ProfileStore::open(&root).unwrap();
    assert_eq!(store.load_all().unwrap(), expected);
    std::fs::remove_dir_all(&root).ok();
}
