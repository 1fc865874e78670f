//! End-to-end orchestrator tests: multi-job runs, halt-and-resume
//! determinism, and journal fault injection at the fleet level.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parbor_core::{ParborConfig, ScanMachine};
use parbor_dram::{ChipGeometry, ModuleSpec, Vendor};
use parbor_fleet::{Fleet, FleetConfig, ProfileStore, ScanJob};
use parbor_obs::{metrics, RecorderHandle, ShardedRecorder};

fn temp_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "parbor-fleet-orch-{}-{tag}-{n}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn small_spec(vendor: Vendor, seed: u64) -> ModuleSpec {
    ModuleSpec {
        chips: 1,
        geometry: ChipGeometry::new(1, 48, 8192).expect("geometry"),
        seed,
        ..ModuleSpec::new(vendor)
    }
}

fn sample_jobs() -> Vec<ScanJob> {
    vec![
        ScanJob::new("a0", small_spec(Vendor::A, 11)),
        ScanJob::new("b0", small_spec(Vendor::B, 22)),
        ScanJob::new("c0", small_spec(Vendor::C, 33)),
    ]
}

/// Every file under `root`, as sorted (relative path, contents) pairs.
fn dir_snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

#[test]
fn fleet_completes_jobs_and_matches_direct_scan() {
    let root = temp_root("complete");
    let fleet = Fleet::new(&root, FleetConfig::default()).expect("fleet");
    let report = fleet.run(sample_jobs()).expect("run");
    assert!(report.is_clean(), "unexpected failures: {report:?}");
    assert_eq!(report.completed(), 3);
    assert_eq!(
        report
            .jobs
            .iter()
            .map(|j| j.name.as_str())
            .collect::<Vec<_>>(),
        vec!["a0", "b0", "c0"],
        "reports sorted by name"
    );

    // The stored profile must equal a direct single-machine scan.
    let mut machine = ScanMachine::new(ParborConfig::default());
    let mut module = small_spec(Vendor::B, 22).build().expect("module");
    let expected = machine
        .run_to_completion(&mut module)
        .expect("direct scan")
        .clone();
    let store = ProfileStore::open(fleet.store_dir()).expect("store");
    let stored = store.get("b0").expect("get b0");
    assert!(stored.complete && !stored.recovered);
    assert_eq!(stored.profile, expected);

    // Journals are gone once jobs complete.
    assert_eq!(fleet.status().expect("status").len(), 3);
    assert!(fs::read_dir(fleet.journal_dir())
        .expect("journal dir")
        .next()
        .is_none());

    // A second run over the same jobs touches nothing and skips everything.
    let before = dir_snapshot(&fleet.store_dir());
    let rerun = fleet.run(sample_jobs()).expect("rerun");
    assert_eq!(rerun.completed(), 0);
    assert_eq!(rerun.jobs.iter().filter(|j| j.skipped).count(), 3);
    assert_eq!(dir_snapshot(&fleet.store_dir()), before);

    fs::remove_dir_all(&root).ok();
}

#[test]
fn halted_fleet_resumes_to_byte_identical_store() {
    // Reference: an uninterrupted fleet over the same jobs.
    let clean_root = temp_root("halt-clean");
    let config = FleetConfig {
        workers: 2,
        checkpoint_every: 16,
        ..FleetConfig::default()
    };
    let clean = Fleet::new(&clean_root, config.clone()).expect("fleet");
    assert!(clean.run(sample_jobs()).expect("clean run").is_clean());
    let clean_store = dir_snapshot(&clean.store_dir());

    // Interrupted: the fleet parks itself after two checkpoints.
    let root = temp_root("halt");
    let halted = Fleet::new(
        &root,
        FleetConfig {
            halt_after_checkpoints: Some(2),
            ..config.clone()
        },
    )
    .expect("fleet");
    let report = halted.run(sample_jobs()).expect("halted run");
    assert!(!report.is_clean());
    assert!(report.halted() >= 1);

    // Every unfinished job left a journal behind.
    let statuses = halted.status().expect("status");
    assert!(statuses
        .iter()
        .any(|s| s.state == parbor_fleet::JobState::InFlight));

    // Resume with the hook removed; specs come from the journals alone.
    let rec = ShardedRecorder::handle();
    let resumer = Fleet::new(&root, config)
        .expect("fleet")
        .with_recorder(RecorderHandle::new(rec.clone()));
    let resumed = resumer.resume().expect("resume");
    assert!(resumed.is_clean(), "resume failed: {resumed:?}");
    assert!(
        resumed.jobs.iter().any(|j| j.resumed),
        "at least one job restarts from a checkpoint"
    );
    assert!(rec.snapshot().counter(metrics::fleet::RESUMES) >= 1);

    assert_eq!(
        dir_snapshot(&resumer.store_dir()),
        clean_store,
        "resumed store must be byte-identical to the uninterrupted one"
    );
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&clean_root).ok();
}

#[test]
fn torn_journal_tail_recovers_and_still_matches_clean_run() {
    let clean_root = temp_root("tear-clean");
    let config = FleetConfig {
        workers: 1,
        checkpoint_every: 16,
        ..FleetConfig::default()
    };
    let jobs = vec![ScanJob::new("a0", small_spec(Vendor::A, 11))];
    let clean = Fleet::new(&clean_root, config.clone()).expect("fleet");
    assert!(clean.run(jobs.clone()).expect("clean run").is_clean());
    let clean_store = dir_snapshot(&clean.store_dir());

    let root = temp_root("tear");
    let halted = Fleet::new(
        &root,
        FleetConfig {
            halt_after_checkpoints: Some(3),
            ..config.clone()
        },
    )
    .expect("fleet");
    assert!(!halted.run(jobs).expect("halted run").is_clean());

    // Tear the journal tail the way a mid-append crash would: an extra
    // frame header that promises bytes which never hit the disk.
    let wal = halted.journal_dir().join("a0.wal");
    let mut bytes = fs::read(&wal).expect("read wal");
    bytes.extend_from_slice(&4096u64.to_le_bytes());
    bytes.extend_from_slice(&[0x5A; 20]);
    fs::write(&wal, &bytes).expect("tear");

    let rec = ShardedRecorder::handle();
    let resumer = Fleet::new(&root, config)
        .expect("fleet")
        .with_recorder(RecorderHandle::new(rec.clone()));
    let resumed = resumer.resume().expect("resume");
    assert!(resumed.is_clean(), "resume failed: {resumed:?}");
    assert!(
        rec.snapshot().counter(metrics::fleet::RECOVERY) >= 1,
        "tail truncation must surface a fleet.recovery event"
    );
    assert_eq!(
        dir_snapshot(&resumer.store_dir()),
        clean_store,
        "recovery must not change the final store"
    );
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&clean_root).ok();
}

#[test]
fn status_surface_tracks_campaign_to_terminal_state() {
    let root = temp_root("status");
    let config = FleetConfig {
        workers: 2,
        checkpoint_every: 16,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(&root, config.clone()).expect("fleet");
    assert!(fleet.run(sample_jobs()).expect("run").is_clean());

    let status = parbor_obs::FleetStatus::load(fleet.status_path()).expect("status.json");
    assert_eq!(status.state, "done");
    assert!(status.is_terminal());
    assert_eq!(status.jobs_total, 3);
    assert_eq!(status.jobs_done, 3);
    assert_eq!(status.jobs_queued, 0);
    assert_eq!(status.jobs_running, 0);
    assert!(status.rounds_done > 0, "rounds must be counted");
    assert!(
        status.rows_written >= status.rounds_done,
        "every round writes at least one row"
    );
    assert_eq!(status.eta_s, Some(0.0), "finished campaign has zero eta");

    // A halted campaign leaves the surface saying why progress stopped.
    let halted_root = temp_root("status-halt");
    let halted = Fleet::new(
        &halted_root,
        FleetConfig {
            halt_after_checkpoints: Some(2),
            ..config
        },
    )
    .expect("fleet");
    assert!(!halted.run(sample_jobs()).expect("halted run").is_clean());
    let status = parbor_obs::FleetStatus::load(halted.status_path()).expect("status.json");
    assert_eq!(status.state, "halted");
    assert!(status.is_terminal());

    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&halted_root).ok();
}

#[test]
fn rejects_duplicate_and_invalid_names() {
    let root = temp_root("names");
    let fleet = Fleet::new(&root, FleetConfig::default()).expect("fleet");
    let dup = vec![
        ScanJob::new("x", small_spec(Vendor::A, 1)),
        ScanJob::new("x", small_spec(Vendor::B, 2)),
    ];
    assert!(fleet.run(dup).is_err());
    let bad = vec![ScanJob::new("../x", small_spec(Vendor::A, 1))];
    assert!(fleet.run(bad).is_err());
    assert!(Fleet::new(
        &root,
        FleetConfig {
            workers: 0,
            ..FleetConfig::default()
        }
    )
    .is_err());
    fs::remove_dir_all(&root).ok();
}
