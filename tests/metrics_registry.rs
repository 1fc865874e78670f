//! The metric-name registry test: run the real pipeline, a real fleet
//! campaign, and a store compact + aggregate pass, then assert every
//! emitted counter, gauge, histogram, and span name is declared in
//! `parbor_obs::metrics`. A typo'd name at a recording
//! site records silently and dashboards never see it — this test turns that
//! silence into a failure.

use parbor_core::{FailingCell, FailureProfile, Parbor, ParborConfig};
use parbor_dram::{ChipGeometry, DramChip, ModuleSpec, Vendor};
use parbor_fleet::{Fleet, FleetConfig, ScanJob};
use parbor_obs::{metrics, ObsSnapshot, RecorderHandle, ShardedRecorder};
use parbor_store::ProfileStore;

fn assert_all_registered(snapshot: &ObsSnapshot, context: &str) {
    let unregistered: Vec<String> = snapshot
        .metric_names()
        .into_iter()
        .filter(|name| !metrics::is_registered(name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "{context} emitted unregistered metric names {unregistered:?} — \
         add them to crates/obs/src/metrics.rs or fix the typo"
    );
}

#[test]
fn every_pipeline_metric_is_registered() {
    let rec = ShardedRecorder::handle();
    let handle = RecorderHandle::from(rec.clone());
    let mut chip = DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, 7)
        .unwrap()
        .with_recorder(handle.clone());
    Parbor::new(ParborConfig::default())
        .with_recorder(handle)
        .run(&mut chip)
        .unwrap();
    let snapshot = rec.snapshot();
    // The run must actually have exercised the stages being checked.
    assert!(snapshot.counter(metrics::recursion::TESTS) > 0);
    assert!(snapshot.counter(metrics::chipwide::ROUNDS) > 0);
    assert!(snapshot.counter(metrics::dram::ROW_WRITES) > 0);
    assert!(!snapshot.spans.is_empty());
    assert_all_registered(&snapshot, "pipeline run");
}

#[test]
fn every_fleet_metric_is_registered() {
    let root = std::env::temp_dir().join(format!("parbor-metrics-reg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let rec = ShardedRecorder::handle();
    let spec = ModuleSpec {
        chips: 1,
        geometry: ChipGeometry::new(1, 48, 8192).unwrap(),
        seed: 11,
        ..ModuleSpec::new(Vendor::A)
    };
    let fleet = Fleet::new(&root, FleetConfig::default())
        .unwrap()
        .with_recorder(RecorderHandle::from(rec.clone()));
    let report = fleet.run(vec![ScanJob::new("reg0", spec)]).unwrap();
    assert!(report.is_clean());

    let snapshot = rec.snapshot();
    assert!(snapshot.counter(metrics::fleet::JOBS_DONE) > 0);
    assert_all_registered(&snapshot, "fleet campaign");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn every_store_metric_is_registered() {
    let root = std::env::temp_dir().join(format!("parbor-metrics-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let rec = ShardedRecorder::handle();
    let mut store =
        ProfileStore::open_with_recorder(&root, RecorderHandle::from(rec.clone())).unwrap();
    for i in 0..8u32 {
        let profile = FailureProfile {
            victim_count: 1,
            discovery_rounds: 10,
            tests_per_level: vec![2, 4],
            recursion_tests: 6,
            distances: vec![-8, 8],
            chipwide_rounds: 3,
            failures: vec![FailingCell {
                unit: 0,
                bank: 0,
                row: i,
                col: i,
                value: true,
            }],
        };
        store.put(&format!("reg{i}"), &profile).unwrap();
    }
    let report = store.compact().unwrap();
    assert_eq!(report.output_records, 8);
    let agg = store.aggregate().unwrap();
    assert_eq!(agg.modules, 8);
    store.get("reg0").unwrap();

    let snapshot = rec.snapshot();
    assert!(snapshot.counter(metrics::store::PUTS) > 0);
    assert!(snapshot.counter(metrics::store::COMPACTIONS) > 0);
    assert!(snapshot.counter(metrics::store::AGG_RECORDS) > 0);
    assert!(snapshot.counter(metrics::store::READS) > 0);
    assert_all_registered(&snapshot, "store compact + aggregate");

    std::fs::remove_dir_all(&root).ok();
}
