//! Integration tests for the profile-query service: queue saturation
//! with accounted drops, graceful shutdown draining in-flight work,
//! store-backed snapshots, rescan flagging, both engines end-to-end, and
//! the proptests pinning content-check answers bit-identical to direct
//! stencil evaluation.

use std::sync::Arc;

use proptest::prelude::*;

use parbor_core::{FailingCell, FailureProfile, StencilSnapshot};
use parbor_dram::{
    ChipGeometry, DramModule, ModuleConfig, ModuleId, PatternKind, RowBits, RowId, Vendor,
};
use parbor_fleet::ProfileStore;
use parbor_obs::{metrics, RecorderHandle, ShardedRecorder};
use parbor_serve::{
    run, Engine, InlineServer, LoadConfig, LoadMode, Request, Response, SendOutcome, ServeConfig,
    ServeSnapshot, Server,
};

/// Two chips of the tiny geometry (1 bank × 8 rows × 1024 columns) —
/// 16 compiled stencils per module in ground-truth scope.
fn tiny_module(seed: u64, id: u32) -> DramModule {
    ModuleConfig::new(Vendor::A)
        .chips(2)
        .geometry(ChipGeometry::tiny())
        .seed(seed)
        .module_id(ModuleId(id))
        .build()
        .unwrap()
}

fn tiny_snapshot(seed: u64) -> ServeSnapshot {
    ServeSnapshot::compile(&[tiny_module(seed, 0)])
}

#[test]
fn queue_overflow_drops_are_accounted_and_bounded() {
    let snapshot = tiny_snapshot(3);
    let targets = snapshot.targets();
    let cfg = ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let mut srv = InlineServer::start(snapshot, cfg, RecorderHandle::null());
    let mut conn = srv.connect();
    let content = Arc::new(RowBits::ones(1024));
    // Without pumping, only `queue_capacity` sends fit the request ring;
    // everything past that is rejected and counted — no panic, no
    // unbounded memory, just an honest drop ledger.
    let mut sent = 0u64;
    let mut dropped = 0u64;
    for _ in 0..1000 {
        let t = targets[0];
        match conn.send_content_check(t.module, t.unit, t.row, &content, None) {
            SendOutcome::Sent => sent += 1,
            SendOutcome::Dropped => dropped += 1,
            SendOutcome::Busy => panic!("in-flight cap sits above ring capacity here"),
        }
    }
    assert_eq!(sent, 4);
    assert_eq!(dropped, 996);
    assert_eq!(conn.dropped(), 996);
    // The accepted requests are still served exactly once.
    srv.pump();
    let mut answered = 0;
    while let Some(reply) = conn.try_recv() {
        conn.recycle(reply);
        answered += 1;
    }
    assert_eq!(answered, 4);
    let report = srv.shutdown();
    assert_eq!(report.answered, 4);
    assert_eq!(report.dropped, 996);
    assert_eq!(report.resp_dropped, 0);
}

#[test]
fn shutdown_drains_accepted_in_flight_requests() {
    let snapshot = tiny_snapshot(5);
    let targets = snapshot.targets();
    let srv = InlineServer::start(snapshot, ServeConfig::default(), RecorderHandle::null());
    let mut conn = srv.connect();
    let content = Arc::new(RowBits::zeros(1024));
    for i in 0..9 {
        let t = targets[i % targets.len()];
        let out = conn.send_content_check(t.module, t.unit, t.row, &content, None);
        assert_eq!(out, SendOutcome::Sent);
    }
    // No pump before shutdown: all nine sit in-flight in the rings.
    let report = srv.shutdown();
    assert_eq!(report.answered, 9, "graceful drain answers everything");
    let mut got = 0;
    while let Some(reply) = conn.try_recv() {
        conn.recycle(reply);
        got += 1;
    }
    assert_eq!(got, 9, "replies remain readable after shutdown");
}

#[test]
fn rescan_flags_unprofiled_modules_only() {
    // Two modules via the store path: only module 0 gets a profile.
    let modules = vec![tiny_module(3, 0), tiny_module(4, 1)];
    let dir = std::env::temp_dir().join(format!("parbor_serve_rescan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ProfileStore::open(&dir).unwrap();
    let profile = FailureProfile {
        victim_count: 1,
        discovery_rounds: 0,
        tests_per_level: Vec::new(),
        recursion_tests: 0,
        distances: Vec::new(),
        chipwide_rounds: 0,
        failures: vec![FailingCell {
            unit: 0,
            bank: 0,
            row: 2,
            col: 7,
            value: true,
        }],
    };
    store.put(&modules[0].name(), &profile).unwrap();
    let snapshot = ServeSnapshot::compile_with_store(&modules, &store).unwrap();
    assert!(snapshot.profiled(0));
    assert!(!snapshot.profiled(1));
    assert_eq!(
        snapshot.stencil_count(),
        1,
        "only the profiled row compiles"
    );

    let mut srv = InlineServer::start(snapshot, ServeConfig::default(), RecorderHandle::null());
    let mut conn = srv.connect();
    assert_eq!(
        conn.send_to(0, Request::RescanQuery, None),
        SendOutcome::Sent
    );
    srv.pump();
    let reply = conn.try_recv().expect("rescan answered");
    match &reply.response {
        Response::Rescan { stale_modules } => {
            assert_eq!(
                stale_modules.as_slice(),
                &[1],
                "unprofiled module flagged; profiled cold module not"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
    conn.recycle(reply);
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_probe_reports_live_counters() {
    let snapshot = tiny_snapshot(6);
    let targets = snapshot.targets();
    let mut srv = InlineServer::start(snapshot, ServeConfig::default(), RecorderHandle::null());
    let mut conn = srv.connect();
    let content = Arc::new(RowBits::ones(1024));
    for t in targets.iter().take(5) {
        let out = conn.send_content_check(t.module, t.unit, t.row, &content, None);
        assert_eq!(out, SendOutcome::Sent);
    }
    srv.pump();
    assert_eq!(
        conn.send_to(0, Request::StoreStats, None),
        SendOutcome::Sent
    );
    srv.pump();
    let mut stats = None;
    while let Some(reply) = conn.try_recv() {
        if let Response::Stats(s) = &reply.response {
            stats = Some(s.as_ref().clone());
        }
        conn.recycle(reply);
    }
    let stats = stats.expect("stats answered");
    assert_eq!(stats.content_checks, 5);
    assert_eq!(stats.store_stats, 1);
    srv.shutdown();
}

#[test]
fn open_loop_inline_run_is_clean_and_metrics_registered() {
    let rec = ShardedRecorder::handle();
    let handle = RecorderHandle::from(rec.clone());
    let report = run(
        tiny_snapshot(7),
        &ServeConfig::default(),
        Engine::Inline,
        &LoadConfig {
            mode: LoadMode::Open {
                rate_per_s: 20_000.0,
            },
            seconds: 0.2,
            measure_latency: true,
            rescan_every: 64,
            stats_every: 128,
            ..LoadConfig::default()
        },
        handle,
    );
    assert!(report.answered > 0, "open loop answered nothing");
    assert_eq!(report.unexplained_drops, 0);
    assert!(report.clean_shutdown);
    assert_eq!(
        report.offered,
        report.accepted + report.dropped + report.busy,
        "send ledger must balance"
    );
    assert_eq!(report.serve.answered, report.answered);
    assert!(report.serve.rescan_queries > 0, "rotation reached rescans");
    assert!(report.serve.latency.count > 0, "latency was measured");
    // Every name the server flushed is registered in the obs registry.
    let snapshot = rec.snapshot();
    let unregistered: Vec<String> = snapshot
        .metric_names()
        .into_iter()
        .filter(|name| !metrics::is_registered(name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "serve run emitted unregistered metric names {unregistered:?}"
    );
    assert_eq!(snapshot.counter(metrics::serve::ANSWERED), report.answered);
}

#[test]
fn threaded_engine_closed_loop_is_clean() {
    let modules = vec![tiny_module(8, 0), tiny_module(9, 1)];
    let snapshot = ServeSnapshot::compile(&modules);
    let report = run(
        snapshot,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Engine::Threads,
        &LoadConfig {
            mode: LoadMode::Closed { inflight: 64 },
            seconds: 0.2,
            ..LoadConfig::default()
        },
        RecorderHandle::null(),
    );
    assert!(report.answered > 0);
    assert_eq!(report.unexplained_drops, 0);
    assert!(report.clean_shutdown);
    assert_eq!(report.serve.workers, 2);
    // Shard ownership: both workers saw their module's traffic.
    for w in &report.serve.per_worker {
        assert!(w.answered > 0, "worker {} stayed idle", w.worker);
    }
}

#[test]
fn connection_backpressure_caps_in_flight() {
    let snapshot = tiny_snapshot(11);
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let srv = Server::start(snapshot, cfg, RecorderHandle::null());
    let mut conn = srv.connect();
    // The reply ring holds 2 × queue_capacity; the client may never have
    // more than that in flight at one worker, no matter how fast the
    // spawned worker drains.
    let mut accepted = 0u64;
    for _ in 0..256 {
        if conn.send_to(0, Request::StoreStats, None) == SendOutcome::Sent {
            accepted += 1;
        }
        assert!(conn.outstanding() <= 4, "in-flight cap violated");
        while let Some(reply) = conn.try_recv() {
            conn.recycle(reply);
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while conn.outstanding() > 0 && std::time::Instant::now() < deadline {
        while let Some(reply) = conn.try_recv() {
            conn.recycle(reply);
        }
        std::thread::yield_now();
    }
    assert_eq!(conn.outstanding(), 0, "drain never completed");
    assert!(accepted > 0);
    let report = srv.shutdown();
    assert_eq!(report.answered, accepted);
    assert_eq!(report.resp_dropped, 0);
}

proptest! {
    /// The tentpole invariant: a served `ContentCheck` answer is
    /// bit-identical to compiling and evaluating the stencil directly on
    /// the chip, for any module seed, target, and row content.
    #[test]
    fn content_check_is_bit_identical_to_direct_stencil_eval(
        seed in 1u64..500,
        content_seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        // Same config twice: module construction is seed-deterministic,
        // so `module` is the ground truth for what the snapshot serves.
        let module = tiny_module(seed, 0);
        let snapshot = ServeSnapshot::compile(&[tiny_module(seed, 0)]);
        let targets = snapshot.targets();
        let t = targets[(pick % targets.len() as u64) as usize];
        let content = Arc::new(PatternKind::Random { seed: content_seed }.row_bits(0, 1024));

        let mut srv = InlineServer::start(snapshot, ServeConfig::default(), RecorderHandle::null());
        let mut conn = srv.connect();
        prop_assert_eq!(
            conn.send_content_check(t.module, t.unit, t.row, &content, None),
            SendOutcome::Sent
        );
        srv.pump();
        let reply = conn.try_recv().expect("answered");
        let direct = module.chips()[t.unit as usize]
            .compile_stencil(t.row)
            .eval(&content);
        match &reply.response {
            Response::ContentCheck { tracked, hot, fails } => {
                prop_assert!(*tracked);
                prop_assert_eq!(*hot, !direct.is_empty());
                prop_assert_eq!(fails, &direct);
            }
            other => prop_assert!(false, "unexpected response {:?}", other),
        }
        conn.recycle(reply);
        srv.shutdown();
    }

    /// Filtered (store-scope) snapshots answer identically on their
    /// tracked rows and conservatively (untracked, no fails) elsewhere.
    #[test]
    fn filtered_snapshot_serves_identically_on_tracked_rows(
        seed in 1u64..200,
        content_seed in any::<u64>(),
    ) {
        let module = tiny_module(seed, 0);
        let profile = FailureProfile {
            victim_count: 1,
            discovery_rounds: 0,
            tests_per_level: Vec::new(),
            recursion_tests: 0,
            distances: Vec::new(),
            chipwide_rounds: 0,
            failures: vec![FailingCell { unit: 1, bank: 0, row: 5, col: 3, value: true }],
        };
        let filtered = StencilSnapshot::compile_filtered(&module, &profile);
        let content = PatternKind::Random { seed: content_seed }.row_bits(0, 1024);
        let mut fails = Vec::new();
        prop_assert!(filtered.eval_into(1, RowId::new(0, 5), &content, &mut fails));
        let direct = module.chips()[1].compile_stencil(RowId::new(0, 5)).eval(&content);
        prop_assert_eq!(&fails, &direct);
        // Any other unit answers untracked and empty.
        prop_assert!(!filtered.eval_into(0, RowId::new(0, 5), &content, &mut fails));
        prop_assert!(fails.is_empty());
    }
}
