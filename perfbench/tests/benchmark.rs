//! The benchmark's own tests, at tiny sizes: every workload runs and
//! passes its checks, emits every registered metric, repeats its simulated
//! figures exactly, and the traced `detect` run closes its ledger. The
//! metric names and units come from `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbench::report::{end_to_end, per_layer, result_line, Metric};
use perfbench::{detect, run, Outcome, RunConfig, Scale, Workload};

fn tiny(workload: Workload, trace: bool, tag: &str) -> Outcome {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{}-{tag}", workload.name()));
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        out_dir,
    };
    let outcome = run(&cfg).expect("set-up succeeds");
    assert!(
        outcome.correct(),
        "{} failed checks: {:?}",
        workload.name(),
        outcome.problems
    );
    outcome
}

#[test]
fn every_workload_runs_and_emits_every_metric_with_its_unit() {
    let mut layers_seen = BTreeSet::new();
    for workload in Workload::ALL {
        let untraced = tiny(workload, false, "untraced");
        let line = result_line(&untraced, false);
        for Metric { name, unit } in end_to_end() {
            let value = untraced.e2e.get(name.as_str()).copied();
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {name} = {value:?}",
                workload.name()
            );
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        let traced = tiny(workload, true, "traced");
        let line = result_line(&traced, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for name in traced.layers.keys() {
            assert!(
                per_layer().iter().any(|m| m.name == *name),
                "{}: {name} is not in BENCHMARK.json",
                workload.name()
            );
            layers_seen.insert(*name);
        }
        for Metric { name, unit } in per_layer() {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(traced.layers.contains_key("trace.overhead_pct"));
    }
    for Metric { name, .. } in per_layer() {
        assert!(
            layers_seen.contains(name.as_str()),
            "no workload measures {name}"
        );
    }
}

#[test]
fn same_seed_runs_repeat_the_simulated_figures() {
    for (workload, names) in [
        (
            Workload::Detect,
            &["detect.tests_per_module", "detect.failures_found"][..],
        ),
        (
            Workload::Store,
            &["store.bytes_per_module", "store.write_amp"][..],
        ),
        (
            Workload::Memsim,
            &[
                "memsim.dcref_ws_gain",
                "memsim.dcref_refresh_work",
                "memsim.row_hit_rate.dcref",
                "memsim.refresh_busy_cycles.raidr",
            ][..],
        ),
    ] {
        let a = tiny(workload, true, "repeat-a");
        let b = tiny(workload, true, "repeat-b");
        for name in names {
            assert_eq!(a.layers[name], b.layers[name], "{name}");
        }
        let digests = |o: &Outcome| -> Vec<String> {
            o.notes
                .iter()
                .filter(|n| n.contains("digest"))
                .cloned()
                .collect()
        };
        assert_eq!(digests(&a), digests(&b));
    }
}

#[test]
fn traced_detect_closes_its_ledger() {
    let traced = tiny(Workload::Detect, true, "closure");
    let closure = traced.layers["detect.closure_pct"];
    assert!(detect::closes(closure), "closure {closure}");
    for layer in [
        "parbor.self_ms",
        "dram.port_ms",
        "store.put_us",
        "detect.harness_ms",
    ] {
        assert!(traced.layers[layer] > 0.0, "{layer} is zero");
    }
}
