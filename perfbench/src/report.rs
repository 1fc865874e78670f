//! The metric registry, host facts and the result line.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use serde_json::Value;

use crate::{Outcome, Workload};

/// `BENCHMARK.json`, the registry of the workloads and metrics.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Name in the result line.
    pub name: String,
    /// Unit in the result line.
    pub unit: String,
}

/// The value under `key` of a JSON object.
fn get<'a>(object: &'a Value, key: &str) -> Option<&'a Value> {
    object
        .as_map()?
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// The metrics of `BENCHMARK.json`: `(end_to_end, per_layer)`.
fn registry() -> &'static (Vec<Metric>, Vec<Metric>) {
    static REGISTRY: OnceLock<(Vec<Metric>, Vec<Metric>)> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let json = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let section = |key: &str| -> Vec<Metric> {
            let field = |entry: &Value, name: &str| match get(entry, name) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("BENCHMARK.json {key}: {name} is {other:?}"),
            };
            get(&json, key)
                .and_then(Value::as_seq)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .map(|entry| Metric {
                    name: field(entry, "name"),
                    unit: field(entry, "unit"),
                })
                .collect()
        };
        (section("end_to_end"), section("per_layer"))
    })
}

/// End-to-end metrics, emitted by every workload with tracing off. Each
/// workload gives them its own meaning (see `perfbench/README.md`).
pub fn end_to_end() -> &'static [Metric] {
    &registry().0
}

/// Per-layer metrics, emitted by every workload with tracing on; a layer a
/// workload leaves idle reads 0.
pub fn per_layer() -> &'static [Metric] {
    &registry().1
}

/// Peak resident set size of this process, MiB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Host facts printed with every result.
pub fn host_facts(workload: Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match workload {
        Workload::Detect => {
            "1 caller; the module runs one scoped thread per chip per round batch when nproc > 1"
        }
        Workload::Store | Workload::Serve | Workload::Memsim => "1",
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: nproc {nproc}; threads ({}) {threads}; ParallelMode auto; build {profile}; commit {}",
        workload.name(),
        commit()
    )
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the end-to-end
/// (untraced) or per-layer (traced) metrics.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let (registry, values) = if trace {
        (per_layer(), &outcome.layers)
    } else {
        (end_to_end(), &outcome.e2e)
    };
    let mut metrics = String::new();
    for (i, Metric { name, unit }) in registry.iter().enumerate() {
        let value = values.get(name.as_str()).copied().unwrap_or(0.0);
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
}
