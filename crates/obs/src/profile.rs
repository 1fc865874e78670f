//! Span-tree profiling: turn a recorded `trace.jsonl` back into per-stage
//! self/total wall-clock and flamegraph-compatible folded stacks.
//!
//! A trace is the JSONL stream [`ObsSnapshot::trace_jsonl`] emits — `span`
//! events in finish order plus trailing `counter` events. The reader
//! salvages a torn tail the same way the fleet journal does: parsing stops
//! at the first malformed line (a crash mid-write leaves at most one), the
//! valid prefix is kept, and [`Trace::salvaged`] reports that it happened.
//!
//! Two views are derived:
//!
//! - [`Profile`] — per-stage aggregates where *total* is the span's full
//!   wall-clock and *self* excludes time attributed to child spans, so an
//!   expensive leaf shows up even under a long-running parent.
//! - [`folded_stacks`] — one `root;child;leaf <self_us>` line per distinct
//!   stack path, the input format of Brendan Gregg's `flamegraph.pl`.
//!
//! [`ObsSnapshot::trace_jsonl`]: crate::ObsSnapshot::trace_jsonl

use std::collections::BTreeMap;

use serde::Value;

/// One `span` event read back from a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Stage name, e.g. `"pipeline.discover"`.
    pub name: String,
    /// Optional numeric payload.
    pub value: Option<u64>,
    /// Start time, microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A parsed trace: spans, final counters, and whether the tail was torn.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Spans in file order (finish order: children before parents).
    pub spans: Vec<TraceSpan>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// `true` when a malformed line cut the parse short (torn tail after a
    /// crash); everything before it was kept.
    pub salvaged: bool,
}

fn field<'v>(map: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::U64(n) => Some(n),
        Value::I64(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parses one trace line; `None` means the line is malformed.
fn parse_line(line: &str, trace: &mut Trace) -> Option<()> {
    let value = serde_json::parse_value(line).ok()?;
    let map = value.as_map()?;
    match as_str(field(map, "type")?)? {
        "span" => {
            trace.spans.push(TraceSpan {
                id: as_u64(field(map, "id")?)?,
                parent: match field(map, "parent")? {
                    Value::Null => None,
                    v => Some(as_u64(v)?),
                },
                name: as_str(field(map, "name")?)?.to_string(),
                value: match field(map, "value")? {
                    Value::Null => None,
                    v => Some(as_u64(v)?),
                },
                start_us: as_u64(field(map, "start_us")?)?,
                dur_us: as_u64(field(map, "dur_us")?)?,
            });
        }
        "counter" => {
            let name = as_str(field(map, "name")?)?.to_string();
            trace.counters.insert(name, as_u64(field(map, "value")?)?);
        }
        _ => return None,
    }
    Some(())
}

impl Trace {
    /// Parses trace JSONL, stopping at the first malformed line (see the
    /// module docs for the salvage semantics). Never errors: an entirely
    /// unreadable body yields an empty, `salvaged` trace.
    pub fn parse(text: &str) -> Trace {
        let mut trace = Trace::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if parse_line(line, &mut trace).is_none() {
                trace.salvaged = true;
                break;
            }
        }
        trace
    }

    /// Reads and parses a trace file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; parse problems salvage instead (see
    /// [`Trace::parse`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        Ok(Trace::parse(&std::fs::read_to_string(path)?))
    }

    /// Self time per span: duration minus the total duration of direct
    /// children, keyed by span id.
    fn self_times(&self) -> BTreeMap<u64, u64> {
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *child_time.entry(parent).or_insert(0) += s.dur_us;
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let children = child_time.get(&s.id).copied().unwrap_or(0);
                (s.id, s.dur_us.saturating_sub(children))
            })
            .collect()
    }

    /// The stack path of a span, root-first (`["pipeline.run", "pipeline.discover"]`).
    fn stack_of(&self, span: &TraceSpan, by_id: &BTreeMap<u64, &TraceSpan>) -> Vec<String> {
        let mut stack = vec![span.name.clone()];
        let mut cursor = span.parent;
        // Bounded walk: a cycle (corrupt trace) cannot loop forever.
        for _ in 0..self.spans.len() {
            let Some(id) = cursor else { break };
            let Some(parent) = by_id.get(&id) else { break };
            stack.push(parent.name.clone());
            cursor = parent.parent;
        }
        stack.reverse();
        stack
    }
}

/// Per-stage aggregate over every span sharing a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Stage (span) name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed wall-clock including children, microseconds.
    pub total_us: u64,
    /// Summed wall-clock excluding children, microseconds.
    pub self_us: u64,
}

/// The per-stage self/total profile of one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Stages sorted by self time (descending), name as tiebreak.
    pub stages: Vec<StageStat>,
}

impl Profile {
    /// Aggregates a trace's spans by name.
    pub fn from_trace(trace: &Trace) -> Profile {
        let self_times = trace.self_times();
        let mut by_name: BTreeMap<&str, StageStat> = BTreeMap::new();
        for s in &trace.spans {
            let stat = by_name.entry(&s.name).or_insert_with(|| StageStat {
                name: s.name.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            stat.count += 1;
            stat.total_us += s.dur_us;
            stat.self_us += self_times.get(&s.id).copied().unwrap_or(0);
        }
        let mut stages: Vec<StageStat> = by_name.into_values().collect();
        stages.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
        Profile { stages }
    }

    /// Renders the profile as an aligned text table with self-time
    /// percentages of the trace's total self time.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let grand_self: u64 = self.stages.iter().map(|s| s.self_us).sum();
        let name_width = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>6}  {:>12}  {:>12}  {:>6}",
            "stage", "count", "total", "self", "self%"
        );
        for s in &self.stages {
            let pct = if grand_self == 0 {
                0.0
            } else {
                s.self_us as f64 * 100.0 / grand_self as f64
            };
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>6}  {:>9}.{:03} ms  {:>9}.{:03} ms  {pct:>5.1}%",
                s.name,
                s.count,
                s.total_us / 1000,
                s.total_us % 1000,
                s.self_us / 1000,
                s.self_us % 1000,
            );
        }
        out
    }
}

/// Folds a trace into `flamegraph.pl` input: one
/// `root;child;leaf <self_us>` line per distinct stack path, sorted by
/// path. Self time is the sample weight, in microseconds.
pub fn folded_stacks(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let by_id: BTreeMap<u64, &TraceSpan> = trace.spans.iter().map(|s| (s.id, s)).collect();
    let self_times = trace.self_times();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in &trace.spans {
        let path = trace.stack_of(s, &by_id).join(";");
        *folded.entry(path).or_insert(0) += self_times.get(&s.id).copied().unwrap_or(0);
    }
    let mut out = String::new();
    for (path, weight) in folded {
        let _ = writeln!(out, "{path} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, ShardedRecorder};

    fn sample_trace() -> Trace {
        let rec = ShardedRecorder::new();
        {
            let _run = crate::span!(rec, "run");
            {
                let _a = crate::span!(rec, "stage.a");
                let _leaf = crate::span!(rec, "stage.leaf");
            }
            let _b = crate::span!(rec, "stage.b", 7);
        }
        rec.incr("ops", 3);
        Trace::parse(&rec.snapshot().trace_jsonl())
    }

    #[test]
    fn round_trips_spans_and_counters() {
        let trace = sample_trace();
        assert!(!trace.salvaged);
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.counters.get("ops"), Some(&3));
        let b = trace.spans.iter().find(|s| s.name == "stage.b").unwrap();
        assert_eq!(b.value, Some(7));
        let leaf = trace.spans.iter().find(|s| s.name == "stage.leaf").unwrap();
        let a = trace.spans.iter().find(|s| s.name == "stage.a").unwrap();
        assert_eq!(leaf.parent, Some(a.id));
    }

    #[test]
    fn torn_final_line_is_salvaged() {
        let rec = ShardedRecorder::new();
        {
            let _s = crate::span!(rec, "kept");
        }
        let mut jsonl = rec.snapshot().trace_jsonl();
        jsonl.push_str("{\"type\":\"span\",\"id\":9,\"par"); // torn mid-write
        let trace = Trace::parse(&jsonl);
        assert!(trace.salvaged);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "kept");
    }

    #[test]
    fn garbage_after_the_tear_is_ignored() {
        let text = "{\"type\":\"counter\",\"name\":\"n\",\"value\":1}\nnot json\n{\"type\":\"counter\",\"name\":\"m\",\"value\":2}\n";
        let trace = Trace::parse(text);
        assert!(trace.salvaged);
        assert_eq!(trace.counters.len(), 1, "parsing stops at the tear");
    }

    #[test]
    fn self_time_excludes_children() {
        let mut trace = Trace::default();
        for (id, parent, name, dur) in [
            (3u64, Some(2u64), "leaf", 40u64),
            (2, Some(1), "mid", 60),
            (1, None, "root", 100),
        ] {
            trace.spans.push(TraceSpan {
                id,
                parent,
                name: name.into(),
                value: None,
                start_us: 0,
                dur_us: dur,
            });
        }
        let profile = Profile::from_trace(&trace);
        let by_name = |n: &str| profile.stages.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").total_us, 100);
        assert_eq!(by_name("root").self_us, 40);
        assert_eq!(by_name("mid").self_us, 20);
        assert_eq!(by_name("leaf").self_us, 40);
        assert_eq!(profile.stages[0].name, "leaf", "sorted by self time");
        let table = profile.table();
        assert!(table.contains("stage"));
        assert!(table.contains("self%"));

        let folded = folded_stacks(&trace);
        assert!(folded.contains("root 40\n"));
        assert!(folded.contains("root;mid 20\n"));
        assert!(folded.contains("root;mid;leaf 40\n"));
    }

    #[test]
    fn folded_stacks_aggregate_repeated_paths() {
        let rec = ShardedRecorder::new();
        for _ in 0..3 {
            let _outer = crate::span!(rec, "outer");
            let _inner = crate::span!(rec, "inner");
        }
        let trace = Trace::parse(&rec.snapshot().trace_jsonl());
        let folded = folded_stacks(&trace);
        let paths: Vec<&str> = folded.lines().collect();
        assert_eq!(
            paths.len(),
            2,
            "three repetitions fold into two paths: {folded}"
        );
        assert!(paths.iter().any(|l| l.starts_with("outer;inner ")));
    }
}
