//! The traced run's instruments: spans recorded by the benchmark around
//! its own calls into each layer, and a counter-only obs recorder.
//!
//! Spans nest on a stack: a span opened while another is open becomes its
//! child. Each span's self time is its duration minus the durations of its
//! children, accumulated per span name as spans close. The first
//! [`SPAN_CAP`] span records are kept in memory for the trace file; totals
//! cover every span. With tracing off, `enter` and `exit` are a branch.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parbor_obs::{metrics, Recorder, SpanId};

/// Span records kept for the trace file (totals cover every span).
pub const SPAN_CAP: usize = 200_000;

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of span self times (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Open order, 1-based.
    pub seq: u64,
    /// Layer call, e.g. `parbor.discover`.
    pub name: &'static str,
    /// Module index or request number the span belongs to.
    pub id: u64,
    /// `seq` of the enclosing span.
    pub parent: Option<u64>,
    /// Start, nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    pub end_ns: u64,
}

#[derive(Debug)]
struct Open {
    seq: u64,
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    child_ns: u64,
}

/// Span recorder; a no-op when made with `on == false`.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_seq: u64,
    open: Vec<Open>,
    kept: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_seq: 1,
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.open.push(Open {
            seq,
            name,
            id,
            parent: self.open.last().map(|o| o.seq),
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let span = self.open.pop().expect("exit matches an enter");
        let dur = end.duration_since(span.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(span.child_ns);
        if self.kept.len() < SPAN_CAP {
            self.kept.push(SpanRecord {
                seq: span.seq,
                name: span.name,
                id: span.id,
                parent: span.parent,
                start_ns: span.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// Totals of every span called `name` (zero when none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its totals.
    pub fn all_totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// Kept span records, in close order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.kept
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"seq\":{},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.seq, s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The program counters the traced run reads.
const COUNTERS: [&str; 8] = [
    metrics::dram::EVAL_CACHE_HITS,
    metrics::dram::EVAL_CACHE_MISSES,
    metrics::engine::ARENA_HITS,
    metrics::engine::ARENA_MISSES,
    metrics::discover::VICTIMS,
    metrics::recursion::VICTIMS_DISCARDED,
    metrics::aggregate::DISTANCES_KEPT,
    metrics::aggregate::DISTANCES_DROPPED,
];

/// An obs recorder that only sums the counters in [`COUNTERS`]; spans,
/// histograms and gauges are ignored, so attaching it adds no span work
/// inside the program.
#[derive(Debug, Default)]
pub struct CounterRecorder {
    values: [AtomicU64; COUNTERS.len()],
}

impl CounterRecorder {
    /// The summed value of counter `name` (zero for unread names).
    pub fn get(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.values[i].load(Ordering::Relaxed))
    }

    /// Every counter value, in [`COUNTERS`] order.
    pub fn snapshot(&self) -> [u64; COUNTERS.len()] {
        std::array::from_fn(|i| self.values[i].load(Ordering::Relaxed))
    }

    /// `name`'s growth between two snapshots.
    pub fn delta(before: &[u64; COUNTERS.len()], after: &[u64; COUNTERS.len()], name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| after[i] - before[i])
    }
}

impl Recorder for CounterRecorder {
    fn incr(&self, name: &str, delta: u64) {
        if let Some(i) = COUNTERS.iter().position(|n| *n == name) {
            self.values[i].fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn observe(&self, _name: &str, _value: u64) {}

    fn gauge(&self, _name: &str, _value: i64) {}

    fn span_enter(&self, _name: &str, _value: Option<u64>) -> SpanId {
        0
    }

    fn span_exit(&self, _id: SpanId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 1);
        t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(t.records()[1].seq, 1);
        assert_eq!(t.records()[0].parent, Some(1));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 0);
        t.exit();
        assert!(t.all_totals().is_empty());
    }
}
