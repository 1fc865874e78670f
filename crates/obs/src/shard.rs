//! [`ShardedRecorder`]: the crate's recording [`Recorder`], contention-free
//! under scoped-thread parallelism, and [`ObsSnapshot`], the merged
//! read-side view it drains into.
//!
//! The record path touches **no shared lock**: each thread is assigned a
//! shard slot on first use (a round-robin thread-local, so the first
//! `shards` threads get exclusive slots) and every `incr`/`observe`/span
//! call locks only that shard's own mutex — uncontended unless more
//! threads than shards are recording at once, in which case slots are
//! shared but remain correct. Counters merge by summation, histograms by
//! bucket-wise addition (see [`crate::hist`]), gauges by a global write
//! sequence so last-write-wins survives the merge, and spans by end time
//! then a shard-local finish sequence, so same-microsecond closes keep
//! their order. Spans carry their shard in the id's high bits so a guard
//! may drop on any thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::hist::{HdrHistogram, HistogramSnapshot};
use crate::recorder::{Recorder, SpanId, SpanRecord};

/// Bits below the shard tag in a [`SpanId`].
const SPAN_SHARD_SHIFT: u32 = 40;

/// Round-robin source of thread slots. Global (not per recorder) so a
/// thread keeps one stable slot number for its whole life; each recorder
/// reduces it modulo its own shard count.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v
    })
}

#[derive(Default)]
struct ShardInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HdrHistogram>,
    /// Gauge name → (global write sequence, value).
    gauges: BTreeMap<String, (u64, i64)>,
    /// Spans in open order, each with its shard-local finish sequence
    /// (0 while still open).
    spans: Vec<(SpanRecord, u64)>,
    open: Vec<SpanId>,
    next_local: u64,
    /// The last finish sequence handed out.
    finished: u64,
}

/// Per-thread recording shard. The mutex is private to the shard; see the
/// module docs for why the record path never blocks on another thread.
#[derive(Default)]
struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A sharded, low-overhead recorder: per-thread slots on the record path,
/// merged into an [`ObsSnapshot`] on demand.
pub struct ShardedRecorder {
    epoch: Instant,
    shards: Box<[Shard]>,
    gauge_seq: AtomicU64,
}

impl std::fmt::Debug for ShardedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRecorder")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Default for ShardedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedRecorder {
    /// A recorder with one shard per hardware thread (at least 8, rounded
    /// up to a power of two so slot assignment is a mask).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_shards(threads.max(8).next_power_of_two())
    }

    /// A recorder with exactly `shards` slots (rounded up to a power of
    /// two, minimum 1). Span parent tracking is exact while at most
    /// `shards` threads record concurrently.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedRecorder {
            epoch: Instant::now(),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            gauge_seq: AtomicU64::new(0),
        }
    }

    /// Creates a recorder already wrapped in an `Arc`, ready to pass as a
    /// [`RecorderHandle`](crate::RecorderHandle) while keeping a reference
    /// to [`snapshot`](ShardedRecorder::snapshot) it afterwards.
    pub fn handle() -> Arc<ShardedRecorder> {
        Arc::new(Self::new())
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self) -> &Shard {
        // Power-of-two length, so modulo is a mask.
        &self.shards[thread_slot() & (self.shards.len() - 1)]
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Merges every shard into one consistent snapshot. Concurrent
    /// recording may continue; each shard is locked briefly in turn.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let mut gauges: BTreeMap<String, (u64, i64)> = BTreeMap::new();
        let mut spans: Vec<(SpanRecord, u64)> = Vec::new();
        for shard in self.shards.iter() {
            let inner = shard.lock();
            for (name, &v) in &inner.counters {
                *counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, h) in &inner.histograms {
                histograms
                    .entry(name.clone())
                    .or_default()
                    .merge(&h.snapshot());
            }
            for (name, &(seq, v)) in &inner.gauges {
                match gauges.get_mut(name) {
                    Some(existing) if existing.0 >= seq => {}
                    Some(existing) => *existing = (seq, v),
                    None => {
                        gauges.insert(name.clone(), (seq, v));
                    }
                }
            }
            spans.extend(
                inner
                    .spans
                    .iter()
                    .filter(|(s, _)| s.end_us.is_some())
                    .cloned(),
            );
        }
        // Finish order: by end time, and on a same-microsecond tie by the
        // shard's own finish sequence, so each thread's spans keep the exact
        // order they closed in (children before parents).
        spans.sort_by_key(|(s, seq)| (s.end_us, *seq));
        ObsSnapshot {
            counters,
            gauges: gauges.into_iter().map(|(k, (_, v))| (k, v)).collect(),
            histograms,
            spans: spans.into_iter().map(|(s, _)| s).collect(),
        }
    }
}

impl Recorder for ShardedRecorder {
    fn incr(&self, name: &str, delta: u64) {
        let mut inner = self.shard().lock();
        // `get_mut` first: the hot path (an existing counter) must not
        // allocate a fresh `String` per call.
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn observe(&self, name: &str, value: u64) {
        let mut inner = self.shard().lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = HdrHistogram::new();
                h.record(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    fn gauge(&self, name: &str, value: i64) {
        let seq = self.gauge_seq.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.shard().lock();
        inner.gauges.insert(name.to_string(), (seq, value));
    }

    fn span_enter(&self, name: &str, value: Option<u64>) -> SpanId {
        let start_us = self.now_us();
        let slot = thread_slot() & (self.shards.len() - 1);
        let mut inner = self.shards[slot].lock();
        inner.next_local += 1;
        let id = ((slot as u64 + 1) << SPAN_SHARD_SHIFT) | inner.next_local;
        let parent = inner.open.last().copied();
        inner.spans.push((
            SpanRecord {
                id,
                parent,
                name: name.to_string(),
                value,
                start_us,
                end_us: None,
            },
            0,
        ));
        inner.open.push(id);
        id
    }

    fn span_exit(&self, id: SpanId) {
        let end_us = self.now_us();
        // The id names its shard, so a guard may drop on any thread.
        let slot = ((id >> SPAN_SHARD_SHIFT) as usize).wrapping_sub(1);
        let Some(shard) = self.shards.get(slot) else {
            return;
        };
        let mut guard = shard.lock();
        let inner = &mut *guard;
        // Guards drop LIFO, so the span is normally on top of the stack;
        // tolerate out-of-order exits by popping through abandoned children.
        if let Some(pos) = inner.open.iter().rposition(|&open| open == id) {
            inner.open.truncate(pos);
        }
        if let Some((span, seq)) = inner
            .spans
            .iter_mut()
            .rev()
            .find(|(s, _)| s.id == id && s.end_us.is_none())
        {
            span.end_us = Some(end_us);
            inner.finished += 1;
            *seq = inner.finished;
        }
    }
}

/// The merged, read-only view of everything a recorder captured: the one
/// type summaries, traces, and the profiler consume, whatever recorder
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Final counter values, keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values (last write wins across shards).
    pub gauges: BTreeMap<String, i64>,
    /// Merged histogram snapshots.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Finished spans in finish order (children before parents).
    pub spans: Vec<SpanRecord>,
}

impl ObsSnapshot {
    /// Value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Snapshot of a histogram (`None` if nothing was observed).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Every name this snapshot mentions — counters, gauges, histograms,
    /// and span names — sorted and deduplicated. The metric-name registry
    /// test walks this.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .cloned()
            .chain(self.spans.iter().map(|s| s.name.clone()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The span event stream as JSONL: one JSON object per line, spans in
    /// finish order followed by one `counter` event per counter.
    pub fn trace_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let value = s.value.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":{},\"value\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.id,
                parent,
                serde_json::to_string(&s.name).unwrap_or_default(),
                value,
                s.start_us,
                s.duration_us(),
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
                serde_json::to_string(name).unwrap_or_default(),
            );
        }
        out
    }

    /// Writes [`trace_jsonl`](ObsSnapshot::trace_jsonl) to `path`, creating
    /// parent directories as needed and rotating the previous trace to
    /// `<path>.1` when the combined size would exceed `cap_bytes` (see
    /// [`crate::trace::rotate_if_needed`]). Returns whether a rotation
    /// happened.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_trace_rotating(
        &self,
        path: impl AsRef<std::path::Path>,
        cap_bytes: u64,
    ) -> std::io::Result<bool> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let jsonl = self.trace_jsonl();
        let rotated = crate::trace::rotate_if_needed(path, jsonl.len() as u64, cap_bytes)?;
        std::fs::write(path, jsonl)?;
        Ok(rotated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads_exactly() {
        // Scoped threads hammer disjoint and shared counter names; the
        // merged snapshot must account for every single increment.
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let rec = ShardedRecorder::with_shards(4); // fewer shards than threads
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let rec = &rec;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        rec.incr("shared.total", 1);
                        rec.incr(if t % 2 == 0 { "even" } else { "odd" }, 2);
                        rec.observe("lat", i % 997);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("shared.total"), THREADS * PER_THREAD);
        assert_eq!(snap.counter("even"), THREADS / 2 * PER_THREAD * 2);
        assert_eq!(snap.counter("odd"), THREADS / 2 * PER_THREAD * 2);
        let lat = snap.histogram("lat").expect("histogram recorded");
        assert_eq!(lat.count, THREADS * PER_THREAD);
        assert_eq!(lat.max, 996);
    }

    #[test]
    fn gauges_keep_the_last_write_across_shards() {
        let rec = ShardedRecorder::with_shards(4);
        rec.gauge("g", 1);
        std::thread::scope(|s| {
            s.spawn(|| rec.gauge("g", 7));
        });
        rec.gauge("g", 42);
        assert_eq!(rec.snapshot().gauge("g"), Some(42));
    }

    #[test]
    fn spans_nest_per_thread_and_merge() {
        let rec = ShardedRecorder::with_shards(8);
        {
            let _outer = crate::span!(rec, "outer");
            let _inner = crate::span!(rec, "inner", 3);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.value, Some(3));
        assert_eq!(outer.parent, None);
        // Children precede parents in finish order.
        assert_eq!(snap.spans[0].name, "inner");
    }

    #[test]
    fn parallel_spans_do_not_cross_parent() {
        let rec = ShardedRecorder::with_shards(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = &rec;
                s.spawn(move || {
                    let _root = crate::span!(*rec, "thread.root");
                    let _leaf = crate::span!(*rec, "thread.leaf");
                });
            }
        });
        let snap = rec.snapshot();
        let roots: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "thread.root")
            .collect();
        assert_eq!(roots.len(), 4);
        assert!(roots.iter().all(|s| s.parent.is_none()));
        for leaf in snap.spans.iter().filter(|s| s.name == "thread.leaf") {
            let parent = leaf.parent.expect("leaf has a parent");
            assert!(roots.iter().any(|r| r.id == parent));
        }
    }

    #[test]
    fn spans_nest_through_the_parent_stack() {
        // Siblings and parents often close in the same microsecond; the
        // merge must still list spans in the exact order they finished.
        for _ in 0..200 {
            let rec = ShardedRecorder::new();
            {
                let _outer = crate::span!(rec, "outer");
                {
                    let _mid = crate::span!(rec, "mid", 42);
                    let _leaf = crate::span!(rec, "leaf");
                }
                let _sibling = crate::span!(rec, "sibling");
            }
            let spans = rec.snapshot().spans;
            let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
            let outer = by_name("outer");
            let mid = by_name("mid");
            let leaf = by_name("leaf");
            let sibling = by_name("sibling");
            assert_eq!(outer.parent, None);
            assert_eq!(mid.parent, Some(outer.id));
            assert_eq!(mid.value, Some(42));
            assert_eq!(leaf.parent, Some(mid.id));
            assert_eq!(sibling.parent, Some(outer.id));
            let order: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(order, vec!["leaf", "mid", "sibling", "outer"]);
            assert!(outer.duration_us() >= mid.duration_us());
        }
    }

    #[test]
    fn out_of_order_exit_is_tolerated() {
        let rec = ShardedRecorder::with_shards(1);
        let outer = rec.span_enter("outer", None);
        let _inner = rec.span_enter("inner", None);
        // Exiting the outer span abandons the still-open inner span.
        rec.span_exit(outer);
        let next = rec.span_enter("next", None);
        rec.span_exit(next);
        let spans = rec.snapshot().spans;
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "next"], "open spans are not listed");
        assert_eq!(spans[1].parent, None, "abandoned children are popped");
    }

    #[test]
    fn trace_jsonl_is_one_object_per_line() {
        let rec = ShardedRecorder::with_shards(1);
        {
            let _s = crate::span!(rec, "run", 7);
        }
        rec.incr("ops", 3);
        let jsonl = rec.snapshot().trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(lines[0].contains("\"name\":\"run\""));
        assert!(lines[0].contains("\"value\":7"));
        assert!(lines[1].contains("\"type\":\"counter\""));
        for line in lines {
            serde_json::parse_value(line).unwrap();
        }
    }

    #[test]
    fn snapshot_reads_back_counters_gauges_and_histograms() {
        let rec = ShardedRecorder::with_shards(1);
        rec.incr("a", 2);
        rec.incr("a", 3);
        rec.incr("b", 1);
        rec.gauge("temp", 45);
        rec.gauge("temp", -3);
        for v in [0, 1, 2, 3, 4, 1000] {
            rec.observe("h", v);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("temp"), Some(-3));
        assert_eq!(snap.gauge("missing"), None);
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (6, 1010, 0, 1000));
        // Small values get exact unit buckets under the log-linear scheme.
        for v in [0usize, 1, 2, 3, 4] {
            assert_eq!(h.counts[v], 1, "value {v} lands in its own bucket");
        }
        assert_eq!(h.p50(), 2);
        assert_eq!(h.p(1.0), 1000);
        assert_eq!(snap.metric_names(), vec!["a", "b", "h", "temp"]);
    }
}
