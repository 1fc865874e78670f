//! Server lifecycles: thread-per-core daemon and single-thread inline
//! pump, plus the client [`Connection`] and the merged [`ServeReport`].
//!
//! Two engines share one `WorkerCore`:
//!
//! - [`Server`] spawns one OS thread per worker — the daemon shape, and
//!   the one that scales on multi-core hosts.
//! - [`InlineServer`] keeps the workers as plain values and lets the
//!   caller pump them from its own thread. On a 1-core host this is the
//!   honest measurement configuration: an injector thread and a worker
//!   thread would timeshare the core in OS-scheduler quanta (~ms),
//!   drowning a microsecond-scale p99 in context-switch noise that a
//!   real multi-core deployment would never see.
//!
//! Shutdown is graceful by construction: the stop flag only stops
//! *accepting new work indirectly* (clients quiesce first); each worker
//! then drains every adopted ring to empty, so all accepted in-flight
//! requests are answered, and the merged stats are flushed to the
//! recorder as `serve.*` metrics exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parbor_dram::{RowBits, RowId};
use parbor_hal::RoundArena;
use parbor_obs::{metrics, span, HistogramSnapshot, RecorderHandle};
use serde::{Deserialize, Serialize};

use crate::request::{Envelope, Reply, Request};
use crate::snapshot::ServeSnapshot;
use crate::worker::{Channel, Inbox, WorkerCore, WorkerStats};

/// Server sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (shard) count; module `m` is owned by worker
    /// `m % workers`.
    pub workers: usize,
    /// Capacity of each request ring and each reply ring (per
    /// connection, per worker). Full request rings reject — and
    /// account — the overflow.
    pub queue_capacity: usize,
    /// Hot content checks per module after which a `RescanQuery` flags
    /// the module stale.
    pub rescan_hot_threshold: u64,
    /// Index buffers to seed each worker's arena with at startup.
    pub prewarm: usize,
    /// Max requests served per channel per poll (fairness quantum
    /// between connections).
    pub batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 1024,
            rescan_hot_threshold: 1024,
            prewarm: 64,
            batch: 64,
        }
    }
}

/// State shared between the server handle, its workers, and connections.
#[derive(Debug)]
pub(crate) struct Shared {
    pub snapshot: Arc<ServeSnapshot>,
    pub cfg: ServeConfig,
    pub stop: AtomicBool,
    pub inboxes: Vec<Arc<Inbox>>,
    pub arenas: Vec<RoundArena>,
}

impl Shared {
    fn new(snapshot: ServeSnapshot, cfg: ServeConfig) -> Arc<Shared> {
        let workers = cfg.workers.max(1);
        let cfg = ServeConfig { workers, ..cfg };
        Arc::new(Shared {
            snapshot: Arc::new(snapshot),
            stop: AtomicBool::new(false),
            inboxes: (0..workers).map(|_| Arc::new(Inbox::default())).collect(),
            arenas: (0..workers).map(|_| RoundArena::new()).collect(),
            cfg,
        })
    }

    fn make_core(self: &Arc<Self>, idx: usize) -> WorkerCore {
        WorkerCore::new(
            idx,
            self.cfg.workers,
            Arc::clone(&self.snapshot),
            Arc::clone(&self.inboxes[idx]),
            self.arenas[idx].clone(),
            &self.cfg,
        )
    }
}

/// Outcome of a non-blocking send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Accepted into the worker's request ring.
    Sent,
    /// Rejected at a full request ring; counted in the drop ledger.
    Dropped,
    /// Rejected client-side: this connection already has a full reply
    /// ring's worth of requests in flight at that worker. Backpressure,
    /// not loss — retry after draining replies.
    Busy,
}

/// A client handle: one SPSC channel pair per worker, an in-flight cap
/// per worker, and pooled-buffer recycling.
///
/// The in-flight cap (reply-ring capacity) is what lets workers push
/// replies without ever blocking: a connection can never have more
/// unanswered requests at a worker than that worker's reply ring holds.
#[derive(Debug)]
pub struct Connection {
    shared: Arc<Shared>,
    channels: Vec<Arc<Channel>>,
    outstanding: Vec<usize>,
    next_id: u64,
    recv_rr: usize,
}

impl Connection {
    fn new(shared: Arc<Shared>) -> Connection {
        let workers = shared.cfg.workers;
        let mut channels = Vec::with_capacity(workers);
        for inbox in &shared.inboxes {
            let ch = Arc::new(Channel::new(shared.cfg.queue_capacity));
            channels.push(Arc::clone(&ch));
            let mut pending = inbox.pending.lock().unwrap_or_else(|e| e.into_inner());
            pending.push(ch);
            drop(pending);
            inbox.dirty.store(true, Ordering::Release);
        }
        Connection {
            shared,
            channels,
            outstanding: vec![0; workers],
            next_id: 0,
            recv_rr: 0,
        }
    }

    /// The worker that owns `module`.
    fn worker_of(&self, module: u32) -> usize {
        module as usize % self.channels.len()
    }

    /// Sends a content check for `(module, unit, row)` to its owning
    /// worker. `due` is the scheduled arrival (see
    /// [`Envelope`](crate::Envelope)).
    pub fn send_content_check(
        &mut self,
        module: u32,
        unit: u32,
        row: RowId,
        content: &Arc<RowBits>,
        due: Option<Instant>,
    ) -> SendOutcome {
        let worker = self.worker_of(module);
        self.send_to(
            worker,
            Request::ContentCheck {
                module,
                unit,
                row,
                content: Arc::clone(content),
            },
            due,
        )
    }

    /// Sends `req` to a specific worker (rescan and stats queries are
    /// per-worker questions).
    pub fn send_to(&mut self, worker: usize, req: Request, due: Option<Instant>) -> SendOutcome {
        let ch = &self.channels[worker];
        if self.outstanding[worker] >= ch.resp.capacity() {
            return SendOutcome::Busy;
        }
        let id = self.next_id;
        match ch.req.try_push(Envelope { id, due, req }) {
            Ok(()) => {
                self.next_id += 1;
                self.outstanding[worker] += 1;
                SendOutcome::Sent
            }
            Err(_) => {
                ch.dropped.fetch_add(1, Ordering::Relaxed);
                SendOutcome::Dropped
            }
        }
    }

    /// Receives one reply if any worker has one ready (round-robin).
    pub fn try_recv(&mut self) -> Option<Reply> {
        let n = self.channels.len();
        for k in 0..n {
            let w = (self.recv_rr + k) % n;
            if let Some(reply) = self.channels[w].resp.pop() {
                self.outstanding[w] = self.outstanding[w].saturating_sub(1);
                self.recv_rr = (w + 1) % n;
                return Some(reply);
            }
        }
        None
    }

    /// Returns a reply's pooled buffers to the serving worker's arena,
    /// closing the zero-allocation cycle.
    pub fn recycle(&self, reply: Reply) {
        let arena = &self.shared.arenas[reply.worker as usize % self.shared.arenas.len()];
        match reply.response {
            crate::Response::ContentCheck { fails, .. } => arena.recycle_indices(fails),
            crate::Response::Rescan { stale_modules } => arena.recycle_indices(stale_modules),
            crate::Response::Stats(_) => {}
        }
    }

    /// Requests sent and not yet answered, across all workers.
    pub fn outstanding(&self) -> usize {
        self.outstanding.iter().sum()
    }

    /// Requests this connection saw rejected at full request rings.
    pub fn dropped(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.dropped.load(Ordering::Relaxed))
            .sum()
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        for ch in &self.channels {
            ch.closed.store(true, Ordering::Release);
        }
    }
}

/// The merged end-of-run accounting: every worker's counters, the
/// combined latency histogram, and the arena hit rate that asserts the
/// zero-allocation hot path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Worker (shard) count.
    pub workers: usize,
    /// Seconds from server start to shutdown completion.
    pub elapsed_s: f64,
    /// Requests answered, all types and workers.
    pub answered: u64,
    /// `ContentCheck` requests answered.
    pub content_checks: u64,
    /// `RescanQuery` requests answered.
    pub rescan_queries: u64,
    /// `StoreStats` requests answered.
    pub store_stats: u64,
    /// Content checks that matched a worst-case pattern.
    pub hot_rows: u64,
    /// Requests rejected at full request rings (the drop ledger).
    pub dropped: u64,
    /// Replies discarded on vanished clients.
    pub resp_dropped: u64,
    /// Worker-arena pool hits (allocations avoided).
    pub arena_hits: u64,
    /// Worker-arena pool misses (fresh allocations).
    pub arena_misses: u64,
    /// Worker-arena buffers recycled.
    pub arena_recycled: u64,
    /// `hits / (hits + misses)` — the zero-allocation assertion
    /// (`1.0` when no buffer was ever requested).
    pub arena_hit_rate: f64,
    /// Merged request latency, nanoseconds.
    pub latency: HistogramSnapshot,
    /// Per-worker breakdown.
    pub per_worker: Vec<WorkerStats>,
}

impl ServeReport {
    fn from_stats(workers: usize, elapsed_s: f64, per_worker: Vec<WorkerStats>) -> ServeReport {
        let mut report = ServeReport {
            workers,
            elapsed_s,
            answered: 0,
            content_checks: 0,
            rescan_queries: 0,
            store_stats: 0,
            hot_rows: 0,
            dropped: 0,
            resp_dropped: 0,
            arena_hits: 0,
            arena_misses: 0,
            arena_recycled: 0,
            arena_hit_rate: 1.0,
            latency: HistogramSnapshot::default(),
            per_worker: Vec::new(),
        };
        for w in &per_worker {
            report.answered += w.answered;
            report.content_checks += w.content_checks;
            report.rescan_queries += w.rescan_queries;
            report.store_stats += w.store_stats;
            report.hot_rows += w.hot_rows;
            report.dropped += w.dropped;
            report.resp_dropped += w.resp_dropped;
            report.arena_hits += w.arena_hits;
            report.arena_misses += w.arena_misses;
            report.arena_recycled += w.arena_recycled;
            report.latency.merge(&w.latency);
        }
        let takes = report.arena_hits + report.arena_misses;
        if takes > 0 {
            report.arena_hit_rate = report.arena_hits as f64 / takes as f64;
        }
        report.per_worker = per_worker;
        report
    }

    /// Flushes the report to a recorder as `serve.*` metrics: counters
    /// for the ledgers, gauges for the latency percentiles, and a
    /// `serve.run` span carrying the run's wall-clock milliseconds.
    fn record_to(&self, rec: &RecorderHandle) {
        let _run = span!(*rec, metrics::serve::RUN, (self.elapsed_s * 1e3) as u64);
        rec.incr(metrics::serve::ANSWERED, self.answered);
        rec.incr(metrics::serve::CONTENT_CHECKS, self.content_checks);
        rec.incr(metrics::serve::RESCAN_QUERIES, self.rescan_queries);
        rec.incr(metrics::serve::STORE_STATS, self.store_stats);
        rec.incr(metrics::serve::HOT_ROWS, self.hot_rows);
        rec.incr(metrics::serve::DROPPED, self.dropped);
        rec.incr(metrics::serve::RESP_DROPPED, self.resp_dropped);
        rec.incr(metrics::serve::ARENA_HITS, self.arena_hits);
        rec.incr(metrics::serve::ARENA_MISSES, self.arena_misses);
        rec.incr(metrics::serve::ARENA_RECYCLED, self.arena_recycled);
        rec.gauge(metrics::serve::WORKERS, self.workers as i64);
        rec.gauge(metrics::serve::LATENCY_P50_NS, self.latency.p50() as i64);
        rec.gauge(metrics::serve::LATENCY_P99_NS, self.latency.p99() as i64);
        rec.gauge(metrics::serve::LATENCY_P999_NS, self.latency.p999() as i64);
    }
}

/// Thread-per-core server: one spawned worker thread per shard.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<WorkerStats>>,
    rec: RecorderHandle,
    started: Instant,
}

impl Server {
    /// Compiles nothing — takes an already-built snapshot — and spawns
    /// `cfg.workers` worker threads that begin polling immediately.
    pub fn start(snapshot: ServeSnapshot, cfg: ServeConfig, rec: RecorderHandle) -> Server {
        let shared = Shared::new(snapshot, cfg);
        let handles = (0..shared.cfg.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{idx}"))
                    .spawn(move || worker_main(idx, &shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            handles,
            rec,
            started: Instant::now(),
        }
    }

    /// Worker (shard) count.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// The snapshot being served.
    pub fn snapshot(&self) -> &Arc<ServeSnapshot> {
        &self.shared.snapshot
    }

    /// Opens a client connection (one channel pair per worker).
    pub fn connect(&self) -> Connection {
        Connection::new(Arc::clone(&self.shared))
    }

    /// Stops the workers, drains every accepted in-flight request,
    /// joins the threads, and flushes the merged `serve.*` metrics.
    /// Callers should quiesce their connections first.
    pub fn shutdown(self) -> ServeReport {
        self.shared.stop.store(true, Ordering::Release);
        let stats: Vec<WorkerStats> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect();
        let elapsed = self.started.elapsed().as_secs_f64();
        let report = ServeReport::from_stats(self.shared.cfg.workers, elapsed, stats);
        report.record_to(&self.rec);
        report
    }
}

fn worker_main(idx: usize, shared: &Arc<Shared>) -> WorkerStats {
    let mut core = shared.make_core(idx);
    loop {
        let served = core.poll();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if served == 0 {
            std::thread::yield_now();
        }
    }
    core.drain();
    core.stats()
}

/// Single-thread server: the caller pumps the workers itself.
///
/// This is the 1-core measurement engine (see the module docs) and also
/// handy in tests: everything is deterministic, nothing timeshares.
#[derive(Debug)]
pub struct InlineServer {
    shared: Arc<Shared>,
    cores: Vec<WorkerCore>,
    rec: RecorderHandle,
    started: Instant,
}

impl InlineServer {
    /// Builds the workers in place; nothing runs until
    /// [`pump`](InlineServer::pump).
    pub fn start(snapshot: ServeSnapshot, cfg: ServeConfig, rec: RecorderHandle) -> InlineServer {
        let shared = Shared::new(snapshot, cfg);
        let cores = (0..shared.cfg.workers)
            .map(|idx| shared.make_core(idx))
            .collect();
        InlineServer {
            shared,
            cores,
            rec,
            started: Instant::now(),
        }
    }

    /// Worker (shard) count.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// The snapshot being served.
    pub fn snapshot(&self) -> &Arc<ServeSnapshot> {
        &self.shared.snapshot
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Connection {
        Connection::new(Arc::clone(&self.shared))
    }

    /// Polls every worker once; returns the number of requests served.
    pub fn pump(&mut self) -> usize {
        self.cores.iter_mut().map(WorkerCore::poll).sum()
    }

    /// Drains every ring, merges stats, flushes `serve.*` metrics.
    pub fn shutdown(mut self) -> ServeReport {
        for core in &mut self.cores {
            core.drain();
        }
        let stats: Vec<WorkerStats> = self.cores.iter().map(WorkerCore::stats).collect();
        let elapsed = self.started.elapsed().as_secs_f64();
        let report = ServeReport::from_stats(self.shared.cfg.workers, elapsed, stats);
        report.record_to(&self.rec);
        report
    }
}
