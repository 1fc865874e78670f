//! Per-channel memory controller: FR-FCFS scheduling, open-row banks,
//! write draining, and refresh blocking.

use std::collections::VecDeque;

use parbor_obs::metrics;
use parbor_obs::RecorderHandle;
use serde::{Deserialize, Serialize};

use crate::address::DramAddress;
use crate::bank::Bank;
use crate::refresh::RefreshPolicy;
use crate::timing::DramTiming;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReqKind {
    /// A demand read (blocks the issuing core's retirement).
    Read,
    /// A write / dirty writeback (fire-and-forget for the core).
    Write {
        /// Whether the written content matches the row's worst-case pattern
        /// (the DC-REF content check performed at the controller).
        content_matches: bool,
    },
}

/// One memory request inside a channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Core-unique request id (returned on completion).
    pub id: u64,
    /// Issuing core.
    pub core: u32,
    /// Decoded DRAM coordinates.
    pub addr: DramAddress,
    /// Read or write.
    pub kind: ReqKind,
    /// Cycle the request entered the controller.
    pub arrived: u64,
}

/// One channel's controller.
#[derive(Debug)]
pub struct MemoryController {
    timing: DramTiming,
    ranks: u32,
    banks_per_rank: u32,
    banks: Vec<Bank>,
    queue: VecDeque<MemRequest>,
    queue_cap: usize,
    bus_free_at: u64,
    refresh: RefreshPolicy,
    next_refresh_at: Vec<u64>,
    rank_blocked_until: Vec<u64>,
    /// Reads in flight: (data-ready cycle, core, request id).
    pending_completions: Vec<(u64, u32, u64)>,
    /// Lower bound on the first cycle at which a queued request can be
    /// ready; the FR-FCFS scan is skipped before it.
    scan_after: u64,
    /// The earliest data-ready cycle in `pending_completions`.
    deliver_after: u64,
    /// Maximum refresh windows that may be postponed per rank while demand
    /// requests are pending (DDR3 allows up to 8); 0 disables postponement.
    postpone_limit: u64,
    rec: RecorderHandle,
    // Statistics.
    reads_done: u64,
    writes_done: u64,
    row_hits: u64,
    refresh_windows: u64,
    refresh_busy_cycles: u64,
    read_latency_sum: u64,
}

impl MemoryController {
    /// Creates a controller for one channel.
    pub fn new(
        timing: DramTiming,
        ranks: u32,
        banks_per_rank: u32,
        queue_cap: usize,
        refresh: RefreshPolicy,
    ) -> Self {
        MemoryController {
            timing,
            ranks,
            banks_per_rank,
            banks: vec![Bank::new(); (ranks * banks_per_rank) as usize],
            queue: VecDeque::new(),
            queue_cap,
            bus_free_at: 0,
            refresh,
            next_refresh_at: (0..ranks)
                .map(|r| timing.t_refi / 2 + u64::from(r) * 113)
                .collect(),
            rank_blocked_until: vec![0; ranks as usize],
            pending_completions: Vec::new(),
            scan_after: u64::MAX,
            deliver_after: u64::MAX,
            postpone_limit: 0,
            rec: RecorderHandle::null(),
            reads_done: 0,
            writes_done: 0,
            row_hits: 0,
            refresh_windows: 0,
            refresh_busy_cycles: 0,
            read_latency_sum: 0,
        }
    }

    /// The refresh policy state (for hot-fraction inspection).
    pub fn refresh_policy(&self) -> &RefreshPolicy {
        &self.refresh
    }

    /// Attaches a metrics recorder (`memsim.*` counters), shared with the
    /// refresh policy.
    pub fn set_recorder(&mut self, rec: RecorderHandle) {
        self.refresh.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// Enables DDR3-style refresh postponement: while demand requests are
    /// pending for a rank, up to `limit` due refresh windows are deferred
    /// and executed back-to-back once the rank goes idle (or the debt cap
    /// is hit). DDR3 permits up to 8.
    pub fn set_refresh_postponement(&mut self, limit: u64) {
        self.postpone_limit = limit;
    }

    /// Whether the request queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Enqueues a request.
    ///
    /// Returns `false` (rejecting the request) when the queue is full; the
    /// caller retries next cycle — exactly how a full MSHR stalls a core.
    pub fn enqueue(&mut self, req: MemRequest) -> bool {
        if !self.can_accept() {
            return false;
        }
        if let ReqKind::Write { content_matches } = req.kind {
            self.refresh
                .observe_write(req.addr.rank, req.addr.bank, req.addr.row, content_matches);
        }
        self.scan_after = self.scan_after.min(self.ready_at(&req));
        self.queue.push_back(req);
        true
    }

    fn bank_index(&self, addr: DramAddress) -> usize {
        (addr.rank * self.banks_per_rank + addr.bank) as usize
    }

    /// The first cycle at which `req`'s bank and rank can take a command.
    fn ready_at(&self, req: &MemRequest) -> u64 {
        self.banks[self.bank_index(req.addr)]
            .ready_at()
            .max(self.rank_blocked_until[req.addr.rank as usize])
    }

    /// Drops the `scan_after` and `deliver_after` bounds, so the next tick
    /// scans the queue and the in-flight reads in full, as a controller
    /// without them would.
    #[cfg(test)]
    pub(crate) fn forget_bounds(&mut self) {
        self.scan_after = 0;
        self.deliver_after = 0;
    }

    /// The earliest cycle at which a [`tick`](Self::tick) can change
    /// anything: issue a queued request, deliver a read, or fire a refresh
    /// window. While a rank owes a postponed window this is at or before
    /// the last tick, so the caller ticks every cycle. Ticks between two
    /// events may be skipped without changing any result.
    pub fn next_event(&self) -> u64 {
        self.next_refresh_at
            .iter()
            .copied()
            .fold(self.scan_after.min(self.deliver_after), u64::min)
    }

    /// Advances the controller to memory cycle `now`: fires due refresh
    /// windows, issues at most one request (FR-FCFS), and appends to
    /// `completed` the `(core, request id)` of every read whose data
    /// arrives by `now`. `completed` is not cleared, so the caller can
    /// reuse one buffer across ticks.
    pub fn tick(&mut self, now: u64, completed: &mut Vec<(u32, u64)>) {
        self.schedule_refresh(now);
        if now >= self.scan_after {
            self.issue_one(now);
        } else {
            debug_assert!(
                self.queue.iter().all(|r| self.ready_at(r) > now),
                "scan_after {} skips a ready request at {now}",
                self.scan_after
            );
        }
        if now >= self.deliver_after {
            self.deliver(now, completed);
        } else {
            debug_assert!(self.pending_completions.iter().all(|p| p.0 > now));
        }
    }

    /// FR-FCFS: first ready row-hit, else oldest ready request. The data
    /// bus is not a readiness condition — bank access latencies overlap;
    /// only the 4-cycle data bursts serialize (handled at issue below).
    fn issue_one(&mut self, now: u64) {
        let mut choice: Option<usize> = None;
        // Earliest ready cycle among the requests not ready yet; exact
        // whenever no request is picked, because then the scan is complete.
        let mut earliest = u64::MAX;
        for (i, req) in self.queue.iter().enumerate() {
            let at = self.ready_at(req);
            if at > now {
                earliest = earliest.min(at);
                continue;
            }
            if self.banks[self.bank_index(req.addr)].is_hit(req.addr.row) {
                choice = Some(i);
                break; // oldest row-hit wins
            }
            if choice.is_none() {
                choice = Some(i); // remember the oldest ready request
            }
        }
        let Some(i) = choice else {
            self.scan_after = earliest;
            return;
        };
        self.scan_after = now + 1;
        let req = self.queue.remove(i).expect("index valid");
        let bank = self.bank_index(req.addr);
        if self.banks[bank].is_hit(req.addr.row) {
            self.row_hits += 1;
            self.rec.incr(metrics::memsim::ROW_HITS, 1);
        } else {
            self.rec.incr(metrics::memsim::ROW_MISSES, 1);
        }
        let mut done = self.banks[bank].service(req.addr.row, now, &self.timing);
        // Serialize only the data burst on the shared bus: if this access's
        // burst window collides with the previous one, the data transfer
        // (and completion) slips.
        if done < self.bus_free_at + self.timing.t_burst {
            done = self.bus_free_at + self.timing.t_burst;
        }
        self.bus_free_at = done;
        match req.kind {
            ReqKind::Read => {
                self.reads_done += 1;
                self.read_latency_sum += done - req.arrived;
                // Data arrives at `done`; delivered once `now` reaches it.
                self.pending_completions.push((done, req.core, req.id));
                self.deliver_after = self.deliver_after.min(done);
            }
            ReqKind::Write { .. } => {
                self.writes_done += 1;
            }
        }
    }

    /// Delivers reads whose data burst has finished by `now`.
    fn deliver(&mut self, now: u64, completed: &mut Vec<(u32, u64)>) {
        let mut earliest = u64::MAX;
        let mut i = 0;
        while i < self.pending_completions.len() {
            let (at, core, id) = self.pending_completions[i];
            if at <= now {
                self.pending_completions.swap_remove(i);
                completed.push((core, id));
            } else {
                earliest = earliest.min(at);
                i += 1;
            }
        }
        self.deliver_after = earliest;
    }

    fn schedule_refresh(&mut self, now: u64) {
        for rank in 0..self.ranks as usize {
            if now < self.next_refresh_at[rank] {
                continue;
            }
            // Windows owed so far (≥ 1 since the deadline passed).
            let owed = (now - self.next_refresh_at[rank]) / self.timing.t_refi + 1;
            if self.postpone_limit > 0 && owed <= self.postpone_limit {
                // Defer while the rank has demand work pending.
                let busy = self.queue.iter().any(|r| r.addr.rank as usize == rank);
                if busy {
                    continue;
                }
            }
            // Fire every owed window back-to-back (catch-up after
            // postponement; exactly one in the non-postponed steady state).
            let blocking = self.refresh.window_blocking(self.timing.t_rfc) * owed;
            let until = now + blocking;
            self.rank_blocked_until[rank] = until;
            for b in 0..self.banks_per_rank as usize {
                self.banks[rank * self.banks_per_rank as usize + b].block_until(until);
            }
            self.next_refresh_at[rank] += self.timing.t_refi * owed;
            self.refresh_windows += owed;
            self.refresh_busy_cycles += blocking;
            self.rec.incr(metrics::memsim::REFRESH_WINDOWS, owed);
        }
    }

    /// (reads, writes) completed so far.
    pub fn ops_done(&self) -> (u64, u64) {
        (self.reads_done, self.writes_done)
    }

    /// Row-buffer hits observed.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Refresh windows executed and total rank-blocked cycles.
    pub fn refresh_stats(&self) -> (u64, u64) {
        (self.refresh_windows, self.refresh_busy_cycles)
    }

    /// Outstanding queued requests.
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Average read latency in memory cycles (arrival to data delivery).
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_done == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_done as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::{RefreshPolicyKind, RowClassifier};
    use crate::timing::{Density, DramTiming};
    use parbor_hal::hash::mix64;

    fn controller(kind: RefreshPolicyKind) -> MemoryController {
        let timing = DramTiming::ddr3_1600(Density::Gb16);
        let policy = RefreshPolicy::new(kind, RowClassifier::paper(1), 0.027, 1_000_000);
        MemoryController::new(timing, 2, 8, 32, policy)
    }

    fn read(id: u64, bank: u32, row: u32, col: u32) -> MemRequest {
        MemRequest {
            id,
            core: 0,
            addr: DramAddress {
                channel: 0,
                rank: 0,
                bank,
                row,
                col,
            },
            kind: ReqKind::Read,
            arrived: 0,
        }
    }

    fn drain(c: &mut MemoryController, upto: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        let mut completed = Vec::new();
        for now in 0..upto {
            c.tick(now, &mut completed);
            done.extend(completed.drain(..).map(|(_, id)| (id, now)));
        }
        done
    }

    /// Feeds one scripted request stream (sparse traffic plus bursts that
    /// overflow an 8-entry queue) to two controllers: one ticked every
    /// cycle with its scan bounds dropped before each tick, the other only
    /// at `next_event()` and the script's cycles.
    #[test]
    fn ticking_at_next_event_matches_ticking_every_cycle() {
        let t_refi = DramTiming::ddr3_1600(Density::Gb16).t_refi;
        let horizon = 5 * t_refi;
        let script: Vec<(u64, MemRequest)> = (0..horizon)
            .filter(|&t| mix64(t).is_multiple_of(11) || t % 4000 < 40)
            .map(|t| {
                let h = mix64(t ^ 0x5EED);
                let kind = if h.is_multiple_of(4) {
                    ReqKind::Write {
                        content_matches: h & 16 == 0,
                    }
                } else {
                    ReqKind::Read
                };
                let addr = DramAddress {
                    channel: 0,
                    rank: (h >> 8) as u32 % 2,
                    bank: (h >> 16) as u32 % 8,
                    row: (h >> 24) as u32 % 16,
                    col: 0,
                };
                let req = MemRequest {
                    id: t,
                    core: 0,
                    addr,
                    kind,
                    arrived: t,
                };
                (t, req)
            })
            .collect();
        for postpone in [0, 2, 8] {
            for kind in [RefreshPolicyKind::Uniform64, RefreshPolicyKind::DcRef] {
                let make = || {
                    let timing = DramTiming::ddr3_1600(Density::Gb16);
                    let policy = RefreshPolicy::new(kind, RowClassifier::paper(1), 0.027, 1 << 20);
                    let mut c = MemoryController::new(timing, 2, 8, 8, policy);
                    c.set_refresh_postponement(postpone);
                    c
                };
                // Runs the script, ticking at the cycles `next` picks;
                // returns (request id, cycle) per completion and the
                // accept verdict per scripted request.
                let drive = |next: &dyn Fn(&mut MemoryController, u64) -> u64| {
                    let mut c = make();
                    let (mut done, mut accepted, mut completed) =
                        (Vec::new(), Vec::new(), Vec::new());
                    let mut pending = script.iter().peekable();
                    let (mut now, mut ticks) = (0, 0u64);
                    while now < horizon {
                        ticks += 1;
                        c.tick(now, &mut completed);
                        done.extend(completed.drain(..).map(|(_, id)| (id, now)));
                        while let Some((_, req)) = pending.next_if(|(t, _)| *t == now) {
                            accepted.push(c.enqueue(*req));
                        }
                        let next_script = pending.peek().map_or(u64::MAX, |(t, _)| *t);
                        now = next(&mut c, now).min(next_script).min(horizon);
                    }
                    let stats = (c.ops_done(), c.row_hits(), c.refresh_stats());
                    ((done, accepted, stats, c.avg_read_latency()), ticks)
                };
                let (every, _) = drive(&|c, now| {
                    c.forget_bounds();
                    now + 1
                });
                let (events, ticks) = drive(&|c, now| c.next_event().max(now + 1));
                assert!(
                    every.0.len() > 1000,
                    "only {} reads completed",
                    every.0.len()
                );
                assert_eq!(every, events, "postpone {postpone}, {kind:?}");
                assert!(ticks < horizon / 2, "ticked {ticks} of {horizon} cycles");
            }
        }
    }

    #[test]
    fn single_read_completes_with_activate_latency() {
        let mut c = controller(RefreshPolicyKind::NoRefresh);
        assert!(c.enqueue(read(1, 0, 5, 0)));
        let done = drain(&mut c, 200);
        assert_eq!(done.len(), 1);
        let (_, at) = done[0];
        // tRCD + tCL + tBURST = 26 cycles from issue at cycle 0.
        assert_eq!(at, 26);
    }

    #[test]
    fn row_hits_are_prioritized() {
        let mut c = controller(RefreshPolicyKind::NoRefresh);
        // Open row 5, then queue a conflicting row and another row-5 hit.
        assert!(c.enqueue(read(1, 0, 5, 0)));
        let _ = drain(&mut c, 40);
        assert!(c.enqueue(read(2, 0, 9, 0))); // older, row miss
        assert!(c.enqueue(read(3, 0, 5, 1))); // younger, row hit
        let done = drain(&mut c, 400);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, 3, "row hit must be served first");
        assert!(c.row_hits() >= 1);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut c = controller(RefreshPolicyKind::NoRefresh);
        for i in 0..32 {
            assert!(c.enqueue(read(i, (i % 8) as u32, 1, 0)));
        }
        assert!(!c.enqueue(read(99, 0, 1, 0)));
        assert_eq!(c.queue_len(), 32);
    }

    #[test]
    fn refresh_blocks_service() {
        let mut base = controller(RefreshPolicyKind::Uniform64);
        let mut none = controller(RefreshPolicyKind::NoRefresh);
        // Saturate both with the same access stream and compare throughput.
        let horizon = 200_000u64;
        let mut issued = 0u64;
        #[allow(clippy::explicit_counter_loop)] // `issued` also keys addresses
        for now in 0..horizon {
            for c in [&mut base, &mut none] {
                if c.can_accept() {
                    c.enqueue(MemRequest {
                        id: issued,
                        core: 0,
                        addr: DramAddress {
                            channel: 0,
                            rank: (issued % 2) as u32,
                            bank: (issued % 8) as u32,
                            row: (issued % 64) as u32,
                            col: 0,
                        },
                        kind: ReqKind::Read,
                        arrived: now,
                    });
                }
                c.tick(now, &mut Vec::new());
            }
            issued += 1;
        }
        let (r_base, _) = base.ops_done();
        let (r_none, _) = none.ops_done();
        assert!(
            r_none > r_base,
            "refresh-free {r_none} should beat baseline {r_base}"
        );
        let (windows, busy) = base.refresh_stats();
        assert!(windows > 25, "windows = {windows}");
        assert!(busy > 0);
    }

    #[test]
    fn postponement_defers_then_catches_up() {
        let mut c = controller(RefreshPolicyKind::Uniform64);
        c.set_refresh_postponement(8);
        let t_refi = DramTiming::ddr3_1600(Density::Gb16).t_refi;
        // Keep rank 0 busy past several refresh deadlines.
        let mut id = 0u64;
        for now in 0..(3 * t_refi) {
            if c.queue_len() < 4 {
                c.enqueue(read(id, (id % 8) as u32, (id % 32) as u32, 0));
                id += 1;
            }
            c.tick(now, &mut Vec::new());
        }
        let (windows_busy_phase, _) = c.refresh_stats();
        // Go idle: owed windows must fire.
        for now in (3 * t_refi)..(4 * t_refi) {
            c.tick(now, &mut Vec::new());
        }
        let (windows_after, _) = c.refresh_stats();
        assert!(
            windows_after > windows_busy_phase,
            "catch-up refreshes must fire once idle ({windows_busy_phase} -> {windows_after})"
        );
        // Total owed by the end: about 4 windows per rank.
        assert!(windows_after >= 6, "windows = {windows_after}");
    }

    #[test]
    fn postponement_debt_is_capped() {
        let mut c = controller(RefreshPolicyKind::Uniform64);
        c.set_refresh_postponement(2);
        let t_refi = DramTiming::ddr3_1600(Density::Gb16).t_refi;
        // Saturate rank 0 forever; with a debt cap of 2, refreshes must
        // still fire eventually.
        let mut id = 0u64;
        for now in 0..(6 * t_refi) {
            if c.queue_len() < 8 {
                c.enqueue(read(id, (id % 8) as u32, (id % 64) as u32, 0));
                id += 1;
            }
            c.tick(now, &mut Vec::new());
        }
        let (windows, _) = c.refresh_stats();
        assert!(windows >= 6, "windows = {windows} despite cap");
    }

    #[test]
    fn dcref_write_hook_reaches_policy() {
        let mut c = controller(RefreshPolicyKind::DcRef);
        let before = c.refresh_policy().hot_fraction();
        // Write non-matching content into many weak rows.
        for row in 0..2000 {
            c.enqueue(MemRequest {
                id: u64::from(row),
                core: 0,
                addr: DramAddress {
                    channel: 0,
                    rank: 0,
                    bank: 0,
                    row,
                    col: 0,
                },
                kind: ReqKind::Write {
                    content_matches: false,
                },
                arrived: 0,
            });
            c.tick(u64::from(row), &mut Vec::new());
        }
        assert!(c.refresh_policy().hot_fraction() < before);
    }
}
