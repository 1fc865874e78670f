//! Trace-driven core model: 3-wide issue, 128-entry instruction window
//! (paper Table 2), in the style of Ramulator's standalone CPU model.
//!
//! The core streams instructions into its window and retires them in order:
//! non-memory instructions and writes retire immediately; a load blocks
//! retirement until its data returns from the memory system. Writes are
//! posted (fire-and-forget). The core runs at 3.2 GHz against an 800 MHz
//! memory clock, i.e. four core cycles per memory cycle.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use parbor_workloads::{TraceGenerator, TraceOp};

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Demand loads issued to memory.
    pub loads: u64,
    /// Writes issued to memory.
    pub writes: u64,
}

impl CoreStats {
    /// Retired instructions per core cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A batch of `n` non-memory instructions (retire together).
    NonMem(u32),
    /// A load waiting for memory; retires once `done`.
    Load { id: u64, done: bool },
    /// A posted write (retires immediately; memory side is asynchronous).
    Write,
}

/// A memory access the core wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreIssue {
    /// Request id unique within the core.
    pub id: u64,
    /// Byte address (within the core's private address space).
    pub addr: u64,
    /// Whether the access is a write.
    pub is_write: bool,
}

/// The trace-driven core.
#[derive(Debug)]
pub struct TraceCore {
    id: u32,
    gen: TraceGenerator,
    window: VecDeque<Slot>,
    window_cap: usize,
    /// Instructions currently occupying the window (a NonMem batch of `n`
    /// occupies `n` entries; loads and writes occupy 1 each).
    window_insts: u64,
    issue_width: u32,
    /// Window slots pending insertion (split of the current trace op).
    staged: VecDeque<Slot>,
    staged_issue: Option<CoreIssue>,
    next_req_id: u64,
    stats: CoreStats,
}

impl TraceCore {
    /// Creates a core with the paper's window/issue parameters.
    pub fn new(id: u32, gen: TraceGenerator, window_cap: usize, issue_width: u32) -> Self {
        TraceCore {
            id,
            gen,
            window: VecDeque::with_capacity(window_cap),
            window_cap,
            window_insts: 0,
            issue_width,
            staged: VecDeque::new(),
            staged_issue: None,
            next_req_id: 0,
            stats: CoreStats {
                retired: 0,
                cycles: 0,
                loads: 0,
                writes: 0,
            },
        }
    }

    /// Core index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The application profile driving this core.
    pub fn profile(&self) -> &parbor_workloads::AppProfile {
        self.gen.profile()
    }

    /// Marks a previously issued load complete at core cycle `now`: the
    /// core first runs its quiet cycles up to `now` (see
    /// [`run_until`](Self::run_until)), which happened before the data
    /// arrived, then the load is done.
    pub fn complete_load(&mut self, req_id: u64, now: u64) {
        let synced = self.skip_quiet(now);
        debug_assert!(synced, "core {} owes a full step before {now}", self.id);
        for slot in self.window.iter_mut() {
            if let Slot::Load { id, done } = slot {
                if *id == req_id {
                    *done = true;
                    return;
                }
            }
        }
    }

    /// Credits the quiet cycles left before core cycle `end`, the end of
    /// the run.
    pub fn finish(&mut self, end: u64) {
        let synced = self.skip_quiet(end);
        debug_assert!(synced, "core {} owes a full step before {end}", self.id);
    }

    /// How many of the coming cycles are quiet: they call no `issue` and
    /// wait on no load, so their effect follows from the state alone.
    /// `None` is a stall (window full, oldest load outstanding), quiet until
    /// that load completes; `Some(k)` is `k` cycles that only retire
    /// `issue_width` instructions each from the non-memory batch at the
    /// window's head; `Some(0)` means the next cycle needs a full step.
    fn quiet_cycles(&self) -> Option<u64> {
        let cap = self.window_cap as u64;
        if self.window_insts < cap {
            return Some(0); // the window fills, and may issue
        }
        let width = u64::from(self.issue_width);
        match self.window.front() {
            Some(Slot::Load { done: false, .. }) => None,
            Some(&Slot::NonMem(m)) => {
                Some((u64::from(m) / width).min((self.window_insts - cap) / width + 1))
            }
            _ => Some(0),
        }
    }

    /// Applies quiet cycles until core cycle `target` or the first cycle
    /// that needs a full step; returns whether `target` was reached.
    fn skip_quiet(&mut self, target: u64) -> bool {
        while self.stats.cycles < target {
            match self.quiet_cycles() {
                None => self.stats.cycles = target,
                Some(0) => return false,
                Some(k) => {
                    let k = k.min(target - self.stats.cycles);
                    let n = k * u64::from(self.issue_width);
                    if let Some(Slot::NonMem(m)) = self.window.front_mut() {
                        *m -= n as u32;
                        if *m == 0 {
                            self.window.pop_front();
                        }
                    }
                    self.window_insts -= n;
                    self.stats.retired += n;
                    self.stats.cycles += k;
                }
            }
        }
        true
    }

    /// Runs the core up to core cycle `target`, the end of the memory
    /// cycle being simulated (`ratio` core cycles per memory cycle): quiet
    /// cycles in closed form, the others through [`cycle`](Self::cycle).
    ///
    /// Returns the memory cycle at which the core next needs a full step,
    /// or `u64::MAX` while it is stalled on its oldest load. The core may
    /// be left alone until then, or until one of its loads completes.
    pub fn run_until(
        &mut self,
        target: u64,
        ratio: u32,
        mut issue: impl FnMut(u32, CoreIssue) -> bool,
    ) -> u64 {
        while !self.skip_quiet(target) {
            debug_assert!(
                self.stats.cycles + u64::from(ratio) >= target,
                "core {} woke after its full step at {}",
                self.id,
                self.stats.cycles
            );
            self.cycle(&mut issue);
        }
        match self.quiet_cycles() {
            None => u64::MAX,
            Some(k) => (target + k) / u64::from(ratio),
        }
    }

    fn stage_next_op(&mut self) {
        let TraceOp {
            nonmem_insts,
            addr,
            is_write,
        } = self.gen.next_op();
        if nonmem_insts > 0 {
            self.staged.push_back(Slot::NonMem(nonmem_insts));
        }
        let id = self.next_req_id;
        self.next_req_id += 1;
        if is_write {
            self.staged.push_back(Slot::Write);
        } else {
            self.staged.push_back(Slot::Load { id, done: false });
        }
        self.staged_issue = Some(CoreIssue { id, addr, is_write });
    }

    /// Runs one core cycle. `issue` is called for each memory access the
    /// core wants to send; it returns `false` when the memory system cannot
    /// accept it (the core stalls insertion and retries next cycle).
    pub fn cycle(&mut self, mut issue: impl FnMut(u32, CoreIssue) -> bool) {
        self.stats.cycles += 1;

        // Fill the window from the trace (instruction-granular occupancy).
        while self.window_insts < self.window_cap as u64 {
            if self.staged.is_empty() {
                self.stage_next_op();
            }
            // The memory request is issued when its slot enters the window.
            if let Some(req) = self.staged_issue {
                let is_mem_slot_next = matches!(
                    self.staged.front(),
                    Some(Slot::Load { .. }) | Some(Slot::Write)
                );
                if is_mem_slot_next {
                    if !issue(self.id, req) {
                        break; // queue full: stall until next cycle
                    }
                    if req.is_write {
                        self.stats.writes += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.staged_issue = None;
                }
            }
            let slot = self.staged.pop_front().expect("staged nonempty");
            self.window_insts += match slot {
                Slot::NonMem(n) => u64::from(n),
                _ => 1,
            };
            self.window.push_back(slot);
        }

        // Retire in order, up to issue_width instructions.
        let mut budget = self.issue_width;
        while budget > 0 {
            match self.window.front_mut() {
                Some(Slot::NonMem(n)) => {
                    let take = (*n).min(budget);
                    *n -= take;
                    budget -= take;
                    self.stats.retired += u64::from(take);
                    self.window_insts -= u64::from(take);
                    if *n == 0 {
                        self.window.pop_front();
                    }
                }
                Some(Slot::Write) => {
                    self.window.pop_front();
                    self.stats.retired += 1;
                    self.window_insts -= 1;
                    budget -= 1;
                }
                Some(Slot::Load { done: true, .. }) => {
                    self.window.pop_front();
                    self.stats.retired += 1;
                    self.window_insts -= 1;
                    budget -= 1;
                }
                Some(Slot::Load { done: false, .. }) | None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_workloads::AppProfile;

    fn core_for(name: &str) -> TraceCore {
        let app = AppProfile::spec2006()
            .into_iter()
            .find(|a| a.name == name)
            .unwrap();
        TraceCore::new(0, TraceGenerator::new(&app, 1), 128, 3)
    }

    #[test]
    fn ideal_memory_reaches_near_peak_ipc() {
        // With every load completing instantly, a compute-bound app should
        // retire close to 3 IPC.
        let mut core = core_for("sjeng");
        let mut pending = Vec::new();
        for _ in 0..200_000 {
            core.cycle(|_, req| {
                pending.push(req.id);
                true
            });
            for id in pending.drain(..) {
                core.complete_load(id, core.stats().cycles);
            }
        }
        let ipc = core.stats().ipc();
        assert!(ipc > 2.5, "ipc = {ipc}");
    }

    /// A memory that refuses every access on cycles `≡ 3 (mod 7)` and
    /// returns load `id` `1 + id % 53` memory cycles after issue.
    #[derive(Default)]
    struct ScriptedMemory {
        issued: Vec<(u64, CoreIssue)>,
        inflight: Vec<(u64, u64)>,
    }

    impl ScriptedMemory {
        fn offer(&mut self, now: u64, req: CoreIssue) -> bool {
            if now % 7 == 3 {
                return false;
            }
            self.issued.push((now, req));
            if !req.is_write {
                self.inflight.push((now + 1 + req.id % 53, req.id));
            }
            true
        }

        /// Completes the loads arriving at `now`; returns whether any did.
        fn deliver(&mut self, now: u64, core: &mut TraceCore, ratio: u64) -> bool {
            let before = self.inflight.len();
            self.inflight.retain(|&(at, id)| {
                if at == now {
                    core.complete_load(id, now * ratio);
                }
                at != now
            });
            self.inflight.len() != before
        }
    }

    /// One core stepped every core cycle against a copy stepped through
    /// `run_until` at its wake cycles only.
    #[test]
    fn run_until_matches_every_cycle_stepping() {
        for (name, ratio, width, window) in [
            ("mcf", 4, 3, 128),
            ("sjeng", 4, 3, 128),
            ("lbm", 2, 1, 8),
            ("hmmer", 3, 4, 32),
            ("libquantum", 1, 2, 16),
        ] {
            let app = AppProfile::spec2006()
                .into_iter()
                .find(|a| a.name == name)
                .unwrap();
            let mut every = TraceCore::new(0, TraceGenerator::new(&app, 5), window, width);
            let mut event = TraceCore::new(0, TraceGenerator::new(&app, 5), window, width);
            let (mut mem_every, mut mem_event) =
                (ScriptedMemory::default(), ScriptedMemory::default());
            let r = u64::from(ratio);
            let mut wake = 0;
            let mut steps = 0;
            let end = 20_000u64;
            for now in 0..end {
                mem_every.deliver(now, &mut every, r);
                if mem_event.deliver(now, &mut event, r) {
                    wake = now;
                }
                let mut full_step = false;
                for _ in 0..ratio {
                    full_step |= every.quiet_cycles() == Some(0);
                    every.cycle(|_, req| mem_every.offer(now, req));
                }
                assert!(
                    !full_step || wake <= now,
                    "{name}: full step at memory cycle {now}, wake at {wake}"
                );
                if wake <= now {
                    steps += 1;
                    wake =
                        event.run_until((now + 1) * r, ratio, |_, req| mem_event.offer(now, req));
                }
            }
            event.finish(end * r);
            assert!(steps < end, "{name}: stepped on all {end} cycles");
            assert_eq!(every.stats(), event.stats(), "{name}");
            assert_eq!(mem_every.issued, mem_event.issued, "{name}");
        }
    }

    #[test]
    fn blocked_memory_stalls_the_core() {
        // If loads never complete, retirement stops once the window fills.
        let mut core = core_for("mcf");
        for _ in 0..10_000 {
            core.cycle(|_, _req| true);
        }
        let stats = core.stats();
        // At most ~window worth of instructions can retire.
        assert!(stats.retired < 2_000, "retired = {}", stats.retired);
        assert!(stats.ipc() < 0.3);
    }

    #[test]
    fn slow_memory_hurts_ipc_proportionally() {
        let run = |latency: u64| {
            let mut core = core_for("mcf");
            let mut inflight: Vec<(u64, u64)> = Vec::new();
            for now in 0..100_000u64 {
                core.cycle(|_, req| {
                    inflight.push((now + latency, req.id));
                    true
                });
                inflight.retain(|&(done, id)| {
                    if done <= now {
                        core.complete_load(id, now + 1);
                        false
                    } else {
                        true
                    }
                });
            }
            core.stats().ipc()
        };
        let fast = run(20);
        let slow = run(400);
        assert!(fast > 1.5 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn issue_backpressure_is_respected() {
        // A memory system that accepts nothing: no loads/writes counted.
        let mut core = core_for("lbm");
        for _ in 0..1000 {
            core.cycle(|_, _| false);
        }
        assert_eq!(core.stats().loads, 0);
        assert_eq!(core.stats().writes, 0);
    }

    #[test]
    fn writes_do_not_block_retirement() {
        // Accept writes, never complete loads; with a write-heavy app some
        // instructions retire before the first load blocks.
        let mut core = core_for("lbm");
        let mut accepted_writes = 0u64;
        for _ in 0..5_000 {
            core.cycle(|_, req| {
                if req.is_write {
                    accepted_writes += 1;
                    true
                } else {
                    true
                }
            });
        }
        assert!(accepted_writes > 0);
        assert!(core.stats().retired > 0);
    }
}
