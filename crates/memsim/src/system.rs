//! The full simulated system: cores, channels, and the simulation loop
//! (paper Table 2).

use parbor_hal::hash::{hash01, mix64};
use parbor_obs::RecorderHandle;
use serde::{Deserialize, Serialize};

use parbor_workloads::{TraceGenerator, WorkloadMix};

use crate::address::{AddressMapping, DramAddress};
use crate::cache::{Cache, CacheOutcome};
use crate::controller::{MemRequest, MemoryController, ReqKind};
use crate::core_model::{CoreIssue, TraceCore};
use crate::metrics::SimReport;
use crate::refresh::{RefreshPolicy, RefreshPolicyKind, RowClassifier};
use crate::timing::{Density, DramTiming};

/// System configuration (defaults = paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: u32,
    /// Instruction-window entries per core.
    pub window: usize,
    /// Retirement width per core cycle.
    pub issue_width: u32,
    /// Core cycles per memory cycle (3.2 GHz vs 800 MHz = 4).
    pub core_ratio: u32,
    /// Memory channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks: u32,
    /// Per-chip density (sets tRFC and rows per bank).
    pub density: Density,
    /// Physical-address mapping.
    pub mapping: AddressMapping,
    /// Controller queue capacity per channel.
    pub queue_cap: usize,
    /// Fraction of rows that are weak (paper: 16.4 %, measured on FPGA).
    pub weak_row_fraction: f64,
    /// Weak-row classifier seed.
    pub classifier_seed: u64,
    /// DDR3 refresh postponement limit per rank (0 = disabled, DDR3 allows
    /// up to 8). Postponed windows execute back-to-back when the rank idles.
    pub refresh_postpone: u64,
    /// Optional per-core private LLC slice in front of memory. `None`
    /// (the default) treats traces as post-LLC streams, Ramulator-style;
    /// `Some` filters them through a write-back cache (Table 2: 512 KiB,
    /// 16-way per core). Hits complete instantly (hit latency folded into
    /// the trace's instruction gaps).
    pub llc: Option<LlcConfig>,
}

/// Geometry of the optional per-core LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Capacity per core in KiB.
    pub size_kib: u32,
    /// Associativity.
    pub ways: u32,
}

impl LlcConfig {
    /// The paper's Table 2 slice: 512 KiB, 16-way, 64 B lines.
    pub fn paper() -> Self {
        LlcConfig {
            size_kib: 512,
            ways: 16,
        }
    }
}

impl SystemConfig {
    /// The paper's Table 2 configuration: 8 cores, 3.2 GHz, 3-wide,
    /// 128-entry window; DDR3-1600, 2 channels × 2 ranks; 32 Gbit chips.
    pub fn paper() -> Self {
        SystemConfig {
            cores: 8,
            window: 128,
            issue_width: 3,
            core_ratio: 4,
            channels: 2,
            ranks: 2,
            banks: 8,
            density: Density::Gb32,
            mapping: AddressMapping::RoRaBaCoCh,
            queue_cap: 32,
            weak_row_fraction: 0.164,
            classifier_seed: 0x0DC0_4EF1,
            refresh_postpone: 0,
            llc: None,
        }
    }

    /// Cache lines per module-level row (8 chips × 8 Kbit = 8 KB rows).
    pub fn lines_per_row(&self) -> u32 {
        8192 * 8 / 8 / 64
    }
}

fn decode_addr(config: &SystemConfig, core: u32, addr: u64) -> DramAddress {
    // Private 16 GiB address spaces per core.
    let global = (u64::from(core) << 34) | (addr & ((1 << 34) - 1));
    config.mapping.decode(
        global,
        config.channels,
        config.ranks,
        config.banks,
        config.density.rows_per_bank(),
        config.lines_per_row(),
    )
}

/// Deterministic per-(core, row) draw: does the data this core writes into
/// this row match the row's worst-case coupling pattern?
fn content_matches(match_prob: f64, core: u32, addr: DramAddress) -> bool {
    let z = (u64::from(core) << 56)
        ^ (u64::from(addr.rank) << 48)
        ^ (u64::from(addr.bank) << 40)
        ^ u64::from(addr.row);
    hash01(mix64(z)) < match_prob
}

/// One multiprogrammed simulation run.
#[derive(Debug)]
pub struct Simulation {
    policy_kind: RefreshPolicyKind,
    cores: Vec<TraceCore>,
    mem: MemorySystem,
}

/// Everything behind the cores: per-core LLC slices and channel
/// controllers.
#[derive(Debug)]
struct MemorySystem {
    config: SystemConfig,
    controllers: Vec<MemoryController>,
    llcs: Vec<Option<Cache>>,
    wc_match_probs: Vec<f64>,
}

impl MemorySystem {
    /// Offers core `cid`'s access `req` to memory at memory cycle `now`.
    /// Returns `false` when its channel's queue is full (the core retries
    /// next cycle, the LLC untouched). A read that hits the LLC is pushed
    /// onto `llc_hits`, for the caller to complete once the core's cycles
    /// of this memory cycle have run.
    fn issue(&mut self, now: u64, cid: u32, req: CoreIssue, llc_hits: &mut Vec<u64>) -> bool {
        let config = self.config;
        let addr = decode_addr(&config, cid, req.addr);
        let ch = addr.channel as usize;
        if !self.controllers[ch].can_accept() {
            return false;
        }
        let wc_prob = self.wc_match_probs[cid as usize];
        let write = |addr: DramAddress| ReqKind::Write {
            content_matches: content_matches(wc_prob, cid, addr),
        };
        let Some(cache) = self.llcs[cid as usize].as_mut() else {
            return self.controllers[ch].enqueue(MemRequest {
                id: req.id,
                core: cid,
                addr,
                kind: if req.is_write {
                    write(addr)
                } else {
                    ReqKind::Read
                },
                arrived: now,
            });
        };
        match cache.access(req.addr, req.is_write) {
            CacheOutcome::Hit => {
                // Hit latency is folded into instruction gaps; the load
                // completes this cycle.
                if !req.is_write {
                    llc_hits.push(req.id);
                }
                true
            }
            CacheOutcome::Miss { writeback } => {
                // The demand fill always reaches memory as a read; the
                // dirty victim (if any) follows as a best-effort write.
                let ok = self.controllers[ch].enqueue(MemRequest {
                    id: req.id,
                    core: cid,
                    addr,
                    kind: ReqKind::Read,
                    arrived: now,
                });
                if let (true, Some(wb)) = (ok, writeback) {
                    let wb_addr = decode_addr(&config, cid, wb);
                    let _ = self.controllers[wb_addr.channel as usize].enqueue(MemRequest {
                        id: u64::MAX,
                        core: cid,
                        addr: wb_addr,
                        kind: write(wb_addr),
                        arrived: now,
                    });
                }
                ok
            }
        }
    }
}

impl Simulation {
    /// Builds a simulation of `mix` (one application per core) under the
    /// given refresh policy.
    ///
    /// # Panics
    ///
    /// Panics if the mix has fewer applications than configured cores.
    pub fn new(
        config: SystemConfig,
        policy_kind: RefreshPolicyKind,
        mix: &WorkloadMix,
        seed: u64,
    ) -> Self {
        assert!(
            mix.apps.len() >= config.cores as usize,
            "mix supplies {} apps for {} cores",
            mix.apps.len(),
            config.cores
        );
        let timing = DramTiming::ddr3_1600(config.density);
        let rows = config.density.rows_per_bank();
        let total_rows = u64::from(rows) * u64::from(config.ranks) * u64::from(config.banks);
        // DC-REF steady-state prior: weak rows whose content matches, using
        // the mix's mean match probability (models the pre-existing memory
        // image; refined online by observe_write).
        let mean_match: f64 = mix.apps[..config.cores as usize]
            .iter()
            .map(|a| a.wc_match_prob)
            .sum::<f64>()
            / f64::from(config.cores);
        let prior_hot = config.weak_row_fraction * mean_match;
        let classifier = RowClassifier {
            weak_fraction: config.weak_row_fraction,
            seed: config.classifier_seed,
        };
        let controllers = (0..config.channels)
            .map(|_| {
                let mut ctrl = MemoryController::new(
                    timing,
                    config.ranks,
                    config.banks,
                    config.queue_cap,
                    RefreshPolicy::new(policy_kind, classifier, prior_hot, total_rows),
                );
                ctrl.set_refresh_postponement(config.refresh_postpone);
                ctrl
            })
            .collect();
        let cores = mix.apps[..config.cores as usize]
            .iter()
            .enumerate()
            .map(|(i, app)| {
                TraceCore::new(
                    i as u32,
                    TraceGenerator::new(app, seed ^ ((i as u64) << 32)),
                    config.window,
                    config.issue_width,
                )
            })
            .collect();
        let wc_match_probs = mix.apps[..config.cores as usize]
            .iter()
            .map(|a| a.wc_match_prob)
            .collect();
        let llcs = (0..config.cores)
            .map(|_| {
                config.llc.map(|l| {
                    Cache::new(l.size_kib as usize * 1024, l.ways as usize, 64)
                        .expect("LLC geometry is a power-of-two split")
                })
            })
            .collect();
        Simulation {
            policy_kind,
            cores,
            mem: MemorySystem {
                config,
                controllers,
                llcs,
                wc_match_probs,
            },
        }
    }

    /// Attaches a metrics recorder to every channel controller (and through
    /// them the refresh policies).
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        for ctrl in &mut self.mem.controllers {
            ctrl.set_recorder(rec.clone());
        }
        self
    }

    /// Runs for `mem_cycles` memory cycles and reports the results.
    ///
    /// The loop visits only the memory cycles at which a controller or a
    /// core can act, and steps only the cores that can: a stalled core
    /// sleeps until one of its loads completes, and a core that only
    /// retires non-memory instructions sleeps through those cycles (see
    /// [`TraceCore::run_until`]). The report is the one ticking every
    /// controller and core on every cycle gives.
    pub fn run(mut self, mem_cycles: u64) -> SimReport {
        let ratio = self.mem.config.core_ratio;
        let core_cycles = |mem_cycle: u64| mem_cycle * u64::from(ratio);
        // The memory cycle at which each core must next be stepped.
        let mut wake = vec![0u64; self.cores.len()];
        let mut completed = Vec::new();
        let mut llc_hits = Vec::new();
        let mut now = 0;
        while now < mem_cycles {
            // Memory side first, so completions unblock cores this cycle.
            for ch in &mut self.mem.controllers {
                ch.tick(now, &mut completed);
                for (core, id) in completed.drain(..) {
                    self.cores[core as usize].complete_load(id, core_cycles(now));
                    wake[core as usize] = now;
                }
            }
            // Core side: `core_ratio` core cycles per memory cycle.
            for (core, wake) in self.cores.iter_mut().zip(&mut wake) {
                if *wake > now {
                    continue;
                }
                let mem = &mut self.mem;
                *wake = core.run_until(core_cycles(now + 1), ratio, |cid, req| {
                    mem.issue(now, cid, req, &mut llc_hits)
                });
                if !llc_hits.is_empty() {
                    for id in llc_hits.drain(..) {
                        core.complete_load(id, core_cycles(now + 1));
                    }
                    *wake = now + 1;
                }
            }
            let next = self
                .mem
                .controllers
                .iter()
                .map(MemoryController::next_event)
                .chain(wake.iter().copied())
                .min()
                .unwrap_or(u64::MAX);
            now = next.max(now + 1).min(mem_cycles);
        }
        for core in &mut self.cores {
            core.finish(core_cycles(mem_cycles));
        }
        self.report(mem_cycles)
    }

    /// The reference loop [`run`](Self::run) must match: every controller
    /// and every core cycle stepped on every memory cycle, and every tick
    /// scanning the whole request queue.
    #[cfg(test)]
    fn run_every_cycle(mut self, mem_cycles: u64) -> SimReport {
        let ratio = u64::from(self.mem.config.core_ratio);
        let mut completed = Vec::new();
        let mut llc_hits = Vec::new();
        for now in 0..mem_cycles {
            for ch in &mut self.mem.controllers {
                ch.forget_bounds();
                ch.tick(now, &mut completed);
                for (core, id) in completed.drain(..) {
                    self.cores[core as usize].complete_load(id, now * ratio);
                }
            }
            for core in &mut self.cores {
                for _ in 0..ratio {
                    core.cycle(|cid, req| self.mem.issue(now, cid, req, &mut llc_hits));
                }
                for id in llc_hits.drain(..) {
                    core.complete_load(id, (now + 1) * ratio);
                }
            }
        }
        self.report(mem_cycles)
    }

    fn report(self, mem_cycles: u64) -> SimReport {
        let mut reads = 0;
        let mut writes = 0;
        let mut row_hits = 0;
        let mut refresh_windows = 0;
        let mut refresh_busy = 0;
        let mut work_fraction = 0.0;
        let mut hot = 0.0;
        let mut latency = 0.0;
        for ch in &self.mem.controllers {
            let (r, w) = ch.ops_done();
            reads += r;
            writes += w;
            row_hits += ch.row_hits();
            let (rw, rb) = ch.refresh_stats();
            refresh_windows += rw;
            refresh_busy += rb;
            work_fraction += ch.refresh_policy().work_fraction();
            hot += ch.refresh_policy().hot_fraction();
            latency += ch.avg_read_latency();
        }
        let n = self.mem.controllers.len() as f64;
        SimReport {
            policy: self.policy_kind,
            mem_cycles,
            cores: self.cores.iter().map(|c| c.stats()).collect(),
            reads,
            writes,
            row_hits,
            refresh_windows,
            refresh_busy_cycles: refresh_busy,
            refresh_work_fraction: work_fraction / n,
            hot_row_fraction: hot / n,
            avg_read_latency: latency / n,
        }
    }

    /// Convenience: the IPC of one application running alone on this system
    /// configuration under a policy — the denominator of weighted speedup.
    pub fn alone_ipc(
        config: SystemConfig,
        policy: RefreshPolicyKind,
        app: &parbor_workloads::AppProfile,
        seed: u64,
        mem_cycles: u64,
    ) -> f64 {
        let solo = SystemConfig { cores: 1, ..config };
        let mix = WorkloadMix {
            id: 0,
            apps: vec![app.clone()],
        };
        Simulation::new(solo, policy, &mix, seed)
            .run(mem_cycles)
            .cores[0]
            .ipc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use parbor_workloads::paper_mixes;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn event_loop_matches_every_cycle_loop(
            cores in 1u32..=8,
            window in 8usize..=128,
            issue_width in 1u32..=4,
            core_ratio in 1u32..=4,
            density in 0usize..3,
            mapping in 0usize..2,
            queue_cap in 0usize..3,
            postpone in 0usize..3,
            llc in 0usize..3,
            policy in 0usize..4,
            cycles in 1u64..=60_000,
            seed in any::<u64>(),
        ) {
            let config = SystemConfig {
                cores,
                window,
                issue_width,
                core_ratio,
                density: [Density::Gb8, Density::Gb16, Density::Gb32][density],
                mapping: [AddressMapping::RoRaBaCoCh, AddressMapping::RoCoRaBaCh][mapping],
                queue_cap: [1, 4, 32][queue_cap],
                refresh_postpone: [0, 2, 8][postpone],
                llc: [
                    None,
                    Some(LlcConfig::paper()),
                    Some(LlcConfig { size_kib: 16, ways: 4 }),
                ][llc],
                ..SystemConfig::paper()
            };
            let policy = [
                RefreshPolicyKind::Uniform64,
                RefreshPolicyKind::Raidr,
                RefreshPolicyKind::DcRef,
                RefreshPolicyKind::NoRefresh,
            ][policy];
            let mix = &paper_mixes(1, cores as usize, seed)[0];
            let event = Simulation::new(config, policy, mix, seed).run(cycles);
            let every = Simulation::new(config, policy, mix, seed).run_every_cycle(cycles);
            prop_assert_eq!(event, every);
        }
    }

    fn quick_config() -> SystemConfig {
        SystemConfig {
            cores: 4,
            ..SystemConfig::paper()
        }
    }

    #[test]
    fn simulation_makes_progress() {
        let mix = &paper_mixes(1, 4, 3)[0];
        let report =
            Simulation::new(quick_config(), RefreshPolicyKind::Uniform64, mix, 1).run(100_000);
        assert!(report.total_instructions() > 100_000);
        assert!(report.reads > 0);
        assert!(report.refresh_windows > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let mix = &paper_mixes(1, 4, 3)[0];
        let a = Simulation::new(quick_config(), RefreshPolicyKind::Raidr, mix, 1).run(50_000);
        let b = Simulation::new(quick_config(), RefreshPolicyKind::Raidr, mix, 1).run(50_000);
        assert_eq!(a, b);
    }

    #[test]
    fn less_refresh_means_more_performance() {
        let mix = &paper_mixes(1, 4, 11)[0];
        let cycles = 300_000;
        let base =
            Simulation::new(quick_config(), RefreshPolicyKind::Uniform64, mix, 1).run(cycles);
        let raidr = Simulation::new(quick_config(), RefreshPolicyKind::Raidr, mix, 1).run(cycles);
        let dcref = Simulation::new(quick_config(), RefreshPolicyKind::DcRef, mix, 1).run(cycles);
        let none =
            Simulation::new(quick_config(), RefreshPolicyKind::NoRefresh, mix, 1).run(cycles);
        let ipc = |r: &SimReport| r.total_instructions();
        assert!(ipc(&raidr) > ipc(&base), "RAIDR must beat baseline");
        assert!(
            ipc(&dcref) >= ipc(&raidr),
            "DC-REF must match or beat RAIDR"
        );
        assert!(ipc(&none) >= ipc(&dcref), "no-refresh is the upper bound");
    }

    #[test]
    fn refresh_work_fractions_ordered() {
        let mix = &paper_mixes(1, 4, 5)[0];
        let get = |k| {
            Simulation::new(quick_config(), k, mix, 1)
                .run(10_000)
                .refresh_work_fraction
        };
        let base = get(RefreshPolicyKind::Uniform64);
        let raidr = get(RefreshPolicyKind::Raidr);
        let dcref = get(RefreshPolicyKind::DcRef);
        assert_eq!(base, 1.0);
        assert!((raidr - 0.373).abs() < 1e-6);
        assert!(dcref < raidr);
    }

    #[test]
    fn alone_ipc_is_positive_and_sane() {
        let app = parbor_workloads::AppProfile::spec2006()
            .into_iter()
            .find(|a| a.name == "hmmer")
            .unwrap();
        let ipc = Simulation::alone_ipc(
            SystemConfig::paper(),
            RefreshPolicyKind::Uniform64,
            &app,
            7,
            100_000,
        );
        assert!(ipc > 0.5 && ipc <= 3.0, "ipc = {ipc}");
    }

    #[test]
    fn llc_filters_memory_traffic() {
        // A reuse-friendly working set (1 MiB) inside a 2 MiB LLC slice:
        // once warm, most accesses hit and never reach DRAM. Compare DRAM
        // reads *per retired instruction* so core speed doesn't confound.
        let app = parbor_workloads::AppProfile {
            name: "reuse-heavy",
            mpki: 40.0,
            row_locality: 0.5,
            footprint_mib: 1,
            write_frac: 0.2,
            wc_match_prob: 0.1,
        };
        let mix = WorkloadMix {
            id: 0,
            apps: vec![app; 4],
        };
        let cycles = 800_000; // long enough to get past compulsory misses
        let no_llc =
            Simulation::new(quick_config(), RefreshPolicyKind::NoRefresh, &mix, 1).run(cycles);
        let with_llc = Simulation::new(
            SystemConfig {
                llc: Some(LlcConfig {
                    size_kib: 2048,
                    ways: 16,
                }),
                ..quick_config()
            },
            RefreshPolicyKind::NoRefresh,
            &mix,
            1,
        )
        .run(cycles);
        let rpi = |r: &SimReport| r.reads as f64 / r.total_instructions() as f64;
        assert!(
            rpi(&with_llc) * 3.0 < rpi(&no_llc),
            "LLC reads/inst {} vs raw {}",
            rpi(&with_llc),
            rpi(&no_llc)
        );
        assert!(with_llc.total_instructions() > no_llc.total_instructions());
    }

    #[test]
    fn llc_writebacks_reach_memory_as_writes() {
        let apps = parbor_workloads::AppProfile::spec2006();
        let lbm = apps.iter().find(|a| a.name == "lbm").unwrap().clone(); // write-heavy
        let mix = WorkloadMix {
            id: 0,
            apps: vec![lbm; 4],
        };
        let report = Simulation::new(
            SystemConfig {
                llc: Some(LlcConfig::paper()),
                ..quick_config()
            },
            RefreshPolicyKind::NoRefresh,
            &mix,
            2,
        )
        .run(150_000);
        assert!(report.writes > 0, "dirty evictions must reach DRAM");
    }

    #[test]
    fn memory_intensive_mixes_suffer_more_contention() {
        let apps = parbor_workloads::AppProfile::spec2006();
        let mcf = apps.iter().find(|a| a.name == "mcf").unwrap().clone();
        let sjeng = apps.iter().find(|a| a.name == "sjeng").unwrap().clone();
        let mk = |app: &parbor_workloads::AppProfile| WorkloadMix {
            id: 0,
            apps: vec![app.clone(); 4],
        };
        let heavy = Simulation::new(quick_config(), RefreshPolicyKind::Uniform64, &mk(&mcf), 1)
            .run(100_000);
        let light = Simulation::new(quick_config(), RefreshPolicyKind::Uniform64, &mk(&sjeng), 1)
            .run(100_000);
        let ipc = |r: &SimReport| r.ipcs().iter().sum::<f64>();
        assert!(ipc(&light) > ipc(&heavy));
    }
}
