//! `memsim`: the paper's Table 2 system at 8 and 32 Gbit under Uniform64,
//! RAIDR and DC-REF on seeded 8-core mixes, with the alone-IPC runs that
//! weighted speedup divides by. One pass is a fixed set of simulations;
//! passes repeat until the time is up and must reproduce the first pass
//! exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use parbor_memsim::{
    weighted_speedup, Density, RefreshPolicyKind, SimReport, Simulation, SystemConfig,
};
use parbor_workloads::{AppProfile, WorkloadMix};

use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{setup_s, timed_setup, Outcome, RunConfig, Scale, SETUPS_BEFORE};

/// The paper's DC-REF figures at 32 Gbit (DSN 2016, §6.3 / Fig. 16).
pub mod paper {
    /// Refresh operations relative to uniform 64 ms refresh (−73 %).
    pub const DCREF_REFRESH_WORK: f64 = 0.27;
    /// Weighted-speedup gain over the uniform baseline (+18 %).
    pub const DCREF_WS_GAIN_OVER_UNIFORM: f64 = 1.18;
    /// Weighted-speedup gain over RAIDR (+3 %).
    pub const DCREF_WS_GAIN_OVER_RAIDR: f64 = 1.03;
}

const POLICIES: [RefreshPolicyKind; 3] = [
    RefreshPolicyKind::Uniform64,
    RefreshPolicyKind::Raidr,
    RefreshPolicyKind::DcRef,
];

/// Span per policy, and the per-layer metric of its mean run time.
const RUN_SPANS: [(&str, &str); 3] = [
    ("memsim.run.uniform", "memsim.run_ms.uniform"),
    ("memsim.run.raidr", "memsim.run_ms.raidr"),
    ("memsim.run.dcref", "memsim.run_ms.dcref"),
];

/// Per-policy simulated statistics at 32 Gbit, in [`SimFigures::per_policy`]
/// order: row-hit rate, mean read latency, refresh busy cycles, hot rows.
const PER_POLICY: [[&str; 4]; 3] = [
    [
        "memsim.row_hit_rate.uniform",
        "memsim.avg_read_latency_cycles.uniform",
        "memsim.refresh_busy_cycles.uniform",
        "memsim.hot_row_fraction.uniform",
    ],
    [
        "memsim.row_hit_rate.raidr",
        "memsim.avg_read_latency_cycles.raidr",
        "memsim.refresh_busy_cycles.raidr",
        "memsim.hot_row_fraction.raidr",
    ],
    [
        "memsim.row_hit_rate.dcref",
        "memsim.avg_read_latency_cycles.dcref",
        "memsim.refresh_busy_cycles.dcref",
        "memsim.hot_row_fraction.dcref",
    ],
];

const DENSITIES: [Density; 2] = [Density::Gb8, Density::Gb32];

#[derive(Debug, Clone, Copy)]
struct Shape {
    mixes: usize,
    cycles: u64,
    alone_cycles: u64,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            mixes: 4,
            cycles: 150_000,
            alone_cycles: 150_000,
        },
        Scale::Tiny => Shape {
            mixes: 1,
            cycles: 10_000,
            alone_cycles: 10_000,
        },
    }
}

/// The seeded mixes: eight applications each from the SPEC CPU2006
/// profile table, balanced by memory intensity. The table is sorted by
/// MPKI and cut into eight tiers of two (the last, lightest tier takes the
/// remainder); mix `m` takes member `(m + offset) % size` of every tier,
/// with a seeded offset per tier, then a seeded core order. Every seed
/// thus simulates nearly the same multiset of applications.
fn mixes(seed: u64, shape: Shape) -> Vec<WorkloadMix> {
    let mut apps = AppProfile::spec2006();
    apps.sort_by(|a, b| b.mpki.total_cmp(&a.mpki));
    let tiers: Vec<Vec<AppProfile>> = (0..8)
        .map(|t| {
            let end = if t == 7 { apps.len() } else { 2 * t + 2 };
            apps[2 * t..end].to_vec()
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x3E35_1300);
    let offsets: Vec<usize> = tiers
        .iter()
        .map(|t| rng.below(t.len() as u64) as usize)
        .collect();
    (0..shape.mixes)
        .map(|m| {
            let picked: Vec<AppProfile> = tiers
                .iter()
                .zip(&offsets)
                .map(|(tier, off)| tier[(m + off) % tier.len()].clone())
                .collect();
            WorkloadMix {
                id: m as u32,
                apps: crate::store::permutation(&mut rng, picked.len())
                    .into_iter()
                    .map(|i| picked[i].clone())
                    .collect(),
            }
        })
        .collect()
}

fn config(density: Density) -> SystemConfig {
    SystemConfig {
        density,
        ..SystemConfig::paper()
    }
}

/// Alone IPC per (density, app), on the uniform baseline.
type AloneTable = BTreeMap<(usize, &'static str), f64>;

/// Alone IPCs of every application in the table (not only those the mixes
/// drew), so set-up does the same work for every seed.
fn alone_table(shape: Shape, seed: u64) -> AloneTable {
    let mut table = AloneTable::new();
    for (d, &density) in DENSITIES.iter().enumerate() {
        for app in AppProfile::spec2006() {
            let ipc = Simulation::alone_ipc(
                config(density),
                RefreshPolicyKind::Uniform64,
                &app,
                seed ^ 0xA10E,
                shape.alone_cycles,
            );
            table.insert((d, app.name), ipc);
        }
    }
    table
}

/// One simulation's result and host time.
struct Run {
    density: usize,
    mix: usize,
    policy: usize,
    report: SimReport,
    wall_s: f64,
}

fn pass(
    mixes: &[WorkloadMix],
    shape: Shape,
    seed: u64,
    tracer: &mut Tracer,
    pass_no: u64,
) -> Vec<Run> {
    let mut runs = Vec::new();
    for (d, &density) in DENSITIES.iter().enumerate() {
        for (m, mix) in mixes.iter().enumerate() {
            for (p, &policy) in POLICIES.iter().enumerate() {
                let t0 = Instant::now();
                tracer.enter(RUN_SPANS[p].0, pass_no);
                let report = Simulation::new(
                    config(density),
                    policy,
                    mix,
                    seed ^ 0xF16 ^ u64::from(mix.id),
                )
                .run(shape.cycles);
                tracer.exit();
                runs.push(Run {
                    density: d,
                    mix: m,
                    policy: p,
                    report,
                    wall_s: t0.elapsed().as_secs_f64(),
                });
            }
        }
    }
    runs
}

/// The deterministic figures of one pass.
#[derive(Debug, Clone, PartialEq)]
struct SimFigures {
    /// Weighted speedup summed over mixes, per (density, policy).
    ws: [[f64; 3]; 2],
    /// Mean refresh work (fraction of uniform), per (density, policy).
    refresh_work: [[f64; 3]; 2],
    /// Per-policy means at 32 Gbit: row-hit rate, read latency (cycles),
    /// refresh busy cycles, hot-row fraction.
    per_policy: [[f64; 4]; 3],
    digest: u64,
}

fn figures(runs: &[Run], mixes: &[WorkloadMix], alone: &AloneTable) -> SimFigures {
    let mut f = SimFigures {
        ws: [[0.0; 3]; 2],
        refresh_work: [[0.0; 3]; 2],
        per_policy: [[0.0; 4]; 3],
        digest: 0,
    };
    let mut digest = crate::Digest::default();
    let n = mixes.len() as f64;
    for run in runs {
        let r = &run.report;
        let alone_ipcs: Vec<f64> = mixes[run.mix].apps[..8]
            .iter()
            .map(|a| alone[&(run.density, a.name)])
            .collect();
        f.ws[run.density][run.policy] += weighted_speedup(&r.ipcs(), &alone_ipcs);
        f.refresh_work[run.density][run.policy] += r.refresh_work_fraction / n;
        if run.density == 1 {
            let pp = &mut f.per_policy[run.policy];
            pp[0] += r.row_hit_rate() / n;
            pp[1] += r.avg_read_latency / n;
            pp[2] += r.refresh_busy_cycles as f64 / n;
            pp[3] += r.hot_row_fraction / n;
        }
        for v in [r.reads, r.writes, r.row_hits, r.refresh_busy_cycles] {
            digest.add(v);
        }
        digest.add(r.total_instructions());
    }
    f.digest = digest.value();
    f
}

/// Runs the `memsim` workload.
///
/// # Errors
///
/// Never fails at set-up; the signature matches the other workloads.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = shape(cfg.scale);
    let mixes = mixes(cfg.seed, shape);
    let set_up = || Ok(alone_table(shape, cfg.seed));
    let (setups, alone) = timed_setup(SETUPS_BEFORE, set_up)?;
    let alone_runs = alone.len();

    let mut quiet = Tracer::new(false);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (runs, first, rates) = phase(&mixes, shape, cfg, budget, &alone, &mut quiet, &mut out);
    let host_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    let mut walls: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e6).collect();
    walls.sort_by(f64::total_cmp);
    let tail = stats::tail(&walls);
    let cycles_per_s = stats::median(&rates);
    let passes = runs.len() / (DENSITIES.len() * POLICIES.len() * mixes.len());
    out.e2e.insert("work_per_s", cycles_per_s);
    out.e2e.insert("op_us_p50", stats::quantile(&walls, 0.5));
    out.e2e.insert("op_us_tail", tail.value);

    let ws_gain = first.ws[1][2] / first.ws[1][1];
    let ws_over_uniform = first.ws[1][2] / first.ws[1][0];
    let work = first.refresh_work[1][2];
    out.notes.push(format!(
        "memsim: {} simulations of {} memory cycles in {passes} passes, {host_s:.2} s ({} alone runs in set-up); run p50 {:.1} ms, tail {:.1} ms ({tail})",
        runs.len(),
        shape.cycles,
        alone_runs,
        stats::quantile(&walls, 0.5) / 1e3,
        tail.value / 1e3,
    ));
    out.notes.push(format!(
        "memsim @32 Gbit, simulated (model not validated against hardware): DC-REF refresh work {:.3} of uniform vs paper {:.2} (error {:+.3}); DC-REF WS over RAIDR {ws_gain:.4}x vs paper {:.2}x (error {:+.4}); over uniform {ws_over_uniform:.4}x vs paper {:.2}x (error {:+.4})",
        work,
        paper::DCREF_REFRESH_WORK,
        work - paper::DCREF_REFRESH_WORK,
        paper::DCREF_WS_GAIN_OVER_RAIDR,
        ws_gain - paper::DCREF_WS_GAIN_OVER_RAIDR,
        paper::DCREF_WS_GAIN_OVER_UNIFORM,
        ws_over_uniform - paper::DCREF_WS_GAIN_OVER_UNIFORM,
    ));
    out.notes
        .push(format!("memsim: sim digest {:016x}", first.digest));

    if cfg.trace {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        alone_table(shape, cfg.seed);
        let alone_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (traced, _, traced_rates) = phase(
            &mixes,
            shape,
            cfg,
            cfg.seconds / 2.0,
            &alone,
            &mut tracer,
            &mut out,
        );
        let traced_s: f64 = traced.iter().map(|r| r.wall_s).sum();
        let l = &mut out.layers;
        for (span, metric) in RUN_SPANS {
            let t = tracer.totals(span);
            l.insert(metric, t.total_ns as f64 / t.count.max(1) as f64 / 1e6);
        }
        l.insert("memsim.alone_ms", alone_ms);
        let requests: u64 = traced
            .iter()
            .map(|r| r.report.reads + r.report.writes)
            .sum();
        l.insert("memsim.ns_per_request", traced_s * 1e9 / requests as f64);
        l.insert(
            "trace.overhead_pct",
            100.0 * (cycles_per_s / stats::median(&traced_rates) - 1.0),
        );
        for (names, values) in PER_POLICY.iter().zip(&first.per_policy) {
            for (name, value) in names.iter().zip(values) {
                l.insert(name, *value);
            }
        }
        l.insert("memsim.dcref_ws_gain", ws_gain);
        l.insert("memsim.dcref_refresh_work", work);
        let path = cfg.out_dir.join("trace-memsim.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.e2e.insert("setup_s", setup_s(&setups, set_up)?);
    Ok(out)
}

/// Runs passes until `budget_s` has passed (at least one); checks the
/// refresh-work ordering and that every pass repeats the first exactly.
/// Returns every run, the first pass's figures, and each simulation's
/// simulated memory cycles per host second.
fn phase(
    mixes: &[WorkloadMix],
    shape: Shape,
    cfg: &RunConfig,
    budget_s: f64,
    alone: &AloneTable,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<Run>, SimFigures, Vec<f64>) {
    let start = Instant::now();
    let mut all = Vec::new();
    let mut first: Option<SimFigures> = None;
    let mut pass_no = 0;
    let mut rates = Vec::new();
    while first.is_none() || start.elapsed().as_secs_f64() < budget_s {
        let runs = pass(mixes, shape, cfg.seed, tracer, pass_no);
        pass_no += 1;
        rates.extend(runs.iter().map(|r| r.report.mem_cycles as f64 / r.wall_s));
        let figs = figures(&runs, mixes, alone);
        for (d, work) in figs.refresh_work.iter().enumerate() {
            out.op(work[2] < work[1] && work[1] < work[0], || {
                format!(
                    "density {d}: refresh work DC-REF {:.3}, RAIDR {:.3}, uniform {:.3} out of order",
                    work[2], work[1], work[0]
                )
            });
        }
        match &first {
            None => first = Some(figs),
            Some(f) => out.op(*f == figs, || {
                format!("pass {pass_no} does not repeat the first pass's simulated results")
            }),
        }
        all.extend(runs);
    }
    (all, first.expect("at least one pass"), rates)
}
