//! `detect`: PARBOR over a seeded stream of simulated modules, closed loop
//! with one caller. Each module is built, scanned (`discover` → `locate` →
//! `chip_test`) through the timing port, flattened into a profile and put
//! into a profile store.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parbor_core::{FailureProfile, Parbor, ParborConfig, ParborReport, VictimScout};
use parbor_dram::{ChipGeometry, DramModule, ModuleSpec, Vendor};
use parbor_hal::MechanismSpec;
use parbor_obs::{metrics, RecorderHandle};
use parbor_store::ProfileStore;

use crate::port::{PortCounts, TimedPort};
use crate::rng::Rng;
use crate::stats;
use crate::trace::{CounterRecorder, Tracer};
use crate::{setup_s, timed_setup, Digest, Outcome, RunConfig, Scale, SETUPS_BEFORE};

/// Modules in one cycle of the spec stream (vendor, shape and mechanism
/// phases all repeat within it).
pub const CYCLE: usize = 12;

/// Allowed distance of `detect.closure_pct` from 100: the share of module
/// wall time that may sit in no layer or harness span.
pub const CLOSURE_TOLERANCE_PCT: f64 = 1.0;

/// One module of the spec stream.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the stream (module id).
    pub id: u64,
    /// What to build.
    pub spec: ModuleSpec,
    /// Shape and mechanism population.
    pub class: Class,
}

/// Shapes as `(chips, banks, rows per bank, columns)`.
#[derive(Debug, Clone, Copy)]
struct Shapes {
    paper: (usize, u32, u32, u32),
    tall: (usize, u32, u32, u32),
    hammer: (usize, u32, u32, u32),
    hammer_tall: (usize, u32, u32, u32),
}

fn shapes(scale: Scale) -> Shapes {
    match scale {
        // Paper shape: 8 chips × 128 rows × 8 Ki cells. Tall: the same cell
        // count in 1024 rows, twice the evaluation cache's 512 entries.
        // Hammer modules are small: the mechanism stack hashes every cell of
        // every written row each round (~7.6 s for a paper-shape module
        // against ~0.3 s without it), so a full-size hammer module would be
        // most of the workload. Four chips of eight rows still give the
        // recursion enough victims on every seed tried (0 failures in 450).
        Scale::Full => Shapes {
            paper: (8, 1, 128, 8192),
            tall: (8, 1, 1024, 1024),
            hammer: (4, 1, 8, 8192),
            hammer_tall: (1, 1, 544, 1024),
        },
        Scale::Tiny => Shapes {
            paper: (2, 1, 64, 8192),
            tall: (1, 1, 576, 1024),
            hammer: (4, 1, 8, 8192),
            hammer_tall: (1, 1, 528, 1024),
        },
    }
}

/// Cycle `cycle` of the seeded spec stream: vendors rotate A/B/C (shifted
/// by one every three modules, so the hammer phase visits every vendor),
/// every fourth module is tall, every third carries a hammer stack. The
/// seed draws the device and mechanism seeds, distinct in every cycle.
pub fn jobs(seed: u64, scale: Scale, cycle: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed ^ 0xDE7E_C700 ^ (cycle as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let shapes = shapes(scale);
    (0..CYCLE)
        .map(|index| {
            let vendor = [Vendor::A, Vendor::B, Vendor::C][(index + index / 3) % 3];
            let tall = index % 4 == 3;
            let hammer = index % 3 == 2;
            let (chips, banks, rows, cols) = match (tall, hammer) {
                (false, false) => shapes.paper,
                (true, false) => shapes.tall,
                (false, true) => shapes.hammer,
                (true, true) => shapes.hammer_tall,
            };
            let mut spec = ModuleSpec::new(vendor);
            spec.geometry = ChipGeometry::new(banks, rows, cols).expect("nonzero geometry");
            spec.chips = chips;
            spec.seed = rng.next_u64();
            spec.module_id = (cycle * CYCLE + index) as u32;
            let mech_seed = rng.next_u64();
            if hammer {
                spec.mechanisms = Some(vec![MechanismSpec::Hammer {
                    thresh: 50_000,
                    acts: 32_000,
                    rate: 1e-3,
                    dist: 1,
                    seed: mech_seed,
                }]);
            }
            Job {
                id: (cycle * CYCLE + index) as u64,
                spec,
                class: match (hammer, tall) {
                    (true, _) => Class::Hammer,
                    (false, true) => Class::Tall,
                    (false, false) => Class::Paper,
                },
            }
        })
        .collect()
}

/// Which population a module belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Paper shape, coupling only.
    Paper,
    /// Tall shape (more rows per chip than the evaluation cache holds),
    /// coupling only.
    Tall,
    /// Carries a RowHammer stack (either shape).
    Hammer,
}

/// One module's result.
#[derive(Debug, Clone)]
pub struct ModuleRun {
    /// Position in the stream.
    pub id: u64,
    /// Shape and mechanism class: paper, tall, or hammer.
    pub class: Class,
    /// Wall time of the whole module, seconds.
    pub wall_s: f64,
    /// Digest of the profile (distances, per-level tests, failing cells).
    pub digest: u64,
    /// Rounds run: discovery + recursion + chip-wide.
    pub rounds: usize,
    /// Distinct failing cells found.
    pub failures: usize,
    /// Final distances.
    pub distances: Vec<i64>,
    /// Port work.
    pub port: PortCounts,
    /// Evaluation-cache (hits, misses) during this module.
    pub eval_cache: (u64, u64),
}

fn profile_digest(p: &FailureProfile) -> u64 {
    let mut d = Digest::default();
    d.add(p.victim_count as u64);
    d.add(p.recursion_tests as u64);
    d.add(p.chipwide_rounds as u64);
    for &t in &p.tests_per_level {
        d.add(t as u64);
    }
    for &x in &p.distances {
        d.add(x as u64);
    }
    for c in &p.failures {
        d.add(u64::from(c.unit) << 32 | u64::from(c.bank));
        d.add(u64::from(c.row) << 32 | u64::from(c.col) << 1 | u64::from(c.value));
    }
    d.value()
}

fn run_module(
    job: &Job,
    store: &mut ProfileStore,
    tracer: &mut Tracer,
    counters: Option<&Arc<CounterRecorder>>,
) -> Result<ModuleRun, String> {
    let before = counters.map(|c| c.snapshot());
    let t0 = Instant::now();
    tracer.enter(MODULE_SPAN, job.id);
    let scanned = scan(job, store, tracer, counters);
    tracer.exit();
    let (profile, port) = scanned?;
    let wall_s = t0.elapsed().as_secs_f64();
    let eval_cache = match (before, counters) {
        (Some(b), Some(c)) => {
            let a = c.snapshot();
            (
                CounterRecorder::delta(&b, &a, metrics::dram::EVAL_CACHE_HITS),
                CounterRecorder::delta(&b, &a, metrics::dram::EVAL_CACHE_MISSES),
            )
        }
        _ => (0, 0),
    };
    Ok(ModuleRun {
        id: job.id,
        class: job.class,
        wall_s,
        digest: profile_digest(&profile),
        rounds: profile.total_rounds(),
        failures: profile.failure_count(),
        distances: profile.distances.clone(),
        port,
        eval_cache,
    })
}

/// Build → discover → locate → chip_test → profile → put → drop, each call
/// in its own span, and the harness's own wiring in `harness.prepare`, so
/// the module span keeps no work of its own; every span closes before an
/// error returns.
fn scan(
    job: &Job,
    store: &mut ProfileStore,
    tracer: &mut Tracer,
    counters: Option<&Arc<CounterRecorder>>,
) -> Result<(FailureProfile, PortCounts), String> {
    let id = job.id;
    tracer.enter("dram.build", id);
    let module = job.spec.build();
    tracer.exit();
    let mut module = module.map_err(|e| format!("module {}: build: {e}", job.id))?;
    tracer.enter("harness.prepare", id);
    let config = ParborConfig::default();
    let mut parbor = Parbor::new(config.clone());
    if let Some(c) = counters {
        let rec = RecorderHandle::from(Arc::clone(c));
        module.set_recorder(rec.clone());
        parbor = parbor.with_recorder(rec);
    }
    let name = module.name();
    tracer.exit();
    let scanned = stages(job, &config, &parbor, &mut module, &name, store, tracer);
    tracer.enter("dram.drop", id);
    drop(module);
    tracer.exit();
    scanned
}

/// The three PARBOR stages through the timing port, then the profile and
/// the put.
fn stages(
    job: &Job,
    config: &ParborConfig,
    parbor: &Parbor,
    module: &mut DramModule,
    name: &str,
    store: &mut ProfileStore,
    tracer: &mut Tracer,
) -> Result<(FailureProfile, PortCounts), String> {
    let id = job.id;
    let mut port = TimedPort::new(module, tracer, id);
    port.tracer.enter("parbor.discover", id);
    let victims = parbor.discover(&mut port);
    port.tracer.exit();
    let victims = victims.map_err(|e| format!("module {name}: discover: {e}"))?;
    if victims.is_empty() {
        return Err(format!("module {name}: discovery found no victims"));
    }
    port.tracer.enter("parbor.locate", id);
    let recursion = parbor.locate(&mut port, &victims);
    port.tracer.exit();
    let recursion = recursion.map_err(|e| format!("module {name}: locate: {e}"))?;
    port.tracer.enter("parbor.chip_test", id);
    let chipwide = parbor.chip_test(&mut port, &recursion.distances);
    port.tracer.exit();
    let chipwide = chipwide.map_err(|e| format!("module {name}: chip_test: {e}"))?;
    let counts = port.counts;

    tracer.enter("parbor.profile", id);
    let report = ParborReport {
        victim_count: victims.len(),
        discovery_rounds: VictimScout::new(config.discovery_seed).rounds(),
        recursion,
        chipwide,
    };
    let profile = FailureProfile::from_report(&report);
    drop((report, victims));
    tracer.exit();

    tracer.enter("store.put", id);
    let put = store.put(name, &profile);
    tracer.exit();
    put.map_err(|e| format!("module {name}: put: {e}"))?;
    Ok((profile, counts))
}

/// Cycles a phase runs at least: four give 48 module samples, enough for
/// a tail with ten samples beyond it.
const MIN_CYCLES: usize = 4;

/// What a phase measured.
struct Phase {
    runs: Vec<ModuleRun>,
    cycle_walls: Vec<f64>,
}

/// Runs whole cycles of distinct modules, from cycle 0, until the next
/// cycle would end past `budget_s` (at least `min_cycles`); every module is
/// checked, and a module seen before must reproduce its digest.
#[allow(clippy::too_many_arguments)]
fn phase(
    cfg: &RunConfig,
    store: &mut ProfileStore,
    tracer: &mut Tracer,
    counters: Option<&Arc<CounterRecorder>>,
    budget_s: f64,
    min_cycles: usize,
    digests: &mut BTreeMap<u64, u64>,
    out: &mut Outcome,
) -> Phase {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut cycle_walls = Vec::new();
    let mut last = 0.0;
    for cycle in 0.. {
        if cycle >= min_cycles && start.elapsed().as_secs_f64() + last > budget_s {
            break;
        }
        let jobs = jobs(cfg.seed, cfg.scale, cycle);
        let t0 = Instant::now();
        for job in &jobs {
            match run_module(job, store, tracer, counters) {
                Ok(run) => {
                    check(job, &run, digests, out);
                    runs.push(run);
                }
                Err(e) => out.op(false, || e),
            }
        }
        last = t0.elapsed().as_secs_f64();
        cycle_walls.push(last);
    }
    Phase { runs, cycle_walls }
}

/// Distances must equal the paper's on coupling-only modules; a module
/// scanned before must reproduce its report digest.
fn check(job: &Job, run: &ModuleRun, digests: &mut BTreeMap<u64, u64>, out: &mut Outcome) {
    let expected = job.spec.vendor.paper_distances();
    out.op(
        job.class == Class::Hammer || run.distances == expected,
        || {
            format!(
                "module {}: distances {:?}, paper {:?}",
                job.id, run.distances, expected
            )
        },
    );
    let first = *digests.entry(job.id).or_insert(run.digest);
    if first != run.digest {
        out.fail(format!(
            "module {}: report digest {:016x} differs from {:016x} earlier",
            job.id, run.digest, first
        ));
    }
}

/// Runs the `detect` workload.
///
/// # Errors
///
/// Store set-up failures.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = cfg.out_dir.join("detect-store");
    let (setups, mut store) = timed_setup(SETUPS_BEFORE, || setup(&dir))?;

    let mut digests = BTreeMap::new();
    let mut quiet = Tracer::new(false);
    let (budget, min_cycles) = if cfg.trace {
        (cfg.seconds / 2.0, MIN_CYCLES / 2)
    } else {
        (cfg.seconds, MIN_CYCLES)
    };
    let untraced = phase(
        cfg,
        &mut store,
        &mut quiet,
        None,
        budget,
        min_cycles,
        &mut digests,
        &mut out,
    );
    let runs = &untraced.runs;
    if runs.is_empty() {
        return Ok(out);
    }
    let walls_us: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e6).collect();
    let sorted = stats::sorted(&walls_us);
    let tail = stats::tail(&sorted);
    let cycle_s = stats::median(&untraced.cycle_walls);
    out.e2e.insert("work_per_s", CYCLE as f64 / cycle_s);
    out.e2e.insert("op_us_p50", stats::quantile(&sorted, 0.5));
    out.e2e.insert("op_us_tail", tail.value);

    // Sim figures come from the first cycle, so they repeat exactly.
    let first = &runs[..CYCLE.min(runs.len())];
    let tests = first.iter().map(|r| r.rounds as f64).sum::<f64>() / first.len() as f64;
    let found = first.iter().map(|r| r.failures as f64).sum::<f64>() / first.len() as f64;
    let mut digest = Digest::default();
    for r in first {
        digest.add(r.digest);
    }
    out.notes.push(format!(
        "detect: {} modules in {} cycles of {CYCLE}, median cycle {cycle_s:.2} s; module p50 {:.1} ms, tail {:.1} ms ({tail})",
        runs.len(),
        untraced.cycle_walls.len(),
        stats::quantile(&sorted, 0.5) / 1e3,
        tail.value / 1e3,
    ));
    out.notes.push(format!(
        "detect: first-cycle module ms by position: {:?}",
        first
            .iter()
            .map(|r| (r.wall_s * 1e3).round())
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "detect: sim per module (first cycle): {tests:.2} rounds, {found:.1} failures; report digest {:016x}",
        digest.value()
    ));

    if cfg.trace {
        let counters = Arc::new(CounterRecorder::default());
        let mut tracer = Tracer::new(true);
        let traced = phase(
            cfg,
            &mut store,
            &mut tracer,
            Some(&counters),
            cfg.seconds / 2.0,
            MIN_CYCLES / 2,
            &mut digests,
            &mut out,
        );
        ledger(&mut out, runs, &traced.runs, &tracer, &counters);
        out.layers.insert("detect.tests_per_module", tests);
        out.layers.insert("detect.failures_found", found);
        let path = cfg.out_dir.join("trace-detect.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    } else {
        // The first module again, outside the measured loop: its report
        // must repeat bit for bit.
        let job = &jobs(cfg.seed, cfg.scale, 0)[0];
        match run_module(job, &mut store, &mut quiet, None) {
            Ok(run) => check(job, &run, &mut digests, &mut out),
            Err(e) => out.op(false, || e),
        }
    }
    drop(store);
    out.e2e.insert("setup_s", setup_s(&setups, || setup(&dir))?);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

/// Set-up: a fresh store and one small warm-up scan, so allocator growth
/// and thread start-up are paid before timing.
fn setup(dir: &Path) -> Result<ProfileStore, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = ProfileStore::open(dir).map_err(|e| format!("store open: {e}"))?;
    let mut warm = ModuleSpec::new(Vendor::A);
    warm.geometry = ChipGeometry::new(1, 64, 8192).expect("nonzero geometry");
    warm.chips = 2;
    let mut module = warm.build().map_err(|e| format!("warm-up build: {e}"))?;
    Parbor::new(ParborConfig::default())
        .run(&mut module)
        .map_err(|e| format!("warm-up scan: {e}"))?;
    Ok(store)
}

/// The module span: its self time is work no layer or harness span covers.
const MODULE_SPAN: &str = "detect.module";

/// Share of the separately timed module wall time `wall_ns` that the self
/// times of the layer and harness spans account for, in percent. Every
/// such span nests inside a module span, so the share is at most 100; work
/// left outside any of them (an unwrapped call) lowers it.
pub fn closure_pct(tracer: &Tracer, wall_ns: f64) -> f64 {
    let attributed: u64 = tracer
        .all_totals()
        .iter()
        .filter(|(name, _)| **name != MODULE_SPAN)
        .map(|(_, t)| t.self_ns)
        .sum();
    100.0 * attributed as f64 / wall_ns
}

/// Whether a closure share is within [`CLOSURE_TOLERANCE_PCT`] of 100.
pub fn closes(closure_pct: f64) -> bool {
    (closure_pct - 100.0).abs() <= CLOSURE_TOLERANCE_PCT
}

fn per_module(t: crate::trace::Totals, modules: f64) -> f64 {
    t.total_ns as f64 / modules / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer ledger of the traced phase.
fn ledger(
    out: &mut Outcome,
    untraced: &[ModuleRun],
    traced: &[ModuleRun],
    tracer: &Tracer,
    counters: &CounterRecorder,
) {
    let n = traced.len() as f64;
    let stages = ["parbor.discover", "parbor.locate", "parbor.chip_test"];
    for (stage, metric) in stages.iter().zip([
        "parbor.discover_ms",
        "parbor.locate_ms",
        "parbor.chip_test_ms",
    ]) {
        out.layers
            .insert(metric, per_module(tracer.totals(stage), n));
    }
    let parbor_self_ns: u64 = stages
        .iter()
        .chain(["parbor.profile"].iter())
        .map(|s| tracer.totals(s).self_ns)
        .sum();
    out.layers
        .insert("parbor.self_ms", parbor_self_ns as f64 / n / 1e6);
    let port = tracer.totals("dram.port");
    let rounds: u64 = traced.iter().map(|r| r.port.rounds).sum();
    out.layers.insert("dram.port_ms", per_module(port, n));
    out.layers
        .insert("dram.port_us_per_round", ratio(port.total_ns, rounds) / 1e3);
    out.layers.insert("dram.rounds", rounds as f64 / n);
    out.layers.insert(
        "dram.rows_written",
        traced.iter().map(|r| r.port.rows_written).sum::<u64>() as f64 / n,
    );
    out.layers.insert(
        "dram.flips",
        traced.iter().map(|r| r.port.flips).sum::<u64>() as f64 / n,
    );
    out.layers
        .insert("dram.build_ms", per_module(tracer.totals("dram.build"), n));
    let put = tracer.totals("store.put");
    out.layers
        .insert("store.put_us", ratio(put.total_ns, put.count) / 1e3);

    let c = |name| counters.get(name);
    out.layers.insert(
        "parbor.victims_discarded_ratio",
        ratio(
            c(metrics::recursion::VICTIMS_DISCARDED),
            c(metrics::discover::VICTIMS),
        ),
    );
    let kept = c(metrics::aggregate::DISTANCES_KEPT);
    let dropped = c(metrics::aggregate::DISTANCES_DROPPED);
    out.layers.insert(
        "parbor.distances_dropped_ratio",
        ratio(dropped, kept + dropped),
    );
    let hit_ratio = |class: Class| {
        let (h, m) = traced
            .iter()
            .filter(|r| r.class == class)
            .fold((0, 0), |(h, m), r| (h + r.eval_cache.0, m + r.eval_cache.1));
        ratio(h, h + m)
    };
    out.layers
        .insert("dram.eval_cache_hit_ratio.paper", hit_ratio(Class::Paper));
    out.layers
        .insert("dram.eval_cache_hit_ratio.tall", hit_ratio(Class::Tall));
    let (ah, am) = (
        c(metrics::engine::ARENA_HITS),
        c(metrics::engine::ARENA_MISSES),
    );
    out.layers.insert("hal.arena_hit_ratio", ratio(ah, ah + am));

    let wall_ns: f64 = traced.iter().map(|r| r.wall_s * 1e9).sum();
    let closure = closure_pct(tracer, wall_ns);
    out.layers.insert("detect.closure_pct", closure);
    let harness_ns: u64 = tracer
        .all_totals()
        .iter()
        .filter(|(name, _)| name.starts_with("harness."))
        .map(|(_, t)| t.self_ns)
        .sum();
    out.layers
        .insert("detect.harness_ms", harness_ns as f64 / n / 1e6);
    if !closes(closure) {
        out.fail(format!(
            "closure {closure:.3} %: more than {CLOSURE_TOLERANCE_PCT} % of module wall time is in no layer or harness span"
        ));
    }

    // Tracing overhead: traced against untraced wall time over the modules
    // both phases scanned.
    let by_id: BTreeMap<u64, f64> = untraced.iter().map(|r| (r.id, r.wall_s)).collect();
    let (mut sa, mut sb) = (0.0, 0.0);
    for r in traced {
        if let Some(ta) = by_id.get(&r.id) {
            sa += ta;
            sb += r.wall_s;
        }
    }
    out.layers
        .insert("trace.overhead_pct", 100.0 * (sb / sa - 1.0));
    out.notes.push(format!(
        "detect ledger: closure {closure:.3} % (tolerance ±{CLOSURE_TOLERANCE_PCT} %), {} traced modules",
        traced.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A module span around `work`; returns the closure share.
    fn closure_of(work: impl FnOnce(&mut Tracer)) -> f64 {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        tracer.enter(MODULE_SPAN, 0);
        work(&mut tracer);
        tracer.exit();
        closure_pct(&tracer, t0.elapsed().as_nanos() as f64)
    }

    fn busy(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn wrapped_layer_calls_close() {
        let closure = closure_of(|t| {
            for name in ["dram.build", "parbor.discover", "store.put"] {
                t.enter(name, 0);
                busy(10);
                t.exit();
            }
        });
        assert!(closes(closure), "closure {closure}");
    }

    #[test]
    fn an_unwrapped_layer_call_fails_the_closure() {
        let closure = closure_of(|t| {
            t.enter("parbor.discover", 0);
            busy(10);
            t.exit();
            busy(10); // a layer call with no span
            t.enter("store.put", 0);
            busy(10);
            t.exit();
        });
        assert!(!closes(closure), "closure {closure}");
        assert!(closure < 100.0 - CLOSURE_TOLERANCE_PCT);
    }
}
