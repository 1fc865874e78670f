//! `parbor` — command-line front end to the reproduction.
//!
//! ```text
//! parbor detect  [--vendor A|B|C] [--seed N] [--rows N] [--chips N]
//! parbor efficacy [--vendors A,B,C] [--mechanisms SPEC] [--out FILE]
//! parbor census  [--vendor A|B|C] [--seed N] [--rows N]
//! parbor compare [--vendor A|B|C] [--seed N] [--rows N]
//! parbor profile [--vendor A|B|C] [--seed N] [--rows N] [--base-interval S]
//! parbor dcref   [--cycles N] [--mixes N] [--density 8|16|32]
//! parbor fleet   <run|resume|status|show|top> [--dir D] [--flag value]...
//! parbor store   <stats|compact|aggregate> [--dir D] [--flag value]...
//! parbor transcript dump PATH
//! parbor serve   [--store D] [--workers N] [--engine inline|threads]
//!                [--mode open|closed] [--rate R] [--inflight N] [--seconds S]
//! parbor obs     report [--trace F] [--out F]
//! ```
//!
//! `detect` and `fleet run`/`fleet resume` accept `--backend
//! sim|replay:<path>` and `--record <path>` to swap or decorate the
//! test-port backend, and `--mechanisms SPEC` to compose extra failure
//! mechanisms (including `inject=rate:<p>,seed:<s>` random noise) into the
//! simulated device.
//! Every subcommand defaults to the simulated devices; see the fig*/table*
//! binaries for the exact paper reproductions.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use parbor_core::{random_pattern_test, run_efficacy, EfficacyConfig, Parbor, ParborConfig};
use parbor_dram::{
    CellCensus, Celsius, ChipGeometry, ModuleConfig, ModuleId, ModuleSpec, RetentionProfiler,
    RowId, Seconds, Vendor,
};
use parbor_fleet::{Fleet, FleetConfig, ProfileStore, ScanJob, CRASH_EXIT_CODE};
use parbor_hal::{MechanismSpec, RecordingPort, ReplayPort, TestPort};
use parbor_memsim::{Density, RefreshPolicyKind, Simulation, SystemConfig};
use parbor_obs::{
    folded_stacks, metrics, trace, FleetStatus, Profile, RecorderHandle, RunSummary,
    ShardedRecorder, Trace,
};
use parbor_store::CompactPhase;
use parbor_workloads::paper_mixes;

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag}"))?;
            if name == "inject" {
                return Err(
                    "--inject was removed; use --mechanisms inject=rate:P,seed:S[,intermittent:Q]"
                        .into(),
                );
            }
            if name == "parallel" || name == "kernel" {
                return Err(format!(
                    "--{name} was removed; the simulator always runs its shipped defaults"
                ));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn vendor(&self) -> Result<Vendor, String> {
        match self.flags.get("vendor").map(String::as_str) {
            None | Some("A") | Some("a") => Ok(Vendor::A),
            Some("B") | Some("b") => Ok(Vendor::B),
            Some("C") | Some("c") => Ok(Vendor::C),
            Some(other) => Err(format!("unknown vendor {other} (use A, B, or C)")),
        }
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
        }
    }

    fn u64_opt(&self, name: &str) -> Result<Option<u64>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} must be a number")),
        }
    }

    /// The `--backend` selection. A replay backend re-serves recorded
    /// flips with no device behind it, so `--mechanisms` (which only the
    /// simulated device applies) is rejected alongside it rather than
    /// silently ignored.
    fn backend(&self) -> Result<Backend, String> {
        let backend = match self.flags.get("backend").map(String::as_str) {
            None | Some("sim") => Backend::Sim,
            Some(v) => match v.strip_prefix("replay:") {
                Some(path) if !path.is_empty() => Backend::Replay(PathBuf::from(path)),
                _ => return Err(format!("unknown backend {v} (use sim or replay:<path>)")),
            },
        };
        if matches!(backend, Backend::Replay(_)) && self.flags.contains_key("mechanisms") {
            return Err(
                "--mechanisms cannot be combined with --backend replay: (a transcript \
                 replays recorded flips; record the run with --mechanisms instead)"
                    .into(),
            );
        }
        Ok(backend)
    }

    /// The `--mechanisms` stack (`hammer=thresh:50k,seed:7;press;drift`),
    /// empty when the flag is absent.
    fn mechanisms(&self) -> Result<Vec<MechanismSpec>, String> {
        match self.flags.get("mechanisms") {
            None => Ok(Vec::new()),
            Some(spec) => MechanismSpec::parse_stack(spec).map_err(|e| e.to_string()),
        }
    }
}

/// Which [`TestPort`] implementation backs a run.
enum Backend {
    /// The deterministic DRAM simulator (the default).
    Sim,
    /// A recorded transcript — a file for `detect`, a directory of
    /// `<job>.pbt` transcripts for `fleet`.
    Replay(PathBuf),
}

fn build(args: &Args, default_chips: u64) -> Result<parbor_dram::DramModule, String> {
    let rows = args.u64_or("rows", 128)?;
    ModuleConfig::new(args.vendor()?)
        .geometry(ChipGeometry::new(1, rows as u32, 8192).map_err(|e| e.to_string())?)
        .chips(args.u64_or("chips", default_chips)? as usize)
        .seed(args.u64_or("seed", 1)?)
        .module_id(ModuleId(1))
        .mechanisms(args.mechanisms()?)
        .build()
        .map_err(|e| e.to_string())
}

/// Builds the backend selected by `--backend`, wrapped in a recorder when
/// `--record` is given.
fn build_port(args: &Args, default_chips: u64) -> Result<Box<dyn TestPort>, String> {
    let mut port: Box<dyn TestPort> = match args.backend()? {
        Backend::Sim => Box::new(build(args, default_chips)?),
        Backend::Replay(path) => Box::new(ReplayPort::open(path).map_err(|e| e.to_string())?),
    };
    if let Some(path) = args.flags.get("record") {
        port = Box::new(RecordingPort::create(port, path).map_err(|e| e.to_string())?);
    }
    Ok(port)
}

fn cmd_detect(args: &Args) -> Result<(), String> {
    let vendor = args.vendor()?;
    let recorder = ShardedRecorder::handle();
    let rec = RecorderHandle::from(recorder.clone());
    let mut port = build_port(args, 8)?;
    port.set_recorder(rec.clone());
    let report = Parbor::new(ParborConfig::default())
        .with_recorder(rec)
        .run(&mut *port)
        .map_err(|e| e.to_string())?;
    println!("vendor           : {vendor}");
    println!("victims          : {}", report.victim_count);
    println!("distances        : {:?}", report.distances());
    println!(
        "tests per level  : {:?}",
        report.recursion.tests_per_level()
    );
    println!("chip-wide rounds : {}", report.chipwide.rounds);
    println!("failures found   : {}", report.failure_count());
    println!("total budget     : {} rounds", report.total_rounds());
    println!();
    let snapshot = recorder.snapshot();
    print!("{}", RunSummary::from_snapshot(&snapshot).render());
    let trace_path = "results/trace.jsonl";
    let rotated = snapshot
        .write_trace_rotating(trace_path, trace::DEFAULT_TRACE_CAP_BYTES)
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    if rotated {
        println!("trace rotated    : {trace_path}.1");
    }
    println!("trace written    : {trace_path}");
    Ok(())
}

/// `parbor efficacy` — run the full pipeline against every mechanism ×
/// vendor family and score the chip-wide detection set per cell.
fn cmd_efficacy(args: &Args) -> Result<(), String> {
    let vendors = parse_vendors(
        args.flags
            .get("vendors")
            .map(String::as_str)
            .unwrap_or("A,B,C"),
    )?;
    let rows = args.u64_or("rows", 128)? as u32;
    let cols = args.u64_or("cols", 1024)? as u32;
    let extras = match args.flags.get("mechanisms") {
        None => MechanismSpec::parse_stack("hammer;press;drift").map_err(|e| e.to_string())?,
        Some(spec) => MechanismSpec::parse_stack(spec).map_err(|e| e.to_string())?,
    };
    let config = EfficacyConfig {
        vendors,
        geometry: ChipGeometry::new(1, rows, cols).map_err(|e| e.to_string())?,
        chips: args.u64_or("chips", 1)? as usize,
        seed: args.u64_or("seed", 5)?,
        extras,
        parbor: ParborConfig::default(),
    };
    let recorder = ShardedRecorder::handle();
    let report = run_efficacy(&config, &RecorderHandle::from(recorder.clone()))
        .map_err(|e| e.to_string())?;
    println!(
        "{:<8} {:<10} {:>7} {:>9} {:>5} {:>5} {:>5} {:>10} {:>7}",
        "vendor", "mechanism", "truth", "detected", "tp", "fp", "fn", "precision", "recall"
    );
    for s in &report.scores {
        println!(
            "{:<8} {:<10} {:>7} {:>9} {:>5} {:>5} {:>5} {:>10.3} {:>7.3}{}",
            s.vendor,
            s.mechanism,
            s.truth_cells,
            s.detected_cells,
            s.true_positives,
            s.false_positives,
            s.false_negatives,
            s.precision,
            s.recall,
            s.error
                .as_deref()
                .map(|e| format!("  [pipeline: {e}]"))
                .unwrap_or_default()
        );
    }
    let snap = recorder.snapshot();
    println!(
        "\nruns: {}  tp: {}  fp: {}  fn: {}",
        snap.counter(metrics::efficacy::RUNS),
        snap.counter(metrics::efficacy::TRUE_POSITIVES),
        snap.counter(metrics::efficacy::FALSE_POSITIVES),
        snap.counter(metrics::efficacy::FALSE_NEGATIVES),
    );
    if let Some(path) = args.flags.get("out") {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("creating {path}: {e}"))?;
            }
        }
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written: {path}");
    }
    Ok(())
}

fn cmd_obs(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("obs needs a subcommand: report".into());
    };
    if sub != "report" {
        return Err(format!("unknown obs subcommand {sub} (use report)"));
    }
    let args = Args::parse(&argv[1..])?;
    let trace_path = args
        .flags
        .get("trace")
        .cloned()
        .unwrap_or_else(|| "results/trace.jsonl".to_string());
    let out_path = args
        .flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/profile.folded".to_string());
    let trace = Trace::load(&trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    if trace.salvaged {
        println!("note: torn final line in {trace_path} was discarded");
    }
    println!(
        "{} spans, {} counters from {trace_path}",
        trace.spans.len(),
        trace.counters.len()
    );
    println!();
    print!("{}", Profile::from_trace(&trace).table());
    let folded = folded_stacks(&trace);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out_path, &folded).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!();
    println!("folded stacks    : {out_path} (flamegraph.pl-compatible)");
    Ok(())
}

fn cmd_census(args: &Args) -> Result<(), String> {
    let vendor = args.vendor()?;
    let rows_n = args.u64_or("rows", 128)?;
    let mut module = build(args, 8)?;
    let rows: Vec<RowId> = (0..rows_n as u32).map(|r| RowId::new(0, r)).collect();
    let mut census = CellCensus::default();
    for chip in module.chips_mut() {
        census.merge(&CellCensus::take(chip, &rows).map_err(|e| e.to_string())?);
    }
    println!("vendor {vendor}: {} rows x 8 chips", rows_n);
    println!("  retention-weak  : {}", census.retention_weak);
    println!("  strongly coupled: {}", census.strongly_coupled);
    println!("  weakly coupled  : {}", census.weakly_coupled);
    println!("  deep coupled    : {}", census.deep_coupled);
    println!("  marginal        : {}", census.marginal);
    println!("  vrt             : {}", census.vrt);
    println!("  coupling BER    : {:.2e}", census.coupling_ber());
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let vendor = args.vendor()?;
    let rows_n = args.u64_or("rows", 128)?;
    let mut module = build(args, 8)?;
    let parbor = Parbor::new(ParborConfig::default());
    let report = parbor.run(&mut module).map_err(|e| e.to_string())?;
    let budget = report.total_rounds();
    let mut fresh = build(args, 8)?;
    let rows: Vec<RowId> = (0..rows_n as u32).map(|r| RowId::new(0, r)).collect();
    let random = random_pattern_test(&mut fresh, &rows, budget, 0xC0).map_err(|e| e.to_string())?;
    let p = report.chipwide.failing_bits();
    let only_p = p.difference(&random.failing).count();
    println!("vendor {vendor}, budget {budget} rounds each");
    println!("  PARBOR failures : {}", p.len());
    println!("  random failures : {}", random.failure_count());
    println!(
        "  only PARBOR     : {} ({:+.1}% over random)",
        only_p,
        only_p as f64 * 100.0 / random.failure_count().max(1) as f64
    );
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let vendor = args.vendor()?;
    let rows_n = args.u64_or("rows", 128)?;
    let base = Seconds(args.f64_or("base-interval", 2.0)?);
    let mut module = build(args, 1)?;
    let rows: Vec<RowId> = (0..rows_n as u32).map(|r| RowId::new(0, r)).collect();
    let profiler = RetentionProfiler::raidr(base, 3).map_err(|e| e.to_string())?;
    let profile = profiler
        .profile(&mut module.chips_mut()[0], &rows, Celsius(45.0))
        .map_err(|e| e.to_string())?;
    println!("vendor {vendor}: retention ladder from {base}");
    for (interval, frac) in profile
        .intervals()
        .iter()
        .zip(profile.cumulative_fail_fractions())
    {
        println!("  <= {interval}: {:.1}% of rows fail", frac * 100.0);
    }
    Ok(())
}

fn cmd_dcref(args: &Args) -> Result<(), String> {
    let cycles = args.u64_or("cycles", 300_000)?;
    let n_mixes = args.u64_or("mixes", 4)? as usize;
    let density = match args.u64_or("density", 32)? {
        8 => Density::Gb8,
        16 => Density::Gb16,
        32 => Density::Gb32,
        other => return Err(format!("unsupported density {other} (use 8, 16, or 32)")),
    };
    let config = SystemConfig {
        density,
        ..SystemConfig::paper()
    };
    let mixes = paper_mixes(n_mixes, 8, 2016);
    let mut sums = [0u64; 3];
    for mix in &mixes {
        for (i, policy) in [
            RefreshPolicyKind::Uniform64,
            RefreshPolicyKind::Raidr,
            RefreshPolicyKind::DcRef,
        ]
        .into_iter()
        .enumerate()
        {
            sums[i] += Simulation::new(config, policy, mix, 9)
                .run(cycles)
                .total_instructions();
        }
    }
    println!("{density:?}, {n_mixes} mixes, {cycles} memory cycles each:");
    println!("  baseline : {} instructions", sums[0]);
    println!(
        "  RAIDR    : {} ({:+.1}%)",
        sums[1],
        (sums[1] as f64 / sums[0] as f64 - 1.0) * 100.0
    );
    println!(
        "  DC-REF   : {} ({:+.1}%)",
        sums[2],
        (sums[2] as f64 / sums[0] as f64 - 1.0) * 100.0
    );
    Ok(())
}

/// Parses a comma-separated vendor list like `A,B,C`.
fn parse_vendors(list: &str) -> Result<Vec<Vendor>, String> {
    list.split(',')
        .map(|v| match v.trim() {
            "A" | "a" => Ok(Vendor::A),
            "B" | "b" => Ok(Vendor::B),
            "C" | "c" => Ok(Vendor::C),
            other => Err(format!("unknown vendor {other} (use A, B, or C)")),
        })
        .collect()
}

/// Builds the job list for `fleet run` from the CLI flags.
fn fleet_jobs(args: &Args) -> Result<Vec<ScanJob>, String> {
    let vendors = parse_vendors(
        args.flags
            .get("vendors")
            .map(String::as_str)
            .unwrap_or("A,B,C"),
    )?;
    let modules = args.u64_or("modules", 1)?;
    let chips = args.u64_or("chips", 1)? as usize;
    let rows = args.u64_or("rows", 48)? as u32;
    let cols = args.u64_or("cols", 8192)? as u32;
    let base_seed = args.u64_or("seed", 1)?;
    let geometry = ChipGeometry::new(1, rows, cols).map_err(|e| e.to_string())?;
    let mechanisms = args.mechanisms()?;
    let mechanisms = (!mechanisms.is_empty()).then_some(mechanisms);
    let mut jobs = Vec::new();
    for vendor in vendors {
        let vendor_code = match vendor {
            Vendor::A => 0u64,
            Vendor::B => 1,
            Vendor::C => 2,
        };
        for idx in 0..modules {
            let spec = ModuleSpec {
                chips,
                geometry,
                seed: base_seed + idx * 997 + vendor_code * 131_071,
                mechanisms: mechanisms.clone(),
                ..ModuleSpec::new(vendor)
            };
            jobs.push(ScanJob::new(format!("{vendor}{idx}"), spec));
        }
    }
    Ok(jobs)
}

fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    Ok(FleetConfig {
        workers: args.u64_or("workers", 2)? as usize,
        checkpoint_every: args.u64_or("checkpoint-every", 32)? as usize,
        crash_after_checkpoints: args.u64_opt("crash-after")?,
        halt_after_checkpoints: None,
    })
}

fn fleet_print_report(report: &parbor_fleet::FleetReport, store_dir: &std::path::Path) {
    for job in &report.jobs {
        let outcome = if let Some(err) = &job.error {
            format!("FAILED  {err}")
        } else if job.skipped {
            "skipped (already stored)".to_string()
        } else if job.halted {
            format!("halted  rounds {}", job.rounds)
        } else {
            format!(
                "done    rounds {:>5}  checkpoints {:>3}  failures {:>4}  {}{}",
                job.rounds,
                job.checkpoints,
                job.failures.unwrap_or(0),
                job.profile_hash.as_deref().unwrap_or("-"),
                if job.resumed { "  (resumed)" } else { "" },
            )
        };
        println!("  {:<8} {outcome}", job.name);
    }
    println!(
        "completed {}, skipped {}, failed {}, halted {}; {} rounds, {} checkpoint bytes",
        report.completed(),
        report.jobs.iter().filter(|j| j.skipped).count(),
        report.failed(),
        report.halted(),
        report.total_rounds(),
        report.checkpoint_bytes(),
    );
    println!("store: {}", store_dir.display());
}

/// Builds the per-job port factory for `fleet run`/`fleet resume` when any
/// backend flag is present; `None` keeps the orchestrator's built-in
/// simulator factory. Transcripts live at `<dir>/<job-name>.pbt`, both for
/// `--record <dir>` and for `--backend replay:<dir>`.
fn fleet_port_factory(args: &Args) -> Result<Option<parbor_fleet::PortFactory>, String> {
    let backend = args.backend()?;
    let record = args.flags.get("record").map(PathBuf::from);
    if matches!(backend, Backend::Sim) && record.is_none() {
        return Ok(None);
    }
    if let Some(dir) = &record {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating record dir {}: {e}", dir.display()))?;
    }
    Ok(Some(Box::new(move |job: &ScanJob| {
        let mut port: Box<dyn TestPort> = match &backend {
            Backend::Sim => Box::new(job.module.build()?),
            Backend::Replay(dir) => {
                Box::new(ReplayPort::open(dir.join(format!("{}.pbt", job.name)))?)
            }
        };
        if let Some(dir) = &record {
            port = Box::new(RecordingPort::create(
                port,
                dir.join(format!("{}.pbt", job.name)),
            )?);
        }
        Ok(port)
    })))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let setup = parbor_repro::servecli::setup(&args.flags)?;
    println!(
        "serve: {} module(s), {} compiled stencil(s), {} worker(s)",
        setup.snapshot.module_count(),
        setup.snapshot.stencil_count(),
        setup.config.workers,
    );
    let recorder = ShardedRecorder::handle();
    let report = parbor_serve::run(
        setup.snapshot,
        &setup.config,
        setup.engine,
        &setup.load,
        RecorderHandle::from(recorder.clone()),
    );
    print!("{}", parbor_repro::servecli::summary(&report));
    if let Some(path) = args.flags.get("status-out") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("status written   : {path}");
    }
    if !report.clean_shutdown {
        return Err(format!(
            "{} accepted request(s) never produced a reply",
            report.unexplained_drops
        ));
    }
    Ok(())
}

fn cmd_fleet(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("fleet needs a subcommand: run, resume, status, show, or top".into());
    };
    // `--once` is the one valueless flag; strip it before pair-wise parsing.
    let mut rest: Vec<String> = argv[1..].to_vec();
    let once = if let Some(i) = rest.iter().position(|a| a == "--once") {
        rest.remove(i);
        true
    } else {
        false
    };
    let args = Args::parse(&rest)?;
    let dir = args
        .flags
        .get("dir")
        .cloned()
        .unwrap_or_else(|| "results/fleet".to_string());
    match sub.as_str() {
        "run" | "resume" => {
            let jobs = if sub == "run" {
                fleet_jobs(&args)?
            } else {
                Vec::new()
            };
            let factory = fleet_port_factory(&args)?;
            let mut fleet = Fleet::new(&dir, fleet_config(&args)?).map_err(|e| e.to_string())?;
            if let Some(factory) = factory {
                fleet = fleet.with_port_factory(factory);
            }
            println!(
                "fleet {sub}: {} under {dir}",
                if sub == "run" {
                    format!("{} jobs", jobs.len())
                } else {
                    "journaled jobs".to_string()
                }
            );
            let report = if sub == "run" {
                fleet.run(jobs).map_err(|e| e.to_string())?
            } else {
                fleet.resume().map_err(|e| e.to_string())?
            };
            fleet_print_report(&report, &fleet.store_dir());
            if report.failed() > 0 {
                return Err(format!("{} job(s) failed", report.failed()));
            }
            Ok(())
        }
        "status" => {
            let fleet = Fleet::new(&dir, FleetConfig::default()).map_err(|e| e.to_string())?;
            let statuses = fleet.status().map_err(|e| e.to_string())?;
            if statuses.is_empty() {
                println!("no jobs under {dir}");
                return Ok(());
            }
            for status in statuses {
                match status.state {
                    parbor_fleet::JobState::Done => println!(
                        "  {:<8} done       rounds {:>5}  failures {}",
                        status.name,
                        status.rounds,
                        status.failures.unwrap_or(0)
                    ),
                    parbor_fleet::JobState::InFlight => println!(
                        "  {:<8} in-flight  rounds {:>5}  stage {}",
                        status.name, status.rounds, status.stage
                    ),
                }
            }
            Ok(())
        }
        "show" => {
            let name = args
                .flags
                .get("module")
                .ok_or("fleet show needs --module <name>")?;
            let store = ProfileStore::open(std::path::Path::new(&dir).join("store"))
                .map_err(|e| e.to_string())?;
            let stored = store.get(name).map_err(|e| e.to_string())?;
            let profile = &stored.profile;
            println!("module           : {name}");
            println!("victims          : {}", profile.victim_count);
            println!("distances        : {:?}", profile.distances);
            println!("tests per level  : {:?}", profile.tests_per_level);
            println!("chip-wide rounds : {}", profile.chipwide_rounds);
            println!("failures         : {}", profile.failures.len());
            println!("total budget     : {} rounds", profile.total_rounds());
            if stored.recovered {
                println!(
                    "WARNING: segment was recovered from corruption ({})",
                    if stored.complete {
                        "complete"
                    } else {
                        "partial"
                    }
                );
            }
            for cell in profile.failures.iter().take(10) {
                println!(
                    "  unit {} bank {} row {:>5} col {:>5} value {}",
                    cell.unit, cell.bank, cell.row, cell.col, cell.value as u8
                );
            }
            if profile.failures.len() > 10 {
                println!("  … {} more", profile.failures.len() - 10);
            }
            Ok(())
        }
        "top" => {
            let interval = args.u64_or("interval-ms", 500)?;
            let path = std::path::Path::new(&dir).join(FleetStatus::FILE_NAME);
            loop {
                match FleetStatus::load(&path) {
                    Ok(status) => {
                        if !once {
                            // Clear the screen and home the cursor so the
                            // panel repaints in place.
                            print!("\x1b[2J\x1b[H");
                        }
                        print!("{}", status.render());
                        if once || status.is_terminal() {
                            return Ok(());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if once {
                            return Err(format!(
                                "no status surface at {} (has a fleet run started?)",
                                path.display()
                            ));
                        }
                        println!("waiting for {} ...", path.display());
                    }
                    Err(e) => return Err(format!("reading {}: {e}", path.display())),
                }
                std::thread::sleep(std::time::Duration::from_millis(interval));
            }
        }
        other => Err(format!(
            "unknown fleet subcommand {other} (use run, resume, status, show, or top)"
        )),
    }
}

fn cmd_store(argv: &[String]) -> Result<(), String> {
    let Some(sub) = argv.first() else {
        return Err("store needs a subcommand: stats, compact, or aggregate".into());
    };
    let args = Args::parse(&argv[1..])?;
    let dir = args
        .flags
        .get("dir")
        .cloned()
        .unwrap_or_else(|| "results/fleet/store".to_string());
    let recorder = ShardedRecorder::handle();
    let rec = RecorderHandle::from(recorder.clone());
    match sub.as_str() {
        "stats" => {
            let store = ProfileStore::open_with_recorder(&dir, rec).map_err(|e| e.to_string())?;
            let stats = store.stats().map_err(|e| e.to_string())?;
            println!("store            : {dir}");
            println!("modules          : {}", stats.modules);
            println!("l0 segments      : {}", stats.l0_segments);
            for (gen, chunks) in &stats.generation_segments {
                println!("generation {gen:>2}    : {chunks} chunk file(s)");
            }
            println!("index shards     : {}", stats.index_shards);
            println!("live records     : {}", stats.live_records);
            println!("dead records     : {}", stats.dead_records);
            println!("corrupt records  : {}", stats.corrupt_records);
            println!("total failures   : {}", stats.total_failures);
            println!("segment bytes    : {}", stats.segment_bytes);
            println!(
                "recovery events  : {}",
                recorder.snapshot().counter(metrics::store::RECOVERY)
            );
            println!("ledger balanced  : {}", stats.ledger_balanced);
            if !stats.ledger_balanced {
                return Err("store ledger does not balance".into());
            }
            Ok(())
        }
        "compact" => {
            let crash_phase = match args.flags.get("crash-after-phase").map(String::as_str) {
                None => None,
                Some("1") => Some(CompactPhase::Segments),
                Some("2") => Some(CompactPhase::Manifest),
                Some("3") => Some(CompactPhase::Cleanup),
                Some(other) => {
                    return Err(format!(
                        "--crash-after-phase must be 1, 2, or 3 (got {other})"
                    ))
                }
            };
            let mut store =
                ProfileStore::open_with_recorder(&dir, rec).map_err(|e| e.to_string())?;
            let report = store
                .compact_with_abort(crash_phase)
                .map_err(|e| e.to_string())?;
            if report.aborted {
                // Model a hard kill mid-compaction for the recovery smoke:
                // the on-disk state stays exactly as the crash left it.
                eprintln!("compaction crashed after phase (simulated)");
                std::process::exit(CRASH_EXIT_CODE);
            }
            println!("store            : {dir}");
            println!(
                "compacted        : {} record(s) from {} segment(s)",
                report.input_records, report.input_segments
            );
            println!(
                "generation {:>2}    : {} record(s) in {} chunk file(s), {} bytes",
                report.gen, report.output_records, report.output_segments, report.output_bytes
            );
            if report.salvaged > 0 || report.dropped > 0 {
                println!(
                    "recovered        : {} salvaged, {} dropped",
                    report.salvaged, report.dropped
                );
            }
            Ok(())
        }
        "aggregate" => {
            let store = ProfileStore::open_with_recorder(&dir, rec).map_err(|e| e.to_string())?;
            let agg = store.aggregate().map_err(|e| e.to_string())?;
            println!("store            : {dir}");
            println!("modules          : {}", agg.modules);
            println!("total failures   : {}", agg.total_failures);
            println!("distinct dists   : {}", agg.distinct_distances);
            for (distance, count) in &agg.distance_counts {
                println!("  distance {distance:>4}  : {count} module(s)");
            }
            println!(
                "failures/module  : mean {:.2}  p50 {}  p99 {}",
                agg.failures_per_module.mean,
                agg.failures_per_module.p50,
                agg.failures_per_module.p99
            );
            for (vendor, rollup) in &agg.vendors {
                println!(
                    "  vendor {vendor:<6}  : {} module(s), {} failure(s), {:.2} mean",
                    rollup.modules, rollup.failures, rollup.mean_failures
                );
            }
            if let Some(path) = args.flags.get("out") {
                let json = serde_json::to_string_pretty(&agg).map_err(|e| e.to_string())?;
                std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
                println!("aggregate written: {path}");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown store subcommand {other} (use stats, compact, or aggregate)"
        )),
    }
}

/// `transcript dump PATH`: the human-readable view of a binary transcript,
/// read through [`ReplayPort::open`] (the one decoder) — the header summary
/// as one JSON line, then one JSON line per recorded round.
fn cmd_transcript(argv: &[String]) -> Result<(), String> {
    #[derive(serde::Serialize)]
    struct DumpRound {
        round: usize,
        writes: u64,
        writes_digest: String,
        flips: Vec<parbor_hal::Flip>,
    }
    let path = match argv {
        [sub, path] if sub == "dump" => path,
        _ => return Err("transcript needs: dump PATH".into()),
    };
    let replay = ReplayPort::open(path).map_err(|e| e.to_string())?;
    let mut lines = vec![serde_json::to_string(&replay.info()).map_err(|e| e.to_string())?];
    for (i, r) in replay.rounds().iter().enumerate() {
        let round = DumpRound {
            round: i + 1,
            writes: r.writes,
            writes_digest: format!("{:016x}", r.digest),
            flips: r.flips.clone(),
        };
        lines.push(serde_json::to_string(&round).map_err(|e| e.to_string())?);
    }
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let written = lines
        .iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        // A closed pipe (`| head`) is the reader being done, not an error.
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(e.to_string()),
        _ => Ok(()),
    }
}

const USAGE: &str =
    "usage: parbor <detect|census|compare|profile|dcref|efficacy|serve|fleet|store|transcript|obs> [--flag value]...
  detect   run the full PARBOR pipeline on a simulated module
  efficacy score pipeline detection against mechanism ground truth:
             efficacy [--vendors A,B,C] [--rows N] [--cols N] [--chips N]
                      [--seed N] [--mechanisms SPEC] [--out FILE]
             runs the full pipeline once per (vendor, mechanism) cell —
             the coupling model plus each extra mechanism in isolation —
             and reports per-cell precision/recall against the mechanism's
             truth set; --out writes the matrix as JSON
  census   device-side cell-class census (ground truth)
  compare  PARBOR vs equal-budget random-pattern testing
  profile  RAIDR-style retention-interval ladder
  dcref    refresh-policy performance comparison
  serve    thread-per-core profile-query service under synthetic load:
             serve [--vendors A,B,C] [--modules N] [--chips N] [--rows N]
                   [--cols N] [--seed N] [--store DIR] [--workers N]
                   [--queue-capacity N] [--engine inline|threads]
                   [--mode open|closed] [--rate R] [--inflight N]
                   [--seconds S] [--rescan-every N] [--stats-every N]
                   [--measure-latency true|false] [--status-out FILE]
             --store points at a fleet store (e.g. results/fleet/store) to
             serve only profiled rows; without it every row is compiled
             (ground truth). Prints a grep-stable `serve OK:` verdict and
             optionally writes the full JSON report to --status-out.
  fleet    sharded scan campaigns with checkpoint/resume:
             fleet run    --dir D [--vendors A,B,C] [--modules N] [--chips N]
                          [--rows N] [--cols N] [--seed N] [--workers N]
                          [--checkpoint-every N] [--crash-after N]
             fleet resume --dir D [--workers N] [--checkpoint-every N]
             fleet status --dir D
             fleet show   --dir D --module NAME
             fleet top    --dir D [--once] [--interval-ms N]
                          live campaign panel from status.json; --once prints
                          a single snapshot and exits
  store    columnar profile-store maintenance and rollups:
             store stats     --dir D    segment/index ledger; non-zero exit
                                        when the ledger does not balance
             store compact   --dir D [--crash-after-phase 1|2|3]
                                        merge L0 appends and older
                                        generations into one sorted
                                        deduplicated generation; the crash
                                        flag simulates a mid-compaction kill
                                        (exits 42) for recovery testing
             store aggregate --dir D [--out FILE]
                                        streaming fleet-wide rollups: distance
                                        histogram, per-vendor failure rates
             --dir defaults to results/fleet/store
  transcript record/replay transcript inspection:
             transcript dump PATH       the header, then one JSON line per
                                        recorded round (writes, digest,
                                        flips)
  obs      telemetry post-processing:
             obs report   [--trace results/trace.jsonl]
                          [--out results/profile.folded]
                          per-stage self/total wall-clock table + folded
                          stacks for flamegraph.pl
common flags: --vendor A|B|C  --seed N  --rows N  --chips N
backend flags (detect, fleet run/resume):
              --backend sim|replay:PATH      test-port backend; replay reads a
                                             transcript (detect: file, fleet:
                                             directory of <job>.pbt files)
              --record PATH                  record a transcript while running
                                             (detect: file, fleet: directory
                                             of <job>.pbt files)
              --mechanisms SPEC              compose extra failure mechanisms
                                             into the simulated device, e.g.
                                             hammer=thresh:50k,rate:1e-3;press;
                                             drift=rate:1e-3,period:120;
                                             inject=rate:P,seed:S[,intermittent:Q]
                                             for seeded random + intermittent
                                             flips (also: efficacy's matrix;
                                             not with --backend replay:)
dcref flags : --cycles N  --mixes N  --density 8|16|32
help        : parbor --help (or -h) prints this message";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cmd = &argv[0];
    let result = if cmd == "fleet" {
        cmd_fleet(&argv[1..])
    } else if cmd == "store" {
        cmd_store(&argv[1..])
    } else if cmd == "transcript" {
        cmd_transcript(&argv[1..])
    } else if cmd == "obs" {
        cmd_obs(&argv[1..])
    } else {
        match Args::parse(&argv[1..]) {
            Err(e) => Err(e),
            Ok(args) => match cmd.as_str() {
                "detect" => cmd_detect(&args),
                "efficacy" => cmd_efficacy(&args),
                "census" => cmd_census(&args),
                "compare" => cmd_compare(&args),
                "profile" => cmd_profile(&args),
                "dcref" => cmd_dcref(&args),
                "serve" => cmd_serve(&args),
                other => Err(format!("unknown command {other}")),
            },
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
