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
use parbor_repro::servecli;
use parbor_store::CompactPhase;
use parbor_workloads::paper_mixes;

/// A subcommand's outcome. The error is either a message for the user or
/// the `std::io::Error` of a failed write to stdout.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// The flags one subcommand reads, in groups; [`Args::parse`] rejects
/// every other flag by name.
type Flags = &'static [&'static [&'static str]];

/// Read by [`build`] to make one simulated module.
const MODULE: &[&str] = &["vendor", "seed", "rows", "chips", "mechanisms"];
/// Read by `Args::backend`, [`build_port`] and [`fleet_port_factory`].
const BACKEND: &[&str] = &["backend", "record", "mechanisms"];
/// Read by `fleet run` and `fleet resume` ([`fleet_config`]).
const FLEET: &[&str] = &["dir", "workers", "checkpoint-every", "crash-after"];
/// Read by [`cmd_efficacy`].
const EFFICACY: &[&str] = &[
    "vendors",
    "rows",
    "cols",
    "chips",
    "seed",
    "mechanisms",
    "out",
];

/// A subcommand's `--name value` pairs.
struct Args {
    /// The flags the subcommand reads; every other flag is rejected.
    known: Flags,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `raw` for the subcommand `cmd`, which reads the flags in
    /// `known`. A flag outside those lists fails by name, so a misspelt
    /// flag cannot fall back to its default unnoticed.
    fn parse(raw: &[String], cmd: &str, known: Flags) -> Result<Self, String> {
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
            if !known.iter().any(|group| group.contains(&name)) {
                return Err(format!("unknown flag --{name} for {cmd}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { known, flags })
    }

    /// The value of `--name`. Reading a flag the subcommand does not list
    /// is a programming error: `parse` would have rejected it.
    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.known.iter().any(|group| group.contains(&name)),
            "--{name} is not listed"
        );
        self.flags.get(name).map(String::as_str)
    }

    fn vendor(&self) -> Result<Vendor, String> {
        self.get("vendor").map_or(Ok(Vendor::A), |v| v.parse())
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} must be a number")),
        }
    }

    fn u64_opt(&self, name: &str) -> Result<Option<u64>, String> {
        match self.get(name) {
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
        let backend = match self.get("backend") {
            None | Some("sim") => Backend::Sim,
            Some(v) => match v.strip_prefix("replay:") {
                Some(path) if !path.is_empty() => Backend::Replay(PathBuf::from(path)),
                _ => return Err(format!("unknown backend {v} (use sim or replay:<path>)")),
            },
        };
        if matches!(backend, Backend::Replay(_)) && self.get("mechanisms").is_some() {
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
        match self.get("mechanisms") {
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
    if let Some(path) = args.get("record") {
        port = Box::new(RecordingPort::create(port, path).map_err(|e| e.to_string())?);
    }
    Ok(port)
}

fn cmd_detect(args: &Args, out: &mut dyn Write) -> CmdResult {
    let vendor = args.vendor()?;
    let recorder = ShardedRecorder::handle();
    let rec = RecorderHandle::from(recorder.clone());
    let mut port = build_port(args, 8)?;
    port.set_recorder(rec.clone());
    let report = Parbor::new(ParborConfig::default())
        .with_recorder(rec)
        .run(&mut *port)
        .map_err(|e| e.to_string())?;
    writeln!(out, "vendor           : {vendor}")?;
    writeln!(out, "victims          : {}", report.victim_count)?;
    writeln!(out, "distances        : {:?}", report.distances())?;
    writeln!(
        out,
        "tests per level  : {:?}",
        report.recursion.tests_per_level()
    )?;
    writeln!(out, "chip-wide rounds : {}", report.chipwide.rounds)?;
    writeln!(out, "failures found   : {}", report.failure_count())?;
    writeln!(out, "total budget     : {} rounds", report.total_rounds())?;
    writeln!(out)?;
    let snapshot = recorder.snapshot();
    write!(out, "{}", RunSummary::from_snapshot(&snapshot).render())?;
    let trace_path = "results/trace.jsonl";
    let rotated = snapshot
        .write_trace_rotating(trace_path, trace::DEFAULT_TRACE_CAP_BYTES)
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    if rotated {
        writeln!(out, "trace rotated    : {trace_path}.1")?;
    }
    writeln!(out, "trace written    : {trace_path}")?;
    Ok(())
}

/// `parbor efficacy` — run the full pipeline against every mechanism ×
/// vendor family and score the chip-wide detection set per cell.
fn cmd_efficacy(args: &Args, out: &mut dyn Write) -> CmdResult {
    let vendors = parse_vendors(args.get("vendors").unwrap_or("A,B,C"))?;
    let rows = args.u64_or("rows", 128)? as u32;
    let cols = args.u64_or("cols", 1024)? as u32;
    let extras = match args.get("mechanisms") {
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
    writeln!(
        out,
        "{:<8} {:<10} {:>7} {:>9} {:>5} {:>5} {:>5} {:>10} {:>7}",
        "vendor", "mechanism", "truth", "detected", "tp", "fp", "fn", "precision", "recall"
    )?;
    for s in &report.scores {
        writeln!(
            out,
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
        )?;
    }
    let snap = recorder.snapshot();
    writeln!(
        out,
        "\nruns: {}  tp: {}  fp: {}  fn: {}",
        snap.counter(metrics::efficacy::RUNS),
        snap.counter(metrics::efficacy::TRUE_POSITIVES),
        snap.counter(metrics::efficacy::FALSE_POSITIVES),
        snap.counter(metrics::efficacy::FALSE_NEGATIVES),
    )?;
    if let Some(path) = args.get("out") {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("creating {path}: {e}"))?;
            }
        }
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "report written: {path}")?;
    }
    Ok(())
}

fn cmd_obs(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let Some(sub) = argv.first() else {
        return Err("obs needs a subcommand: report".into());
    };
    if sub != "report" {
        return Err(format!("unknown obs subcommand {sub} (use report)").into());
    }
    let args = Args::parse(&argv[1..], "obs report", &[&["trace", "out"]])?;
    let trace_path = args.get("trace").unwrap_or("results/trace.jsonl");
    let out_path = args.get("out").unwrap_or("results/profile.folded");
    let trace = Trace::load(trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    if trace.salvaged {
        writeln!(out, "note: torn final line in {trace_path} was discarded")?;
    }
    writeln!(
        out,
        "{} spans, {} counters from {trace_path}",
        trace.spans.len(),
        trace.counters.len()
    )?;
    writeln!(out)?;
    write!(out, "{}", Profile::from_trace(&trace).table())?;
    let folded = folded_stacks(&trace);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(out_path, &folded).map_err(|e| format!("writing {out_path}: {e}"))?;
    writeln!(out)?;
    writeln!(
        out,
        "folded stacks    : {out_path} (flamegraph.pl-compatible)"
    )?;
    Ok(())
}

fn cmd_census(args: &Args, out: &mut dyn Write) -> CmdResult {
    let vendor = args.vendor()?;
    let rows_n = args.u64_or("rows", 128)?;
    let mut module = build(args, 8)?;
    let rows: Vec<RowId> = (0..rows_n as u32).map(|r| RowId::new(0, r)).collect();
    let mut census = CellCensus::default();
    for chip in module.chips_mut() {
        census.merge(&CellCensus::take(chip, &rows).map_err(|e| e.to_string())?);
    }
    let chips = module.chips().len();
    writeln!(out, "vendor {vendor}: {rows_n} rows x {chips} chips")?;
    writeln!(out, "  retention-weak  : {}", census.retention_weak)?;
    writeln!(out, "  strongly coupled: {}", census.strongly_coupled)?;
    writeln!(out, "  weakly coupled  : {}", census.weakly_coupled)?;
    writeln!(out, "  deep coupled    : {}", census.deep_coupled)?;
    writeln!(out, "  marginal        : {}", census.marginal)?;
    writeln!(out, "  vrt             : {}", census.vrt)?;
    writeln!(out, "  coupling BER    : {:.2e}", census.coupling_ber())?;
    Ok(())
}

fn cmd_compare(args: &Args, out: &mut dyn Write) -> CmdResult {
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
    writeln!(out, "vendor {vendor}, budget {budget} rounds each")?;
    writeln!(out, "  PARBOR failures : {}", p.len())?;
    writeln!(out, "  random failures : {}", random.failure_count())?;
    writeln!(
        out,
        "  only PARBOR     : {} ({:+.1}% over random)",
        only_p,
        only_p as f64 * 100.0 / random.failure_count().max(1) as f64
    )?;
    Ok(())
}

fn cmd_profile(args: &Args, out: &mut dyn Write) -> CmdResult {
    let vendor = args.vendor()?;
    let rows_n = args.u64_or("rows", 128)?;
    let base = Seconds(args.f64_or("base-interval", 2.0)?);
    let mut module = build(args, 1)?;
    let rows: Vec<RowId> = (0..rows_n as u32).map(|r| RowId::new(0, r)).collect();
    let profiler = RetentionProfiler::raidr(base, 3).map_err(|e| e.to_string())?;
    let profile = profiler
        .profile(&mut module.chips_mut()[0], &rows, Celsius(45.0))
        .map_err(|e| e.to_string())?;
    writeln!(out, "vendor {vendor}: retention ladder from {base}")?;
    for (interval, frac) in profile
        .intervals()
        .iter()
        .zip(profile.cumulative_fail_fractions())
    {
        writeln!(out, "  <= {interval}: {:.1}% of rows fail", frac * 100.0)?;
    }
    Ok(())
}

fn cmd_dcref(args: &Args, out: &mut dyn Write) -> CmdResult {
    let cycles = args.u64_or("cycles", 300_000)?;
    let n_mixes = args.u64_or("mixes", 4)? as usize;
    let density = match args.u64_or("density", 32)? {
        8 => Density::Gb8,
        16 => Density::Gb16,
        32 => Density::Gb32,
        other => return Err(format!("unsupported density {other} (use 8, 16, or 32)").into()),
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
    writeln!(
        out,
        "{density:?}, {n_mixes} mixes, {cycles} memory cycles each:"
    )?;
    writeln!(out, "  baseline : {} instructions", sums[0])?;
    writeln!(
        out,
        "  RAIDR    : {} ({:+.1}%)",
        sums[1],
        (sums[1] as f64 / sums[0] as f64 - 1.0) * 100.0
    )?;
    writeln!(
        out,
        "  DC-REF   : {} ({:+.1}%)",
        sums[2],
        (sums[2] as f64 / sums[0] as f64 - 1.0) * 100.0
    )?;
    Ok(())
}

/// Parses a comma-separated vendor list like `A,B,C`.
fn parse_vendors(list: &str) -> Result<Vec<Vendor>, String> {
    list.split(',').map(|v| v.trim().parse()).collect()
}

/// Builds the job list for `fleet run` from the CLI flags.
fn fleet_jobs(args: &Args) -> Result<Vec<ScanJob>, String> {
    let vendors = parse_vendors(args.get("vendors").unwrap_or("A,B,C"))?;
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

fn fleet_print_report(
    report: &parbor_fleet::FleetReport,
    store_dir: &std::path::Path,
    out: &mut dyn Write,
) -> std::io::Result<()> {
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
        writeln!(out, "  {:<8} {outcome}", job.name)?;
    }
    writeln!(
        out,
        "completed {}, skipped {}, failed {}, halted {}; {} rounds, {} checkpoint bytes",
        report.completed(),
        report.jobs.iter().filter(|j| j.skipped).count(),
        report.failed(),
        report.halted(),
        report.total_rounds(),
        report.checkpoint_bytes(),
    )?;
    writeln!(out, "store: {}", store_dir.display())
}

/// Builds the per-job port factory for `fleet run`/`fleet resume` when any
/// backend flag is present; `None` keeps the orchestrator's built-in
/// simulator factory. Transcripts live at `<dir>/<job-name>.pbt`, both for
/// `--record <dir>` and for `--backend replay:<dir>`.
fn fleet_port_factory(args: &Args) -> Result<Option<parbor_fleet::PortFactory>, String> {
    let backend = args.backend()?;
    let record = args.get("record").map(PathBuf::from);
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

fn cmd_serve(args: &Args, out: &mut dyn Write) -> CmdResult {
    let setup = servecli::setup(&args.flags)?;
    writeln!(
        out,
        "serve: {} module(s), {} compiled stencil(s), {} worker(s)",
        setup.snapshot.module_count(),
        setup.snapshot.stencil_count(),
        setup.config.workers,
    )?;
    let recorder = ShardedRecorder::handle();
    let report = parbor_serve::run(
        setup.snapshot,
        &setup.config,
        setup.engine,
        &setup.load,
        RecorderHandle::from(recorder.clone()),
    );
    write!(out, "{}", servecli::summary(&report))?;
    if let Some(path) = args.get("status-out") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            }
        }
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "status written   : {path}")?;
    }
    if !report.clean_shutdown {
        return Err(format!(
            "{} accepted request(s) never produced a reply",
            report.unexplained_drops
        )
        .into());
    }
    Ok(())
}

fn cmd_fleet(argv: &[String], out: &mut dyn Write) -> CmdResult {
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
    let known: Flags = match sub.as_str() {
        "run" => &[
            FLEET,
            BACKEND,
            &["vendors", "modules", "chips", "rows", "cols", "seed"],
        ],
        // `resume` takes its jobs, mechanisms included, from the journal;
        // `--mechanisms` is listed only to be rejected by name below.
        "resume" => &[FLEET, BACKEND],
        "status" => &[&["dir"]],
        "show" => &[&["dir", "module"]],
        "top" => &[&["dir", "interval-ms"]],
        other => {
            return Err(format!(
                "unknown fleet subcommand {other} (use run, resume, status, show, or top)"
            )
            .into())
        }
    };
    let args = Args::parse(&rest, &format!("fleet {sub}"), known)?;
    let dir = args.get("dir").unwrap_or("results/fleet").to_string();
    match sub.as_str() {
        "run" | "resume" => {
            if sub == "resume" && args.get("mechanisms").is_some() {
                args.backend()?; // a replay backend names its own conflict
                return Err(
                    "--mechanisms cannot be used with fleet resume (resume runs \
                            the journaled modules, mechanisms included)"
                        .into(),
                );
            }
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
            writeln!(
                out,
                "fleet {sub}: {} under {dir}",
                if sub == "run" {
                    format!("{} jobs", jobs.len())
                } else {
                    "journaled jobs".to_string()
                }
            )?;
            let report = if sub == "run" {
                fleet.run(jobs).map_err(|e| e.to_string())?
            } else {
                fleet.resume().map_err(|e| e.to_string())?
            };
            fleet_print_report(&report, &fleet.store_dir(), out)?;
            if report.failed() > 0 {
                return Err(format!("{} job(s) failed", report.failed()).into());
            }
            Ok(())
        }
        "status" => {
            let fleet = Fleet::new(&dir, FleetConfig::default()).map_err(|e| e.to_string())?;
            let statuses = fleet.status().map_err(|e| e.to_string())?;
            if statuses.is_empty() {
                writeln!(out, "no jobs under {dir}")?;
                return Ok(());
            }
            for status in statuses {
                match status.state {
                    parbor_fleet::JobState::Done => writeln!(
                        out,
                        "  {:<8} done       rounds {:>5}  failures {}",
                        status.name,
                        status.rounds,
                        status.failures.unwrap_or(0)
                    )?,
                    parbor_fleet::JobState::InFlight => writeln!(
                        out,
                        "  {:<8} in-flight  rounds {:>5}  stage {}",
                        status.name, status.rounds, status.stage
                    )?,
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
            writeln!(out, "module           : {name}")?;
            writeln!(out, "victims          : {}", profile.victim_count)?;
            writeln!(out, "distances        : {:?}", profile.distances)?;
            writeln!(out, "tests per level  : {:?}", profile.tests_per_level)?;
            writeln!(out, "chip-wide rounds : {}", profile.chipwide_rounds)?;
            writeln!(out, "failures         : {}", profile.failures.len())?;
            writeln!(out, "total budget     : {} rounds", profile.total_rounds())?;
            if stored.recovered {
                writeln!(
                    out,
                    "WARNING: segment was recovered from corruption ({})",
                    if stored.complete {
                        "complete"
                    } else {
                        "partial"
                    }
                )?;
            }
            for cell in profile.failures.iter().take(10) {
                writeln!(
                    out,
                    "  unit {} bank {} row {:>5} col {:>5} value {}",
                    cell.unit, cell.bank, cell.row, cell.col, cell.value as u8
                )?;
            }
            if profile.failures.len() > 10 {
                writeln!(out, "  … {} more", profile.failures.len() - 10)?;
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
                            write!(out, "\x1b[2J\x1b[H")?;
                        }
                        write!(out, "{}", status.render())?;
                        if once || status.is_terminal() {
                            return Ok(());
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if once {
                            return Err(format!(
                                "no status surface at {} (has a fleet run started?)",
                                path.display()
                            )
                            .into());
                        }
                        writeln!(out, "waiting for {} ...", path.display())?;
                    }
                    Err(e) => return Err(format!("reading {}: {e}", path.display()).into()),
                }
                std::thread::sleep(std::time::Duration::from_millis(interval));
            }
        }
        _ => unreachable!("subcommand checked above"),
    }
}

fn cmd_store(argv: &[String], out: &mut dyn Write) -> CmdResult {
    let Some(sub) = argv.first() else {
        return Err("store needs a subcommand: stats, compact, or aggregate".into());
    };
    let known: Flags = match sub.as_str() {
        "stats" => &[&["dir"]],
        "compact" => &[&["dir", "crash-after-phase"]],
        "aggregate" => &[&["dir", "out"]],
        other => {
            return Err(format!(
                "unknown store subcommand {other} (use stats, compact, or aggregate)"
            )
            .into())
        }
    };
    let args = Args::parse(&argv[1..], &format!("store {sub}"), known)?;
    let dir = args.get("dir").unwrap_or("results/fleet/store").to_string();
    let recorder = ShardedRecorder::handle();
    let rec = RecorderHandle::from(recorder.clone());
    match sub.as_str() {
        "stats" => {
            let store = ProfileStore::open_with_recorder(&dir, rec).map_err(|e| e.to_string())?;
            let stats = store.stats().map_err(|e| e.to_string())?;
            writeln!(out, "store            : {dir}")?;
            writeln!(out, "modules          : {}", stats.modules)?;
            writeln!(out, "l0 segments      : {}", stats.l0_segments)?;
            for (gen, chunks) in &stats.generation_segments {
                writeln!(out, "generation {gen:>2}    : {chunks} chunk file(s)")?;
            }
            writeln!(out, "index shards     : {}", stats.index_shards)?;
            writeln!(out, "live records     : {}", stats.live_records)?;
            writeln!(out, "dead records     : {}", stats.dead_records)?;
            writeln!(out, "corrupt records  : {}", stats.corrupt_records)?;
            writeln!(out, "total failures   : {}", stats.total_failures)?;
            writeln!(out, "segment bytes    : {}", stats.segment_bytes)?;
            writeln!(
                out,
                "recovery events  : {}",
                recorder.snapshot().counter(metrics::store::RECOVERY)
            )?;
            writeln!(out, "ledger balanced  : {}", stats.ledger_balanced)?;
            if !stats.ledger_balanced {
                return Err("store ledger does not balance".into());
            }
            Ok(())
        }
        "compact" => {
            let crash_phase = match args.get("crash-after-phase") {
                None => None,
                Some("1") => Some(CompactPhase::Segments),
                Some("2") => Some(CompactPhase::Manifest),
                Some("3") => Some(CompactPhase::Cleanup),
                Some(other) => {
                    return Err(
                        format!("--crash-after-phase must be 1, 2, or 3 (got {other})").into(),
                    )
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
            writeln!(out, "store            : {dir}")?;
            writeln!(
                out,
                "compacted        : {} record(s) from {} segment(s)",
                report.input_records, report.input_segments
            )?;
            writeln!(
                out,
                "generation {:>2}    : {} record(s) in {} chunk file(s), {} bytes",
                report.gen, report.output_records, report.output_segments, report.output_bytes
            )?;
            if report.salvaged > 0 || report.dropped > 0 {
                writeln!(
                    out,
                    "recovered        : {} salvaged, {} dropped",
                    report.salvaged, report.dropped
                )?;
            }
            Ok(())
        }
        "aggregate" => {
            let store = ProfileStore::open_with_recorder(&dir, rec).map_err(|e| e.to_string())?;
            let agg = store.aggregate().map_err(|e| e.to_string())?;
            writeln!(out, "store            : {dir}")?;
            writeln!(out, "modules          : {}", agg.modules)?;
            writeln!(out, "total failures   : {}", agg.total_failures)?;
            writeln!(out, "distinct dists   : {}", agg.distinct_distances)?;
            for (distance, count) in &agg.distance_counts {
                writeln!(out, "  distance {distance:>4}  : {count} module(s)")?;
            }
            writeln!(
                out,
                "failures/module  : mean {:.2}  p50 {}  p99 {}",
                agg.failures_per_module.mean,
                agg.failures_per_module.p50,
                agg.failures_per_module.p99
            )?;
            for (vendor, rollup) in &agg.vendors {
                writeln!(
                    out,
                    "  vendor {vendor:<6}  : {} module(s), {} failure(s), {:.2} mean",
                    rollup.modules, rollup.failures, rollup.mean_failures
                )?;
            }
            if let Some(path) = args.get("out") {
                let json = serde_json::to_string_pretty(&agg).map_err(|e| e.to_string())?;
                std::fs::write(path, json + "\n").map_err(|e| format!("writing {path}: {e}"))?;
                writeln!(out, "aggregate written: {path}")?;
            }
            Ok(())
        }
        _ => unreachable!("subcommand checked above"),
    }
}

/// `transcript dump PATH`: the human-readable view of a binary transcript,
/// read through [`ReplayPort::open`] (the one decoder) — the header summary
/// as one JSON line, then one JSON line per recorded round.
fn cmd_transcript(argv: &[String], out: &mut dyn Write) -> CmdResult {
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
    let mut out = std::io::BufWriter::new(out);
    for line in &lines {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(())
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

/// Runs one subcommand, writing its report to `out`.
fn run(cmd: &str, rest: &[String], out: &mut dyn Write) -> CmdResult {
    type Command = fn(&Args, &mut dyn Write) -> CmdResult;
    let (known, command): (Flags, Command) = match cmd {
        "fleet" => return cmd_fleet(rest, out),
        "store" => return cmd_store(rest, out),
        "transcript" => return cmd_transcript(rest, out),
        "obs" => return cmd_obs(rest, out),
        "detect" => (&[MODULE, BACKEND], cmd_detect),
        "census" => (&[MODULE], cmd_census),
        "compare" => (&[MODULE], cmd_compare),
        "profile" => (&[MODULE, &["base-interval"]], cmd_profile),
        "efficacy" => (&[EFFICACY], cmd_efficacy),
        "dcref" => (&[&["cycles", "mixes", "density"]], cmd_dcref),
        "serve" => (&[servecli::FLAGS, &["status-out"]], cmd_serve),
        other => return Err(format!("unknown command {other}").into()),
    };
    command(&Args::parse(rest, cmd, known)?, out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // Every report goes through this one locked writer.
    let mut out = std::io::stdout().lock();
    let result = if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        writeln!(out, "{USAGE}").map_err(Into::into)
    } else {
        run(cmd, &argv[1..], &mut out)
    }
    .and_then(|()| out.flush().map_err(Into::into));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A closed pipe (`parbor detect | head -1`) is the reader being
        // done, not an error.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
