//! The repository benchmark: four workloads (`detect`, `store`, `serve`,
//! `memsim`) that drive each layer through its public API, check the
//! outputs, and report end-to-end metrics (untraced) or a per-layer ledger
//! (traced). See `perfbench/README.md` for why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod detect;
pub mod memsim;
pub mod port;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod store;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

/// The four named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PARBOR detection over a seeded module stream, profiles into a store.
    Detect,
    /// A mixed put/get/aggregate/compact stream against one profile store.
    Store,
    /// DC-REF content checks against the inline query server.
    Serve,
    /// The DDR3 memory-system simulation under three refresh policies.
    Memsim,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Detect,
        Workload::Store,
        Workload::Serve,
        Workload::Memsim,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detect => "detect",
            Workload::Store => "store",
            Workload::Serve => "serve",
            Workload::Memsim => "memsim",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (expected detect|store|serve|memsim)"))
    }
}

/// Input sizes: `Full` is the benchmark; `Tiny` exists for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark sizes.
    Full,
    /// Small sizes that finish in about a second.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds (the run measures at least one full input cycle).
    pub seconds: f64,
    /// Traced run: per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for stores and the trace file.
    pub out_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (modules, store calls, requests, simulations).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// End-to-end metrics (from untraced measurement).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (from the traced half of a traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation; a failed check is recorded with `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failed check without a new attempt.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (scratch directory, store open) that leave nothing to
/// measure.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let mut outcome = match cfg.workload {
        Workload::Detect => detect::run(cfg)?,
        Workload::Store => store::run(cfg)?,
        Workload::Serve => serve::run(cfg)?,
        Workload::Memsim => memsim::run(cfg)?,
    };
    outcome.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    Ok(outcome)
}

/// Set-ups per run. A workload runs [`SETUPS_BEFORE`] of them before its
/// measured phase and the rest after it, and reports the median of all as
/// `setup_s`, so interference from other processes at one end of the run
/// does not decide it.
pub const SETUPS: usize = 9;

/// Set-ups run before the measured phase.
pub const SETUPS_BEFORE: usize = SETUPS - SETUPS / 2;

/// Runs `setup` `times` (at least one) times and returns each duration in
/// seconds together with the last result.
pub fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        let value = setup()?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((secs, last.expect("setup ran at least once")))
}

/// Runs the set-ups after the measured phase and returns `setup_s`, the
/// median over `before` and these.
///
/// # Errors
///
/// Set-up failures.
pub fn setup_s<T>(before: &[f64], setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let (mut secs, _) = timed_setup(SETUPS - before.len(), setup)?;
    secs.extend_from_slice(before);
    Ok(stats::median(&secs))
}

/// FNV-1a over a byte stream: the benchmark's own digest for comparing
/// outputs across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one value.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
