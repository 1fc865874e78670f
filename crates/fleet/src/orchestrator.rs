//! The fleet orchestrator: a job queue sharded across scoped worker
//! threads, with per-job journaling and store publication.
//!
//! ## Job lifecycle
//!
//! ```text
//! queued → journal Start → [advance → journal Checkpoint]* → store put
//!        → journal Done → journal removed
//! ```
//!
//! A job whose profile is already in the store is skipped; a job with a
//! surviving journal is resumed from its last checkpoint (the module is
//! rebuilt from the journaled spec and its round clock fast-forwarded, so
//! the resumed scan is bit-identical to an uninterrupted one).

use std::collections::{BTreeSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use parbor_core::ScanMachine;
use parbor_hal::TestPort;
use parbor_obs::{metrics, span, FleetStatus, RecorderHandle};

use crate::job::ScanJob;
use crate::journal::{Journal, JournalRecord};
use crate::FleetError;
use parbor_store::ProfileStore;

/// Exit code used by the `crash_after_checkpoints` test hook, so harnesses
/// can tell a deliberate mid-scan kill from a real failure.
pub const CRASH_EXIT_CODE: i32 = 42;

/// Orchestrator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads sharding the job queue (≥ 1).
    pub workers: usize,
    /// Rounds between checkpoints; `0` disables checkpointing (the journal
    /// then only brackets the job with `Start`/`Done`).
    pub checkpoint_every: usize,
    /// Test hook: `process::exit(CRASH_EXIT_CODE)` right after the N-th
    /// checkpoint (counted fleet-wide) hits the journal. Models a hard kill
    /// for the crash-and-resume smoke tests.
    pub crash_after_checkpoints: Option<u64>,
    /// Test hook: stop dispatching gracefully after the N-th checkpoint
    /// (counted fleet-wide); in-flight jobs return `halted` reports. The
    /// in-process twin of `crash_after_checkpoints`.
    pub halt_after_checkpoints: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            checkpoint_every: 32,
            crash_after_checkpoints: None,
            halt_after_checkpoints: None,
        }
    }
}

/// How one job ended in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Whether the job restarted from a journaled checkpoint.
    pub resumed: bool,
    /// Whether the job was skipped because its profile was already stored.
    pub skipped: bool,
    /// Whether the job was parked mid-scan by a fleet halt (journal kept).
    pub halted: bool,
    /// Test rounds this run executed for the job.
    pub rounds: u64,
    /// Checkpoints this run journaled for the job.
    pub checkpoints: u64,
    /// Journal bytes those checkpoints cost.
    pub checkpoint_bytes: u64,
    /// Content hash of the stored profile, when the job completed.
    pub profile_hash: Option<String>,
    /// Failing-cell count of the stored profile, when the job completed.
    pub failures: Option<usize>,
    /// The error message, when the job failed.
    pub error: Option<String>,
}

impl JobReport {
    fn empty(name: &str) -> Self {
        JobReport {
            name: name.to_string(),
            resumed: false,
            skipped: false,
            halted: false,
            rounds: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            profile_hash: None,
            failures: None,
            error: None,
        }
    }
}

/// Outcome of one [`Fleet::run`]/[`Fleet::resume`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-job outcomes, sorted by job name.
    pub jobs: Vec<JobReport>,
}

impl FleetReport {
    /// Jobs whose profile is in the store after this run (completed now or
    /// skipped because it already was).
    pub fn stored(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.profile_hash.is_some())
            .count()
    }

    /// Jobs that completed during this run.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.profile_hash.is_some() && !j.skipped)
            .count()
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.error.is_some()).count()
    }

    /// Jobs parked by a halt.
    pub fn halted(&self) -> usize {
        self.jobs.iter().filter(|j| j.halted).count()
    }

    /// Total test rounds executed across all jobs this run.
    pub fn total_rounds(&self) -> u64 {
        self.jobs.iter().map(|j| j.rounds).sum()
    }

    /// Total journal bytes spent on checkpoints this run.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.checkpoint_bytes).sum()
    }

    /// Whether every job is stored and none failed or halted.
    pub fn is_clean(&self) -> bool {
        self.failed() == 0 && self.halted() == 0 && self.stored() == self.jobs.len()
    }
}

/// Where a job stands, per [`Fleet::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// A journal exists; the job is mid-scan (or was killed mid-scan).
    InFlight,
    /// The job's profile is in the store.
    Done,
}

/// One row of [`Fleet::status`] output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job name.
    pub name: String,
    /// Where the job stands.
    pub state: JobState,
    /// Pipeline stage: the active stage for in-flight jobs, `"done"` for
    /// stored ones.
    pub stage: String,
    /// Rounds covered so far (journaled checkpoint for in-flight jobs,
    /// whole-scan total for stored ones).
    pub rounds: u64,
    /// Failing-cell count, once stored.
    pub failures: Option<usize>,
}

/// Shared accounting behind the live `status.json` surface.
///
/// Workers bump the atomics as they claim jobs, finish advance chunks, and
/// land checkpoints; every significant event atomically swaps a fresh
/// [`FleetStatus`] document so a watcher (`parbor fleet top`, a dashboard)
/// always reads a consistent snapshot. Rates come from the same clock the
/// recorded telemetry uses, never re-derived elsewhere. A publish failure
/// is deliberately ignored: the status surface is advisory and must never
/// fail a campaign.
struct StatusBoard {
    path: PathBuf,
    started: Instant,
    jobs_total: u64,
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    skipped: AtomicU64,
    rounds_done: AtomicU64,
    rows_written: AtomicU64,
    /// Fleet-wide rounds at the most recent checkpoint (lag approximation:
    /// with several workers the true per-job lag varies, but the global
    /// delta bounds the work at risk).
    rounds_at_ckpt: AtomicU64,
    /// Milliseconds since `started` when the last checkpoint landed.
    ckpt_at_ms: AtomicU64,
}

impl StatusBoard {
    fn new(path: PathBuf, jobs_total: u64, skipped: u64, queued: u64) -> Self {
        StatusBoard {
            path,
            started: Instant::now(),
            jobs_total,
            queued: AtomicU64::new(queued),
            running: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            skipped: AtomicU64::new(skipped),
            rounds_done: AtomicU64::new(0),
            rows_written: AtomicU64::new(0),
            rounds_at_ckpt: AtomicU64::new(0),
            ckpt_at_ms: AtomicU64::new(0),
        }
    }

    fn claim(&self) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.running.fetch_add(1, Ordering::SeqCst);
        self.publish("running");
    }

    fn advanced(&self, rounds: u64, rows_per_round: u64) {
        self.rounds_done.fetch_add(rounds, Ordering::SeqCst);
        self.rows_written
            .fetch_add(rounds.saturating_mul(rows_per_round), Ordering::SeqCst);
    }

    fn checkpointed(&self) {
        self.rounds_at_ckpt
            .store(self.rounds_done.load(Ordering::SeqCst), Ordering::SeqCst);
        self.ckpt_at_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::SeqCst);
        self.publish("running");
    }

    fn finished(&self, report: &JobReport) {
        self.running.fetch_sub(1, Ordering::SeqCst);
        let bucket = if report.error.is_some() {
            &self.failed
        } else if report.skipped {
            &self.skipped
        } else if report.halted {
            // Halted jobs go back to the queue conceptually; the final
            // "halted" publish tells the watcher why progress stopped.
            &self.queued
        } else {
            &self.done
        };
        bucket.fetch_add(1, Ordering::SeqCst);
        self.publish("running");
    }

    fn snapshot(&self, state: &str) -> FleetStatus {
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let elapsed_s = (elapsed_ms as f64 / 1000.0).max(1e-9);
        let rounds_done = self.rounds_done.load(Ordering::SeqCst);
        let done = self.done.load(Ordering::SeqCst);
        let failed = self.failed.load(Ordering::SeqCst);
        let skipped = self.skipped.load(Ordering::SeqCst);
        let settled = done + failed + skipped;
        let remaining = self.jobs_total.saturating_sub(settled);
        // ETA extrapolates jobs-per-second of the jobs that actually ran;
        // skipped jobs cost nothing, so they are excluded from the rate.
        let eta_s = if remaining == 0 {
            Some(0.0)
        } else if done + failed > 0 {
            Some(remaining as f64 * elapsed_s / (done + failed) as f64)
        } else {
            None
        };
        FleetStatus {
            state: state.to_string(),
            jobs_total: self.jobs_total,
            jobs_queued: self.queued.load(Ordering::SeqCst),
            jobs_running: self.running.load(Ordering::SeqCst),
            jobs_done: done,
            jobs_failed: failed,
            jobs_skipped: skipped,
            rounds_done,
            rows_written: self.rows_written.load(Ordering::SeqCst),
            elapsed_ms,
            rounds_per_s: rounds_done as f64 / elapsed_s,
            rows_per_s: self.rows_written.load(Ordering::SeqCst) as f64 / elapsed_s,
            checkpoint_lag_rounds: rounds_done
                .saturating_sub(self.rounds_at_ckpt.load(Ordering::SeqCst)),
            checkpoint_lag_ms: elapsed_ms.saturating_sub(self.ckpt_at_ms.load(Ordering::SeqCst)),
            eta_s,
            updated_ms: elapsed_ms,
        }
    }

    fn publish(&self, state: &str) {
        let _ = self.snapshot(state).write_atomic(&self.path);
    }
}

/// Builds the [`TestPort`] a worker drives for one job.
///
/// Factories are shared across the worker pool, hence `Send + Sync`; each
/// call must hand back a freshly built port positioned at round zero (the
/// orchestrator applies mode settings and fast-forwards it for resume).
pub type PortFactory = Box<dyn Fn(&ScanJob) -> Result<Box<dyn TestPort>, FleetError> + Send + Sync>;

/// The sharded scan orchestrator.
pub struct Fleet {
    root: PathBuf,
    config: FleetConfig,
    rec: RecorderHandle,
    port_factory: PortFactory,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("root", &self.root)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// A fleet rooted at `root` (created on first use).
    ///
    /// Jobs run against the simulator by default: each worker builds its
    /// job's module from the embedded [`ModuleSpec`](parbor_dram::ModuleSpec).
    /// Use [`with_port_factory`](Fleet::with_port_factory) to run against a
    /// different backend.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidConfig`] when `workers` is zero.
    pub fn new(root: impl Into<PathBuf>, config: FleetConfig) -> Result<Self, FleetError> {
        if config.workers == 0 {
            return Err(FleetError::InvalidConfig(
                "fleet needs at least one worker".into(),
            ));
        }
        Ok(Fleet {
            root: root.into(),
            config,
            rec: RecorderHandle::null(),
            port_factory: Box::new(|job| Ok(Box::new(job.module.build()?))),
        })
    }

    /// Attaches a recorder for the `fleet.*` counters and spans.
    #[must_use]
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.rec = rec;
        self
    }

    /// Replaces the backend: `factory` builds the port each worker drives
    /// for its job — a decorated simulator, a transcript replay, eventually
    /// real hardware.
    #[must_use]
    pub fn with_port_factory(mut self, factory: PortFactory) -> Self {
        self.port_factory = factory;
        self
    }

    /// The fleet's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding in-flight job journals.
    pub fn journal_dir(&self) -> PathBuf {
        self.root.join("journal")
    }

    /// Directory holding the profile store.
    pub fn store_dir(&self) -> PathBuf {
        self.root.join("store")
    }

    /// Path of the live status surface this fleet swaps while running
    /// (readable any time with [`FleetStatus::load`]).
    pub fn status_path(&self) -> PathBuf {
        self.root.join(FleetStatus::FILE_NAME)
    }

    /// Runs `jobs` to completion across the worker pool. Already-stored
    /// jobs are skipped; jobs with surviving journals are resumed. Job
    /// failures land in the report, not in `Err` — the rest of the queue
    /// still drains.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidConfig`] on duplicate or unsafe job names;
    /// store/journal-directory I/O errors.
    pub fn run(&self, jobs: Vec<ScanJob>) -> Result<FleetReport, FleetError> {
        let mut names = BTreeSet::new();
        for job in &jobs {
            if !job.name_is_valid() {
                return Err(FleetError::InvalidConfig(format!(
                    "'{}' is not a valid job name",
                    job.name
                )));
            }
            if !names.insert(job.name.clone()) {
                return Err(FleetError::InvalidConfig(format!(
                    "duplicate job name '{}'",
                    job.name
                )));
            }
        }
        let journal_dir = self.journal_dir();
        fs::create_dir_all(&journal_dir)?;
        let store = ProfileStore::open_with_recorder(self.store_dir(), self.rec.clone())?;

        let mut reports = Vec::new();
        let mut pending = VecDeque::new();
        for job in jobs {
            let wal = journal_dir.join(format!("{}.wal", job.name));
            if store.contains(&job.name) && !wal.exists() {
                let meta = store.meta(&job.name)?.expect("contains implies meta");
                reports.push(JobReport {
                    skipped: true,
                    profile_hash: Some(meta.hash.clone()),
                    failures: Some(meta.failures),
                    ..JobReport::empty(&job.name)
                });
            } else {
                if !wal.exists() {
                    // Journal the Start before any work happens, so a crash
                    // at any point leaves enough on disk for resume() to
                    // reconstruct the *entire* queue, not just jobs that
                    // already got a worker.
                    Journal::create(&wal)?.append(&JournalRecord::Start { job: job.clone() })?;
                }
                pending.push_back(job);
            }
        }
        self.rec
            .incr(metrics::fleet::JOBS_QUEUED, pending.len() as u64);
        let board = StatusBoard::new(
            self.status_path(),
            (reports.len() + pending.len()) as u64,
            reports.len() as u64,
            pending.len() as u64,
        );
        board.publish("running");

        let _campaign = span!(self.rec, metrics::fleet::CAMPAIGN_SPAN);
        let workers = self.config.workers.min(pending.len()).max(1);
        let queue = Mutex::new(pending);
        let store = Mutex::new(store);
        let done_reports: Mutex<Vec<JobReport>> = Mutex::new(Vec::new());
        let checkpoints = AtomicU64::new(0);
        let halt = AtomicBool::new(false);
        let running = AtomicI64::new(0);

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    if halt.load(Ordering::SeqCst) {
                        break;
                    }
                    let Some(job) = lock(&queue).pop_front() else {
                        break;
                    };
                    self.rec.gauge(
                        metrics::fleet::JOBS_RUNNING,
                        running.fetch_add(1, Ordering::SeqCst) + 1,
                    );
                    board.claim();
                    let report = self
                        .run_job(&job, &journal_dir, &store, &checkpoints, &halt, &board)
                        .unwrap_or_else(|e| {
                            self.rec.incr(metrics::fleet::JOBS_FAILED, 1);
                            JobReport {
                                error: Some(e.to_string()),
                                ..JobReport::empty(&job.name)
                            }
                        });
                    board.finished(&report);
                    lock(&done_reports).push(report);
                    self.rec.gauge(
                        metrics::fleet::JOBS_RUNNING,
                        running.fetch_sub(1, Ordering::SeqCst) - 1,
                    );
                });
            }
        });

        reports.append(
            &mut done_reports
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        );
        reports.sort_by(|a, b| a.name.cmp(&b.name));
        let report = FleetReport { jobs: reports };
        board.publish(if report.halted() > 0 {
            "halted"
        } else {
            "done"
        });
        Ok(report)
    }

    /// Resumes every job with a surviving journal (after a crash or halt).
    /// Job specs come from the journals' `Start` records; nothing else
    /// needs to be re-supplied.
    ///
    /// # Errors
    ///
    /// [`FleetError::Corrupt`] when a journal is unreadable beyond
    /// recovery; I/O errors.
    pub fn resume(&self) -> Result<FleetReport, FleetError> {
        let mut jobs = Vec::new();
        for wal in self.journal_paths()? {
            let recovered = Journal::recover(&wal, &self.rec)?;
            match recovered.job() {
                Some(job) => jobs.push(job.clone()),
                None => {
                    // Truncated before the Start record ever landed: nothing
                    // to resume, nothing lost — the run() path will restart
                    // the job if it is queued again.
                    fs::remove_file(&wal)?;
                }
            }
        }
        self.run(jobs)
    }

    /// Where every known job stands: stored profiles plus in-flight
    /// journals, sorted by name. Read-only (journals are not truncated).
    ///
    /// # Errors
    ///
    /// Store or journal I/O and corruption errors.
    pub fn status(&self) -> Result<Vec<JobStatus>, FleetError> {
        let store = ProfileStore::open_with_recorder(self.store_dir(), self.rec.clone())?;
        let mut out = Vec::new();
        for name in store.modules()? {
            let stored = store.get(&name)?;
            out.push(JobStatus {
                name,
                state: JobState::Done,
                stage: "done".into(),
                rounds: stored.profile.total_rounds() as u64,
                failures: Some(stored.profile.failures.len()),
            });
        }
        for wal in self.journal_paths()? {
            let name = wal
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if store.contains(&name) {
                continue;
            }
            let recovered = Journal::read(&wal)?;
            let (stage, rounds) = match recovered.last_checkpoint() {
                Some(state) => (state.stage_name().to_string(), state.rounds_done),
                None => ("discover".into(), 0),
            };
            out.push(JobStatus {
                name,
                state: JobState::InFlight,
                stage,
                rounds,
                failures: None,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn journal_paths(&self) -> Result<Vec<PathBuf>, FleetError> {
        let dir = self.journal_dir();
        let mut out = Vec::new();
        if dir.is_dir() {
            for entry in fs::read_dir(&dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "wal") {
                    out.push(path);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Drives one job from its current journal state to the store.
    fn run_job(
        &self,
        job: &ScanJob,
        journal_dir: &Path,
        store: &Mutex<ProfileStore>,
        fleet_checkpoints: &AtomicU64,
        halt: &AtomicBool,
        board: &StatusBoard,
    ) -> Result<JobReport, FleetError> {
        let _span = span!(self.rec, metrics::fleet::JOB_SPAN);
        let job_start = Instant::now();
        let wal = journal_dir.join(format!("{}.wal", job.name));
        let mut resumed = false;
        let (mut journal, machine) = if wal.exists() {
            let recovered = Journal::recover(&wal, &self.rec)?;
            if recovered.is_done() && lock(store).contains(&job.name) {
                // Crashed between store publication and journal removal:
                // the profile is safe, just finish the cleanup.
                let guard = lock(store);
                let meta = guard.meta(&job.name)?.expect("store contains job");
                let report = JobReport {
                    resumed: true,
                    skipped: true,
                    profile_hash: Some(meta.hash.clone()),
                    failures: Some(meta.failures),
                    ..JobReport::empty(&job.name)
                };
                drop(guard);
                fs::remove_file(&wal)?;
                return Ok(report);
            }
            let mut journal = Journal::open_append(&wal)?;
            if recovered.job().is_none() {
                journal.append(&JournalRecord::Start { job: job.clone() })?;
            }
            let machine = match recovered.last_checkpoint() {
                Some(state) => {
                    resumed = true;
                    self.rec.incr(metrics::fleet::RESUMES, 1);
                    ScanMachine::from_state(state.clone())
                }
                None => ScanMachine::new(job.config.clone()),
            };
            (journal, machine)
        } else {
            let mut journal = Journal::create(&wal)?;
            journal.append(&JournalRecord::Start { job: job.clone() })?;
            (journal, ScanMachine::new(job.config.clone()))
        };
        let mut machine = machine.with_recorder(self.rec.clone());

        let mut port = (self.port_factory)(job)?;
        port.fast_forward(machine.rounds_done());

        let rounds_at_start = machine.rounds_done();
        let budget = match self.config.checkpoint_every {
            0 => usize::MAX,
            n => n,
        };
        let mut checkpoints = 0u64;
        let mut checkpoint_bytes = 0u64;
        // Every detection round writes each row under test once, so the
        // status surface's rows/s is rounds × module rows — an upper-bound
        // approximation that tracks real throughput within a round.
        let rows_per_round = u64::from(job.module.geometry.banks)
            * u64::from(job.module.geometry.rows_per_bank)
            * job.module.chips as u64;
        let mut rounds_seen = machine.rounds_done();
        while !machine.is_done() {
            machine.advance(&mut *port, budget)?;
            let now_done = machine.rounds_done();
            board.advanced(now_done - rounds_seen, rows_per_round);
            rounds_seen = now_done;
            if self.config.checkpoint_every > 0 && !machine.is_done() {
                let bytes = journal.append(&JournalRecord::Checkpoint {
                    state: machine.state().clone(),
                })?;
                checkpoints += 1;
                checkpoint_bytes += bytes;
                self.rec.incr(metrics::fleet::CHECKPOINTS, 1);
                self.rec.incr(metrics::fleet::CHECKPOINT_BYTES, bytes);
                board.checkpointed();
                let nth = fleet_checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(limit) = self.config.crash_after_checkpoints {
                    if nth >= limit {
                        journal.sync().ok();
                        std::process::exit(CRASH_EXIT_CODE);
                    }
                }
                if let Some(limit) = self.config.halt_after_checkpoints {
                    if nth >= limit {
                        halt.store(true, Ordering::SeqCst);
                    }
                }
            }
            if halt.load(Ordering::SeqCst) && !machine.is_done() {
                return Ok(JobReport {
                    resumed,
                    halted: true,
                    rounds: machine.rounds_done() - rounds_at_start,
                    checkpoints,
                    checkpoint_bytes,
                    ..JobReport::empty(&job.name)
                });
            }
        }

        let profile = machine.profile().expect("machine is done").clone();
        let meta = lock(store).put(&job.name, &profile)?;
        journal.append(&JournalRecord::Done {
            profile_hash: meta.hash.clone(),
        })?;
        drop(journal);
        fs::remove_file(&wal)?;
        self.rec.incr(metrics::fleet::JOBS_DONE, 1);
        self.rec.observe(
            metrics::fleet::JOB_US,
            job_start.elapsed().as_micros() as u64,
        );
        Ok(JobReport {
            resumed,
            rounds: machine.rounds_done() - rounds_at_start,
            checkpoints,
            checkpoint_bytes,
            profile_hash: Some(meta.hash),
            failures: Some(meta.failures),
            ..JobReport::empty(&job.name)
        })
    }
}

/// Locks a mutex the workers share, recovering it if a worker panicked
/// while holding it. The panic still fails the run when the worker scope
/// joins; until then the other workers finish their jobs, publishing to
/// the store and journaling as usual, instead of panicking in turn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
