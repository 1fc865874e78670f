//! # parbor-fleet — the deployed profiler
//!
//! PARBOR's end state is not a one-shot binary: §VII of the paper envisions
//! the OS re-running detection periodically across every module in a
//! machine and feeding the resulting failure profiles to mitigation
//! (DC-REF). This crate is that layer — a scan *campaign* runner:
//!
//! * [`Fleet`] maintains a queue of per-module scan jobs ([`ScanJob`]) and
//!   shards them across a scoped-thread worker pool. Each worker drives a
//!   [`ScanMachine`](parbor_core::ScanMachine) (discover → recursion →
//!   aggregate → chip-wide) against the module built from the job's
//!   [`ModuleSpec`](parbor_dram::ModuleSpec), reusing the existing
//!   `ParallelMode`/`RoundExecutor` machinery inside each module.
//! * Every job checkpoints its pipeline state to a crash-safe write-ahead
//!   [`Journal`] (length + checksum framed records, truncated-tail
//!   recovery). A killed process resumes mid-scan — device rebuilt from
//!   spec, round clock fast-forwarded — and produces a **byte-identical**
//!   profile to an uninterrupted run.
//! * Finished profiles land in the columnar, generational
//!   [`ProfileStore`] (the `parbor-store` crate: checksummed `PBSTSEG1`
//!   segments, a 16-way sharded index, crash-safe compaction) that the
//!   DC-REF/mitigation path and the `parbor fleet`/`parbor store` CLIs
//!   read back. Stores written by the old single-`index.json` JSONL
//!   format open transparently and migrate on first compaction.
//!
//! Progress is observable through the `fleet.*` counters and spans named in
//! [`parbor_obs::metrics::fleet`].
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/
//!   journal/<job>.wal            in-flight jobs only; removed on completion
//!   store/manifest.json          store version, epoch, compacted generations
//!   store/index-<shard>.json     sharded module index with content hashes
//!   store/segments/*.pbs         columnar profile segments (L0 + generations)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod journal;
mod orchestrator;

pub use job::ScanJob;
pub use journal::{Journal, JournalRecord, RecoveredJournal};
pub use orchestrator::{
    Fleet, FleetConfig, FleetReport, JobReport, JobState, JobStatus, PortFactory, CRASH_EXIT_CODE,
};
pub use parbor_store::{
    format_hash, ProfileStore, SegmentMeta, StoreError, StoredProfile, STORE_VERSION,
};

use std::fmt;
use std::path::PathBuf;

/// Errors of the fleet layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// A file's framing, checksum, or format is beyond recovery.
    Corrupt {
        /// The unreadable file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// A record failed to (de)serialize.
    Serde(String),
    /// A scan job's pipeline failed.
    Scan(parbor_core::ParborError),
    /// A module spec failed to build a device.
    Device(parbor_dram::DramError),
    /// The orchestrator configuration is invalid.
    InvalidConfig(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "i/o error: {e}"),
            FleetError::Corrupt { path, detail } => {
                write!(f, "corrupt file {}: {detail}", path.display())
            }
            FleetError::Serde(msg) => write!(f, "serialization error: {msg}"),
            FleetError::Scan(e) => write!(f, "scan failed: {e}"),
            FleetError::Device(e) => write!(f, "device error: {e}"),
            FleetError::InvalidConfig(msg) => write!(f, "invalid fleet config: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            FleetError::Scan(e) => Some(e),
            FleetError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

impl From<parbor_core::ParborError> for FleetError {
    fn from(e: parbor_core::ParborError) -> Self {
        FleetError::Scan(e)
    }
}

impl From<parbor_dram::DramError> for FleetError {
    fn from(e: parbor_dram::DramError) -> Self {
        FleetError::Device(e)
    }
}

impl From<serde_json::Error> for FleetError {
    fn from(e: serde_json::Error) -> Self {
        FleetError::Serde(e.0)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => FleetError::Io(e),
            StoreError::Corrupt { path, detail } => FleetError::Corrupt { path, detail },
            StoreError::Serde(msg) => FleetError::Serde(msg),
            StoreError::InvalidConfig(msg) => FleetError::InvalidConfig(msg),
            StoreError::RetiredLayout { path } => FleetError::Corrupt {
                path,
                detail: "retired v1 store layout (index.json + JSONL segments)".into(),
            },
        }
    }
}
