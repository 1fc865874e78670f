//! `parbor-store`: the columnar profile storage engine behind the fleet
//! orchestrator and the `parbor-serve` query service.
//!
//! A store maps module names to [`FailureProfile`](parbor_core::FailureProfile)s
//! on disk, built for the fleet's access pattern: many independent
//! appends while a campaign runs, then bulk reads (snapshot compilation,
//! fleet-wide aggregation) once it settles.
//!
//! - **Columnar segments** ([`segment`]): profiles are packed column-wise
//!   (`PBSTSEG1` magic, varint + zigzag + bit-packed columns) inside
//!   checksummed frames, so a torn or bit-flipped record costs only the
//!   cells its damage covers.
//! - **Generational compaction** ([`ProfileStore::compact`]): appends land
//!   as single-record L0 segments; compaction merges everything into
//!   sorted, deduplicated (latest-write-wins) chunk files behind an atomic
//!   manifest swap. A crash mid-compaction recovers to exactly the pre- or
//!   post-compaction store.
//! - **Sharded index**: module lookups go through 16 hash-sharded index
//!   files loaded lazily, so a cold query touches one shard, not the
//!   whole fleet's index.
//! - **Streaming aggregation** ([`ProfileStore::aggregate`]): fleet-wide
//!   rollups (distance histograms, per-vendor failure rates) stream one
//!   segment at a time.
//!
//! The v1 layout (`index.json` + one JSONL file per module) is retired: a
//! root holding one opens as [`StoreError::RetiredLayout`] and is left
//! untouched.
//!
//! The crate depends only on `parbor-core` (profile types), `parbor-hal`
//! (hash, varint and frame codecs) and `parbor-obs` (metrics) — no I/O
//! framework, no database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod segment;
mod store;

pub use aggregate::{AggregateBuilder, FleetAggregate, HistSummary, VendorRollup};
pub use segment::format_hash;
pub use store::{
    shard_file, shard_of, CompactPhase, CompactReport, GenSegmentMeta, GenerationMeta,
    ProfileStore, SegmentMeta, StoreStats, StoredProfile, CHUNK_RECORDS, COMPACTING_MARKER,
    SHARD_COUNT, STORE_VERSION,
};

use std::path::PathBuf;

/// Errors the store surfaces.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// On-disk state that does not parse or verify.
    Corrupt {
        /// The file the damage was found in.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
    /// A JSON document failed to serialize or deserialize.
    Serde(String),
    /// A caller-supplied name or parameter the store cannot accept.
    InvalidConfig(String),
    /// A root in the retired v1 layout (`index.json`, no `manifest.json`).
    RetiredLayout {
        /// The store root.
        path: PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store state in {}: {detail}", path.display())
            }
            StoreError::Serde(msg) => write!(f, "store serialization error: {msg}"),
            StoreError::InvalidConfig(msg) => write!(f, "invalid store request: {msg}"),
            StoreError::RetiredLayout { path } => write!(
                f,
                "{} holds a v1 store (index.json + JSONL segments), a retired layout \
                 this build no longer reads",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Serde(e.0.to_string())
    }
}
