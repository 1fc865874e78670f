//! The per-job write-ahead journal.
//!
//! One journal file (`journal/<job>.wal`) exists while a job is in flight.
//! It starts with an 8-byte magic, followed by framed records:
//!
//! ```text
//! [u64 LE payload length][u64 LE FNV-1a of payload][payload JSON]
//! ```
//!
//! Appends go through the OS with an explicit flush per record, so the only
//! damage a crash can inflict is a *torn tail*: a partially written final frame.
//! Recovery walks the frames front to back, stops at the first frame whose
//! length or checksum does not hold, truncates the file back to the last
//! valid frame, and surfaces a `fleet.recovery` event — the scan then
//! resumes from the last checkpoint that fully hit the disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use parbor_core::ScanState;
use parbor_hal::hash::fnv1a64;
use parbor_obs::{metrics, RecorderHandle};

use crate::job::ScanJob;
use crate::FleetError;

/// File magic: identifies a parbor-fleet WAL, version 1.
const MAGIC: &[u8; 8] = b"PBFLTWA1";

/// Upper bound on a single record payload (a corrupted length field must
/// not trigger a giant allocation).
const MAX_RECORD_BYTES: u64 = 1 << 30;

/// One journaled event in a job's life.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The job was claimed; carries everything needed to restart it.
    Start {
        /// The full job description.
        job: ScanJob,
    },
    /// A consistent snapshot of the scan's pipeline state.
    Checkpoint {
        /// The checkpointed state.
        state: ScanState,
    },
    /// The job finished and its profile landed in the store.
    Done {
        /// Content hash of the stored segment (`fnv64:…`).
        profile_hash: String,
    },
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes the magic.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, FleetError> {
        let path = path.into();
        let mut file = File::create(&path)?;
        file.write_all(MAGIC)?;
        file.flush()?;
        Ok(Journal { path, file })
    }

    /// Opens an existing journal for appending (after
    /// [`recover`](Journal::recover) has validated and possibly truncated
    /// it).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn open_append(path: impl Into<PathBuf>) -> Result<Self, FleetError> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal { path, file })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed record and flushes it to the OS. Returns the
    /// bytes written (framing included).
    ///
    /// # Errors
    ///
    /// I/O or serialization errors.
    pub fn append(&mut self, record: &JournalRecord) -> Result<u64, FleetError> {
        let payload = serde_json::to_string(record)?;
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(16 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        Ok(frame.len() as u64)
    }

    /// Forces everything appended so far onto the disk.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn sync(&self) -> Result<(), FleetError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Reads a journal without modifying it: the valid record prefix, plus
    /// whether an invalid tail follows it.
    ///
    /// # Errors
    ///
    /// [`FleetError::Corrupt`] if the magic is wrong (nothing in the file
    /// can be trusted); I/O errors.
    pub fn read(path: impl AsRef<Path>) -> Result<RecoveredJournal, FleetError> {
        let path = path.as_ref();
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(FleetError::Corrupt {
                path: path.to_path_buf(),
                detail: "bad or missing journal magic".into(),
            });
        }
        let mut records = Vec::new();
        let mut offset = MAGIC.len();
        let mut truncated = false;
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < 16 {
                truncated = true; // torn frame header
                break;
            }
            let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
            if len > MAX_RECORD_BYTES || (rest.len() as u64) < 16 + len {
                truncated = true; // torn or garbage payload length
                break;
            }
            let payload = &rest[16..16 + len as usize];
            if fnv1a64(payload) != checksum {
                truncated = true; // torn or bit-rotted payload
                break;
            }
            let text = std::str::from_utf8(payload).map_err(|_| FleetError::Corrupt {
                path: path.to_path_buf(),
                detail: "checksummed record is not UTF-8".into(),
            })?;
            records.push(serde_json::from_str(text).map_err(|e| FleetError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("checksummed record does not parse: {}", e.0),
            })?);
            offset += 16 + len as usize;
        }
        Ok(RecoveredJournal {
            records,
            truncated,
            valid_bytes: offset as u64,
        })
    }

    /// Reads a journal and, if it has an invalid tail, truncates the file
    /// back to the last valid record and surfaces a `fleet.recovery` event.
    ///
    /// # Errors
    ///
    /// See [`read`](Journal::read).
    pub fn recover(
        path: impl AsRef<Path>,
        rec: &RecorderHandle,
    ) -> Result<RecoveredJournal, FleetError> {
        let path = path.as_ref();
        let recovered = Self::read(path)?;
        if recovered.truncated {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(recovered.valid_bytes)?;
            file.sync_data()?;
            rec.incr(metrics::fleet::RECOVERY, 1);
        }
        Ok(recovered)
    }
}

/// What [`Journal::read`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJournal {
    /// The valid record prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether an invalid tail followed the valid prefix.
    pub truncated: bool,
    /// File offset just past the last valid record.
    pub valid_bytes: u64,
}

impl RecoveredJournal {
    /// The job description from the `Start` record, if journaled.
    pub fn job(&self) -> Option<&ScanJob> {
        self.records.iter().find_map(|r| match r {
            JournalRecord::Start { job } => Some(job),
            _ => None,
        })
    }

    /// The most recent checkpointed state, if any.
    pub fn last_checkpoint(&self) -> Option<&ScanState> {
        self.records.iter().rev().find_map(|r| match r {
            JournalRecord::Checkpoint { state } => Some(state),
            _ => None,
        })
    }

    /// Whether the job journaled its completion.
    pub fn is_done(&self) -> bool {
        self.records
            .iter()
            .any(|r| matches!(r, JournalRecord::Done { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbor_core::ParborConfig;
    use parbor_dram::{ModuleSpec, Vendor};
    use parbor_obs::ShardedRecorder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "parbor-fleet-journal-{}-{tag}-{n}.wal",
            std::process::id()
        ))
    }

    fn sample_records() -> Vec<JournalRecord> {
        let job = ScanJob::new("A1", ModuleSpec::new(Vendor::A));
        vec![
            JournalRecord::Start { job },
            JournalRecord::Checkpoint {
                state: ScanState::new(ParborConfig::default()),
            },
            JournalRecord::Done {
                profile_hash: "fnv64:0123456789abcdef".into(),
            },
        ]
    }

    #[test]
    fn append_read_roundtrip() {
        let path = temp_wal("roundtrip");
        let mut journal = Journal::create(&path).expect("create");
        for record in sample_records() {
            journal.append(&record).expect("append");
        }
        let read = Journal::read(&path).expect("read");
        assert_eq!(read.records, sample_records());
        assert!(!read.truncated);
        assert!(read.is_done());
        assert!(read.job().is_some());
        assert!(read.last_checkpoint().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = temp_wal("torn");
        let mut journal = Journal::create(&path).expect("create");
        let records = sample_records();
        journal.append(&records[0]).expect("append start");
        journal.append(&records[1]).expect("append checkpoint");
        drop(journal);
        // Simulate a crash mid-append: a frame header promising more bytes
        // than ever hit the disk.
        let mut bytes = std::fs::read(&path).expect("read wal");
        let valid_len = bytes.len() as u64;
        bytes.extend_from_slice(&999u64.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 12]);
        std::fs::write(&path, &bytes).expect("tear tail");

        let rec = ShardedRecorder::handle();
        let handle = RecorderHandle::new(rec.clone());
        let recovered = Journal::recover(&path, &handle).expect("recover");
        assert!(recovered.truncated);
        assert_eq!(recovered.records, records[..2].to_vec());
        assert_eq!(recovered.valid_bytes, valid_len);
        assert_eq!(rec.snapshot().counter(metrics::fleet::RECOVERY), 1);
        assert_eq!(
            std::fs::metadata(&path).expect("metadata").len(),
            valid_len,
            "file rolled back to the last valid record"
        );

        // The journal must accept appends again after recovery.
        let mut journal = Journal::open_append(&path).expect("reopen");
        journal.append(&records[2]).expect("append after recovery");
        let read = Journal::read(&path).expect("reread");
        assert_eq!(read.records, records);
        assert!(!read.truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_byte_rolls_back_to_prior_record() {
        let path = temp_wal("bitflip");
        let mut journal = Journal::create(&path).expect("create");
        let records = sample_records();
        journal.append(&records[0]).expect("append start");
        journal.append(&records[1]).expect("append checkpoint");
        drop(journal);
        // Flip one byte inside the final record's payload.
        let mut bytes = std::fs::read(&path).expect("read wal");
        let last = bytes.len() - 3;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");

        let rec = ShardedRecorder::handle();
        let handle = RecorderHandle::new(rec.clone());
        let recovered = Journal::recover(&path, &handle).expect("recover");
        assert!(recovered.truncated);
        assert_eq!(recovered.records, records[..1].to_vec());
        assert_eq!(rec.snapshot().counter(metrics::fleet::RECOVERY), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_corrupt_not_recoverable() {
        let path = temp_wal("magic");
        std::fs::write(&path, b"NOTAWAL!rest").expect("write");
        let err = Journal::read(&path).expect_err("must fail");
        assert!(matches!(err, FleetError::Corrupt { .. }));
        std::fs::remove_file(&path).ok();
    }
}
