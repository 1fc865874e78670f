//! Record/replay port decorators: round transcripts as a compact framed
//! binary stream.
//!
//! [`RecordingPort`] wraps any inner [`TestPort`] and captures every round —
//! a digest of what was written plus the exact flips observed — into a
//! transcript file. [`ReplayPort`] plays a transcript back as a `TestPort`
//! of its own: the pipeline re-issues the same writes (it is deterministic),
//! the replay port verifies each round's digest against the capture, and
//! returns the recorded flips. A captured run therefore reproduces
//! bit-identically **without the simulator** — the same mechanism a future
//! real-hardware backend would use to make a one-shot physical capture
//! endlessly re-analyzable.
//!
//! # On-disk format
//!
//! The file starts with the 8 magic bytes [`TRANSCRIPT_MAGIC`]
//! (`PBHALTB1`), then a sequence of records in the shared
//! [`frame`](crate::frame) layout:
//!
//! ```text
//! [len: u32 LE] [checksum(payload): u64 LE] [payload: len bytes]
//! ```
//!
//! The checksum is the eight-lane word fold
//! ([`hash_bytes_x8`](crate::hash::hash_bytes_x8)), not byte-wise FNV: a
//! serial byte hash would put a dependency chain back on the round hot
//! path. The write-set digest is eight-lane for the same reason.
//!
//! The header payload is LEB128 varints `version, units, banks,
//! rows_per_bank, cols_per_row`. Each round payload is `writes` (varint),
//! the raw 8-byte write-set digest (u64 LE), `flip_count` (varint), then
//! per flip the varints `unit, bank, row, col << 1 | expected` — the
//! expected bit rides in the column's low bit so a typical flip costs a
//! handful of bytes. Every record is flushed, so a transcript is valid up to
//! the last completed round even if the recording process dies.
//!
//! The original JSONL format (`PBHALTR1`) is retired: opening one fails
//! with [`DramError::RetiredFormat`]. `parbor transcript dump` is the
//! human-readable view.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::Serialize;

use crate::engine::RoundPlan;
use crate::error::DramError;
use crate::frame;
use crate::geometry::ChipGeometry;
use crate::hash::{hash_bytes_x8, LaneHasher};
use crate::port::{Flip, KernelMode, ParallelMode, RowWrite, TestPort};
use crate::varint;

/// Magic bytes opening a parbor-hal round transcript, format version 1.
pub const TRANSCRIPT_MAGIC: &[u8; 8] = b"PBHALTB1";

/// Magic of the retired JSONL transcript format. Only recognized, so that
/// opening an old capture names the format instead of failing as garbage.
const RETIRED_JSONL_MAGIC: &[u8; 8] = b"PBHALTR1";

/// Current transcript format version.
const TRANSCRIPT_VERSION: u32 = 1;

/// Words per sampled content group in the digest: one 64-byte cache line's
/// worth, hashed whole because loading any word of a line pays for all
/// eight.
const DIGEST_GROUP_WORDS: usize = 8;

/// Stride between sampled groups, in words: every fourth cache line of row
/// data. The digest's cost is memory traffic, not hashing — streaming every
/// word re-reads the whole round's row data (~13 MB/run on the bench
/// workload), so the digest samples content instead of exhaustively folding
/// it.
const DIGEST_SAMPLE_STRIDE_WORDS: usize = 32;

/// Canonical write-set digest of a round.
///
/// Folds every write's coordinates and length, and the write count,
/// exactly, but *samples* row content: one cache-line-sized word group per
/// [`DIGEST_SAMPLE_STRIDE_WORDS`], plus the row's final group. Rows up to
/// 256 bits are still covered in full. Plan-level divergence (different
/// rows, counts, or lengths — what a wrong config or code path actually
/// produces) is caught exactly; a content mismatch is caught when it touches
/// a sampled line, which includes every row's first and last line.
fn digest_writes(writes: &[RowWrite]) -> u64 {
    let mut h = LaneHasher::new();
    for w in writes {
        h.push((u64::from(w.unit) << 32) | u64::from(w.row.bank));
        h.push(u64::from(w.row.row));
        h.push(w.data.len() as u64);
        let words = w.data.words();
        let mut i = 0;
        while i < words.len() {
            h.extend_slice(&words[i..(i + DIGEST_GROUP_WORDS).min(words.len())]);
            i += DIGEST_SAMPLE_STRIDE_WORDS;
        }
        if !words.is_empty() {
            let tail = (words.len() - 1) / DIGEST_GROUP_WORDS * DIGEST_GROUP_WORDS;
            if !tail.is_multiple_of(DIGEST_SAMPLE_STRIDE_WORDS) {
                h.extend_slice(&words[tail..]);
            }
        }
    }
    h.finish()
}

fn encode_header(units: u32, geometry: ChipGeometry) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    varint::put(&mut payload, u64::from(TRANSCRIPT_VERSION));
    varint::put(&mut payload, u64::from(units));
    varint::put(&mut payload, u64::from(geometry.banks));
    varint::put(&mut payload, u64::from(geometry.rows_per_bank));
    varint::put(&mut payload, u64::from(geometry.cols_per_row));
    payload
}

fn encode_round(n_writes: u64, digest: u64, flips: &[Flip]) -> Vec<u8> {
    // Varints straight off the flip slice: no intermediate allocation, no
    // serde — this is the recording hot path.
    let mut payload = Vec::with_capacity(18 + flips.len() * 8);
    varint::put(&mut payload, n_writes);
    payload.extend_from_slice(&digest.to_le_bytes());
    varint::put(&mut payload, flips.len() as u64);
    for f in flips {
        varint::put(&mut payload, u64::from(f.unit));
        varint::put(&mut payload, u64::from(f.flip.addr.bank));
        varint::put(&mut payload, u64::from(f.flip.addr.row));
        varint::put(
            &mut payload,
            (u64::from(f.flip.addr.col) << 1) | u64::from(f.flip.expected),
        );
    }
    payload
}

fn io_err(path: &Path, what: &str, e: impl std::fmt::Display) -> DramError {
    DramError::Backend(format!("transcript {}: {what}: {e}", path.display()))
}

fn corrupt(path: &Path, record: usize, detail: impl Into<String>) -> DramError {
    DramError::Backend(format!(
        "transcript {} record {record}: {}",
        path.display(),
        detail.into()
    ))
}

/// Summary of a parsed transcript (header plus totals), for reporting and
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TranscriptInfo {
    /// Transcript format version.
    pub version: u32,
    /// Number of units the capturing port exposed.
    pub units: u32,
    /// Per-unit geometry of the capturing port.
    pub geometry: ChipGeometry,
    /// Number of recorded rounds.
    pub rounds: u64,
    /// Total row writes across all rounds.
    pub total_writes: u64,
    /// Total flips across all rounds.
    pub total_flips: u64,
}

/// One recorded round, as [`ReplayPort::rounds`] exposes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptRound {
    /// Number of row writes issued in the round.
    pub writes: u64,
    /// The round's write-set digest.
    pub digest: u64,
    /// Every flip the capturing port reported, in report order.
    pub flips: Vec<Flip>,
}

/// A [`TestPort`] decorator that records every round to a transcript file.
///
/// Transparent by construction: all port behavior comes from the inner port;
/// this decorator only observes. Each round's record is flushed to the OS
/// before the flips are returned, so a transcript is valid up to the last
/// completed round even if the process dies.
///
/// Recording starts at round zero of the wrapped port — record fresh runs,
/// not runs resumed mid-scan ([`fast_forward`](TestPort::fast_forward) on a
/// recording port is forwarded but leaves the skipped rounds out of the
/// transcript).
///
/// # Examples
///
/// ```
/// use parbor_hal::{
///     ChipGeometry, LoopbackPort, RecordingPort, ReplayPort, RowBits, RowId, RowWrite,
///     TestPort,
/// };
///
/// # fn main() -> Result<(), parbor_hal::DramError> {
/// let path = std::env::temp_dir().join(format!("hal-doc-{}.pbt", std::process::id()));
/// let inner = LoopbackPort::new(ChipGeometry::tiny(), 1);
/// let mut port = RecordingPort::create(inner, &path)?;
/// let write = || vec![RowWrite { unit: 0, row: RowId::new(0, 0), data: RowBits::ones(1024).into() }];
/// port.run_round(write())?;
///
/// let mut replay = ReplayPort::open(&path)?;
/// assert_eq!(replay.run_round(write())?, Vec::new());
/// # std::fs::remove_file(&path).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RecordingPort<P> {
    inner: P,
    out: BufWriter<File>,
    path: PathBuf,
    recorded: u64,
}

impl<P: TestPort> RecordingPort<P> {
    /// Wraps `inner` and starts a fresh transcript at `path` (truncating
    /// any existing file), writing the magic and header immediately.
    ///
    /// # Errors
    ///
    /// [`DramError::Backend`] on I/O failure.
    pub fn create(inner: P, path: impl Into<PathBuf>) -> Result<Self, DramError> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        let mut port = RecordingPort {
            inner,
            out: BufWriter::new(file),
            path,
            recorded: 0,
        };
        let header = encode_header(port.inner.units(), port.inner.geometry());
        let mut first = TRANSCRIPT_MAGIC.to_vec();
        frame::put(&mut first, &header, hash_bytes_x8);
        port.append(&first)?;
        Ok(port)
    }

    /// The transcript path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of rounds recorded so far.
    pub fn rounds_recorded(&self) -> u64 {
        self.recorded
    }

    /// Flushes the transcript and returns the wrapped port.
    ///
    /// Dropping the decorator also flushes (via the buffered writer); this
    /// exists for callers that want the I/O error surfaced.
    ///
    /// # Errors
    ///
    /// [`DramError::Backend`] on I/O failure.
    pub fn finish(mut self) -> Result<P, DramError> {
        self.out
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        Ok(self.inner)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), DramError> {
        self.out
            .write_all(bytes)
            .and_then(|()| self.out.flush())
            .map_err(|e| io_err(&self.path, "append", e))
    }

    fn record(&mut self, n_writes: u64, digest: u64, flips: &[Flip]) -> Result<(), DramError> {
        let payload = encode_round(n_writes, digest, flips);
        let mut framed = Vec::with_capacity(frame::HEADER_BYTES + payload.len());
        frame::put(&mut framed, &payload, hash_bytes_x8);
        self.append(&framed)?;
        self.recorded += 1;
        Ok(())
    }
}

impl<P: TestPort> TestPort for RecordingPort<P> {
    fn geometry(&self) -> ChipGeometry {
        self.inner.geometry()
    }

    fn units(&self) -> u32 {
        self.inner.units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        let digest = digest_writes(&writes);
        let n_writes = writes.len() as u64;
        let flips = self.inner.run_round(writes)?;
        self.record(n_writes, digest, &flips)?;
        Ok(flips)
    }

    fn run_rounds(&mut self, plans: Vec<RoundPlan>) -> Result<Vec<Vec<Flip>>, DramError> {
        // Digest before the plans move into the inner port, then let the
        // inner port keep its batched (possibly parallel) execution path.
        let digests: Vec<(u64, u64)> = plans
            .iter()
            .map(|p| (p.len() as u64, digest_writes(p.writes())))
            .collect();
        let rounds = self.inner.run_rounds(plans)?;
        for ((n_writes, digest), flips) in digests.into_iter().zip(&rounds) {
            self.record(n_writes, digest, flips)?;
        }
        Ok(rounds)
    }

    fn rounds_run(&self) -> u64 {
        self.inner.rounds_run()
    }

    fn fast_forward(&mut self, rounds: u64) {
        self.inner.fast_forward(rounds);
    }

    fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.inner.set_parallel_mode(mode);
    }

    fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.inner.set_kernel_mode(mode);
    }

    fn set_recorder(&mut self, rec: parbor_obs::RecorderHandle) {
        self.inner.set_recorder(rec);
    }

    fn set_arena(&mut self, arena: crate::arena::RoundArena) {
        self.inner.set_arena(arena);
    }
}

/// A [`TestPort`] that replays a recorded transcript instead of testing a
/// device.
///
/// The whole transcript is parsed and checksum-verified eagerly in
/// [`open`](ReplayPort::open), so corruption surfaces before any round runs.
/// Each [`run_round`](TestPort::run_round) verifies that the writes the
/// pipeline issued digest to what was recorded — a mismatch means the replay
/// diverged from the capture and fails loudly rather than returning flips
/// for rounds that never happened.
pub struct ReplayPort {
    path: PathBuf,
    units: u32,
    geometry: ChipGeometry,
    rounds: Vec<TranscriptRound>,
    cursor: u64,
}

impl ReplayPort {
    /// Opens and fully verifies a transcript.
    ///
    /// # Errors
    ///
    /// [`DramError::RetiredFormat`] for a JSONL (`PBHALTR1`) transcript;
    /// [`DramError::Backend`] on I/O failure, a foreign file, bad framing or
    /// checksums, a missing header, an unsupported version, or a record
    /// whose counts exceed its bytes.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DramError> {
        let path = path.into();
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, "read", e))?;
        if !bytes.starts_with(TRANSCRIPT_MAGIC) {
            // A JSONL transcript opens with `<len>:<fnv64>:{"magic":"PBHALTR1"`.
            let head = &bytes[..bytes.len().min(64)];
            if head.windows(8).any(|w| w == RETIRED_JSONL_MAGIC) {
                return Err(DramError::RetiredFormat {
                    path: path.display().to_string(),
                    magic: "PBHALTR1",
                });
            }
            return Err(corrupt(&path, 0, "not a PBHALTB1 transcript (bad magic)"));
        }
        let mut header: Option<(u32, ChipGeometry)> = None;
        let mut rounds = Vec::new();
        let frames = frame::walk(
            &bytes,
            TRANSCRIPT_MAGIC.len(),
            u64::from(u32::MAX),
            hash_bytes_x8,
        );
        for (i, f) in frames.enumerate() {
            let n = i + 1;
            if f.truncated {
                return Err(corrupt(
                    &path,
                    n,
                    format!(
                        "truncated record frame: framed {}, {} present",
                        f.len,
                        f.payload.len()
                    ),
                ));
            }
            if !f.intact {
                return Err(corrupt(&path, n, "checksum mismatch"));
            }
            if n == 1 {
                header = Some(Self::parse_header(&path, f.payload)?);
            } else {
                rounds.push(Self::parse_round(&path, n, f.payload)?);
            }
        }
        let (units, geometry) =
            header.ok_or_else(|| corrupt(&path, 1, "empty transcript (no header)"))?;
        Ok(ReplayPort {
            path,
            units,
            geometry,
            rounds,
            cursor: 0,
        })
    }

    fn parse_header(path: &Path, payload: &[u8]) -> Result<(u32, ChipGeometry), DramError> {
        let mut pos = 0usize;
        let mut next =
            |what: &str| varint::get(payload, &mut pos).ok_or_else(|| corrupt(path, 1, what));
        let version = next("header is missing the version")?;
        if version != u64::from(TRANSCRIPT_VERSION) {
            return Err(corrupt(path, 1, format!("unsupported version {version}")));
        }
        let units = next("header is missing the unit count")?;
        let banks = next("header is missing banks")?;
        let rows = next("header is missing rows_per_bank")?;
        let cols = next("header is missing cols_per_row")?;
        let dim = |v: u64, what: &str| -> Result<u32, DramError> {
            u32::try_from(v).map_err(|_| corrupt(path, 1, format!("{what} {v} out of range")))
        };
        let geometry = ChipGeometry::new(
            dim(banks, "banks")?,
            dim(rows, "rows_per_bank")?,
            dim(cols, "cols_per_row")?,
        )
        .map_err(|e| corrupt(path, 1, format!("bad geometry: {e}")))?;
        Ok((dim(units, "units")?, geometry))
    }

    fn parse_round(path: &Path, n: usize, payload: &[u8]) -> Result<TranscriptRound, DramError> {
        let mut pos = 0usize;
        let writes = varint::get(payload, &mut pos)
            .ok_or_else(|| corrupt(path, n, "round is missing the write count"))?;
        let digest = payload
            .get(pos..pos + 8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or_else(|| corrupt(path, n, "round is missing the writes digest"))?;
        pos += 8;
        let flip_count = varint::get(payload, &mut pos)
            .ok_or_else(|| corrupt(path, n, "round is missing the flip count"))?;
        // Every flip is four varints of at least one byte each, so a count
        // the remaining bytes cannot hold is a lie — reject it before it
        // sizes an allocation.
        let remaining = (payload.len() - pos) as u64;
        if flip_count > remaining / 4 {
            return Err(corrupt(
                path,
                n,
                format!("flip count {flip_count} exceeds the {remaining} bytes left"),
            ));
        }
        let mut flips = Vec::with_capacity(flip_count as usize);
        for _ in 0..flip_count {
            let mut next =
                |what: &str| varint::get(payload, &mut pos).ok_or_else(|| corrupt(path, n, what));
            let unit = next("flip is missing the unit")?;
            let bank = next("flip is missing the bank")?;
            let row = next("flip is missing the row")?;
            let packed_col = next("flip is missing the column")?;
            let coord = |v: u64, what: &str| -> Result<u32, DramError> {
                u32::try_from(v).map_err(|_| corrupt(path, n, format!("{what} {v} out of range")))
            };
            flips.push(Flip {
                unit: coord(unit, "unit")?,
                flip: crate::port::BitFlip {
                    addr: crate::geometry::BitAddr::new(
                        coord(bank, "bank")?,
                        coord(row, "row")?,
                        coord(packed_col >> 1, "column")?,
                    ),
                    expected: packed_col & 1 == 1,
                },
            });
        }
        if pos != payload.len() {
            return Err(corrupt(path, n, "trailing bytes after the flip list"));
        }
        Ok(TranscriptRound {
            writes,
            digest,
            flips,
        })
    }

    /// Header and totals of the opened transcript.
    pub fn info(&self) -> TranscriptInfo {
        TranscriptInfo {
            version: TRANSCRIPT_VERSION,
            units: self.units,
            geometry: self.geometry,
            rounds: self.rounds.len() as u64,
            total_writes: self.rounds.iter().map(|r| r.writes).sum(),
            total_flips: self.rounds.iter().map(|r| r.flips.len() as u64).sum(),
        }
    }

    /// Every recorded round, in capture order.
    pub fn rounds(&self) -> &[TranscriptRound] {
        &self.rounds
    }

    /// Recorded rounds not yet replayed.
    pub fn remaining(&self) -> u64 {
        (self.rounds.len() as u64).saturating_sub(self.cursor)
    }
}

impl std::fmt::Debug for ReplayPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayPort")
            .field("path", &self.path)
            .field("units", &self.units)
            .field("rounds", &self.rounds.len())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl TestPort for ReplayPort {
    fn geometry(&self) -> ChipGeometry {
        self.geometry
    }

    fn units(&self) -> u32 {
        self.units
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        let idx = self.cursor as usize;
        let record = self.rounds.get(idx).ok_or_else(|| {
            DramError::Backend(format!(
                "transcript {} exhausted: round {} requested, {} recorded",
                self.path.display(),
                idx + 1,
                self.rounds.len()
            ))
        })?;
        let digest = digest_writes(&writes);
        if digest != record.digest {
            return Err(DramError::Backend(format!(
                "transcript {} diverged at round {}: issued writes digest {digest:016x} != \
                 recorded {:016x} (the replaying pipeline is not the one that was captured)",
                self.path.display(),
                idx + 1,
                record.digest
            )));
        }
        let flips = record.flips.clone();
        self.cursor += 1;
        Ok(flips)
    }

    fn rounds_run(&self) -> u64 {
        self.cursor
    }

    fn fast_forward(&mut self, rounds: u64) {
        // Skipping the cursor keeps a resumed scan aligned with the capture.
        self.cursor += rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::RowBits;
    use crate::geometry::RowId;
    use crate::loopback::LoopbackPort;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_transcript(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "parbor-hal-transcript-{}-{tag}-{n}.pbt",
            std::process::id()
        ))
    }

    fn writes(round: u32) -> Vec<RowWrite> {
        (0..3)
            .map(|r| RowWrite {
                unit: 0,
                row: RowId::new(0, r),
                data: RowBits::from_fn(1024, |i| (i as u32).wrapping_add(round).is_multiple_of(3))
                    .into(),
            })
            .collect()
    }

    #[test]
    fn record_then_replay_is_bit_identical() {
        let path = temp_transcript("roundtrip");
        let mut rec =
            RecordingPort::create(LoopbackPort::new(ChipGeometry::tiny(), 2), &path).unwrap();
        let recorded: Vec<Vec<Flip>> = (0..5).map(|i| rec.run_round(writes(i)).unwrap()).collect();
        assert_eq!(rec.rounds_recorded(), 5);
        rec.finish().unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(TRANSCRIPT_MAGIC));

        let mut replay = ReplayPort::open(&path).unwrap();
        assert_eq!(replay.units(), 2);
        assert_eq!(replay.geometry(), ChipGeometry::tiny());
        let info = replay.info();
        assert_eq!(info.rounds, 5);
        assert_eq!(info.total_writes, 15);
        assert_eq!(replay.rounds().len(), 5);
        for (i, expected) in recorded.iter().enumerate() {
            assert_eq!(&replay.run_round(writes(i as u32)).unwrap(), expected);
        }
        assert_eq!(replay.rounds_run(), 5);
        assert_eq!(replay.remaining(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_divergence_exhaustion_corruption_and_truncation() {
        let path = temp_transcript("corrupt");
        let mut rec =
            RecordingPort::create(LoopbackPort::new(ChipGeometry::tiny(), 1), &path).unwrap();
        rec.run_round(writes(0)).unwrap();
        rec.finish().unwrap();

        let mut replay = ReplayPort::open(&path).unwrap();
        let err = replay.run_round(writes(1)).unwrap_err();
        assert!(matches!(err, DramError::Backend(_)));
        assert!(err.to_string().contains("diverged"));
        replay.run_round(writes(0)).unwrap();
        assert!(replay
            .run_round(writes(0))
            .unwrap_err()
            .to_string()
            .contains("exhausted"));

        let good = std::fs::read(&path).unwrap();
        // Flip one payload byte of the last record.
        let mut bad = good.clone();
        let at = bad.len() - 1;
        bad[at] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(ReplayPort::open(&path)
            .unwrap_err()
            .to_string()
            .contains("checksum mismatch"));
        // Truncate mid-record.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(ReplayPort::open(&path)
            .unwrap_err()
            .to_string()
            .contains("truncated"));
        // Magic alone is an empty transcript.
        std::fs::write(&path, TRANSCRIPT_MAGIC).unwrap();
        assert!(ReplayPort::open(&path)
            .unwrap_err()
            .to_string()
            .contains("no header"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_foreign_files_are_rejected() {
        let path = temp_transcript("foreign");
        std::fs::write(&path, "").unwrap();
        assert!(ReplayPort::open(&path).is_err());
        std::fs::write(&path, "hello world\n").unwrap();
        assert!(ReplayPort::open(&path)
            .unwrap_err()
            .to_string()
            .contains("bad magic"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_jsonl_transcript_is_rejected_by_name() {
        // The first line of a transcript the JSONL recorder wrote.
        let path = temp_transcript("jsonl");
        let json = r#"{"magic":"PBHALTR1","version":1,"units":1,"geometry":{"banks":1,"rows_per_bank":8,"cols_per_row":1024}}"#;
        let line = format!(
            "{}:{:016x}:{json}\n",
            json.len(),
            crate::hash::fnv1a64(json.as_bytes())
        );
        std::fs::write(&path, line).unwrap();
        let err = ReplayPort::open(&path).unwrap_err();
        assert!(
            matches!(
                err,
                DramError::RetiredFormat {
                    magic: "PBHALTR1",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("PBHALTR1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lying_flip_count_is_rejected_not_allocated() {
        // A well-framed transcript whose one round claims 2^63 - 1 flips in
        // a payload of 18 bytes.
        let mut bytes = TRANSCRIPT_MAGIC.to_vec();
        frame::put(&mut bytes, &[1, 1, 1, 1, 1], hash_bytes_x8);
        let mut round = vec![0u8];
        round.extend_from_slice(&0u64.to_le_bytes());
        varint::put(&mut round, u64::MAX >> 1);
        frame::put(&mut bytes, &round, hash_bytes_x8);
        assert_eq!(bytes.len(), 55);
        let path = temp_transcript("lying-count");
        std::fs::write(&path, &bytes).unwrap();
        let err = ReplayPort::open(&path).unwrap_err();
        assert!(err.to_string().contains("flip count"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_samples_content_at_line_granularity() {
        let row = |flip: Option<usize>| -> Vec<RowWrite> {
            vec![RowWrite {
                unit: 0,
                row: RowId::new(0, 0),
                data: RowBits::from_fn(8192, move |i| i.is_multiple_of(7) ^ (flip == Some(i)))
                    .into(),
            }]
        };
        let base = digest_writes(&row(None));
        // A row's first and last cache lines are always sampled.
        assert_ne!(digest_writes(&row(Some(3))), base);
        assert_ne!(digest_writes(&row(Some(8191))), base);
        // Word 20 falls between sampled groups: the digest trades it away by
        // design.
        assert_eq!(digest_writes(&row(Some(20 * 64))), base);
    }

    #[test]
    fn batched_recording_matches_serial_recording() {
        let serial_path = temp_transcript("serial");
        let batched_path = temp_transcript("batched");
        let plans = |n: u32| -> Vec<RoundPlan> {
            (0..n).map(|i| RoundPlan::from_writes(writes(i))).collect()
        };

        let mut serial =
            RecordingPort::create(LoopbackPort::new(ChipGeometry::tiny(), 1), &serial_path)
                .unwrap();
        for plan in plans(4) {
            serial.run_round(plan.into_writes()).unwrap();
        }
        serial.finish().unwrap();

        let mut batched =
            RecordingPort::create(LoopbackPort::new(ChipGeometry::tiny(), 1), &batched_path)
                .unwrap();
        batched.run_rounds(plans(4)).unwrap();
        batched.finish().unwrap();

        assert_eq!(
            std::fs::read(&serial_path).unwrap(),
            std::fs::read(&batched_path).unwrap(),
            "batched and serial capture must frame identical transcripts"
        );
        std::fs::remove_file(&serial_path).ok();
        std::fs::remove_file(&batched_path).ok();
    }
}
