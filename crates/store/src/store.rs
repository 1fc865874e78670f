//! The profile store engine: L0 appends, generational compaction, sharded
//! index, crash recovery.
//!
//! ## On-disk layout (v2)
//!
//! ```text
//! manifest.json            version, epoch, compacted generations
//! index-<shard>.json       sharded module index (shard = fnv1a64(name) % 16)
//! segments/L0-<name>.pbs   one freshly-appended profile per module
//! segments/g<G>-<k>.pbs    compacted generation G, chunk k (sorted, deduped)
//! COMPACTING               marker: a compaction is (or died) in flight
//! ```
//!
//! Appends land as single-record L0 segments; [`ProfileStore::compact`]
//! merges every live record — L0 and older generations — into a fresh
//! generation of sorted, deduplicated chunk files. Precedence is latest-write-wins: L0 over everything, then higher
//! generation numbers. Every file is written with the temp + rename idiom
//! and the manifest swap is the commit point, so a compaction killed at
//! any instant recovers to a store byte-identical to either the pre- or
//! the post-compaction state (verified by `scripts/store_smoke.sh`).
//!
//! The store is deliberately free of timestamps and absolute paths: two
//! independent runs over the same modules produce byte-identical stores,
//! which is what the fleet kill-and-resume determinism checks compare.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use parbor_core::FailureProfile;
use parbor_obs::{metrics, span, RecorderHandle};

use parbor_hal::frame;
use parbor_hal::hash::{fnv1a64, Fnv1a64};

use crate::aggregate::{AggregateBuilder, FleetAggregate};
use crate::segment::{
    decode_payload, format_hash, put_record, read_frame, summarize_payload, walk_frames, Frame,
    FRAME_HEADER_BYTES, MAX_RECORD_BYTES, SEGMENT_MAGIC,
};
use crate::StoreError;

/// Current store format version, recorded in the manifest and every index
/// shard. Bump on any incompatible layout change.
pub const STORE_VERSION: u32 = 2;

/// Number of index shards (`index-00.json` … `index-0f.json`).
pub const SHARD_COUNT: usize = 16;

/// Records per compacted chunk file before the writer rotates.
pub const CHUNK_RECORDS: usize = 8192;

/// Marker file present while a compaction is in flight; finding it at open
/// triggers orphan collection and (if the manifest swap landed) index
/// roll-forward.
pub const COMPACTING_MARKER: &str = "COMPACTING";

/// Index entry for one stored profile record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Segment file name, relative to `segments/`.
    pub file: String,
    /// Byte offset of the record's frame within the file.
    pub offset: u64,
    /// Content hash of the profile's canonical body bytes (`fnv64:…`) —
    /// stable across segments and generations.
    pub hash: String,
    /// Number of failing cells the record stores.
    pub failures: usize,
    /// Framed record size in bytes.
    pub bytes: u64,
}

/// One compacted chunk file, as the manifest records it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenSegmentMeta {
    /// Chunk file name, relative to `segments/`.
    pub file: String,
    /// Records the chunk holds.
    pub records: usize,
    /// Failing cells across those records.
    pub failures: usize,
    /// File size in bytes (magic + frames).
    pub bytes: u64,
    /// Content hash of the whole file (`fnv64:…`).
    pub hash: String,
}

/// One compacted generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationMeta {
    /// Generation number (higher = newer).
    pub gen: u32,
    /// The generation's chunk files, in record order.
    pub segments: Vec<GenSegmentMeta>,
}

/// `manifest.json`: the store's commit record. The epoch counts completed
/// compactions; index shards stamp the epoch they were written under, so a
/// shard lagging the manifest identifies a compaction that died between
/// its manifest swap and its index rewrite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestDoc {
    version: u32,
    epoch: u64,
    generations: Vec<GenerationMeta>,
}

/// `index-<shard>.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardDoc {
    version: u32,
    epoch: u64,
    entries: BTreeMap<String, SegmentMeta>,
}

/// A profile read back from the store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredProfile {
    /// The stored failure profile (possibly a salvaged prefix, see
    /// [`complete`](StoredProfile::complete)).
    pub profile: FailureProfile,
    /// Whether every failing cell the record promised was readable.
    pub complete: bool,
    /// Whether reading required salvage (checksum mismatch on the record).
    pub recovered: bool,
}

/// Where [`ProfileStore::compact_with_abort`] stops when simulating a
/// mid-compaction crash (each phase aborts *after* its step completes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactPhase {
    /// After the new generation's chunk files are written, before the
    /// manifest swap. Recovery rolls *back*: the orphan chunks are
    /// collected and the store is byte-identical to the pre-compaction
    /// state.
    Segments,
    /// After the manifest swap, before stale-input cleanup. The swap is
    /// the commit point: recovery rolls *forward* to the post-compaction
    /// state.
    Manifest,
    /// After stale inputs are deleted, before the index shards are
    /// rewritten. Recovery rolls forward.
    Cleanup,
}

/// What a compaction did.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompactReport {
    /// Input segment files merged (L0 + older generations).
    pub input_segments: usize,
    /// Live records merged in.
    pub input_records: usize,
    /// Chunk files the new generation holds.
    pub output_segments: usize,
    /// Records written (deduplicated, latest-write-wins).
    pub output_records: usize,
    /// Bytes written into the new generation.
    pub output_bytes: u64,
    /// Records that needed salvage (checksum mismatch) on the way through.
    pub salvaged: usize,
    /// Records too corrupt to carry over (dropped from the new
    /// generation).
    pub dropped: usize,
    /// The new generation's number.
    pub gen: u32,
    /// Whether a [`CompactPhase`] abort stopped the compaction mid-flight
    /// (test hook; the store object must be reopened afterwards).
    pub aborted: bool,
}

/// A ledger of what the store holds, from [`ProfileStore::stats`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StoreStats {
    /// Modules the index serves.
    pub modules: usize,
    /// Modules served from single-record L0 segments.
    pub l0_segments: usize,
    /// `(generation, chunk files)` per compacted generation.
    pub generation_segments: Vec<(u32, usize)>,
    /// Index shard files present on disk.
    pub index_shards: usize,
    /// Records on disk that the index points at (and that verify).
    pub live_records: usize,
    /// Intact records in compacted generations that the index has
    /// superseded (space a future compaction reclaims).
    pub dead_records: usize,
    /// Records that failed their frame checksum or did not decode.
    pub corrupt_records: usize,
    /// Failing cells across all live records (from the index).
    pub total_failures: usize,
    /// Bytes across every referenced segment file.
    pub segment_bytes: u64,
    /// Whether the ledger balances: every indexed module resolved to a
    /// live, intact record and nothing was corrupt.
    pub ledger_balanced: bool,
}

/// The profile store.
#[derive(Debug)]
pub struct ProfileStore {
    root: PathBuf,
    manifest: ManifestDoc,
    shards: RefCell<Vec<Option<BTreeMap<String, SegmentMeta>>>>,
    dirty: Vec<bool>,
    rec: RecorderHandle,
}

impl ProfileStore {
    /// Opens (or initialises) the store rooted at `root`, running crash
    /// recovery if a previous process died mid-compaction (orphan chunk
    /// collection, index roll-forward) and rebuilding the manifest from
    /// the segment files when it is torn.
    ///
    /// # Errors
    ///
    /// [`StoreError::RetiredLayout`] for a root in the retired v1 layout
    /// (`index.json`, no `manifest.json`), which is left untouched;
    /// [`StoreError::Corrupt`] on an unsupported version or damage beyond
    /// salvage; I/O errors.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_recorder(root, RecorderHandle::null())
    }

    /// [`open`](ProfileStore::open) with a recorder attached up front, so
    /// recovery work done *during* open (`store.recovery`,
    /// `store.gc_files`) is observable.
    ///
    /// # Errors
    ///
    /// As [`open`](ProfileStore::open).
    pub fn open_with_recorder(
        root: impl Into<PathBuf>,
        rec: RecorderHandle,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        let manifest_path = root.join("manifest.json");
        if root.join("index.json").exists() && !manifest_path.exists() {
            return Err(StoreError::RetiredLayout { path: root });
        }
        fs::create_dir_all(root.join("segments"))?;

        let manifest = if manifest_path.exists() {
            match fs::read_to_string(&manifest_path)
                .map_err(StoreError::Io)
                .and_then(|text| {
                    serde_json::from_str::<ManifestDoc>(&text).map_err(|e| StoreError::Corrupt {
                        path: manifest_path.clone(),
                        detail: format!("manifest does not parse: {}", e.0),
                    })
                }) {
                Ok(doc) if doc.version == STORE_VERSION => doc,
                Ok(doc) => {
                    return Err(StoreError::Corrupt {
                        path: manifest_path,
                        detail: format!(
                            "store version {} unsupported (expected {STORE_VERSION})",
                            doc.version
                        ),
                    })
                }
                Err(StoreError::Corrupt { .. }) => full_rebuild(&root, &rec)?,
                Err(e) => return Err(e),
            }
        } else if has_v2_state(&root) {
            // Segments or shards without a manifest: the manifest was lost.
            full_rebuild(&root, &rec)?
        } else {
            let doc = ManifestDoc {
                version: STORE_VERSION,
                epoch: 0,
                generations: Vec::new(),
            };
            write_atomic(
                &manifest_path,
                serde_json::to_string_pretty(&doc)?.as_bytes(),
            )?;
            doc
        };

        let mut store = ProfileStore {
            root,
            manifest,
            shards: RefCell::new(vec![None; SHARD_COUNT]),
            dirty: vec![false; SHARD_COUNT],
            rec,
        };
        if store.root.join(COMPACTING_MARKER).exists() {
            store.recover_in_flight_compaction()?;
        }
        Ok(store)
    }

    /// Attaches a recorder (for `store.*` events after open; prefer
    /// [`open_with_recorder`](ProfileStore::open_with_recorder) to observe
    /// open-time recovery too).
    #[must_use]
    pub fn with_recorder(mut self, rec: RecorderHandle) -> Self {
        self.rec = rec;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Stored module names, sorted.
    ///
    /// # Errors
    ///
    /// Index shard read errors.
    pub fn modules(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = Vec::new();
        for id in 0..SHARD_COUNT {
            self.ensure_shard(id)?;
            let shards = self.shards.borrow();
            names.extend(shards[id].as_ref().unwrap().keys().cloned());
        }
        names.sort();
        Ok(names)
    }

    /// Index entry for `name`, if stored.
    ///
    /// # Errors
    ///
    /// Index shard read errors.
    pub fn meta(&self, name: &str) -> Result<Option<SegmentMeta>, StoreError> {
        let id = shard_of(name);
        self.ensure_shard(id)?;
        Ok(self.shards.borrow()[id]
            .as_ref()
            .unwrap()
            .get(name)
            .cloned())
    }

    /// Whether a profile for `name` is stored. An unreadable index shard
    /// counts as absent (the caller re-scans and overwrites).
    pub fn contains(&self, name: &str) -> bool {
        matches!(self.meta(name), Ok(Some(_)))
    }

    /// Writes `profile` as a new L0 record for `name` (replacing any
    /// previous record via latest-write-wins) and rewrites the module's
    /// index shard. Equivalent to [`stage`](ProfileStore::stage) +
    /// [`flush`](ProfileStore::flush). Both files are replaced atomically
    /// (temp file + rename), so a put survives a process kill at any
    /// instant; nothing is synced, so it need not survive a power loss or
    /// a kernel crash.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for names that are not valid file
    /// stems; I/O and serialization errors.
    pub fn put(&mut self, name: &str, profile: &FailureProfile) -> Result<SegmentMeta, StoreError> {
        let meta = self.stage(name, profile)?;
        self.flush()?;
        Ok(meta)
    }

    /// [`put`](ProfileStore::put) without the per-call index flush: the L0
    /// segment is written atomically (temp file + rename; it survives a
    /// process kill, not a power loss), the index update stays in memory
    /// until [`flush`](ProfileStore::flush). The bulk-ingest path —
    /// writing 100 k profiles through `put` would rewrite each index shard
    /// thousands of times; `stage` + one `flush` writes each shard once. An unflushed
    /// record is invisible to a later open (its L0 file is simply
    /// re-written when the job re-runs).
    ///
    /// # Errors
    ///
    /// As [`put`](ProfileStore::put).
    pub fn stage(
        &mut self,
        name: &str,
        profile: &FailureProfile,
    ) -> Result<SegmentMeta, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::InvalidConfig(format!(
                "'{name}' is not a valid segment name"
            )));
        }
        let file = format!("L0-{name}.pbs");
        let mut bytes = SEGMENT_MAGIC.to_vec();
        let body_hash = put_record(&mut bytes, name, profile);
        write_atomic(&self.root.join("segments").join(&file), &bytes)?;
        let meta = SegmentMeta {
            file,
            offset: SEGMENT_MAGIC.len() as u64,
            hash: format_hash(body_hash),
            failures: profile.failures.len(),
            bytes: (bytes.len() - SEGMENT_MAGIC.len()) as u64,
        };
        let id = shard_of(name);
        self.ensure_shard(id)?;
        self.shards.borrow_mut()[id]
            .as_mut()
            .unwrap()
            .insert(name.to_string(), meta.clone());
        self.dirty[id] = true;
        self.rec.incr(metrics::store::PUTS, 1);
        self.rec.incr(metrics::store::PUT_BYTES, bytes.len() as u64);
        Ok(meta)
    }

    /// Writes every index shard a [`stage`](ProfileStore::stage) touched.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        for id in 0..SHARD_COUNT {
            if !self.dirty[id] {
                continue;
            }
            let shards = self.shards.borrow();
            let entries = shards[id].as_ref().unwrap();
            let doc = ShardDoc {
                version: STORE_VERSION,
                epoch: self.manifest.epoch,
                entries: entries.clone(),
            };
            let text = serde_json::to_string_pretty(&doc)?;
            drop(shards);
            write_atomic(&self.root.join(shard_file(id)), text.as_bytes())?;
            self.dirty[id] = false;
        }
        Ok(())
    }

    /// Reads the profile for `name` back, verifying the record's frame
    /// checksum. On mismatch the decodable column prefix is salvaged: the
    /// result is marked [`recovered`](StoredProfile::recovered) (and
    /// [`complete`](StoredProfile::complete) only if every promised cell
    /// survived), and a `store.recovery` counter increment is emitted.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for unknown modules;
    /// [`StoreError::Corrupt`] when not even the record's name survives;
    /// I/O errors.
    pub fn get(&self, name: &str) -> Result<StoredProfile, StoreError> {
        let Some(meta) = self.meta(name)? else {
            return Err(StoreError::InvalidConfig(format!(
                "module '{name}' not in store index"
            )));
        };
        self.rec.incr(metrics::store::READS, 1);
        let (payload, intact) = self.read_frame(&meta)?;
        if !intact {
            self.rec.incr(metrics::store::RECOVERY, 1);
        }
        let decoded = decode_payload(&payload, intact).map_err(|e| StoreError::Corrupt {
            path: self.root.join("segments").join(&meta.file),
            detail: e.to_string(),
        })?;
        if decoded.name != name {
            return Err(StoreError::Corrupt {
                path: self.root.join("segments").join(&meta.file),
                detail: format!(
                    "record claims module '{}' but is indexed as '{name}'",
                    decoded.name
                ),
            });
        }
        Ok(StoredProfile {
            profile: decoded.profile,
            complete: decoded.complete,
            recovered: !intact,
        })
    }

    /// Reads every stored profile, sorted by module name. The snapshot
    /// read path for `parbor-serve`: a daemon loads the whole store once
    /// at startup and compiles it into an immutable in-memory snapshot.
    /// Salvage semantics per module match [`get`](ProfileStore::get).
    ///
    /// # Errors
    ///
    /// Any error [`get`](ProfileStore::get) can return, on the first
    /// failing module.
    pub fn load_all(&self) -> Result<Vec<(String, StoredProfile)>, StoreError> {
        let names = self.modules()?;
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let profile = self.get(&name)?;
            out.push((name, profile));
        }
        Ok(out)
    }

    /// Re-verifies every indexed record: `(module, intact)` pairs, sorted
    /// by module name. A record is intact when its frame checksum holds
    /// and its body bytes still match the indexed content hash. Missing
    /// files count as not intact.
    ///
    /// # Errors
    ///
    /// I/O errors other than a missing segment file.
    pub fn verify(&self) -> Result<Vec<(String, bool)>, StoreError> {
        let mut out = Vec::new();
        for name in self.modules()? {
            let intact = match self.meta(&name)? {
                Some(meta) => match self.read_frame(&meta) {
                    Ok((payload, true)) => {
                        format_hash(fnv1a64(payload_body(&payload))) == meta.hash
                    }
                    Ok((_, false)) => false,
                    Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => false,
                    Err(StoreError::Corrupt { .. }) => false,
                    Err(e) => return Err(e),
                },
                None => false,
            };
            out.push((name, intact));
        }
        Ok(out)
    }

    /// Streams every referenced segment file once and balances the ledger:
    /// every indexed module must resolve to an intact record, dead records
    /// (superseded by a later write) are counted but harmless, corrupt
    /// frames tip the balance.
    ///
    /// # Errors
    ///
    /// Index shard read and I/O errors (missing segment files count as
    /// corrupt records instead of erroring).
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let entries = self.all_entries()?;
        let mut live = 0usize;
        let mut dead = 0usize;
        let mut corrupt = 0usize;
        let mut seg_bytes = 0u64;
        let mut scan = |file: &str| -> Result<(), StoreError> {
            let path = self.root.join("segments").join(file);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    corrupt += 1;
                    return Ok(());
                }
                Err(e) => return Err(e.into()),
            };
            seg_bytes += bytes.len() as u64;
            let frames = match walk_frames(&bytes) {
                Ok(f) => f,
                Err(_) => {
                    corrupt += 1;
                    return Ok(());
                }
            };
            for frame in frames {
                if !frame.intact {
                    corrupt += 1;
                    continue;
                }
                match summarize_payload(frame.payload) {
                    Ok(rec) => {
                        let current = entries.get(rec.name);
                        if current.is_some_and(|m| m.file == file && m.offset == frame.offset) {
                            live += 1;
                        } else {
                            dead += 1;
                        }
                    }
                    Err(_) => corrupt += 1,
                }
            }
            Ok(())
        };

        for gen in &self.manifest.generations {
            for seg in &gen.segments {
                scan(&seg.file)?;
            }
        }
        let mut l0_segments = 0usize;
        for meta in entries.values() {
            if meta.file.starts_with("L0-") {
                l0_segments += 1;
                scan(&meta.file)?;
            }
        }

        let modules = entries.len();
        let total_failures = entries.values().map(|m| m.failures).sum::<usize>();
        let index_shards = (0..SHARD_COUNT)
            .filter(|&id| self.root.join(shard_file(id)).exists())
            .count();
        Ok(StoreStats {
            modules,
            l0_segments,
            generation_segments: self
                .manifest
                .generations
                .iter()
                .map(|g| (g.gen, g.segments.len()))
                .collect(),
            index_shards,
            live_records: live,
            dead_records: dead,
            corrupt_records: corrupt,
            total_failures,
            segment_bytes: seg_bytes,
            ledger_balanced: live == modules && corrupt == 0,
        })
    }

    /// Streams every live record once — one segment file in memory at a
    /// time — into cross-module rollups: distance-set counts, a
    /// failures-per-module histogram, and per-vendor failure rates.
    ///
    /// # Errors
    ///
    /// Index shard read and I/O errors.
    pub fn aggregate(&self) -> Result<FleetAggregate, StoreError> {
        let entries = self.all_entries()?;
        let mut builder = AggregateBuilder::new();

        let mut stream = |file: &str| -> Result<(), StoreError> {
            let path = self.root.join("segments").join(file);
            let bytes = fs::read(&path)?;
            self.rec.incr(metrics::store::AGG_SEGMENTS, 1);
            for frame in walk_frames(&bytes).map_err(|detail| StoreError::Corrupt {
                path: path.clone(),
                detail,
            })? {
                if !frame.intact {
                    continue;
                }
                if let Ok(rec) = summarize_payload(frame.payload) {
                    let current = entries.get(rec.name);
                    if current.is_some_and(|m| m.file == file && m.offset == frame.offset) {
                        builder.add_counts(rec.name, &rec.distances, rec.cells as u64);
                        self.rec.incr(metrics::store::AGG_RECORDS, 1);
                    }
                }
            }
            Ok(())
        };

        for gen in &self.manifest.generations {
            for seg in &gen.segments {
                stream(&seg.file)?;
            }
        }
        for meta in entries.values() {
            if meta.file.starts_with("L0-") {
                stream(&meta.file)?;
            }
        }
        Ok(builder.finish())
    }

    /// Merges every live record — L0 appends and older generations — into
    /// one fresh generation of sorted, deduplicated
    /// (latest-write-wins) chunk files, then retires the inputs. The
    /// manifest swap is atomic; a crash at any point recovers to exactly
    /// the pre- or post-compaction store.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        self.compact_with_abort(None)
    }

    /// [`compact`](ProfileStore::compact) with a crash-injection hook:
    /// when `abort_after` is set, the compaction stops right after that
    /// phase, leaving the torn on-disk state a real crash would. The
    /// store object is stale afterwards and must be dropped; reopening
    /// runs recovery. Test/smoke hook only.
    ///
    /// # Errors
    ///
    /// As [`compact`](ProfileStore::compact).
    pub fn compact_with_abort(
        &mut self,
        abort_after: Option<CompactPhase>,
    ) -> Result<CompactReport, StoreError> {
        self.flush()?;
        let _span = span!(self.rec, metrics::store::COMPACT_SPAN);

        // The live record set is exactly what the index points at.
        let sources = self.all_entries()?;
        let input_files: std::collections::BTreeSet<&str> =
            sources.values().map(|m| m.file.as_str()).collect();
        let input_records = sources.len();
        let new_gen = self
            .manifest
            .generations
            .iter()
            .map(|g| g.gen)
            .max()
            .unwrap_or(0)
            + 1;
        let mut report = CompactReport {
            input_segments: input_files.len(),
            input_records,
            output_segments: 0,
            output_records: 0,
            output_bytes: 0,
            salvaged: 0,
            dropped: 0,
            gen: new_gen,
            aborted: false,
        };
        if input_records == 0 {
            return Ok(report);
        }

        write_atomic(
            &self.root.join(COMPACTING_MARKER),
            b"compaction in flight\n",
        )?;

        // Phase 1: write the new generation's chunk files (temp + rename
        // each). Records stream through one at a time, sorted by module.
        let mut new_entries: BTreeMap<String, SegmentMeta> = BTreeMap::new();
        let mut gen_segments: Vec<GenSegmentMeta> = Vec::new();
        let mut chunk: Vec<u8> = Vec::new();
        let mut chunk_hash = Fnv1a64::new();
        let mut chunk_records: Vec<(String, SegmentMeta)> = Vec::new();
        // One cached input file per kind. Records come in name order, which
        // visits a generation's chunks in order but interleaves them with
        // single-record L0 files: one slot for both would re-read the
        // current chunk after every L0 record.
        let mut cached: [Option<(String, Vec<u8>)>; 2] = [None, None];

        let finalize_chunk = |chunk: &mut Vec<u8>,
                              chunk_hash: &Fnv1a64,
                              chunk_records: &mut Vec<(String, SegmentMeta)>,
                              gen_segments: &mut Vec<GenSegmentMeta>,
                              new_entries: &mut BTreeMap<String, SegmentMeta>|
         -> Result<(), StoreError> {
            if chunk_records.is_empty() {
                return Ok(());
            }
            let file = format!("g{new_gen}-{:04}.pbs", gen_segments.len());
            let path = self.root.join("segments").join(&file);
            write_atomic(&path, chunk)?;
            let records = chunk_records.len();
            let mut failures = 0usize;
            for (name, mut meta) in chunk_records.drain(..) {
                meta.file = file.clone();
                failures += meta.failures;
                new_entries.insert(name, meta);
            }
            gen_segments.push(GenSegmentMeta {
                file,
                records,
                failures,
                bytes: chunk.len() as u64,
                hash: format_hash(chunk_hash.finish()),
            });
            chunk.clear();
            Ok(())
        };

        for (name, meta) in &sources {
            let slot = &mut cached[usize::from(is_gen_file(&meta.file))];
            let source = match self.segment_cached(&meta.file, slot) {
                Ok(bytes) => bytes,
                Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => &[],
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                chunk.extend_from_slice(SEGMENT_MAGIC);
                chunk_hash = Fnv1a64::new();
                chunk_hash.update(SEGMENT_MAGIC);
            }
            let offset = chunk.len() as u64;
            // An intact record is copied verbatim; a damaged one is
            // salvaged and re-encoded, or dropped.
            let (hash, failures) =
                match copy_intact_frame(source, meta.offset, &mut chunk, &mut chunk_hash) {
                    Some((hash, payload)) => {
                        let summary =
                            summarize_payload(payload).map_err(|e| StoreError::Corrupt {
                                path: self.root.join("segments").join(&meta.file),
                                detail: e.to_string(),
                            })?;
                        (hash, summary.cells)
                    }
                    None => {
                        self.rec.incr(metrics::store::RECOVERY, 1);
                        let at = usize::try_from(meta.offset).unwrap_or(usize::MAX);
                        match decode_payload(read_frame(source, at).payload, false) {
                            Ok(rec) => {
                                report.salvaged += 1;
                                let start = chunk.len();
                                let hash = put_record(&mut chunk, name, &rec.profile);
                                chunk_hash.update(&chunk[start..]);
                                (hash, rec.profile.failures.len())
                            }
                            Err(_) => {
                                report.dropped += 1;
                                continue;
                            }
                        }
                    }
                };
            let framed_len = chunk.len() as u64 - offset;
            chunk_records.push((
                name.clone(),
                SegmentMeta {
                    file: String::new(),
                    offset,
                    hash: format_hash(hash),
                    failures,
                    bytes: framed_len,
                },
            ));
            report.output_records += 1;
            report.output_bytes += framed_len;
            if chunk_records.len() >= CHUNK_RECORDS {
                finalize_chunk(
                    &mut chunk,
                    &chunk_hash,
                    &mut chunk_records,
                    &mut gen_segments,
                    &mut new_entries,
                )?;
            }
        }
        finalize_chunk(
            &mut chunk,
            &chunk_hash,
            &mut chunk_records,
            &mut gen_segments,
            &mut new_entries,
        )?;
        report.output_segments = gen_segments.len();
        self.rec.incr(
            metrics::store::COMPACT_RECORDS,
            report.output_records as u64,
        );
        self.rec
            .incr(metrics::store::COMPACT_BYTES, report.output_bytes);
        if abort_after == Some(CompactPhase::Segments) {
            report.aborted = true;
            return Ok(report);
        }

        // Phase 2: the commit point — swap the manifest.
        let new_manifest = ManifestDoc {
            version: STORE_VERSION,
            epoch: self.manifest.epoch + 1,
            generations: vec![GenerationMeta {
                gen: new_gen,
                segments: gen_segments,
            }],
        };
        write_atomic(
            &self.root.join("manifest.json"),
            serde_json::to_string_pretty(&new_manifest)?.as_bytes(),
        )?;
        if abort_after == Some(CompactPhase::Manifest) {
            report.aborted = true;
            return Ok(report);
        }

        // Phase 3: retire the inputs. Deleting everything the new manifest
        // does not reference (rather than just the gathered input files)
        // keeps this step byte-for-byte equivalent to what roll-forward
        // recovery reconstructs after a crash here.
        let referenced: std::collections::BTreeSet<&str> = new_manifest.generations[0]
            .segments
            .iter()
            .map(|s| s.file.as_str())
            .collect();
        for entry in fs::read_dir(self.root.join("segments"))? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !referenced.contains(name.as_str()) {
                fs::remove_file(entry.path()).ok();
                self.rec.incr(metrics::store::GC_FILES, 1);
            }
        }
        if abort_after == Some(CompactPhase::Cleanup) {
            report.aborted = true;
            return Ok(report);
        }

        // Phase 4: rewrite the index shards under the new epoch, then drop
        // the marker.
        write_shards(&self.root, &new_entries, new_manifest.epoch)?;
        fs::remove_file(self.root.join(COMPACTING_MARKER)).ok();

        self.manifest = new_manifest;
        let mut shards: Vec<Option<BTreeMap<String, SegmentMeta>>> =
            vec![Some(BTreeMap::new()); SHARD_COUNT];
        for (name, meta) in new_entries {
            shards[shard_of(&name)].as_mut().unwrap().insert(name, meta);
        }
        self.shards = RefCell::new(shards);
        self.dirty = vec![false; SHARD_COUNT];
        self.rec.incr(metrics::store::COMPACTIONS, 1);
        Ok(report)
    }

    // ------------------------------------------------------------ internals

    fn ensure_shard(&self, id: usize) -> Result<(), StoreError> {
        if self.shards.borrow()[id].is_some() {
            return Ok(());
        }
        let path = self.root.join(shard_file(id));
        let entries = if path.exists() {
            let text = fs::read_to_string(&path)?;
            let doc: ShardDoc = serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
                path: path.clone(),
                detail: format!("index shard does not parse: {}", e.0),
            })?;
            if doc.version != STORE_VERSION {
                return Err(StoreError::Corrupt {
                    path,
                    detail: format!(
                        "index shard version {} unsupported (expected {STORE_VERSION})",
                        doc.version
                    ),
                });
            }
            doc.entries
        } else {
            BTreeMap::new()
        };
        self.shards.borrow_mut()[id] = Some(entries);
        Ok(())
    }

    fn all_entries(&self) -> Result<BTreeMap<String, SegmentMeta>, StoreError> {
        let mut all = BTreeMap::new();
        for id in 0..SHARD_COUNT {
            self.ensure_shard(id)?;
            let shards = self.shards.borrow();
            for (name, meta) in shards[id].as_ref().unwrap() {
                all.insert(name.clone(), meta.clone());
            }
        }
        Ok(all)
    }

    /// Reads a record frame at `meta`'s location. Returns the payload (as
    /// much of it as exists) and whether it matched its checksum.
    fn read_frame(&self, meta: &SegmentMeta) -> Result<(Vec<u8>, bool), StoreError> {
        let path = self.root.join("segments").join(&meta.file);
        let mut f = fs::File::open(&path)?;
        read_frame_from(&mut f, meta.offset, &path)
    }

    /// The bytes of segment `file`, keeping the last file read in `last`:
    /// compaction visits records in name order, which within a generation
    /// is also file/offset order, so consecutive reads of a generation
    /// mostly hit the same file.
    fn segment_cached<'a>(
        &self,
        file: &str,
        last: &'a mut Option<(String, Vec<u8>)>,
    ) -> Result<&'a [u8], StoreError> {
        if !matches!(last, Some((f, _)) if f == file) {
            *last = Some((
                file.to_string(),
                fs::read(self.root.join("segments").join(file))?,
            ));
        }
        Ok(last.as_ref().map_or(&[], |(_, bytes)| bytes.as_slice()))
    }

    /// A previous compaction died in flight (the `COMPACTING` marker is
    /// present). Collect orphan chunk files; if the manifest swap had
    /// landed (any index shard's epoch lags the manifest), roll forward:
    /// delete every stale input and rebuild the shards from the committed
    /// generation.
    fn recover_in_flight_compaction(&mut self) -> Result<(), StoreError> {
        let referenced: std::collections::BTreeSet<String> = self
            .manifest
            .generations
            .iter()
            .flat_map(|g| g.segments.iter().map(|s| s.file.clone()))
            .collect();
        for entry in fs::read_dir(self.root.join("segments"))? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let orphan_gen = is_gen_file(&name) && !referenced.contains(&name);
            if name.starts_with(".tmp-") || orphan_gen {
                fs::remove_file(entry.path()).ok();
                self.rec.incr(metrics::store::GC_FILES, 1);
            }
        }
        let stale = (0..SHARD_COUNT).any(|id| {
            peek_epoch(&self.root.join(shard_file(id)))
                .is_some_and(|epoch| epoch != self.manifest.epoch)
        });
        if stale {
            // The manifest committed: its generation holds every live
            // record. Every L0 was merged in and is stale.
            for entry in fs::read_dir(self.root.join("segments"))? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("L0-") {
                    fs::remove_file(entry.path()).ok();
                    self.rec.incr(metrics::store::GC_FILES, 1);
                }
            }
            let entries = scan_generations(&self.root, &self.manifest)?;
            write_shards(&self.root, &entries, self.manifest.epoch)?;
            self.shards = RefCell::new(vec![None; SHARD_COUNT]);
            self.rec.incr(metrics::store::RECOVERY, 1);
        }
        fs::remove_file(self.root.join(COMPACTING_MARKER)).ok();
        Ok(())
    }
}

/// Whether any v2 on-disk state (index shards or `.pbs` segments) exists —
/// used to tell a fresh store from one whose manifest was lost.
fn has_v2_state(root: &Path) -> bool {
    if (0..SHARD_COUNT).any(|id| root.join(shard_file(id)).exists()) {
        return true;
    }
    fs::read_dir(root.join("segments"))
        .map(|dir| {
            dir.flatten()
                .any(|e| e.file_name().to_string_lossy().ends_with(".pbs"))
        })
        .unwrap_or(false)
}

/// Rebuilds the manifest and every index shard by scanning the segment
/// files themselves — the last-resort path when the manifest is torn or
/// missing. Precedence during the scan matches normal reads: generations
/// in ascending order, then L0 records overwrite.
fn full_rebuild(root: &Path, rec: &RecorderHandle) -> Result<ManifestDoc, StoreError> {
    let mut gen_files: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    let mut l0_files: Vec<String> = Vec::new();
    for entry in fs::read_dir(root.join("segments"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(".tmp-") {
            fs::remove_file(entry.path()).ok();
            rec.incr(metrics::store::GC_FILES, 1);
        } else if let Some(gen) = parse_gen_file(&name) {
            gen_files.entry(gen).or_default().push(name);
        } else if name.starts_with("L0-") && name.ends_with(".pbs") {
            l0_files.push(name);
        }
    }
    for files in gen_files.values_mut() {
        files.sort();
    }
    l0_files.sort();

    let mut entries: BTreeMap<String, SegmentMeta> = BTreeMap::new();
    let mut generations: Vec<GenerationMeta> = Vec::new();
    for (&gen, files) in &gen_files {
        let mut segments = Vec::new();
        for file in files {
            let bytes = fs::read(root.join("segments").join(file))?;
            let mut records = 0usize;
            let mut failures = 0usize;
            if let Ok(frames) = walk_frames(&bytes) {
                for frame in frames {
                    index_frame(&frame, file, &mut entries, &mut records, &mut failures);
                }
            }
            segments.push(GenSegmentMeta {
                file: file.clone(),
                records,
                failures,
                bytes: bytes.len() as u64,
                hash: format_hash(fnv1a64(&bytes)),
            });
        }
        generations.push(GenerationMeta { gen, segments });
    }
    for file in &l0_files {
        let bytes = fs::read(root.join("segments").join(file))?;
        let mut records = 0usize;
        let mut failures = 0usize;
        if let Ok(frames) = walk_frames(&bytes) {
            for frame in frames {
                index_frame(&frame, file, &mut entries, &mut records, &mut failures);
            }
        }
    }

    // A fresh epoch past anything a surviving shard might carry, so the
    // rebuilt manifest and shards agree.
    let epoch = (0..SHARD_COUNT)
        .filter_map(|id| peek_epoch(&root.join(shard_file(id))))
        .max()
        .unwrap_or(0)
        + 1;
    let manifest = ManifestDoc {
        version: STORE_VERSION,
        epoch,
        generations,
    };
    write_atomic(
        &root.join("manifest.json"),
        serde_json::to_string_pretty(&manifest)?.as_bytes(),
    )?;
    write_shards(root, &entries, epoch)?;
    rec.incr(metrics::store::RECOVERY, 1);
    Ok(manifest)
}

/// Appends the frame at `offset` of a segment's `bytes` to `chunk`
/// verbatim when it is intact. One pass checks the frame's checksum,
/// hashes the record's body and extends `chunk_hash` over the copied
/// bytes. Returns the body's content hash and the payload, or `None`, with
/// `chunk` and `chunk_hash` untouched, when the frame is torn, longer than
/// [`MAX_RECORD_BYTES`] or fails its checksum.
fn copy_intact_frame<'a>(
    bytes: &'a [u8],
    offset: u64,
    chunk: &mut Vec<u8>,
    chunk_hash: &mut Fnv1a64,
) -> Option<(u64, &'a [u8])> {
    let start = usize::try_from(offset).ok()?;
    let (len, sum) = frame::header(bytes.get(start..)?)?;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let payload_at = start + frame::HEADER_BYTES;
    let framed = bytes.get(start..payload_at.checked_add(len as usize)?)?;
    let payload = &framed[frame::HEADER_BYTES..];
    let body = payload_body(payload);
    let (name, body) = payload.split_at(payload.len() - body.len());
    let (mut frame_sum, mut content, mut extended) = (Fnv1a64::new(), Fnv1a64::new(), *chunk_hash);
    extended.update(&framed[..frame::HEADER_BYTES]);
    Fnv1a64::update_all([&mut frame_sum, &mut extended], name);
    Fnv1a64::update_all([&mut frame_sum, &mut content, &mut extended], body);
    if frame_sum.finish() != sum {
        return None;
    }
    chunk.extend_from_slice(framed);
    *chunk_hash = extended;
    Some((content.finish(), payload))
}

/// Indexes one scanned frame (skipping torn or undecodable ones).
fn index_frame(
    frame: &Frame<'_>,
    file: &str,
    entries: &mut BTreeMap<String, SegmentMeta>,
    records: &mut usize,
    failures: &mut usize,
) {
    if !frame.intact {
        return;
    }
    if let Ok(rec) = summarize_payload(frame.payload) {
        *records += 1;
        *failures += rec.cells;
        entries.insert(
            rec.name.to_string(),
            SegmentMeta {
                file: file.to_string(),
                offset: frame.offset,
                hash: format_hash(fnv1a64(payload_body(frame.payload))),
                failures: rec.cells,
                bytes: FRAME_HEADER_BYTES + frame.payload.len() as u64,
            },
        );
    }
}

/// Streams every generation the manifest references into an entry map —
/// the shared index-(re)build path, so a roll-forward recovery writes
/// byte-identical shards to the compaction it is completing.
fn scan_generations(
    root: &Path,
    manifest: &ManifestDoc,
) -> Result<BTreeMap<String, SegmentMeta>, StoreError> {
    let mut entries = BTreeMap::new();
    for gen in &manifest.generations {
        for seg in &gen.segments {
            let path = root.join("segments").join(&seg.file);
            let bytes = fs::read(&path)?;
            let frames = walk_frames(&bytes).map_err(|detail| StoreError::Corrupt {
                path: path.clone(),
                detail,
            })?;
            for frame in frames {
                let (mut records, mut failures) = (0, 0);
                index_frame(&frame, &seg.file, &mut entries, &mut records, &mut failures);
            }
        }
    }
    Ok(entries)
}

/// Writes every index shard from a full entry map (deleting shard files
/// for buckets that end up empty).
fn write_shards(
    root: &Path,
    entries: &BTreeMap<String, SegmentMeta>,
    epoch: u64,
) -> Result<(), StoreError> {
    let mut buckets: Vec<BTreeMap<String, SegmentMeta>> = vec![BTreeMap::new(); SHARD_COUNT];
    for (name, meta) in entries {
        buckets[shard_of(name)].insert(name.clone(), meta.clone());
    }
    for (id, bucket) in buckets.into_iter().enumerate() {
        let path = root.join(shard_file(id));
        if bucket.is_empty() {
            fs::remove_file(&path).ok();
            continue;
        }
        let doc = ShardDoc {
            version: STORE_VERSION,
            epoch,
            entries: bucket,
        };
        write_atomic(&path, serde_json::to_string_pretty(&doc)?.as_bytes())?;
    }
    Ok(())
}

/// Reads one frame from an open file at `offset`: the payload (as much as
/// exists) and whether it verified.
fn read_frame_from(
    f: &mut fs::File,
    offset: u64,
    path: &Path,
) -> Result<(Vec<u8>, bool), StoreError> {
    f.seek(SeekFrom::Start(offset))?;
    let mut hdr = [0u8; frame::HEADER_BYTES];
    let got = read_up_to(f, &mut hdr)?;
    let Some((len, sum)) = frame::header(&hdr[..got]) else {
        return Ok((Vec::new(), false));
    };
    if len > MAX_RECORD_BYTES {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("frame length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_up_to(f, &mut payload)?;
    payload.truncate(got);
    let intact = got as u64 == len && fnv1a64(&payload) == sum;
    Ok((payload, intact))
}

fn read_up_to(f: &mut fs::File, buf: &mut [u8]) -> Result<usize, StoreError> {
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(n)
}

/// The record payload minus its module-name prefix: the canonical body
/// bytes the content hash covers. Falls back to the whole payload on a
/// malformed name field (only reachable on corrupt input).
pub(crate) fn payload_body(payload: &[u8]) -> &[u8] {
    let mut pos = 0;
    match parbor_hal::varint::get(payload, &mut pos) {
        Some(name_len) if pos as u64 + name_len <= payload.len() as u64 => {
            &payload[pos + name_len as usize..]
        }
        _ => payload,
    }
}

/// The index shard a module belongs to.
pub fn shard_of(name: &str) -> usize {
    (fnv1a64(name.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// The shard's file name (`index-00.json` … `index-0f.json`).
pub fn shard_file(id: usize) -> String {
    format!("index-{id:02x}.json")
}

/// Whether `name` is a compacted chunk file (`g<gen>-<k>.pbs`).
fn is_gen_file(name: &str) -> bool {
    parse_gen_file(name).is_some()
}

/// Parses the generation number out of a chunk file name.
fn parse_gen_file(name: &str) -> Option<u32> {
    let rest = name.strip_prefix('g')?.strip_suffix(".pbs")?;
    let (gen, chunk) = rest.split_once('-')?;
    if chunk.is_empty() || !chunk.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    gen.parse().ok()
}

/// Reads just the `epoch` field out of a shard file's head, without
/// parsing the whole (potentially large) document. `None` when the file
/// is missing or the field is not in the first 512 bytes (the
/// serializer puts it second, well inside).
fn peek_epoch(path: &Path) -> Option<u64> {
    let mut f = fs::File::open(path).ok()?;
    let mut buf = [0u8; 512];
    let mut n = 0;
    while n < buf.len() {
        match f.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(_) => return None,
        }
    }
    let text = std::str::from_utf8(&buf[..n]).ok()?;
    let idx = text.find("\"epoch\"")?;
    let rest = text[idx + "\"epoch\"".len()..].trim_start_matches([':', ' ', '\t']);
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// then rename over the destination.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = path.parent().ok_or_else(|| {
        StoreError::InvalidConfig(format!("path {} has no parent", path.display()))
    })?;
    let stem = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("segment");
    let tmp = dir.join(format!(".tmp-{stem}"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
}
