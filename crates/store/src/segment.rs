//! The `PBSTSEG1` binary columnar segment format.
//!
//! A segment file is the 8-byte magic followed by back-to-back framed
//! records, one record per module profile:
//!
//! ```text
//! "PBSTSEG1"
//! [u32 LE payload len][u64 LE fnv1a64(payload)][payload]
//! [u32 LE payload len][u64 LE fnv1a64(payload)][payload]
//! …
//! ```
//!
//! The payload is the module name followed by the profile *body*, and the
//! body is columnar: every scalar first, then each failing-cell column in
//! full (units, banks, rows, cols, values) rather than cell-by-cell
//! structs. Everything is LEB128 varint packed; coupling distances and row
//! deltas are zigzag coded; cell polarities are bit-packed. The body bytes
//! are also the canonical form the content hash covers, so a profile's
//! identity is independent of which segment (or generation) holds it.
//!
//! One column walker reads a payload, with two outputs. [`decode_payload`]
//! writes the cells in place into one `Vec<FailingCell>`, whose capacity
//! the payload's length bounds whatever count the record claims.
//! [`summarize_payload`] validates every column exactly as the strict
//! decode does but builds no cells: it steps over the cell columns eight
//! bytes at a time and returns the name, the scalars, the distances and
//! the cell count, which is all the aggregate, the ledger and compaction
//! read. Decoding is strict when the frame checksum verifies and
//! *tolerant* otherwise: columns are decoded front to back and a torn tail
//! costs only the cells whose columns it destroyed, mirroring the fleet
//! journal's valid-prefix salvage.

use parbor_core::{FailingCell, FailureProfile};
use parbor_hal::frame;
use parbor_hal::hash::{fnv1a64, Fnv1a64};
use parbor_hal::varint::{get as get_varint, put as put_varint, unzigzag, zigzag};

pub use parbor_hal::frame::Frame;

/// Magic bytes opening every columnar segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PBSTSEG1";

/// Upper bound on a single record payload, guarding length fields read
/// from corrupt frames against giant allocations.
pub const MAX_RECORD_BYTES: u64 = 1 << 30;

/// Bytes of framing around every payload (`u32` length + `u64` checksum).
pub const FRAME_HEADER_BYTES: u64 = frame::HEADER_BYTES as u64;

/// Fewest payload bytes a failing cell occupies: one varint byte in each
/// of the unit, bank, row and column columns.
const MIN_CELL_BYTES: usize = 4;

/// Appends the profile *body* (everything except the module name), the
/// canonical byte form the content hash covers, to `out`.
fn put_body(out: &mut Vec<u8>, profile: &FailureProfile) {
    let n = profile.failures.len();
    out.reserve(32 + n * 6);
    put_varint(out, profile.victim_count as u64);
    put_varint(out, profile.discovery_rounds as u64);
    put_varint(out, profile.recursion_tests as u64);
    put_varint(out, profile.chipwide_rounds as u64);
    put_varint(out, profile.tests_per_level.len() as u64);
    for &t in &profile.tests_per_level {
        put_varint(out, t as u64);
    }
    put_varint(out, profile.distances.len() as u64);
    for &d in &profile.distances {
        put_varint(out, zigzag(d));
    }
    put_varint(out, n as u64);
    for cell in &profile.failures {
        put_varint(out, u64::from(cell.unit));
    }
    for cell in &profile.failures {
        put_varint(out, u64::from(cell.bank));
    }
    // Rows are sorted within (unit, bank) runs, so deltas are mostly tiny.
    let mut prev = 0i64;
    for cell in &profile.failures {
        let row = i64::from(cell.row);
        put_varint(out, zigzag(row - prev));
        prev = row;
    }
    for cell in &profile.failures {
        put_varint(out, u64::from(cell.col));
    }
    let bits = out.len();
    out.resize(bits + n.div_ceil(8), 0);
    for (i, cell) in profile.failures.iter().enumerate() {
        if cell.value {
            out[bits + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Appends a record payload (varint name length, name bytes, body) to
/// `out`; returns the offset in `out` at which the body starts.
fn put_payload(out: &mut Vec<u8>, name: &str, profile: &FailureProfile) -> usize {
    put_varint(out, name.len() as u64);
    out.extend_from_slice(name.as_bytes());
    let body = out.len();
    put_body(out, profile);
    body
}

/// Renders a hash the way the store index records it (`fnv64:<16 hex>`).
pub fn format_hash(hash: u64) -> String {
    format!("fnv64:{hash:016x}")
}

/// Encodes a full record payload: varint name length, name bytes, body.
pub fn encode_payload(name: &str, profile: &FailureProfile) -> Vec<u8> {
    let mut payload = Vec::new();
    put_payload(&mut payload, name, profile);
    payload
}

/// Appends `profile`'s record under `name` to `out` in the
/// `[u32 len][u64 fnv1a64]` frame: the same bytes as `frame::put` of
/// [`encode_payload`], encoded in place behind the header. Returns the content hash of the record's body. The frame
/// checksum and the content hash come out of one FNV pass.
pub fn put_record(out: &mut Vec<u8>, name: &str, profile: &FailureProfile) -> u64 {
    let header = out.len();
    out.extend_from_slice(&[0; frame::HEADER_BYTES]);
    let payload = out.len();
    let body = put_payload(out, name, profile);
    let (mut sum, mut content) = (Fnv1a64::new(), Fnv1a64::new());
    sum.update(&out[payload..body]);
    Fnv1a64::update_all([&mut sum, &mut content], &out[body..]);
    let len = out.len() - payload;
    out[header..payload].copy_from_slice(&frame::encode_header(len, sum.finish()));
    content.finish()
}

/// Reads the frame at `pos` (see [`frame::read_at`]), capping lengths at
/// [`MAX_RECORD_BYTES`].
pub fn read_frame(bytes: &[u8], pos: usize) -> Frame<'_> {
    frame::read_at(bytes, pos, MAX_RECORD_BYTES, fnv1a64)
}

/// A record decoded from a segment frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRecord {
    /// The module name the record stores.
    pub name: String,
    /// The decoded profile (possibly a salvaged prefix).
    pub profile: FailureProfile,
    /// Whether every promised field and cell was readable.
    pub complete: bool,
}

/// What a strictly validated record holds, less its cells: the summary
/// [`summarize_payload`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary<'a> {
    /// The module name the record stores.
    pub name: &'a str,
    /// The profile's `victim_count`.
    pub victim_count: usize,
    /// The profile's `discovery_rounds`.
    pub discovery_rounds: usize,
    /// The profile's `recursion_tests`.
    pub recursion_tests: usize,
    /// The profile's `chipwide_rounds`.
    pub chipwide_rounds: usize,
    /// The profile's coupling distances.
    pub distances: Vec<i64>,
    /// Failing cells the record stores.
    pub cells: usize,
}

/// Why a record payload does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The name's length field is unreadable or runs past the payload.
    NameLength,
    /// The name bytes are not UTF-8.
    NameNotUtf8,
    /// A field or column ended early or held a varint wider than 64 bits
    /// (strict mode only); names the field.
    Truncated(&'static str),
    /// The cell count is above [`MAX_RECORD_BYTES`], or (strict mode
    /// only) more cells than the bytes after it can hold.
    CellCount {
        /// The count the record claims.
        promised: u64,
        /// Payload bytes left for the cell columns.
        bytes: usize,
    },
    /// Bytes left over after the polarity bits (strict mode only).
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::NameLength => {
                write!(f, "record name length unreadable or past the payload")
            }
            DecodeError::NameNotUtf8 => write!(f, "record name is not utf-8"),
            DecodeError::Truncated(field) => write!(f, "{field} truncated"),
            DecodeError::CellCount { promised, bytes } => {
                write!(f, "record promises {promised} cells in {bytes} bytes")
            }
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record body"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a record payload.
///
/// With `strict` (frame checksum verified) any truncation or trailing
/// garbage is an error. Without it, the decoder keeps whatever columns
/// survive: scalars default to zero past the tear, and the failing-cell
/// list is cut to the cells whose every column (including the polarity
/// bits) was readable. Either way the cell vector's capacity is at most a
/// quarter of the payload's length, whatever count the record claims.
///
/// # Errors
///
/// A [`DecodeError`] when the name field itself is unreadable (nothing to
/// salvage) or the cell count is above [`MAX_RECORD_BYTES`], or on any
/// defect in strict mode.
pub fn decode_payload(payload: &[u8], strict: bool) -> Result<DecodedRecord, DecodeError> {
    let walked = walk_record(payload, strict, true)?;
    Ok(DecodedRecord {
        name: walked.name.to_string(),
        profile: walked.profile,
        complete: walked.complete,
    })
}

/// Validates a record payload exactly as the strict [`decode_payload`]
/// does, and returns what it holds less its cells.
///
/// # Errors
///
/// Whenever the strict decode fails.
pub fn summarize_payload(payload: &[u8]) -> Result<RecordSummary<'_>, DecodeError> {
    let walked = walk_record(payload, true, false)?;
    let p = walked.profile;
    Ok(RecordSummary {
        name: walked.name,
        victim_count: p.victim_count,
        discovery_rounds: p.discovery_rounds,
        recursion_tests: p.recursion_tests,
        chipwide_rounds: p.chipwide_rounds,
        distances: p.distances,
        cells: walked.cells,
    })
}

/// What [`walk_record`] read.
struct Walked<'a> {
    name: &'a str,
    /// Every field; `failures` is empty unless cells were built.
    profile: FailureProfile,
    /// Cells whose every column was readable.
    cells: usize,
    complete: bool,
}

/// The one column walker behind [`decode_payload`] and
/// [`summarize_payload`]. With `build_cells` it writes the cells in place;
/// without, it steps over the cell columns and only counts.
///
/// Both modes read the same varints in the same order with the same
/// failure points as `varint::get`, so they accept, reject and salvage
/// exactly alike.
fn walk_record(payload: &[u8], strict: bool, build_cells: bool) -> Result<Walked<'_>, DecodeError> {
    let mut pos = 0;
    let name_len = get_varint(payload, &mut pos).ok_or(DecodeError::NameLength)?;
    if name_len > MAX_RECORD_BYTES || pos as u64 + name_len > payload.len() as u64 {
        return Err(DecodeError::NameLength);
    }
    let name = std::str::from_utf8(&payload[pos..pos + name_len as usize])
        .map_err(|_| DecodeError::NameNotUtf8)?;
    pos += name_len as usize;

    let mut complete = true;
    // A field that failed to read: an error in strict mode, and in
    // tolerant mode an incomplete record.
    let torn = |complete: &mut bool, field| {
        *complete = false;
        if strict {
            Err(DecodeError::Truncated(field))
        } else {
            Ok(())
        }
    };
    // A scalar past a tear reads as zero in tolerant mode.
    let scalar = |pos: &mut usize, complete: &mut bool| match get_varint(payload, pos) {
        Some(v) => Ok(v),
        None => torn(complete, "record body").map(|()| 0),
    };
    let victim_count = scalar(&mut pos, &mut complete)? as usize;
    let discovery_rounds = scalar(&mut pos, &mut complete)? as usize;
    let recursion_tests = scalar(&mut pos, &mut complete)? as usize;
    let chipwide_rounds = scalar(&mut pos, &mut complete)? as usize;
    let levels = scalar(&mut pos, &mut complete)?;
    let mut tests_per_level = Vec::new();
    for _ in 0..levels.min(MAX_RECORD_BYTES) {
        match read_varint(payload, &mut pos) {
            Some(v) => tests_per_level.push(v as usize),
            None => {
                torn(&mut complete, "tests_per_level")?;
                break;
            }
        }
    }
    let dists = scalar(&mut pos, &mut complete)?;
    let mut distances = Vec::new();
    for _ in 0..dists.min(MAX_RECORD_BYTES) {
        match read_varint(payload, &mut pos) {
            Some(v) => distances.push(unzigzag(v)),
            None => {
                torn(&mut complete, "distances")?;
                break;
            }
        }
    }

    let promised = scalar(&mut pos, &mut complete)?;
    let room = payload.len() - pos.min(payload.len());
    let cell_count = DecodeError::CellCount {
        promised,
        bytes: room,
    };
    if promised > MAX_RECORD_BYTES {
        return Err(cell_count);
    }
    let promised = promised as usize;
    // Every surviving cell has a byte in each of four disjoint columns, so
    // no more than `room / 4` can survive, whatever the count claims.
    let fits = room / MIN_CELL_BYTES;
    if strict && promised > fits {
        return Err(cell_count);
    }
    let build = if build_cells { promised.min(fits) } else { 0 };
    let mut failures: Vec<FailingCell> = Vec::with_capacity(build);
    let mut read = [0usize; 4];
    read[0] = {
        let mut n = 0;
        while n < build {
            match read_varint(payload, &mut pos) {
                Some(v) => failures.push(FailingCell {
                    unit: v as u32,
                    bank: 0,
                    row: 0,
                    col: 0,
                    value: false,
                }),
                None => break,
            }
            n += 1;
        }
        if n < build {
            n
        } else {
            n + skip_varints(payload, &mut pos, promised - n)
        }
    };
    read[1] = fill_column(payload, &mut pos, promised, &mut failures, |c, v| {
        c.bank = v as u32;
    });
    let mut prev = 0i64;
    read[2] = fill_column(payload, &mut pos, promised, &mut failures, |c, v| {
        prev = prev.wrapping_add(unzigzag(v));
        c.row = prev as u32;
    });
    read[3] = fill_column(payload, &mut pos, promised, &mut failures, |c, v| {
        c.col = v as u32;
    });
    if read.iter().any(|&n| n < promised) {
        torn(&mut complete, "cell column")?;
    }
    let bit_bytes = promised.div_ceil(8);
    let bits = &payload[pos.min(payload.len())..(pos + bit_bytes).min(payload.len())];
    if strict && bits.len() != bit_bytes {
        return Err(DecodeError::Truncated("polarity bits"));
    }
    pos += bit_bytes;
    if strict && pos != payload.len() {
        return Err(DecodeError::TrailingBytes(payload.len() - pos));
    }

    // A cell survives only if every one of its five columns survived.
    let cells = read
        .into_iter()
        .chain([bits.len() * 8, promised])
        .min()
        .unwrap_or(0);
    if cells < promised {
        complete = false;
    }
    failures.truncate(cells);
    for (i, cell) in failures.iter_mut().enumerate() {
        cell.value = bits[i / 8] & (1 << (i % 8)) != 0;
    }
    Ok(Walked {
        name,
        profile: FailureProfile {
            victim_count,
            discovery_rounds,
            tests_per_level,
            recursion_tests,
            distances,
            chipwide_rounds,
            failures,
        },
        cells,
        complete,
    })
}

/// Walks one cell column of `n` varints: hands the first `cells.len()`
/// (at most `n`) to `set` with their cell, steps over the rest, and
/// returns how many it read before the column ended or a varint failed.
#[inline]
fn fill_column(
    bytes: &[u8],
    pos: &mut usize,
    n: usize,
    cells: &mut [FailingCell],
    mut set: impl FnMut(&mut FailingCell, u64),
) -> usize {
    let take = cells.len().min(n);
    for (i, cell) in cells[..take].iter_mut().enumerate() {
        match read_varint(bytes, pos) {
            Some(v) => set(cell, v),
            None => return i,
        }
    }
    take + skip_varints(bytes, pos, n - take)
}

/// Reads one varint exactly as `varint::get` does, with the one- and
/// two-byte cases (nearly every value in a profile) inline.
#[inline(always)]
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    if let Some(&[b0, b1]) = bytes.get(p..p + 2) {
        if b0 < 0x80 {
            *pos = p + 1;
            return Some(u64::from(b0));
        }
        if b1 < 0x80 {
            *pos = p + 2;
            return Some(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
        }
    }
    get_varint(bytes, pos)
}

/// Steps `*pos` over up to `n` varints, validating each as `varint::get`
/// does, and returns how many it stepped over: `n`, unless one fails, in
/// which case `*pos` is left where `get` leaves it.
///
/// Eight bytes at a time: a byte below `0x80` ends a varint, so a word
/// whose last such byte is byte `k` and which holds `t` of them holds `t`
/// whole varints in its first `k + 1` bytes, each at most eight bytes long
/// and so none that `get` rejects. A word with no end byte, or more than
/// are left to step over, goes through `get` one varint at a time.
fn skip_varints(bytes: &[u8], pos: &mut usize, n: usize) -> usize {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut left = n;
    while left > 0 {
        if let Some(&word) = bytes.get(*pos..).and_then(|b| b.first_chunk::<8>()) {
            let ends = !u64::from_le_bytes(word) & HIGH;
            let t = ends.count_ones() as usize;
            if t > 0 && t <= left {
                *pos += (63 - ends.leading_zeros() as usize) / 8 + 1;
                left -= t;
                continue;
            }
        }
        if get_varint(bytes, pos).is_none() {
            return n - left;
        }
        left -= 1;
    }
    n
}

/// Walks every frame in a segment byte buffer (after the magic), stopping
/// at the end or at the first frame whose header itself is unreadable.
/// The final element may be a torn frame (`intact: false`).
///
/// # Errors
///
/// `Err(detail)` when the file is shorter than the magic or opens with the
/// wrong magic.
pub fn walk_frames(bytes: &[u8]) -> Result<Vec<Frame<'_>>, String> {
    if !bytes.starts_with(SEGMENT_MAGIC) {
        return Err("bad segment magic".into());
    }
    Ok(frame::walk(bytes, SEGMENT_MAGIC.len(), MAX_RECORD_BYTES, fnv1a64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The four-column decoder the one-pass walker replaced, kept as its
    /// oracle: every column into its own `Vec<u64>`, then the cells built
    /// from the columns. Its column capacity is capped at the payload's
    /// length so a lying count cannot make the oracle itself allocate
    /// gigabytes; nothing else differs.
    fn decode_four_columns(payload: &[u8], strict: bool) -> Result<DecodedRecord, String> {
        let mut pos = 0;
        let name_len = get_varint(payload, &mut pos).ok_or("record name length unreadable")?;
        if name_len > MAX_RECORD_BYTES || pos as u64 + name_len > payload.len() as u64 {
            return Err(format!("record name length {name_len} exceeds payload"));
        }
        let name = std::str::from_utf8(&payload[pos..pos + name_len as usize])
            .map_err(|_| "record name is not utf-8".to_string())?
            .to_string();
        pos += name_len as usize;

        let mut complete = true;
        let scalar = |pos: &mut usize, complete: &mut bool| -> Result<u64, String> {
            match get_varint(payload, pos) {
                Some(v) => Ok(v),
                None if strict => Err("record body truncated".into()),
                None => {
                    *complete = false;
                    Ok(0)
                }
            }
        };

        let mut profile = FailureProfile {
            victim_count: 0,
            discovery_rounds: 0,
            tests_per_level: Vec::new(),
            recursion_tests: 0,
            distances: Vec::new(),
            chipwide_rounds: 0,
            failures: Vec::new(),
        };
        profile.victim_count = scalar(&mut pos, &mut complete)? as usize;
        profile.discovery_rounds = scalar(&mut pos, &mut complete)? as usize;
        profile.recursion_tests = scalar(&mut pos, &mut complete)? as usize;
        profile.chipwide_rounds = scalar(&mut pos, &mut complete)? as usize;

        let levels = scalar(&mut pos, &mut complete)?;
        for _ in 0..levels.min(MAX_RECORD_BYTES) {
            match get_varint(payload, &mut pos) {
                Some(v) => profile.tests_per_level.push(v as usize),
                None if strict => return Err("tests_per_level truncated".into()),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        let dists = scalar(&mut pos, &mut complete)?;
        for _ in 0..dists.min(MAX_RECORD_BYTES) {
            match get_varint(payload, &mut pos) {
                Some(v) => profile.distances.push(unzigzag(v)),
                None if strict => return Err("distances truncated".into()),
                None => {
                    complete = false;
                    break;
                }
            }
        }

        let promised = scalar(&mut pos, &mut complete)? as usize;
        if promised as u64 > MAX_RECORD_BYTES {
            return Err(format!("record promises {promised} cells"));
        }
        let column = |pos: &mut usize, complete: &mut bool| -> Result<Vec<u64>, String> {
            let mut col = Vec::with_capacity(promised.min(payload.len()));
            for _ in 0..promised {
                match get_varint(payload, pos) {
                    Some(v) => col.push(v),
                    None if strict => return Err("cell column truncated".into()),
                    None => {
                        *complete = false;
                        break;
                    }
                }
            }
            Ok(col)
        };
        let units = column(&mut pos, &mut complete)?;
        let banks = column(&mut pos, &mut complete)?;
        let row_deltas = column(&mut pos, &mut complete)?;
        let cols = column(&mut pos, &mut complete)?;
        let bit_bytes = promised.div_ceil(8);
        let bits = &payload[pos.min(payload.len())..(pos + bit_bytes).min(payload.len())];
        if strict && bits.len() != bit_bytes {
            return Err("polarity bits truncated".into());
        }
        pos += bit_bytes;
        if strict && pos != payload.len() {
            return Err(format!(
                "{} trailing bytes after record body",
                payload.len() - pos
            ));
        }

        // A cell survives only if every one of its five columns survived.
        let cells = [
            units.len(),
            banks.len(),
            row_deltas.len(),
            cols.len(),
            bits.len() * 8,
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
        .min(promised);
        if cells < promised {
            complete = false;
        }
        let mut prev = 0i64;
        for i in 0..cells {
            let row = prev.wrapping_add(unzigzag(row_deltas[i]));
            prev = row;
            profile.failures.push(FailingCell {
                unit: units[i] as u32,
                bank: banks[i] as u32,
                row: row as u32,
                col: cols[i] as u32,
                value: bits[i / 8] & (1 << (i % 8)) != 0,
            });
        }
        Ok(DecodedRecord {
            name,
            profile,
            complete,
        })
    }

    /// Xorshift stream for the generators below.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// A random profile whose columns mix one- to five-byte varints.
    fn random_profile(seed: u64, cells: usize) -> FailureProfile {
        let mut next = rng(seed);
        let mut wide = move |bits: u64| {
            let v = next();
            // Mostly small values, sometimes up to `bits` wide.
            match v % 4 {
                0 => (v >> 8) & ((1u64 << bits) - 1),
                _ => (v >> 8) % 200,
            }
        };
        let mut failures: Vec<FailingCell> = (0..cells)
            .map(|_| FailingCell {
                unit: wide(32) as u32,
                bank: wide(5) as u32,
                row: wide(32) as u32,
                col: wide(16) as u32,
                value: wide(1) == 1,
            })
            .collect();
        failures.sort();
        failures.dedup();
        FailureProfile {
            victim_count: wide(40) as usize,
            discovery_rounds: wide(8) as usize,
            tests_per_level: (0..wide(3)).map(|_| wide(20) as usize).collect(),
            recursion_tests: wide(20) as usize,
            distances: (0..wide(3)).map(|_| wide(20) as i64 - (1 << 19)).collect(),
            chipwide_rounds: wide(8) as usize,
            failures,
        }
    }

    /// Payloads derived from `payload` by the mutations a damaged or
    /// hostile segment shows: truncations (at every length when the
    /// payload is short), bit flips, overlong varints, lying cell counts
    /// and trailing bytes.
    fn mutations(payload: &[u8], count_at: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut next = rng(seed);
        let mut out = vec![payload.to_vec()];
        let step = (payload.len() / 160).max(1);
        for len in (0..payload.len()).step_by(step) {
            out.push(payload[..len].to_vec());
        }
        for _ in 0..24 {
            let mut m = payload.to_vec();
            let bit = next() as usize % (m.len() * 8);
            m[bit / 8] ^= 1 << (bit % 8);
            out.push(m);
        }
        for _ in 0..6 {
            // A run of continuation bytes: ten or more make the varint
            // overlong, and a tenth byte above 1 overflows a u64.
            let at = next() as usize % payload.len();
            let run = 8 + next() as usize % 4;
            let mut m = payload[..at].to_vec();
            m.extend(std::iter::repeat_n(0xff, run));
            m.push([0x01, 0x02, 0x7f][next() as usize % 3]);
            m.extend_from_slice(&payload[at..]);
            out.push(m);
        }
        let mut pos = count_at;
        let real = get_varint(payload, &mut pos).expect("cell count");
        for lie in [
            (1u64 << 30) - 1,
            1 << 30,
            (1 << 30) + 1,
            real + 1,
            real.saturating_sub(1),
            real * 4 + 3,
            u64::MAX,
        ] {
            let mut m = payload[..count_at].to_vec();
            put_varint(&mut m, lie);
            m.extend_from_slice(&payload[pos..]);
            out.push(m);
        }
        for tail in [&[0u8][..], &[0x80], &[1, 2, 3]] {
            let mut m = payload.to_vec();
            m.extend_from_slice(tail);
            out.push(m);
        }
        out
    }

    proptest! {
        /// The walker decodes every payload, intact or mutated, to what
        /// the four-column oracle decodes, in strict and tolerant mode,
        /// and its cell vector never holds more than the payload can.
        #[test]
        fn decode_matches_four_column_oracle(seed in any::<u64>(), cells in 0usize..90) {
            let profile = random_profile(seed, cells);
            let name = format!("M{}", seed % 1000);
            let payload = encode_payload(&name, &profile);
            let count_at = encode_payload(&name, &FailureProfile { failures: Vec::new(), ..profile.clone() }).len() - 1;
            for m in mutations(&payload, count_at, seed ^ 0x5eed) {
                for strict in [true, false] {
                    let got = decode_payload(&m, strict);
                    let want = decode_four_columns(&m, strict);
                    match (&got, &want) {
                        (Ok(g), Ok(w)) => {
                            prop_assert_eq!(g, w);
                            prop_assert!(g.profile.failures.capacity() <= m.len() / 4);
                        }
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(false, "strict {strict}: walker {got:?}, oracle {want:?}, payload {m:?}"),
                    }
                }
            }
        }

        /// The summary accepts exactly what the strict decode accepts and
        /// reports its name, scalars, distances and cell count.
        #[test]
        fn summary_matches_strict_decode(seed in any::<u64>(), cells in 0usize..90) {
            let profile = random_profile(seed, cells);
            let name = format!("S{}", seed % 1000);
            let payload = encode_payload(&name, &profile);
            let count_at = encode_payload(&name, &FailureProfile { failures: Vec::new(), ..profile.clone() }).len() - 1;
            for m in mutations(&payload, count_at, seed ^ 0xabc) {
                match (summarize_payload(&m), decode_payload(&m, true)) {
                    (Ok(s), Ok(d)) => {
                        prop_assert_eq!(s.name, d.name.as_str());
                        prop_assert_eq!(&s.distances, &d.profile.distances);
                        prop_assert_eq!(s.cells, d.profile.failures.len());
                        prop_assert_eq!(
                            (s.victim_count, s.discovery_rounds, s.recursion_tests, s.chipwide_rounds),
                            (d.profile.victim_count, d.profile.discovery_rounds, d.profile.recursion_tests, d.profile.chipwide_rounds)
                        );
                    }
                    (Err(s), Err(d)) => prop_assert_eq!(s, d),
                    (s, d) => prop_assert!(false, "summary {s:?}, strict decode {d:?}"),
                }
            }
        }

        /// A record written in place equals the framed encoded payload,
        /// and its returned content hash is the body's FNV-1a.
        #[test]
        fn put_record_matches_framed_payload(seed in any::<u64>(), cells in 0usize..90) {
            let profile = random_profile(seed, cells);
            let name = format!("P{seed}");
            let payload = encode_payload(&name, &profile);
            let mut framed = SEGMENT_MAGIC.to_vec();
            frame::put(&mut framed, &payload, fnv1a64);
            let mut direct = SEGMENT_MAGIC.to_vec();
            let hash = put_record(&mut direct, &name, &profile);
            prop_assert_eq!(&direct, &framed);
            let mut body = Vec::new();
            put_body(&mut body, &profile);
            prop_assert_eq!(hash, fnv1a64(&body));
        }
    }

    #[test]
    fn lying_cell_count_allocates_by_the_payload() {
        let profile = random_profile(7, 60);
        let name = "liar";
        let payload = encode_payload(name, &profile);
        let count_at = encode_payload(
            name,
            &FailureProfile {
                failures: Vec::new(),
                ..profile.clone()
            },
        )
        .len()
            - 1;
        let mut pos = count_at;
        get_varint(&payload, &mut pos).unwrap();
        let mut lying = payload[..count_at].to_vec();
        put_varint(&mut lying, (1 << 30) - 1);
        lying.extend_from_slice(&payload[pos..]);
        assert!(lying.len() < 1_000, "{} bytes", lying.len());

        let salvaged = decode_payload(&lying, false).expect("tolerant decode salvages");
        assert!(!salvaged.complete);
        assert!(salvaged.profile.failures.capacity() <= lying.len());
        assert!(salvaged.profile.failures.len() <= profile.failures.len());
        assert_eq!(salvaged.profile.distances, profile.distances);

        let strict = decode_payload(&lying, true);
        assert!(
            matches!(strict, Err(DecodeError::CellCount { promised, .. }) if promised == (1 << 30) - 1),
            "{strict:?}"
        );
        assert_eq!(summarize_payload(&lying), Err(strict.unwrap_err()));
    }

    #[test]
    fn skip_rejects_what_get_rejects() {
        // Ten continuation-free groups: nine 0xff then a byte above 1
        // overflows; nine then 0x01 is u64::MAX; eleven bytes never end.
        for (bytes, ok) in [
            (
                vec![0xffu8; 9]
                    .into_iter()
                    .chain([0x01])
                    .collect::<Vec<_>>(),
                true,
            ),
            (vec![0xffu8; 9].into_iter().chain([0x02]).collect(), false),
            (vec![0x80u8; 10].into_iter().chain([0x00]).collect(), false),
            (vec![0x80u8; 7].into_iter().chain([0x00]).collect(), true),
        ] {
            let mut a = 0;
            let mut b = 0;
            let got = get_varint(&bytes, &mut a).is_some();
            assert_eq!(got, ok);
            assert_eq!(skip_varints(&bytes, &mut b, 1), usize::from(ok));
            assert_eq!(a, b, "{bytes:?}");
        }
    }

    fn sample() -> FailureProfile {
        FailureProfile {
            victim_count: 2,
            discovery_rounds: 10,
            tests_per_level: vec![18, 24],
            recursion_tests: 42,
            distances: vec![-8, 1, 8],
            chipwide_rounds: 6,
            failures: vec![
                FailingCell {
                    unit: 0,
                    bank: 1,
                    row: 7,
                    col: 100,
                    value: true,
                },
                FailingCell {
                    unit: 3,
                    bank: 0,
                    row: 2,
                    col: 5,
                    value: false,
                },
            ],
        }
    }

    #[test]
    fn payload_roundtrip() {
        let profile = sample();
        let payload = encode_payload("A1", &profile);
        let rec = decode_payload(&payload, true).expect("decode");
        assert_eq!(rec.name, "A1");
        assert_eq!(rec.profile, profile);
        assert!(rec.complete);
    }

    #[test]
    fn content_hash_ignores_name() {
        let profile = sample();
        let a = encode_payload("A1", &profile);
        let b = encode_payload("Zed", &profile);
        assert_ne!(a, b);
        let mut body = Vec::new();
        put_body(&mut body, &profile);
        assert!(a.ends_with(&body) && b.ends_with(&body));
    }

    #[test]
    fn tolerant_decode_keeps_column_prefix() {
        let profile = sample();
        let payload = encode_payload("A1", &profile);
        // Cut into the polarity bits: coordinates survive, values do not.
        let cut = &payload[..payload.len() - 1];
        assert!(decode_payload(cut, true).is_err());
        let rec = decode_payload(cut, false).expect("salvage");
        assert!(!rec.complete);
        assert!(rec.profile.failures.len() < profile.failures.len());
        assert_eq!(rec.profile.distances, profile.distances);
    }

    #[test]
    fn strict_rejects_trailing_garbage() {
        let profile = sample();
        let mut payload = encode_payload("A1", &profile);
        payload.push(0xff);
        assert!(decode_payload(&payload, true).is_err());
    }

    #[test]
    fn format_is_stable() {
        assert_eq!(format_hash(0xdead_beef), "fnv64:00000000deadbeef");
    }

    #[test]
    fn frame_walk_flags_torn_tail() {
        let profile = sample();
        let mut bytes = SEGMENT_MAGIC.to_vec();
        put_record(&mut bytes, "A1", &profile);
        put_record(&mut bytes, "B2", &profile);
        let full = walk_frames(&bytes).expect("walk");
        assert_eq!(full.len(), 2);
        assert!(full.iter().all(|f| f.intact));

        let torn = &bytes[..bytes.len() - 5];
        let frames = walk_frames(torn).expect("walk torn");
        assert_eq!(frames.len(), 2);
        assert!(frames[0].intact);
        assert!(!frames[1].intact && frames[1].truncated);
    }
}
