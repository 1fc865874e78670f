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
//! Decoding is strict when the frame checksum verifies and *tolerant*
//! otherwise: columns are decoded front to back and a torn tail costs only
//! the cells whose columns it destroyed, mirroring the fleet journal's
//! valid-prefix salvage.

use parbor_core::{FailingCell, FailureProfile};
use parbor_hal::frame;
use parbor_hal::hash::fnv1a64;
use parbor_hal::varint::{get as get_varint, put as put_varint, unzigzag, zigzag};

pub use parbor_hal::frame::Frame;

/// Magic bytes opening every columnar segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"PBSTSEG1";

/// Upper bound on a single record payload, guarding length fields read
/// from corrupt frames against giant allocations.
pub const MAX_RECORD_BYTES: u64 = 1 << 30;

/// Bytes of framing around every payload (`u32` length + `u64` checksum).
pub const FRAME_HEADER_BYTES: u64 = frame::HEADER_BYTES as u64;

/// Encodes the profile *body* (everything except the module name): the
/// canonical byte form the content hash covers.
fn encode_body(profile: &FailureProfile) -> Vec<u8> {
    let n = profile.failures.len();
    let mut body = Vec::with_capacity(32 + n * 6);
    put_varint(&mut body, profile.victim_count as u64);
    put_varint(&mut body, profile.discovery_rounds as u64);
    put_varint(&mut body, profile.recursion_tests as u64);
    put_varint(&mut body, profile.chipwide_rounds as u64);
    put_varint(&mut body, profile.tests_per_level.len() as u64);
    for &t in &profile.tests_per_level {
        put_varint(&mut body, t as u64);
    }
    put_varint(&mut body, profile.distances.len() as u64);
    for &d in &profile.distances {
        put_varint(&mut body, zigzag(d));
    }
    put_varint(&mut body, n as u64);
    for cell in &profile.failures {
        put_varint(&mut body, u64::from(cell.unit));
    }
    for cell in &profile.failures {
        put_varint(&mut body, u64::from(cell.bank));
    }
    // Rows are sorted within (unit, bank) runs, so deltas are mostly tiny.
    let mut prev = 0i64;
    for cell in &profile.failures {
        let row = i64::from(cell.row);
        put_varint(&mut body, zigzag(row - prev));
        prev = row;
    }
    for cell in &profile.failures {
        put_varint(&mut body, u64::from(cell.col));
    }
    let mut bits = vec![0u8; n.div_ceil(8)];
    for (i, cell) in profile.failures.iter().enumerate() {
        if cell.value {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    body.extend_from_slice(&bits);
    body
}

/// Renders a hash the way the store index records it (`fnv64:<16 hex>`).
pub fn format_hash(hash: u64) -> String {
    format!("fnv64:{hash:016x}")
}

/// Encodes a full record payload: varint name length, name bytes, body.
pub fn encode_payload(name: &str, profile: &FailureProfile) -> Vec<u8> {
    let body = encode_body(profile);
    let mut payload = Vec::with_capacity(name.len() + body.len() + 2);
    put_varint(&mut payload, name.len() as u64);
    payload.extend_from_slice(name.as_bytes());
    payload.extend_from_slice(&body);
    payload
}

/// Appends a payload to `out` in the `[u32 len][u64 fnv1a64]` frame.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    frame::put(out, payload, fnv1a64);
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

/// Decodes a record payload.
///
/// With `strict` (frame checksum verified) any truncation or trailing
/// garbage is an error. Without it, the decoder keeps whatever columns
/// survive: scalars default to zero past the tear, and the failing-cell
/// list is cut to the cells whose every column (including the polarity
/// bits) was readable.
///
/// # Errors
///
/// `Err(detail)` when the name field itself is unreadable (nothing to
/// salvage), or on any defect in strict mode.
pub fn decode_payload(payload: &[u8], strict: bool) -> Result<DecodedRecord, String> {
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
        let mut col = Vec::with_capacity(promised);
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
        let row = prev + unzigzag(row_deltas[i]);
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
        let body = encode_body(&profile);
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
        put_frame(&mut bytes, &encode_payload("A1", &profile));
        put_frame(&mut bytes, &encode_payload("B2", &profile));
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
