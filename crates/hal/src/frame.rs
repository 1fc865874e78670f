//! The `[u32 len][u64 checksum][payload]` record frame shared by the
//! `PBHALTB1` binary transcript and the `PBSTSEG1` store segments.
//!
//! ```text
//! [len: u32 LE] [checksum(payload): u64 LE] [payload: len bytes]
//! ```
//!
//! The layout is one codec; the checksum is the format's choice and is
//! passed in: segments use [`fnv1a64`](crate::hash::fnv1a64), transcripts
//! the eight-lane [`hash_bytes_x8`](crate::hash::hash_bytes_x8). Reading
//! never allocates and never trusts a length field beyond the bytes that
//! are actually there: a frame that runs past the end of the buffer (or
//! past the caller's cap) comes back flagged, not panicking.

/// Bytes of framing in front of every payload (`u32` length + `u64`
/// checksum).
pub const HEADER_BYTES: usize = 12;

/// Appends one framed record for `payload` to `out`.
#[inline]
pub fn put(out: &mut Vec<u8>, payload: &[u8], checksum: impl Fn(&[u8]) -> u64) {
    out.reserve(HEADER_BYTES + payload.len());
    out.extend_from_slice(&encode_header(payload.len(), checksum(payload)));
    out.extend_from_slice(payload);
}

/// The header bytes of a frame whose payload is `len` bytes long and
/// checksums to `sum`: for a writer that encodes the payload in place
/// behind a reserved header and fills the header in afterwards.
#[inline]
pub fn encode_header(len: usize, sum: u64) -> [u8; HEADER_BYTES] {
    let mut hdr = [0u8; HEADER_BYTES];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&sum.to_le_bytes());
    hdr
}

/// Decodes a frame header: the framed payload length and its checksum.
/// `None` when fewer than [`HEADER_BYTES`] bytes are given.
#[inline]
pub fn header(bytes: &[u8]) -> Option<(u64, u64)> {
    let len = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
    let sum = u64::from_le_bytes(bytes.get(4..HEADER_BYTES)?.try_into().ok()?);
    Some((u64::from(len), sum))
}

/// One frame read out of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Byte offset of the frame header within the buffer.
    pub offset: u64,
    /// The payload length the header declares (0 when the header itself
    /// is torn).
    pub len: u64,
    /// The payload bytes present (short of `len` when truncated).
    pub payload: &'a [u8],
    /// Whether the full payload is present and matches its checksum.
    pub intact: bool,
    /// Whether the frame was cut short: a torn header, a payload running
    /// past the end of the buffer, or a length above the caller's cap.
    /// A full-length payload with a bad checksum is *not* truncated.
    pub truncated: bool,
}

/// Reads the frame whose header starts at `pos`. A declared length above
/// `max_len` is treated as a torn frame (empty payload).
#[inline]
pub fn read_at(
    bytes: &[u8],
    pos: usize,
    max_len: u64,
    checksum: impl Fn(&[u8]) -> u64,
) -> Frame<'_> {
    let torn = |len| Frame {
        offset: pos as u64,
        len,
        payload: &[],
        intact: false,
        truncated: true,
    };
    let Some((len, sum)) = pos
        .checked_add(HEADER_BYTES)
        .and_then(|end| bytes.get(pos..end))
        .and_then(header)
    else {
        return torn(0);
    };
    if len > max_len {
        return torn(len);
    }
    let start = pos + HEADER_BYTES;
    let end = start.saturating_add(len as usize).min(bytes.len());
    let payload = &bytes[start..end];
    let truncated = (payload.len() as u64) < len;
    Frame {
        offset: pos as u64,
        len,
        payload,
        intact: !truncated && checksum(payload) == sum,
        truncated,
    }
}

/// Walks back-to-back frames from `start` to the end of `bytes`, stopping
/// after the first truncated frame (nothing past a tear is recoverable).
pub fn walk<F: Fn(&[u8]) -> u64>(
    bytes: &[u8],
    start: usize,
    max_len: u64,
    checksum: F,
) -> Frames<'_, F> {
    Frames {
        bytes,
        pos: start,
        max_len,
        checksum,
    }
}

/// Iterator returned by [`walk`].
#[derive(Debug, Clone)]
pub struct Frames<'a, F> {
    bytes: &'a [u8],
    pos: usize,
    max_len: u64,
    checksum: F,
}

impl<'a, F: Fn(&[u8]) -> u64> Iterator for Frames<'a, F> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let frame = read_at(self.bytes, self.pos, self.max_len, &self.checksum);
        self.pos = if frame.truncated {
            self.bytes.len()
        } else {
            self.pos + HEADER_BYTES + frame.payload.len()
        };
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{fnv1a64, hash_bytes_x8};

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = b"MAGIC123".to_vec();
        for p in payloads {
            put(&mut out, p, fnv1a64);
        }
        out
    }

    #[test]
    fn known_layout() {
        let mut out = Vec::new();
        put(&mut out, b"a", fnv1a64);
        assert_eq!(&out[..4], &1u32.to_le_bytes());
        assert_eq!(&out[4..12], &0xaf63_dc4c_8601_ec8cu64.to_le_bytes());
        assert_eq!(&out[12..], b"a");
        assert_eq!(header(&out), Some((1, 0xaf63_dc4c_8601_ec8c)));
        assert_eq!(header(&out[..11]), None);
    }

    #[test]
    fn walk_yields_every_frame_with_offsets() {
        let bytes = framed(&[b"first", b"", b"third"]);
        let frames: Vec<Frame<'_>> = walk(&bytes, 8, u64::MAX, fnv1a64).collect();
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f.intact && !f.truncated));
        assert_eq!(frames[0].offset, 8);
        assert_eq!(frames[1].offset, 8 + 12 + 5);
        assert_eq!(frames[2].payload, b"third");
    }

    #[test]
    fn walk_flags_torn_tail_and_stops() {
        let bytes = framed(&[b"first", b"second"]);
        let frames: Vec<Frame<'_>> =
            walk(&bytes[..bytes.len() - 2], 8, u64::MAX, fnv1a64).collect();
        assert_eq!(frames.len(), 2);
        assert!(frames[0].intact);
        assert!(frames[1].truncated && !frames[1].intact);
        assert_eq!(frames[1].len, 6);
        assert_eq!(frames[1].payload, b"seco");
        // A torn header is one truncated frame with nothing in it.
        let frames: Vec<Frame<'_>> = walk(&bytes[..8 + 12 + 5 + 3], 8, u64::MAX, fnv1a64).collect();
        assert_eq!(frames.len(), 2);
        assert!(frames[1].truncated && frames[1].payload.is_empty());
    }

    #[test]
    fn bit_flip_or_foreign_checksum_fails_without_truncation() {
        let mut bytes = framed(&[b"payload"]);
        assert!(read_at(&bytes, 8, u64::MAX, fnv1a64).intact);
        // The checksum is part of the format: an FNV frame does not verify
        // under the transcript's checksum.
        let foreign = read_at(&bytes, 8, u64::MAX, hash_bytes_x8);
        assert!(!foreign.intact && !foreign.truncated);
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let frame = read_at(&bytes, 8, u64::MAX, fnv1a64);
        assert!(!frame.intact && !frame.truncated);
        assert_eq!(frame.len, 7);
    }

    #[test]
    fn lying_lengths_and_offsets_never_panic() {
        let mut bytes = b"MAGIC123".to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"short");
        let frame = read_at(&bytes, 8, u64::MAX, fnv1a64);
        assert!(frame.truncated && frame.payload == b"short");
        let capped = read_at(&bytes, 8, 1 << 20, fnv1a64);
        assert!(capped.truncated && capped.payload.is_empty());
        assert!(read_at(&bytes, usize::MAX, u64::MAX, fnv1a64).truncated);
        assert_eq!(walk(&bytes, 8, u64::MAX, fnv1a64).count(), 1);
    }
}
