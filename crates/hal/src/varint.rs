//! LEB128 varints and zigzag coding, shared by the `PBHALTB1` binary
//! transcript and the `PBSTSEG1` columnar store segments.
//!
//! 7 value bits per byte, low group first, high bit set on continuation
//! bytes. Signed quantities (coupling distances, row deltas) go through
//! zigzag first so small magnitudes of either sign stay one byte.

/// Appends `v` to `buf` as an LEB128 varint.
#[inline]
pub fn put(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads one LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or a varint whose value does not fit a `u64`.
#[inline]
pub fn get(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Maps a signed value onto the unsigned varint space (0, -1, 1, -2, …).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(get(&buf, &mut pos), None, "exhausted input");
    }

    #[test]
    fn known_encodings() {
        let enc = |v| {
            let mut buf = Vec::new();
            put(&mut buf, v);
            buf
        };
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(127), [0x7f]);
        assert_eq!(enc(128), [0x80, 0x01]);
        assert_eq!(enc(300), [0xac, 0x02]);
    }

    #[test]
    fn truncated_varint_is_none() {
        let mut buf = Vec::new();
        put(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(get(&buf[..buf.len() - 1], &mut pos), None);
    }

    #[test]
    fn runaway_and_overflowing_varints_are_none() {
        let mut pos = 0;
        assert_eq!(get(&[0x80u8; 16], &mut pos), None);
        // Ten bytes whose last group carries bits past 2^64.
        let mut over = vec![0xffu8; 9];
        over.push(0x02);
        pos = 0;
        assert_eq!(get(&over, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 8, -8, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
