//! The workspace's one home for hashing: FNV-1a (64-bit) for store segment
//! frames, index shard routing and the fleet journal, one-shot
//! ([`fnv1a64`]) or streaming over several states at once ([`Fnv1a64`]);
//! the SplitMix64 finalizer and its word fold behind every seeded per-cell
//! draw (device fault maps, the mechanism stack, the fault injector,
//! memsim's row classifier); the eight-lane word hasher behind the binary
//! transcript; and [`Mix64Hasher`], the `mix64` hasher behind the
//! simulator's in-memory maps ([`Mix64Map`], [`Mix64Set`]).
//!
//! Every function here is frozen: on-disk checksums, content hashes and
//! seeded populations are defined by these exact bit patterns, so a change
//! to any of them is a format change, not a refactor. The checksums are
//! integrity checks against accidents (torn writes, bit rot), not against
//! an adversary. [`Mix64Hasher`] is the exception: its values never leave
//! the process, so only its determinism is a contract.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Streaming FNV-1a: the state of [`fnv1a64`] over a byte stream fed in
/// pieces, so `finish` after `update(a)` and `update(b)` equals
/// `fnv1a64` of `a` followed by `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The state before any byte (the offset basis).
    pub const fn new() -> Self {
        Fnv1a64(FNV_OFFSET)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        Self::update_all([self], bytes);
    }

    /// Feeds the same `bytes` to every state in one loop. FNV-1a is one
    /// dependent multiply per byte, so a single chain waits on the
    /// multiplier's latency; two or three independent chains in the same
    /// loop run in its shadow and cost about what one does. A store record
    /// is checksummed, content-hashed and folded into its chunk's hash in
    /// one pass this way.
    #[inline]
    pub fn update_all<const N: usize>(states: [&mut Fnv1a64; N], bytes: &[u8]) {
        let mut h = [0u64; N];
        for (v, s) in h.iter_mut().zip(&states) {
            *v = s.0;
        }
        for &b in bytes {
            for v in &mut h {
                *v = (*v ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        for (s, v) in states.into_iter().zip(h) {
            s.0 = v;
        }
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: a stateless 64-bit mixer, so every draw keyed off
/// it is independent of batching and scheduling.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)` (its top 53 bits).
#[inline]
pub fn hash01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exact integer form of the Bernoulli screen `hash01(h) < rate`: returns the
/// unique `t` with `hash01(h) < rate  ⟺  (h >> 11) < t`.
///
/// `hash01` maps `k = h >> 11` (at most 53 bits) to `k · 2⁻⁵³`; every such
/// value is exactly representable in an `f64` (53-bit mantissa, power-of-two
/// scale), so the float comparison partitions the `k` axis at one integer
/// boundary. The fixup loops locate that boundary starting from a truncation
/// of `rate · 2⁵³`, letting samplers replace three float conversions and
/// compares per cell with shift-and-compare on the raw hash words. The
/// device's fault-map sampler and the mechanism stack both screen with it.
pub fn unit_threshold(rate: f64) -> u64 {
    const ONE: u64 = 1u64 << 53;
    const INV: f64 = 1.0 / ONE as f64;
    if rate.is_nan() || rate <= 0.0 {
        return 0;
    }
    if rate >= 1.0 {
        return ONE;
    }
    let mut t = ((rate * ONE as f64) as u64).min(ONE);
    while t < ONE && (t as f64 * INV) < rate {
        t += 1;
    }
    while t > 0 && ((t - 1) as f64 * INV) >= rate {
        t -= 1;
    }
    t
}

/// Folds a word sequence into one hash (order-sensitive): `mix64` over
/// the running accumulator xor each word.
#[inline]
pub fn hash_words(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0x51ab_dead_beef_0001u64, |acc, &w| mix64(acc ^ w))
}

/// Streaming eight-lane word hasher: words go round-robin into eight
/// independent xor-multiply chains (one odd-constant `wrapping_mul` per
/// word — bijective, so no information is lost) whose lanes are avalanched
/// with `mix64` only when they are folded together (with the word count) in
/// [`finish`](LaneHasher::finish). Deferring the mixing cuts the per-word
/// work to a third of a mix64 chain, and eight independent chains cover the
/// multiplier's result latency, so [`extend_slice`](LaneHasher::extend_slice)
/// runs near one word per cycle — hashing megabytes of row data costs a
/// fraction of the serial fold. Integrity quality, not cryptographic — same
/// threat model as the rest of this module. **Different value** from
/// [`hash_words`] — only for freshly defined formats (the binary
/// transcript), never to re-frame data the serial hash already shipped in.
pub(crate) struct LaneHasher {
    lanes: [u64; 8],
    count: usize,
}

/// Odd multiplier (splitmix64's first mixing constant); odd keeps each lane
/// step bijective.
const LANE_MUL: u64 = 0xbf58_476d_1ce4_e5b9;

impl LaneHasher {
    pub(crate) fn new() -> Self {
        const SEED: u64 = 0x51ab_dead_beef_0001;
        let mut lanes = [SEED; 8];
        for i in 1..8 {
            lanes[i] = mix64(lanes[i - 1]);
        }
        Self { lanes, count: 0 }
    }

    /// Feeds one word into the next lane in round-robin order.
    #[inline]
    pub(crate) fn push(&mut self, w: u64) {
        let lane = &mut self.lanes[self.count & 7];
        *lane = (*lane ^ w).wrapping_mul(LANE_MUL);
        self.count += 1;
    }

    /// Feeds a word slice; identical result to pushing each word, but the
    /// aligned middle runs eight independent chains per iteration (the hot
    /// path for row data).
    #[inline]
    pub(crate) fn extend_slice(&mut self, words: &[u64]) {
        let mut i = 0;
        while self.count & 7 != 0 && i < words.len() {
            self.push(words[i]);
            i += 1;
        }
        let mut lanes = self.lanes;
        let mut chunks = words[i..].chunks_exact(8);
        for q in &mut chunks {
            for k in 0..8 {
                lanes[k] = (lanes[k] ^ q[k]).wrapping_mul(LANE_MUL);
            }
        }
        self.lanes = lanes;
        self.count += words[i..].len() - chunks.remainder().len();
        for &w in chunks.remainder() {
            self.push(w);
        }
    }

    /// Folds the lanes (and the word count) into the final hash.
    pub(crate) fn finish(self) -> u64 {
        let folded = self
            .lanes
            .iter()
            .rev()
            .fold(self.count as u64, |acc, &lane| mix64(lane ^ acc));
        mix64(folded)
    }
}

/// [`LaneHasher`] over a word iterator — the oracle the slice fast path is
/// tested against.
#[cfg(test)]
pub(crate) fn hash_words_iter_x8(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = LaneHasher::new();
    for w in words {
        h.push(w);
    }
    h.finish()
}

/// The eight-lane word hasher over raw bytes: little-endian 8-byte words
/// with a zero-padded tail. The final length fold makes padding
/// unambiguous. The binary transcript's frame checksum.
#[inline]
pub fn hash_bytes_x8(bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let tail_word = (!tail.is_empty()).then(|| {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(buf)
    });
    let mut h = LaneHasher::new();
    for c in chunks {
        h.push(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    if let Some(w) = tail_word {
        h.push(w);
    }
    mix64(h.finish() ^ bytes.len() as u64)
}

/// A [`Hasher`] for in-memory maps keyed by small integer tuples (`RowId`,
/// `BitAddr`, `VictimKey`): each integer the key feeds is folded with one
/// `mix64(state ^ word)`, as [`hash_words`] folds a word sequence.
///
/// Unlike the standard `RandomState` (SipHash-1-3 under a per-process
/// random key) it is keyless, so every process hashes a key alike, and a
/// two-word key costs two `mix64` calls instead of a SipHash pass. Keys on
/// the simulator's round path are generated internally, never chosen by
/// an adversary, so the lost flooding resistance buys nothing there.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte input (strings, slices): little-endian 8-byte words with a
    /// zero-padded tail, then the byte count, so padding is unambiguous.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        if !chunks.remainder().is_empty() {
            let mut buf = [0u8; 8];
            buf[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
            self.write_u64(u64::from_le_bytes(buf));
        }
        self.write_usize(bytes.len());
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`Mix64Hasher`].
pub type BuildMix64 = BuildHasherDefault<Mix64Hasher>;

/// A `HashMap` hashed with [`Mix64Hasher`]; build with `default()` or
/// `with_capacity_and_hasher(n, BuildMix64::default())`.
pub type Mix64Map<K, V> = HashMap<K, V, BuildMix64>;

/// A `HashSet` hashed with [`Mix64Hasher`].
pub type Mix64Set<T> = HashSet<T, BuildMix64>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_fnv_matches_one_shot_over_any_split() {
        let bytes: Vec<u8> = (0..300u64).map(|i| mix64(i) as u8).collect();
        let whole = fnv1a64(&bytes);
        for split in [0, 1, 7, 8, 150, 299, 300] {
            let (a, b) = bytes.split_at(split);
            let mut one = Fnv1a64::new();
            one.update(a);
            one.update(b);
            assert_eq!(one.finish(), whole, "split {split}");
            // Three states fed different prefixes, then the rest together.
            let (mut x, mut y, mut z) = (Fnv1a64::new(), Fnv1a64::new(), Fnv1a64::default());
            x.update(a);
            Fnv1a64::update_all([&mut x, &mut y, &mut z], b);
            assert_eq!(x.finish(), whole);
            assert_eq!(y.finish(), fnv1a64(b));
            assert_eq!(z.finish(), fnv1a64(b));
        }
        assert_eq!(Fnv1a64::new().finish(), fnv1a64(b""));
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn hash01_is_roughly_uniform_on_the_unit_interval() {
        let n = 100_000u64;
        let mut sum = 0.0;
        for i in 0..n {
            let v = hash01(mix64(i));
            assert!((0.0..1.0).contains(&v), "hash01({i}) = {v} out of range");
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn hash_words_is_order_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
    }

    #[test]
    fn lane_hasher_slice_matches_per_word_push() {
        let words: Vec<u64> = (0..67).map(mix64).collect();
        // Any split between push() and extend_slice() must agree with the
        // pure per-word stream — the slice fast path is an optimization,
        // not a different hash.
        for split in [0, 1, 3, 8, 9, 64, 67] {
            let mut h = LaneHasher::new();
            for &w in &words[..split] {
                h.push(w);
            }
            h.extend_slice(&words[split..]);
            assert_eq!(h.finish(), hash_words_iter_x8(words.iter().copied()));
        }
    }

    #[test]
    fn lane_hasher_is_order_and_count_sensitive() {
        assert_ne!(hash_words_iter_x8([1, 2]), hash_words_iter_x8([2, 1]));
        assert_ne!(hash_words_iter_x8([1, 2]), hash_words_iter_x8([1, 2, 0]));
        assert_ne!(hash_bytes_x8(b"ab"), hash_bytes_x8(b"ab\0"));
    }

    fn mix64_hash<T: std::hash::Hash>(value: &T) -> u64 {
        BuildMix64::default().hash_one(value)
    }

    #[test]
    fn mix64_hasher_is_keyless_and_fixed() {
        use crate::geometry::{BitAddr, RowId};
        // Pinned values: a hasher keyed per process would differ from run
        // to run, and these would fail in every process but one.
        assert_eq!(mix64_hash(&RowId::new(1, 2)), mix64(mix64(1) ^ 2));
        assert_eq!(
            mix64_hash(&BitAddr::new(3, 4, 5)),
            mix64(mix64(mix64(3) ^ 4) ^ 5)
        );
        assert_eq!(mix64_hash(&7u64), mix64(7));
        // Fresh builders agree with each other.
        assert_eq!(
            mix64_hash(&RowId::new(9, 10)),
            BuildMix64::default().hash_one(RowId::new(9, 10))
        );
    }

    #[test]
    fn mix64_hasher_is_order_sensitive() {
        use crate::geometry::RowId;
        assert_ne!(mix64_hash(&RowId::new(1, 2)), mix64_hash(&RowId::new(2, 1)));
        assert_ne!(mix64_hash(&(0u32, 1u32)), mix64_hash(&(1u32, 0u32)));
        // Byte input: the folded byte count keeps a zero-padded tail apart
        // from real zero bytes.
        assert_ne!(mix64_hash(&"ab"), mix64_hash(&"ab\0"));
        assert_ne!(mix64_hash(&"abcdefgh"), mix64_hash(&"abcdefg"));
    }

    #[test]
    fn mix64_maps_spread_dense_row_keys() {
        use crate::geometry::RowId;
        // A bank of consecutive rows (the simulator's key shape) must not
        // collapse onto a few hash values, in the low bits hashbrown
        // indexes with or in the top seven bits it tags buckets with.
        let hashes: Vec<u64> = (0..4096u32)
            .map(|r| mix64_hash(&RowId::new(r / 1024, r % 1024)))
            .collect();
        let low: Mix64Set<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let top: Mix64Set<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(
            low.len() > 2_000,
            "{} distinct low-12-bit values",
            low.len()
        );
        assert_eq!(top.len(), 128);
        let mut map: Mix64Map<RowId, u32> = Mix64Map::default();
        for r in 0..4096u32 {
            map.insert(RowId::new(r / 1024, r % 1024), r);
        }
        assert_eq!(map.len(), 4096);
        assert_eq!(map[&RowId::new(2, 5)], 2 * 1024 + 5);
    }

    #[test]
    fn unit_threshold_is_exact_boundary() {
        let rates = [
            0.0,
            1.0,
            2.0e-3,
            4.0e-5,
            1.5e-5,
            0.12,
            0.3,
            0.5,
            1.0e-9,
            f64::NAN,
            -0.5,
            2.0,
        ];
        for rate in rates {
            let t = unit_threshold(rate);
            // The boundary property itself: k < t ⟺ hash01 value < rate.
            for k in [t.wrapping_sub(2), t.wrapping_sub(1), t, t + 1] {
                if k > (1u64 << 53) - 1 {
                    continue;
                }
                let v = hash01(k << 11); // hash01 keeps exactly the top 53 bits
                assert_eq!(v < rate, k < t, "rate {rate}, k {k}, t {t}");
            }
        }
        // Exhaustive agreement on real hash outputs for the default rates.
        for rate in [2.0e-3, 4.0e-5, 1.5e-5] {
            let t = unit_threshold(rate);
            for i in 0..50_000u64 {
                let h = mix64(i);
                assert_eq!(hash01(h) < rate, (h >> 11) < t, "rate {rate}, i {i}");
            }
        }
    }
}
