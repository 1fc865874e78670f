//! Content hashing for transcript framing (FNV-1a, 64-bit), plus the
//! SplitMix64 draws behind the seeded per-cell populations.
//!
//! The framing hash is the same construction the fleet journal uses: cheap,
//! dependency-free, and good enough to detect torn or corrupted records —
//! these are integrity checks against accidents, not an adversary.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// SplitMix64 finalizer: mixes per-round / per-row coordinates into RNG
/// seeds for the fault injector. Stateless, so injections are independent of
/// batching and scheduling.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)` (its top 53 bits).
#[inline]
pub(crate) fn hash01(h: u64) -> f64 {
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

/// Folds a word sequence into one hash (order-sensitive).
#[inline]
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    hash_words_iter(words.iter().copied())
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
/// [`hash_words_iter`] — only for freshly defined formats (the binary
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

/// [`LaneHasher`] over raw bytes: little-endian 8-byte words with a
/// zero-padded tail. The final length fold makes padding unambiguous.
#[inline]
pub(crate) fn hash_bytes_x8(bytes: &[u8]) -> u64 {
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

/// Streaming form of [`hash_words`] for word sequences not worth collecting
/// into a slice (e.g. a whole round's write set on the transcript hot path).
#[inline]
pub(crate) fn hash_words_iter(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x51ab_dead_beef_0001u64, |acc, w| mix64(acc ^ w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
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
