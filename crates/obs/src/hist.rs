//! Exact-percentile histograms: fixed-precision log-linear buckets in the
//! style of HdrHistogram.
//!
//! Values below `2^SUB_BUCKET_BITS` get exact unit-width buckets; every
//! higher octave `[2^m, 2^(m+1))` is split into `2^SUB_BUCKET_BITS` linear
//! sub-buckets, bounding the relative quantization error of any recorded
//! value by `1 / 2^SUB_BUCKET_BITS` (~3 % at the default precision). That
//! makes `p(q)` exact *to within one bucket* of the true sorted-sample
//! percentile at every scale from nanoseconds to hours, with a few KB of
//! counts — the property `parbor-serve`'s latency CDFs and the fleet rate
//! accounting need.
//!
//! Snapshots are mergeable: per-thread shards record independently and
//! [`HistogramSnapshot::merge`] combines them without losing percentile
//! fidelity (bucket boundaries are global constants, so merging is an
//! element-wise add).

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per octave, as a power of two. 5 bits = 32 sub-buckets
/// = at most 1/32 (~3.1 %) relative error on any recorded value.
const SUB_BUCKET_BITS: u32 = 5;

const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
const SUB_MASK: usize = (SUB_BUCKETS - 1) as usize;

/// The bucket index a value lands in.
///
/// Indices are contiguous from 0 and strictly monotone in `value`, so the
/// index distance between two values bounds how far apart their buckets
/// are.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let magnitude = 63 - value.leading_zeros() as u64; // >= SUB_BUCKET_BITS
    let group = magnitude - u64::from(SUB_BUCKET_BITS) + 1;
    let sub = (value >> (magnitude - u64::from(SUB_BUCKET_BITS))) - SUB_BUCKETS;
    (group * SUB_BUCKETS + sub) as usize
}

/// The inclusive `[low, high]` value range of bucket `index` (the inverse
/// of [`bucket_index`]).
fn bucket_bounds(index: usize) -> (u64, u64) {
    let group = (index >> SUB_BUCKET_BITS) as u64;
    let sub = (index & SUB_MASK) as u64;
    if group == 0 {
        return (sub, sub);
    }
    let width = 1u64 << (group - 1);
    let low = (SUB_BUCKETS + sub) << (group - 1);
    // `low + (width - 1)`: the top bucket ends exactly at `u64::MAX`, so
    // adding the full width first would overflow.
    (low, low + (width - 1))
}

/// A recording histogram: dense bucket counts grown on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HdrHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = if self.count == 1 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Freezes the current state into a mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let used = self
            .counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        HistogramSnapshot {
            counts: self.counts[..used].to_vec(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Snapshot of one log-linear histogram; see the module docs for the bucket
/// scheme. Buckets are global constants, so snapshots from different shards
/// (or machines) merge losslessly.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observation count per bucket, indexed by [`bucket_index`]; empty
    /// tail buckets are trimmed.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped to
    /// the exact observed `[min, max]`. Within one bucket (≤ ~3 % relative
    /// error) of the true sorted-sample percentile.
    ///
    /// Returns 0 for an empty histogram.
    pub fn p(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, high) = bucket_bounds(idx);
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.p(0.50)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.p(0.99)
    }

    /// 99.9th-percentile shorthand.
    pub fn p999(&self) -> u64 {
        self.p(0.999)
    }

    /// Folds another snapshot into this one (element-wise bucket add).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn indices_are_contiguous_and_monotone() {
        let mut prev = 0usize;
        let mut value = 0u64;
        while value < 1 << 20 {
            let idx = bucket_index(value);
            assert!(idx == prev || idx == prev + 1, "gap at value {value}");
            prev = prev.max(idx);
            value += 1 + value / 64; // sample densely at low magnitudes
        }
    }

    #[test]
    fn bounds_invert_the_index() {
        for &v in &[0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            let (low, high) = bucket_bounds(idx);
            assert!(
                low <= v && v <= high,
                "value {v} outside bucket [{low},{high}]"
            );
            assert_eq!(bucket_index(low), idx);
            assert_eq!(bucket_index(high), idx);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 999, 12_345, 1 << 30, u64::MAX / 3] {
            let (low, high) = bucket_bounds(bucket_index(v));
            let width = high - low;
            assert!(
                (width as f64) <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "bucket width {width} too wide for value {v}"
            );
        }
    }

    #[test]
    fn percentiles_track_a_uniform_ramp() {
        let mut h = HdrHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        for (q, exact) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let approx = s.p(q);
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64,
                "p({q}) = {approx}, exact {exact}"
            );
        }
        assert_eq!(s.p(0.0), 1);
        assert_eq!(s.p(1.0), 10_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = HdrHistogram::new();
        let mut b = HdrHistogram::new();
        let mut whole = HdrHistogram::new();
        for v in 0..500u64 {
            let v = v * v % 7919;
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn empty_histogram_is_inert() {
        let s = HdrHistogram::new().snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        let mut other = s.clone();
        other.merge(&s);
        assert_eq!(other, s);
    }
}
