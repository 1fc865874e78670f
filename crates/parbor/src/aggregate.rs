//! Distance aggregation, frequency ranking, and noise filtering
//! (paper §5.2.2 and §5.2.4).
//!
//! The recursion produces, per level, a multiset of *(victim, region
//! distance)* observations. Because DRAM tiles are regular, true neighbor
//! distances recur across many victims, while random failures (soft errors,
//! marginal cells, VRT) scatter over arbitrary distances. Ranking the
//! distance frequencies and keeping only those above a fraction of the most
//! frequent one removes the noise — this is the paper's Figure 14.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A frequency histogram over signed region distances.
///
/// # Examples
///
/// ```
/// use parbor_core::DistanceHistogram;
///
/// let mut h = DistanceHistogram::new();
/// h.record(1);
/// h.record(1);
/// h.record(-1);
/// h.record(7); // noise
/// let ranked = h.rank(0.5);
/// assert_eq!(ranked.kept(), &[-1, 1]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceHistogram {
    counts: BTreeMap<i64, usize>,
}

impl DistanceHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of a signed distance.
    pub fn record(&mut self, distance: i64) {
        *self.counts.entry(distance).or_insert(0) += 1;
    }

    /// Raw signed counts, ascending by distance.
    pub fn counts(&self) -> impl Iterator<Item = (i64, usize)> + '_ {
        self.counts.iter().map(|(&d, &c)| (d, c))
    }

    /// Counts merged by distance magnitude (`count(+d) + count(−d)`),
    /// ascending by magnitude. This is what the paper's Figure 14 plots.
    fn magnitude_counts(&self) -> Vec<(u64, usize)> {
        let mut merged: BTreeMap<u64, usize> = BTreeMap::new();
        for (&d, &c) in &self.counts {
            *merged.entry(d.unsigned_abs()).or_insert(0) += c;
        }
        merged.into_iter().collect()
    }

    /// Magnitude counts normalized to the most frequent magnitude, as
    /// plotted in the paper's Figures 14 and 15.
    pub fn normalized_magnitudes(&self) -> Vec<(u64, f64)> {
        let mags = self.magnitude_counts();
        let max = mags.iter().map(|&(_, c)| c).max().unwrap_or(0);
        if max == 0 {
            return Vec::new();
        }
        mags.into_iter()
            .map(|(d, c)| (d, c as f64 / max as f64))
            .collect()
    }

    /// Total number of observations.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Whether the histogram has no observations.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Ranks distances by magnitude frequency, keeping the signed distances
    /// whose magnitude count is at least `threshold` × the maximum magnitude
    /// count (paper §5.2.4). `threshold` is clamped to `(0, 1]`.
    pub fn rank(&self, threshold: f64) -> RankedDistances {
        let threshold = threshold.clamp(f64::MIN_POSITIVE, 1.0);
        let mags = self.magnitude_counts();
        let max = mags.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let cut = (threshold * max as f64).ceil();
        let kept_mags: Vec<u64> = mags
            .iter()
            .filter(|&&(_, c)| c as f64 >= cut)
            .map(|&(d, _)| d)
            .collect();
        let mut kept: Vec<i64> = Vec::new();
        for &d in self.counts.keys() {
            if kept_mags.contains(&d.unsigned_abs()) {
                kept.push(d);
            }
        }
        let dropped = self
            .counts
            .keys()
            .filter(|d| !kept.contains(d))
            .copied()
            .collect();
        RankedDistances {
            kept,
            dropped,
            max_count: max,
        }
    }
}

/// The result of frequency-ranking a [`DistanceHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedDistances {
    kept: Vec<i64>,
    dropped: Vec<i64>,
    max_count: usize,
}

impl RankedDistances {
    /// Signed distances that survived ranking, ascending.
    pub fn kept(&self) -> &[i64] {
        &self.kept
    }

    /// Signed distances filtered out as infrequent (noise), ascending.
    pub fn dropped(&self) -> &[i64] {
        &self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(pairs: &[(i64, usize)]) -> DistanceHistogram {
        let mut h = DistanceHistogram::new();
        for &(d, c) in pairs {
            for _ in 0..c {
                h.record(d);
            }
        }
        h
    }

    #[test]
    fn ranking_keeps_frequent_drops_rare() {
        let h = hist(&[(8, 100), (-8, 90), (16, 95), (-16, 88), (3, 2), (-11, 1)]);
        let r = h.rank(0.15);
        assert_eq!(r.kept(), &[-16, -8, 8, 16]);
        assert_eq!(r.dropped(), &[-11, 3]);
    }

    #[test]
    fn magnitudes_merge_signs() {
        let h = hist(&[(5, 3), (-5, 4), (0, 2)]);
        assert_eq!(h.magnitude_counts(), vec![(0, 2), (5, 7)]);
    }

    #[test]
    fn normalization_peaks_at_one() {
        let h = hist(&[(1, 10), (2, 5)]);
        let n = h.normalized_magnitudes();
        assert_eq!(n, vec![(1, 1.0), (2, 0.5)]);
    }

    #[test]
    fn empty_histogram_ranks_empty() {
        let h = DistanceHistogram::new();
        let r = h.rank(0.15);
        assert!(r.kept().is_empty());
        assert!(r.dropped().is_empty());
        assert_eq!(r.max_count, 0);
    }

    #[test]
    fn one_sided_magnitude_keeps_both_signs_if_present() {
        // +2 frequent, -2 rare alone but same magnitude: kept together.
        let h = hist(&[(2, 50), (-2, 1), (9, 1)]);
        let r = h.rank(0.2);
        assert_eq!(r.kept(), &[-2, 2]);
        assert_eq!(r.dropped(), &[9]);
    }

    #[test]
    fn threshold_one_keeps_only_max() {
        let h = hist(&[(1, 10), (2, 9)]);
        let r = h.rank(1.0);
        assert_eq!(r.kept(), &[1]);
    }

    /// End-to-end filter efficacy: drive the pipeline over a module with an
    /// [`InjectMechanism`](parbor_hal::InjectMechanism) in its stack at
    /// several noise rates and score the surviving distance set against the
    /// vendor's ground-truth neighbor distances.
    mod filter_efficacy {
        use crate::{Parbor, ParborConfig};
        use parbor_dram::{ChipGeometry, ModuleConfig, ModuleId, Vendor};
        use parbor_hal::MechanismSpec;

        fn detected_distances(rate: f64, seed: u64) -> Vec<i64> {
            let spec = MechanismSpec::parse(&format!("inject=rate:{rate},seed:{seed}"))
                .expect("inject spec");
            let mut module = ModuleConfig::new(Vendor::A)
                .geometry(ChipGeometry::new(1, 128, 1024).expect("geometry"))
                .chips(1)
                .seed(5)
                .module_id(ModuleId(1))
                .mechanisms(vec![spec])
                .build()
                .expect("module");
            let report = Parbor::new(ParborConfig::default())
                .run(&mut module)
                .expect("pipeline");
            report.distances().to_vec()
        }

        fn precision_recall(found: &[i64]) -> (f64, f64) {
            let truth = Vendor::A.paper_distances();
            let hits = found.iter().filter(|d| truth.contains(d)).count();
            let precision = if found.is_empty() {
                1.0
            } else {
                hits as f64 / found.len() as f64
            };
            (precision, hits as f64 / truth.len() as f64)
        }

        #[test]
        fn clean_port_recovers_the_exact_distance_set() {
            let found = detected_distances(0.0, 1);
            let (precision, recall) = precision_recall(&found);
            assert_eq!(
                (precision, recall),
                (1.0, 1.0),
                "clean run must match ground truth exactly, got {found:?}"
            );
        }

        #[test]
        fn moderate_noise_is_filtered_out_entirely() {
            // 2% of row writes carry one random extra flip: frequency
            // ranking must still keep exactly the true distances.
            for seed in [7, 11, 29] {
                let found = detected_distances(0.02, seed);
                let (precision, recall) = precision_recall(&found);
                assert_eq!(
                    (precision, recall),
                    (1.0, 1.0),
                    "rate 0.02 seed {seed}: got {found:?}"
                );
            }
        }

        #[test]
        fn heavy_noise_degrades_precision_but_not_recall() {
            // At a 5% per-write injection rate random distances become
            // frequent enough that some survive ranking (precision drops),
            // but every true neighbor distance must still be found.
            let found = detected_distances(0.05, 7);
            let (precision, recall) = precision_recall(&found);
            assert_eq!(recall, 1.0, "true distances lost: {found:?}");
            assert!(
                precision < 1.0,
                "expected some noise to survive ranking at rate 0.05"
            );
            assert!(
                precision >= 0.25,
                "precision collapsed to {precision} with {found:?}"
            );
        }
    }
}
