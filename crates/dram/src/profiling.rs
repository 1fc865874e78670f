//! RAIDR-style retention profiling: bin rows by the longest refresh
//! interval they survive.
//!
//! Retention-aware refresh schemes (RAIDR [46], and the paper's DC-REF on
//! top of it) need to know which rows tolerate a relaxed refresh interval.
//! The profiler sweeps a ladder of intervals, testing the rows with a set
//! of data patterns at each rung; a row's *bin* is the first interval at
//! which any of its bits fails. The paper's related work (§3) warns that
//! profiling with simple patterns misclassifies data-dependent rows — a
//! claim [`RetentionProfiler`] lets you reproduce by profiling with
//! different pattern families (see the crate tests).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::chip::DramChip;
use crate::config::Seconds;
use crate::pattern::PatternKind;
use parbor_hal::DramError;
use parbor_hal::RowId;

/// Result of profiling a set of rows over an interval ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetentionProfile {
    intervals: Vec<Seconds>,
    /// Bin index per row: the first ladder rung at which the row failed;
    /// rows absent from the map survived every rung.
    bins: HashMap<RowId, usize>,
    rows_profiled: usize,
}

impl RetentionProfile {
    /// The interval ladder the profile was taken over.
    pub fn intervals(&self) -> &[Seconds] {
        &self.intervals
    }

    /// The bin of one row: `Some(i)` = first failed at `intervals()[i]`;
    /// `None` = survived every profiled interval.
    #[cfg(test)]
    fn bin_of(&self, row: RowId) -> Option<usize> {
        self.bins.get(&row).copied()
    }

    /// Number of rows profiled.
    #[cfg(test)]
    fn rows_profiled(&self) -> usize {
        self.rows_profiled
    }

    /// Fraction of rows failing at or below each ladder rung (cumulative).
    pub fn cumulative_fail_fractions(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.intervals.len()];
        for &bin in self.bins.values() {
            counts[bin] += 1;
        }
        let mut acc = 0usize;
        counts
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / self.rows_profiled.max(1) as f64
            })
            .collect()
    }

    /// Fraction of rows that need refreshing at the base (first) interval —
    /// RAIDR's "weak rows".
    pub fn weak_row_fraction(&self) -> f64 {
        self.cumulative_fail_fractions()
            .first()
            .copied()
            .unwrap_or(0.0)
    }
}

/// Sweeps rows over an ascending refresh-interval ladder.
#[derive(Debug, Clone)]
pub struct RetentionProfiler {
    intervals: Vec<Seconds>,
    patterns: Vec<PatternKind>,
}

impl RetentionProfiler {
    /// Creates a profiler over an ascending ladder of refresh intervals,
    /// testing each rung with the given patterns (each plus its inverse).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when the ladder is empty, not
    /// strictly ascending, or the pattern list is empty.
    pub fn new(intervals: Vec<Seconds>, patterns: Vec<PatternKind>) -> Result<Self, DramError> {
        if intervals.is_empty() || patterns.is_empty() {
            return Err(DramError::InvalidConfig(
                "profiler needs at least one interval and one pattern".into(),
            ));
        }
        if intervals.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(DramError::InvalidConfig(
                "interval ladder must be strictly ascending".into(),
            ));
        }
        Ok(RetentionProfiler {
            intervals,
            patterns,
        })
    }

    /// RAIDR's ladder relative to a base interval: 1×, 2×, 4× the base
    /// (64 / 128 / 256 ms bins in the paper's Table 2), probed with the
    /// discovery pattern family.
    ///
    /// # Errors
    ///
    /// See [`RetentionProfiler::new`].
    pub fn raidr(base: Seconds, seed: u64) -> Result<Self, DramError> {
        Self::new(
            vec![base, Seconds(base.0 * 2.0), Seconds(base.0 * 4.0)],
            crate::pattern::PatternSet::discovery(seed)
                .patterns()
                .to_vec(),
        )
    }

    /// Profiles the rows. The chip's refresh interval is swept up the
    /// ladder (its temperature is left untouched) and restored afterwards
    /// is **not** attempted — profiling is a characterization pass; set the
    /// chip's conditions again afterwards if you continue using it.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn profile(
        &self,
        chip: &mut DramChip,
        rows: &[RowId],
        temperature: crate::config::Celsius,
    ) -> Result<RetentionProfile, DramError> {
        let width = chip.geometry().cols_per_row as usize;
        let mut bins: HashMap<RowId, usize> = HashMap::new();
        for (idx, &interval) in self.intervals.iter().enumerate() {
            chip.set_conditions(temperature, interval);
            for pattern in &self.patterns {
                for invert in [false, true] {
                    let writes: Vec<_> = rows
                        .iter()
                        .filter(|r| !bins.contains_key(r)) // already binned
                        .map(|&row| {
                            let data = if invert {
                                pattern.inverse().row_bits(row.row, width)
                            } else {
                                pattern.row_bits(row.row, width)
                            };
                            (row, data)
                        })
                        .collect();
                    if writes.is_empty() {
                        continue;
                    }
                    for flip in chip.run_round(writes)? {
                        bins.entry(flip.addr.row()).or_insert(idx);
                    }
                }
            }
        }
        Ok(RetentionProfile {
            intervals: self.intervals.clone(),
            bins,
            rows_profiled: rows.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Celsius;
    use crate::pattern::PatternSet;
    use crate::vendor::Vendor;
    use parbor_hal::ChipGeometry;

    fn chip(seed: u64) -> DramChip {
        DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::A, seed).unwrap()
    }

    fn rows() -> Vec<RowId> {
        (0..64).map(|r| RowId::new(0, r)).collect()
    }

    #[test]
    fn ladder_validation() {
        let p = vec![PatternKind::Solid(false)];
        assert!(RetentionProfiler::new(vec![], p.clone()).is_err());
        assert!(RetentionProfiler::new(vec![Seconds(1.0)], vec![]).is_err());
        assert!(
            RetentionProfiler::new(vec![Seconds(2.0), Seconds(1.0)], p.clone()).is_err(),
            "descending ladder must be rejected"
        );
        assert!(RetentionProfiler::new(vec![Seconds(1.0), Seconds(2.0)], p).is_ok());
    }

    #[test]
    fn cumulative_fractions_are_monotone() {
        let profiler = RetentionProfiler::raidr(Seconds(2.0), 1).unwrap();
        let mut c = chip(5);
        let profile = profiler.profile(&mut c, &rows(), Celsius(45.0)).unwrap();
        let fracs = profile.cumulative_fail_fractions();
        assert_eq!(fracs.len(), 3);
        assert!(fracs.windows(2).all(|w| w[1] >= w[0]), "{fracs:?}");
        // Longer intervals expose strictly more rows in this population.
        assert!(fracs[2] > fracs[0], "{fracs:?}");
    }

    #[test]
    fn bins_are_first_failing_interval() {
        let profiler = RetentionProfiler::raidr(Seconds(2.0), 1).unwrap();
        let mut c = chip(6);
        let profile = profiler.profile(&mut c, &rows(), Celsius(45.0)).unwrap();
        // Every binned row's bin index is within the ladder.
        for row in rows() {
            if let Some(bin) = profile.bin_of(row) {
                assert!(bin < 3);
            }
        }
        assert_eq!(profile.rows_profiled(), 64);
    }

    #[test]
    fn richer_patterns_catch_more_weak_rows() {
        // Profiling with only solid patterns misses data-dependent rows —
        // the paper's core critique of naive retention profiling.
        let mut c1 = chip(7);
        let solid = RetentionProfiler::new(vec![Seconds(4.0)], vec![PatternKind::Solid(false)])
            .unwrap()
            .profile(&mut c1, &rows(), Celsius(45.0))
            .unwrap();
        let mut c2 = chip(7);
        let diverse = RetentionProfiler::new(
            vec![Seconds(4.0)],
            PatternSet::discovery(3).patterns().to_vec(),
        )
        .unwrap()
        .profile(&mut c2, &rows(), Celsius(45.0))
        .unwrap();
        assert!(
            diverse.weak_row_fraction() > solid.weak_row_fraction(),
            "diverse {} vs solid {}",
            diverse.weak_row_fraction(),
            solid.weak_row_fraction()
        );
    }
}
