//! Order statistics for the reported timings.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail of a sample: the highest percentile with at least ten samples
/// beyond it, capped at p90 (beyond that, scheduler stalls and interrupts
/// of a shared host decide the value).
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// The percentile, 0–100.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The tail of an ascending slice; with fewer than eleven samples, the
/// maximum.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    // 1-based ranks: exactly ten samples beyond, or p90 if that is lower.
    let p90 = (0.9 * n as f64).ceil() as usize;
    let rank = if n > 10 { (n - 10).min(p90) } else { n };
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{:.1} over {} samples", self.percentile, self.samples)
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(tail(&v).value, 38.0);
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).value, 9000.0);
        assert_eq!(tail(&[1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
