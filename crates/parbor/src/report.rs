//! Test-time arithmetic and reduction-factor reporting (paper appendix).
//!
//! The appendix derives, from DDR3-1600 timing, how long naive neighbor
//! searches would take on real hardware: each test of one candidate costs a
//! full refresh interval (64 ms dominates the few hundred ns of row I/O), so
//! an `O(n²)` search of an 8 K row takes 49 days and `O(n⁴)` takes 9.1 M
//! years — while PARBOR's 92–132 rounds test a whole 2 GB module in under a
//! minute.

use std::fmt;

use serde::{Deserialize, Serialize};

/// DDR3-1600 row-to-row timing used by the appendix arithmetic.
mod ddr3 {
    /// RAS-to-CAS delay, ns.
    pub(super) const T_RCD_NS: f64 = 13.75;
    /// Column-to-column delay, ns.
    pub(super) const T_CCD_NS: f64 = 5.0;
    /// Precharge time, ns.
    pub(super) const T_RP_NS: f64 = 13.75;
    /// Refresh interval the tests wait out, ms.
    pub(super) const REFRESH_MS: f64 = 64.0;
    /// Cache lines per 8 KB row.
    pub(super) const BLOCKS_PER_ROW: f64 = 128.0;
    /// Rows in a 2 GB module.
    pub(super) const ROWS_PER_2GB: f64 = 262_144.0;
}

/// A duration in seconds with a human-friendly `Display` (s / min / h /
/// days / years).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct TestTime(pub f64);

impl TestTime {
    /// The duration in seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The duration in days.
    pub fn days(self) -> f64 {
        self.0 / 86_400.0
    }

    /// The duration in years.
    pub fn years(self) -> f64 {
        self.0 / (86_400.0 * 365.0)
    }
}

impl fmt::Display for TestTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s < 120.0 {
            write!(f, "{s:.2} s")
        } else if s < 7_200.0 {
            write!(f, "{:.2} min", s / 60.0)
        } else if s < 2.0 * 86_400.0 {
            write!(f, "{:.2} h", s / 3_600.0)
        } else if s < 730.0 * 86_400.0 {
            write!(f, "{:.1} days", self.days())
        } else if self.years() < 2.0e6 {
            write!(f, "{:.0} years", self.years())
        } else {
            write!(f, "{:.1}M years", self.years() / 1.0e6)
        }
    }
}

/// Wall-clock time of a naive `O(n^k)` neighbor search over one row of
/// `row_bits` cells: each candidate test waits one 64 ms refresh interval
/// (paper appendix: 8.73 min for `k = 1`, 49 days for `k = 2`, 1115 years
/// for `k = 3`, 9.1 M years for `k = 4`).
pub fn naive_test_time(row_bits: usize, k: u32) -> TestTime {
    let per_test_s = ddr3::REFRESH_MS / 1e3; // the 42.5 ns of I/O is noise
    TestTime((row_bits as f64).powi(k as i32) * per_test_s)
}

/// Wall-clock time of `tests` PARBOR rounds over a whole 2 GB module:
/// write the module (174.98 ms), wait 64 ms, read it back (paper appendix:
/// 413.96 ms per round; 92 rounds ≈ 38 s, 132 rounds ≈ 55 s).
pub fn parbor_module_time(tests: usize) -> TestTime {
    let row_ns = ddr3::T_RCD_NS + ddr3::T_CCD_NS * ddr3::BLOCKS_PER_ROW + ddr3::T_RP_NS;
    let module_s = row_ns * ddr3::ROWS_PER_2GB / 1e9;
    let round_s = 2.0 * module_s + ddr3::REFRESH_MS / 1e3;
    TestTime(tests as f64 * round_s)
}

/// PARBOR's reduction factors versus the `O(n)` and `O(n²)` searches
/// (the paper's headline 90× and 745,654× numbers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReductionReport {
    /// Row width the comparison is for.
    pub row_bits: usize,
    /// PARBOR recursion rounds.
    pub parbor_tests: usize,
    /// `n / parbor_tests`.
    pub vs_linear: f64,
    /// `n² / parbor_tests`.
    pub vs_quadratic: f64,
}

impl ReductionReport {
    /// Computes the reduction factors.
    pub fn new(row_bits: usize, parbor_tests: usize) -> Self {
        let n = row_bits as f64;
        let t = parbor_tests.max(1) as f64;
        ReductionReport {
            row_bits,
            parbor_tests,
            vs_linear: n / t,
            vs_quadratic: n * n / t,
        }
    }
}

impl fmt::Display for ReductionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tests for {}-bit rows: {:.0}x vs O(n), {:.0}x vs O(n^2)",
            self.parbor_tests, self.row_bits, self.vs_linear, self.vs_quadratic
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_search_takes_minutes() {
        let t = naive_test_time(8192, 1);
        assert!((t.seconds() / 60.0 - 8.73).abs() < 0.05, "{t}");
    }

    #[test]
    fn quadratic_search_takes_49_days() {
        let t = naive_test_time(8192, 2);
        assert!((t.days() - 49.7).abs() < 1.0, "days = {}", t.days());
    }

    #[test]
    fn cubic_search_takes_1115_years() {
        let t = naive_test_time(8192, 3);
        assert!((t.years() - 1115.0).abs() < 25.0, "years = {}", t.years());
    }

    #[test]
    fn quartic_search_takes_9m_years() {
        let t = naive_test_time(8192, 4);
        assert!((t.years() / 1.0e6 - 9.1).abs() < 0.3, "{}", t.years());
    }

    #[test]
    fn parbor_module_time_matches_paper() {
        // Paper: 92 tests ≈ 38 s, 132 tests ≈ 55 s for a 2 GB module.
        let t92 = parbor_module_time(92).seconds();
        let t132 = parbor_module_time(132).seconds();
        assert!((t92 - 38.0).abs() < 1.0, "t92 = {t92}");
        assert!((t132 - 54.6).abs() < 1.0, "t132 = {t132}");
    }

    #[test]
    fn reduction_factors_match_headline() {
        let r = ReductionReport::new(8192, 90);
        assert!((r.vs_linear - 91.0).abs() < 1.0);
        assert!((r.vs_quadratic - 745_654.0).abs() < 10.0);
    }

    #[test]
    fn display_humanizes() {
        assert_eq!(TestTime(10.0).to_string(), "10.00 s");
        assert!(TestTime(600.0).to_string().contains("min"));
        assert!(naive_test_time(8192, 2).to_string().contains("days"));
        assert!(naive_test_time(8192, 3).to_string().contains("years"));
        assert!(naive_test_time(8192, 4).to_string().contains("M years"));
    }
}
