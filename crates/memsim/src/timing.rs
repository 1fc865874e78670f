//! DDR3-1600 timing parameters (paper Table 2 and footnote 6).
//!
//! All values are in *memory-controller cycles* at 800 MHz (1.25 ns). The
//! paper estimates refresh latency (tRFC) for future high-density chips as
//! 590 ns for 16 Gbit and 1 µs for 32 Gbit, following RAIDR's methodology.

use serde::{Deserialize, Serialize};

/// Per-chip DRAM density; determines refresh latency and rows per bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Density {
    /// 8 Gbit chips (tRFC = 350 ns).
    Gb8,
    /// 16 Gbit chips (tRFC = 590 ns, paper's estimate).
    Gb16,
    /// 32 Gbit chips (tRFC = 1 µs, paper's estimate).
    Gb32,
}

impl Density {
    /// Refresh latency in nanoseconds.
    fn trfc_ns(self) -> f64 {
        match self {
            Density::Gb8 => 350.0,
            Density::Gb16 => 590.0,
            Density::Gb32 => 1000.0,
        }
    }

    /// Rows per bank for an x8 chip with 8 banks and 8 Kbit rows.
    pub fn rows_per_bank(self) -> u32 {
        let bits = match self {
            Density::Gb8 => 8u64 << 30,
            Density::Gb16 => 16u64 << 30,
            Density::Gb32 => 32u64 << 30,
        };
        (bits / (8 * 8192)) as u32
    }
}

/// DDR3-1600 timing in memory-controller cycles (800 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Activate-to-read/write delay (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// CAS (read) latency (tCL).
    pub t_cl: u64,
    /// Minimum activate-to-precharge interval (tRAS).
    pub t_ras: u64,
    /// Column-to-column delay (tCCD).
    pub t_ccd: u64,
    /// Data-burst occupancy of the bus (BL8 = 4 cycles).
    pub t_burst: u64,
    /// Refresh command latency (tRFC).
    pub t_rfc: u64,
    /// Average refresh-command interval (tREFI at a 64 ms refresh window).
    pub t_refi: u64,
}

impl DramTiming {
    /// DDR3-1600 (11-11-11) with density-dependent tRFC.
    pub fn ddr3_1600(density: Density) -> Self {
        let cycle_ns = 1.25;
        DramTiming {
            t_rcd: 11,
            t_rp: 11,
            t_cl: 11,
            t_ras: 28,
            t_ccd: 4,
            t_burst: 4,
            t_rfc: (density.trfc_ns() / cycle_ns).round() as u64,
            // tREFI = 7.8 µs.
            t_refi: (7800.0 / cycle_ns).round() as u64,
        }
    }

    /// Cycles to serve a row-buffer hit (CAS + burst).
    pub fn hit_latency(&self) -> u64 {
        self.t_cl + self.t_burst
    }

    /// Cycles to serve a row-buffer miss on an open bank
    /// (precharge + activate + CAS + burst).
    pub fn miss_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cl + self.t_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trfc_grows_with_density() {
        let t8 = DramTiming::ddr3_1600(Density::Gb8).t_rfc;
        let t16 = DramTiming::ddr3_1600(Density::Gb16).t_rfc;
        let t32 = DramTiming::ddr3_1600(Density::Gb32).t_rfc;
        assert!(t8 < t16 && t16 < t32);
        // Paper footnote 6: 590 ns and 1 µs at 1.25 ns/cycle.
        assert_eq!(t16, 472);
        assert_eq!(t32, 800);
    }

    #[test]
    fn refresh_duty_cycle_at_32gbit_is_near_13_percent() {
        let t = DramTiming::ddr3_1600(Density::Gb32);
        let duty = t.t_rfc as f64 / t.t_refi as f64;
        assert!((duty - 0.128).abs() < 0.01, "duty = {duty}");
    }

    #[test]
    fn rows_per_bank_scale_with_density() {
        assert_eq!(Density::Gb8.rows_per_bank(), 131_072);
        assert_eq!(Density::Gb32.rows_per_bank(), 524_288);
    }

    #[test]
    fn latency_orderings() {
        let t = DramTiming::ddr3_1600(Density::Gb16);
        assert!(t.hit_latency() < t.miss_latency());
        assert_eq!(t.t_ras + t.t_rp, 39, "tRC");
    }
}
