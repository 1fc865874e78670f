//! DDR3 energy accounting (the paper's abstract and §8 motivate DC-REF with
//! "performance and energy efficiency"; refresh is a major energy term at
//! high densities).
//!
//! The model follows the standard IDD-based methodology (Micron TN-41-01):
//! per-operation energies for activate/precharge pairs, read/write bursts,
//! and refresh commands, plus background power, all scaled from DDR3-1600
//! datasheet currents at 1.5 V. Absolute joules are indicative; the
//! *ratios* across refresh policies are the result.

use serde::{Deserialize, Serialize};

use crate::metrics::SimReport;
use crate::timing::{Density, DramTiming};

/// Per-operation energies in nanojoules for one rank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one activate+precharge pair.
    pub act_pre_nj: f64,
    /// Energy of one read burst (8 × 64 bits).
    pub read_nj: f64,
    /// Energy of one write burst.
    pub write_nj: f64,
    /// Energy of one all-bank refresh command (scales with tRFC).
    pub refresh_nj: f64,
    /// Background power per rank in milliwatts.
    pub background_mw: f64,
    /// Memory-cycle time in nanoseconds.
    pub cycle_ns: f64,
}

impl EnergyModel {
    /// DDR3-1600 at 1.5 V with density-dependent refresh energy.
    ///
    /// Refresh energy grows with tRFC (more rows per command at higher
    /// density): `E_ref ≈ V × IDD5 × tRFC`, ~2× per density doubling.
    pub fn ddr3_1600(density: Density) -> Self {
        let timing = DramTiming::ddr3_1600(density);
        let cycle_ns = 1.25;
        // V × ΔIDD × t, with DDR3-1600 datasheet ballparks:
        // ACT+PRE: ~20 nJ; RD/WR bursts: ~5/5.5 nJ per 64 B.
        let v = 1.5;
        let idd5_ma = 200.0; // refresh burst current
        EnergyModel {
            act_pre_nj: 20.0,
            read_nj: 5.0,
            write_nj: 5.5,
            refresh_nj: v * idd5_ma * 1e-3 * (timing.t_rfc as f64 * cycle_ns),
            background_mw: 75.0,
            cycle_ns,
        }
    }

    /// Total energy of a simulation run, in millijoules, split by component.
    pub fn breakdown(&self, report: &SimReport, ranks_total: u64) -> EnergyBreakdown {
        // Row activations ≈ row misses = total ops − row hits.
        let ops = report.reads + report.writes;
        let activates = ops.saturating_sub(report.row_hits);
        let to_mj = 1e-6;
        let act = activates as f64 * self.act_pre_nj * to_mj;
        let rw =
            (report.reads as f64 * self.read_nj + report.writes as f64 * self.write_nj) * to_mj;
        // Refresh energy scales with the *work* each window performed
        // (row-granular policies refresh fewer rows per window).
        let refresh =
            report.refresh_windows as f64 * self.refresh_nj * report.refresh_work_fraction * to_mj;
        let wall_s = report.mem_cycles as f64 * self.cycle_ns * 1e-9;
        let background = self.background_mw * wall_s * ranks_total as f64;
        EnergyBreakdown {
            activate_mj: act,
            read_write_mj: rw,
            refresh_mj: refresh,
            background_mj: background,
        }
    }
}

/// Energy totals of one run, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Activate/precharge energy.
    pub activate_mj: f64,
    /// Read/write burst energy.
    pub read_write_mj: f64,
    /// Refresh energy.
    pub refresh_mj: f64,
    /// Background (standby) energy.
    pub background_mj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    fn total_mj(&self) -> f64 {
        self.activate_mj + self.read_write_mj + self.refresh_mj + self.background_mj
    }

    /// Energy per retired instruction, in nanojoules.
    pub fn per_instruction_nj(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.total_mj() * 1e6 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refresh::RefreshPolicyKind;
    use crate::system::{Simulation, SystemConfig};
    use parbor_workloads::paper_mixes;

    fn run(policy: RefreshPolicyKind) -> SimReport {
        let config = SystemConfig {
            cores: 4,
            ..SystemConfig::paper()
        };
        let mix = &paper_mixes(1, 4, 31)[0];
        Simulation::new(config, policy, mix, 1).run(200_000)
    }

    #[test]
    fn refresh_energy_scales_with_density() {
        let e8 = EnergyModel::ddr3_1600(Density::Gb8).refresh_nj;
        let e32 = EnergyModel::ddr3_1600(Density::Gb32).refresh_nj;
        assert!(e32 > 2.0 * e8, "e8 {e8} e32 {e32}");
    }

    #[test]
    fn dcref_cuts_refresh_energy_by_paper_fraction() {
        let model = EnergyModel::ddr3_1600(Density::Gb32);
        let base = model.breakdown(&run(RefreshPolicyKind::Uniform64), 4);
        let raidr = model.breakdown(&run(RefreshPolicyKind::Raidr), 4);
        let dcref = model.breakdown(&run(RefreshPolicyKind::DcRef), 4);
        // Refresh energy ratios follow the paper's op reductions.
        let raidr_ratio = raidr.refresh_mj / base.refresh_mj;
        let dcref_ratio = dcref.refresh_mj / base.refresh_mj;
        assert!((raidr_ratio - 0.373).abs() < 0.02, "raidr {raidr_ratio}");
        assert!((dcref_ratio - 0.27).abs() < 0.03, "dcref {dcref_ratio}");
        // Absolute totals rise slightly because the faster system retires
        // more work in the fixed window; the per-instruction comparison in
        // the next test is the meaningful one. The refresh slice itself
        // must shrink outright:
        assert!(dcref.refresh_mj < raidr.refresh_mj);
        assert!(raidr.refresh_mj < base.refresh_mj);
    }

    #[test]
    fn energy_per_instruction_improves_under_dcref() {
        let model = EnergyModel::ddr3_1600(Density::Gb32);
        let base_run = run(RefreshPolicyKind::Uniform64);
        let dcref_run = run(RefreshPolicyKind::DcRef);
        let base = model
            .breakdown(&base_run, 4)
            .per_instruction_nj(base_run.total_instructions());
        let dcref = model
            .breakdown(&dcref_run, 4)
            .per_instruction_nj(dcref_run.total_instructions());
        assert!(dcref < base, "dcref {dcref} vs base {base}");
    }

    #[test]
    fn breakdown_components_are_positive_and_sum() {
        let model = EnergyModel::ddr3_1600(Density::Gb16);
        let b = model.breakdown(&run(RefreshPolicyKind::Uniform64), 4);
        assert!(b.activate_mj > 0.0);
        assert!(b.read_write_mj > 0.0);
        assert!(b.refresh_mj > 0.0);
        assert!(b.background_mj > 0.0);
        let sum = b.activate_mj + b.read_write_mj + b.refresh_mj + b.background_mj;
        assert!((sum - b.total_mj()).abs() < 1e-12);
    }
}
