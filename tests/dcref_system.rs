//! Cross-crate integration of the DC-REF study: workloads → memsim, with
//! the paper's §8 invariants.

use parbor_memsim::{
    weighted_speedup, Density, RefreshPolicyKind, SimReport, Simulation, SystemConfig,
};
use parbor_workloads::{paper_mixes, AppProfile, WorkloadMix};

fn quick() -> SystemConfig {
    SystemConfig {
        cores: 4,
        ..SystemConfig::paper()
    }
}

fn run(config: SystemConfig, policy: RefreshPolicyKind, mix: &WorkloadMix) -> SimReport {
    Simulation::new(config, policy, mix, 77).run(250_000)
}

#[test]
fn policy_performance_ordering_holds() {
    // The paper's Figure 16 ordering: baseline < RAIDR < DC-REF, with
    // no-refresh as the ceiling.
    let mix = &paper_mixes(1, 4, 12)[0];
    let insts = |k| run(quick(), k, mix).total_instructions();
    let base = insts(RefreshPolicyKind::Uniform64);
    let raidr = insts(RefreshPolicyKind::Raidr);
    let dcref = insts(RefreshPolicyKind::DcRef);
    let none = insts(RefreshPolicyKind::NoRefresh);
    assert!(base < raidr, "base {base} raidr {raidr}");
    assert!(raidr <= dcref, "raidr {raidr} dcref {dcref}");
    assert!(dcref <= none, "dcref {dcref} none {none}");
}

#[test]
fn refresh_reduction_matches_paper_numbers() {
    let mix = &paper_mixes(1, 4, 13)[0];
    let raidr = run(quick(), RefreshPolicyKind::Raidr, mix);
    let dcref = run(quick(), RefreshPolicyKind::DcRef, mix);
    // RAIDR: 16.4 % hot → 37.3 % of baseline refresh ops.
    assert!((raidr.refresh_work_fraction - 0.373).abs() < 0.01);
    // DC-REF ~27 % of baseline ops (paper: −73 %) and ~27.6 % under RAIDR.
    assert!((dcref.refresh_work_fraction - 0.27).abs() < 0.03);
    let vs_raidr = 1.0 - dcref.refresh_work_fraction / raidr.refresh_work_fraction;
    assert!((vs_raidr - 0.276).abs() < 0.06, "vs RAIDR {vs_raidr}");
    // Hot-row fractions: 16.4 % vs ~2.7 %.
    assert!((raidr.hot_row_fraction - 0.164).abs() < 0.01);
    assert!((dcref.hot_row_fraction - 0.027).abs() < 0.02);
}

#[test]
fn denser_chips_suffer_more_from_refresh() {
    // tRFC grows with density, so the baseline loses more at 32 Gbit and
    // refresh reduction pays more (the paper evaluates 16 vs 32 Gbit).
    let mix = &paper_mixes(1, 4, 14)[0];
    let gain_at = |density| {
        let config = SystemConfig { density, ..quick() };
        let base = run(config, RefreshPolicyKind::Uniform64, mix).total_instructions();
        let dcref = run(config, RefreshPolicyKind::DcRef, mix).total_instructions();
        dcref as f64 / base as f64
    };
    let g16 = gain_at(Density::Gb16);
    let g32 = gain_at(Density::Gb32);
    assert!(g32 > g16, "32Gbit gain {g32} must exceed 16Gbit gain {g16}");
}

#[test]
fn weighted_speedup_reflects_contention() {
    // A mix of one memory hog + compute apps: the hog's normalized IPC
    // drops below the compute apps'.
    let apps = AppProfile::spec2006();
    let mcf = apps.iter().find(|a| a.name == "mcf").unwrap().clone();
    let sjeng = apps.iter().find(|a| a.name == "sjeng").unwrap().clone();
    let mix = WorkloadMix {
        id: 0,
        apps: vec![mcf.clone(), sjeng.clone(), sjeng.clone(), sjeng.clone()],
    };
    let config = quick();
    let shared = run(config, RefreshPolicyKind::Uniform64, &mix).ipcs();
    let alone: Vec<f64> = mix
        .apps
        .iter()
        .map(|a| Simulation::alone_ipc(config, RefreshPolicyKind::Uniform64, a, 3, 250_000))
        .collect();
    let ws = weighted_speedup(&shared, &alone);
    assert!(ws > 1.0 && ws < 4.0, "ws = {ws}");
    // Compute-bound cores keep most of their alone performance.
    assert!(shared[1] / alone[1] > 0.8);
}

#[test]
fn dcref_hot_fraction_tracks_mix_content() {
    // A mix of apps whose writes rarely match the worst-case pattern keeps
    // fewer rows hot than a frequently-matching mix.
    let apps = AppProfile::spec2006();
    let low = apps
        .iter()
        .find(|a| a.name == "libquantum")
        .unwrap()
        .clone(); // 0.05
    let high = apps.iter().find(|a| a.name == "omnetpp").unwrap().clone(); // 0.28
    let mk = |app: &AppProfile| WorkloadMix {
        id: 0,
        apps: vec![app.clone(); 4],
    };
    let h_low = run(quick(), RefreshPolicyKind::DcRef, &mk(&low)).hot_row_fraction;
    let h_high = run(quick(), RefreshPolicyKind::DcRef, &mk(&high)).hot_row_fraction;
    assert!(h_low < h_high, "low {h_low} vs high {h_high}");
    assert!(h_low < 0.02 && h_high > 0.03);
}

#[test]
fn refresh_and_speedup_trends_hold_at_every_density() {
    // The policy ordering at 8, 16 and 32 Gbit, summed over two fixed
    // mixes: DC-REF refreshes less than RAIDR, RAIDR less than uniform, and
    // DC-REF's weighted speedup is at least RAIDR's. Alone IPCs come from
    // the uniform baseline, the common weighted-speedup denominator, so a
    // policy's gain stays visible.
    const MEM_CYCLES: u64 = 150_000;
    const POLICIES: [RefreshPolicyKind; 3] = [
        RefreshPolicyKind::Uniform64,
        RefreshPolicyKind::Raidr,
        RefreshPolicyKind::DcRef,
    ];
    let mixes = paper_mixes(2, 4, 2016);
    for density in [Density::Gb8, Density::Gb16, Density::Gb32] {
        let config = SystemConfig { density, ..quick() };
        let mut alone = std::collections::HashMap::new();
        for app in mixes.iter().flat_map(|m| &m.apps) {
            alone.entry(app.name).or_insert_with(|| {
                Simulation::alone_ipc(
                    config,
                    RefreshPolicyKind::Uniform64,
                    app,
                    0xA10E,
                    MEM_CYCLES,
                )
            });
        }
        let mut work = [0.0f64; 3];
        let mut ws = [0.0f64; 3];
        for mix in &mixes {
            let alone_ipcs: Vec<f64> = mix.apps.iter().map(|a| alone[a.name]).collect();
            for (i, policy) in POLICIES.into_iter().enumerate() {
                let report = Simulation::new(config, policy, mix, 9).run(MEM_CYCLES);
                work[i] += report.refresh_work_fraction;
                ws[i] += weighted_speedup(&report.ipcs(), &alone_ipcs);
            }
        }
        let [uniform, raidr, dcref] = work;
        assert!(
            dcref < raidr && raidr < uniform,
            "{density:?}: refresh work uniform {uniform} raidr {raidr} dcref {dcref}"
        );
        assert!(
            ws[2] >= ws[1],
            "{density:?}: weighted speedup raidr {} dcref {}",
            ws[1],
            ws[2]
        );
    }
}
