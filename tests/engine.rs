//! Equivalence tests for the round engine: every pipeline stage must produce
//! identical results whether the port batches rounds (`DramModule`'s
//! parallel `run_rounds` override) or replays them through the `TestPort`
//! trait's default one-round-at-a-time loop.
//!
//! `SerialOnly` hides the inner port's `run_rounds` override, forcing the
//! default loop; comparing it against the unwrapped port pins the contract
//! that batching is an optimization, never a behavior change.

use parbor_core::{
    exhaustive_neighbor_search, linear_neighbor_search, random_pattern_test, solid_pattern_test,
    walking_pattern_test, Parbor, ParborConfig, ScanMachine, Victim,
};
use parbor_dram::{ChipGeometry, DramError, DramModule, ModuleConfig, ModuleId, RowId, Vendor};
use parbor_hal::{Flip, ParallelMode, RoundExecutor, RoundPlan, RowWrite, TestPort};

/// Forwards everything except `run_rounds`, so batches fall back to the
/// trait's default loop over [`TestPort::run_round`].
struct SerialOnly<P>(P);

impl<P: TestPort> TestPort for SerialOnly<P> {
    fn geometry(&self) -> ChipGeometry {
        self.0.geometry()
    }

    fn units(&self) -> u32 {
        self.0.units()
    }

    fn run_round(&mut self, writes: Vec<RowWrite>) -> Result<Vec<Flip>, DramError> {
        self.0.run_round(writes)
    }

    fn rounds_run(&self) -> u64 {
        self.0.rounds_run()
    }
}

fn module(vendor: Vendor, seed: u64, rows: u32) -> DramModule {
    ModuleConfig::new(vendor)
        .geometry(ChipGeometry::new(1, rows, 8192).unwrap())
        .chips(2)
        .seed(seed)
        .module_id(ModuleId(9))
        .build()
        .unwrap()
}

#[test]
fn full_pipeline_matches_default_loop_for_every_vendor() {
    for vendor in Vendor::ALL {
        let mut batched = module(vendor, 11, 64);
        let report = Parbor::new(ParborConfig::default())
            .run(&mut batched)
            .unwrap();

        let mut looped = SerialOnly(module(vendor, 11, 64));
        let loop_report = Parbor::new(ParborConfig::default())
            .run(&mut looped)
            .unwrap();

        assert_eq!(report, loop_report, "vendor {vendor:?} reports diverge");
        assert_eq!(batched.rounds_run(), looped.rounds_run());
    }
}

#[test]
fn baseline_tests_match_default_loop() {
    let rows: Vec<RowId> = (0..16).map(|r| RowId::new(0, r)).collect();

    let mut batched = module(Vendor::B, 23, 16);
    let mut looped = SerialOnly(module(Vendor::B, 23, 16));

    let rand_b = random_pattern_test(&mut batched, &rows, 12, 5).unwrap();
    let rand_l = random_pattern_test(&mut looped, &rows, 12, 5).unwrap();
    assert_eq!(rand_b, rand_l);

    let solid_b = solid_pattern_test(&mut batched, &rows).unwrap();
    let solid_l = solid_pattern_test(&mut looped, &rows).unwrap();
    assert_eq!(solid_b, solid_l);

    let walk_b = walking_pattern_test(&mut batched, &rows, 8).unwrap();
    let walk_l = walking_pattern_test(&mut looped, &rows, 8).unwrap();
    assert_eq!(walk_b, walk_l);
}

#[test]
fn oracle_neighbor_searches_match_default_loop() {
    let victim = Victim {
        unit: 1,
        row: RowId::new(0, 3),
        col: 40,
        fail_value: true,
    };

    let mut batched = module(Vendor::C, 31, 8);
    let mut looped = SerialOnly(module(Vendor::C, 31, 8));

    let lin_b = linear_neighbor_search(&mut batched, &victim, 0..128).unwrap();
    let lin_l = linear_neighbor_search(&mut looped, &victim, 0..128).unwrap();
    assert_eq!(lin_b, lin_l);

    let exh_b = exhaustive_neighbor_search(&mut batched, &victim, 0..40).unwrap();
    let exh_l = exhaustive_neighbor_search(&mut looped, &victim, 0..40).unwrap();
    assert_eq!(exh_b, exh_l);
}

/// Runs a scan one round per `advance` call — the in-the-field driver —
/// and checks every call ran exactly one round.
fn scan_one_round_at_a_time<P: TestPort>(port: &mut P) -> parbor_core::FailureProfile {
    let mut machine = ScanMachine::new(ParborConfig::default());
    while !machine.is_done() {
        let before = port.rounds_run();
        let executed = machine.advance(port, 1).unwrap();
        assert!(executed <= 1);
        assert_eq!(port.rounds_run() - before, executed as u64);
    }
    assert_eq!(machine.rounds_done(), port.rounds_run());
    machine.profile().unwrap().clone()
}

#[test]
fn single_round_scan_matches_default_loop() {
    let mut batched = module(Vendor::A, 17, 64);
    let profile_b = scan_one_round_at_a_time(&mut batched);

    let mut looped = SerialOnly(module(Vendor::A, 17, 64));
    let profile_l = scan_one_round_at_a_time(&mut looped);

    assert_eq!(profile_b, profile_l);
    assert_eq!(profile_b.total_rounds() as u64, batched.rounds_run());
}

#[test]
fn executor_batch_flips_match_default_loop_even_when_threaded() {
    let plans = |units: u32| -> Vec<RoundPlan> {
        (0..5u64)
            .map(|round| {
                let rows: Vec<RowId> = (0..32).map(|r| RowId::new(0, r)).collect();
                RoundPlan::broadcast(units, &rows, |row| {
                    parbor_dram::PatternKind::Random {
                        seed: round ^ u64::from(row.row),
                    }
                    .row_bits(row.row, 8192)
                })
            })
            .collect()
    };

    let mut batched = module(Vendor::A, 41, 32);
    batched.set_parallel_mode(ParallelMode::Always);
    let units = batched.units();
    let mut exec = RoundExecutor::new(&mut batched);
    let flips_b = exec.run_batch(plans(units)).unwrap();
    assert_eq!(exec.rounds_executed(), 5);

    let mut looped = SerialOnly(module(Vendor::A, 41, 32));
    let mut exec = RoundExecutor::new(&mut looped);
    let flips_l = exec.run_batch(plans(units)).unwrap();

    assert_eq!(flips_b, flips_l);
}
