//! Sensitivity studies from the paper's §6 and §7.3: temperature
//! independence of neighbor locations, refresh-interval behaviour, and the
//! remapped-column limitation.

use std::sync::Arc;

use parbor_core::{Parbor, ParborConfig};
use parbor_dram::{
    Celsius, ChipGeometry, DramChip, FaultRates, ModuleConfig, RetentionModel, RowId, Seconds,
    Vendor,
};

#[path = "common/remap.rs"]
mod remap;
use remap::RemapTable;

fn run_at(temp: f64, interval: f64, seed: u64) -> Vec<i64> {
    let mut module = ModuleConfig::new(Vendor::A)
        .geometry(ChipGeometry::new(1, 64, 8192).unwrap())
        .chips(4)
        .seed(seed)
        .temperature(Celsius(temp))
        .refresh_interval(Seconds(interval))
        .build()
        .unwrap();
    Parbor::new(ParborConfig::default())
        .run(&mut module)
        .unwrap()
        .distances()
        .to_vec()
}

#[test]
fn neighbor_locations_are_temperature_independent() {
    // Paper §6: "neighbor locations determined by PARBOR are not dependent
    // on temperature" — tested at 40/45/50 °C.
    let d40 = run_at(40.0, 4.0, 77);
    let d45 = run_at(45.0, 4.0, 77);
    let d50 = run_at(50.0, 4.0, 77);
    assert_eq!(d40, d45);
    assert_eq!(d45, d50);
    assert_eq!(d45, Vendor::A.paper_distances());
}

#[test]
fn neighbor_locations_survive_interval_changes() {
    // Paper §6: results hold across refresh intervals (failure *population*
    // changes, neighbor *locations* do not).
    let d_short = run_at(45.0, 3.0, 78);
    let d_long = run_at(45.0, 6.0, 78);
    assert_eq!(d_short, d_long);
}

#[test]
fn hotter_chips_fail_more_but_in_the_same_places() {
    let make = |temp: f64| {
        let mut chip =
            DramChip::new(ChipGeometry::new(1, 64, 8192).unwrap(), Vendor::C, 9).unwrap();
        chip.set_conditions(Celsius(temp), Seconds(4.0));
        let report = Parbor::new(ParborConfig::default()).run(&mut chip).unwrap();
        (report.distances().to_vec(), report.failure_count())
    };
    let (d_cool, n_cool) = make(40.0);
    let (d_hot, n_hot) = make(55.0);
    assert_eq!(d_cool, d_hot, "distances must not move with temperature");
    assert!(n_hot > n_cool, "hot {n_hot} must exceed cool {n_cool}");
}

#[test]
fn remapped_columns_limit_coverage_but_not_distances() {
    // Paper §7.3: remapped redundant columns have neighbors at irregular
    // distances; PARBOR's ranking ignores them and its patterns may miss
    // their worst case, but the *regular* population's distances still come
    // out right.
    let geometry = ChipGeometry::new(1, 96, 8192).unwrap();
    let base = Vendor::B.scrambler(8192);
    // Remap a scattering of physical columns to far-away spares.
    let swaps: Vec<(usize, usize)> = (0..24).map(|i| (40 + i * 96, 4000 + i * 128)).collect();
    let remapped = Arc::new(RemapTable::new(swaps).unwrap().apply(base).unwrap());
    let mut module = ModuleConfig::new(Vendor::B)
        .geometry(geometry)
        .chips(4)
        .seed(55)
        .scrambler(remapped)
        .build()
        .unwrap();
    let report = Parbor::new(ParborConfig::default())
        .run(&mut module)
        .unwrap();
    assert_eq!(
        report.distances(),
        Vendor::B.paper_distances(),
        "regular-population distances must survive remapping"
    );
}

#[test]
fn noise_only_chip_yields_no_distances() {
    // A chip with no coupling cells at all (only marginal noise) must make
    // the recursion fail cleanly rather than hallucinate distances.
    let mut chip = DramChip::with_parts(
        ChipGeometry::new(1, 64, 8192).unwrap(),
        Vendor::A.scrambler(8192),
        13,
        FaultRates {
            interesting: 0.0,
            marginal: 5.0e-4,
            ..FaultRates::default()
        },
        RetentionModel::default(),
        Celsius(45.0),
        Seconds(4.0),
    )
    .unwrap();
    let parbor = Parbor::new(ParborConfig::default());
    let victims = parbor.discover(&mut chip).unwrap();
    assert!(
        !victims.is_empty(),
        "marginal cells should look like victims"
    );
    let outcome = parbor.locate(&mut chip, &victims);
    assert!(
        outcome.is_err(),
        "noise must not produce neighbor distances"
    );
}

#[test]
fn scout_rows_subset_is_honored() {
    let rows: Vec<RowId> = (0..32).map(|r| RowId::new(0, r)).collect();
    let mut chip = DramChip::new(ChipGeometry::new(1, 256, 8192).unwrap(), Vendor::B, 4).unwrap();
    let parbor = Parbor::new(ParborConfig {
        rows: Some(rows),
        ..ParborConfig::default()
    });
    let victims = parbor.discover(&mut chip).unwrap();
    for v in victims.victims() {
        assert!(v.row.row < 32);
    }
}
