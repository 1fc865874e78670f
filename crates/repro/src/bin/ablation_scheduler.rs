//! Ablation: the chip-wide scheduler's separation order (DESIGN.md §5).
//!
//! Order 1 reproduces the paper's first-order scheduling (immediate
//! neighbors only); higher orders also keep concurrent victims out of each
//! other's second-order coupling windows, trading extra rounds for coverage
//! of the deepest cells. This binary sweeps the order and reports rounds
//! and failures found per vendor.

use parbor_core::{ChipwideTest, Parbor, ParborConfig, RoundSchedule};
use parbor_dram::{ChipGeometry, Vendor};
use parbor_repro::{build_module, table_row};

fn main() {
    let _timer = parbor_repro::FigureTimer::start("ablation_scheduler");
    let geometry = ChipGeometry::new(1, 256, 8192).expect("valid geometry");
    println!("Ablation: chip-wide scheduler separation order\n");
    let widths = [7usize, 6, 8, 14, 10];
    println!(
        "{}",
        table_row(
            ["vendor", "order", "rounds", "chunk", "failures"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );
    for vendor in Vendor::ALL {
        // Locate distances once per vendor.
        let mut module = build_module(vendor, 1, geometry).expect("module builds");
        let parbor = Parbor::new(ParborConfig::default());
        let victims = parbor.discover(&mut module).expect("victims found");
        let outcome = parbor
            .locate(&mut module, &victims)
            .expect("recursion converges");
        for order in 1..=4u32 {
            let schedule = RoundSchedule::with_order(&outcome.distances, 8192, order)
                .expect("schedule builds");
            // Run the chip-wide test at this order on a fresh module.
            let mut fresh = build_module(vendor, 1, geometry).expect("module builds");
            let test = ChipwideTest::with_schedule(schedule.clone());
            let result = parbor.chip_test_with(&mut fresh, &test).expect("test runs");
            println!(
                "{}",
                table_row(
                    &[
                        vendor.to_string(),
                        order.to_string(),
                        format!("{}x2", schedule.rounds_per_polarity()),
                        schedule.chunk().to_string(),
                        result.failure_count().to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    println!("\nhigher orders cost rounds but catch deep window-coupled cells");
}
