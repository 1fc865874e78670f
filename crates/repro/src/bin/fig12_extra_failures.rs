//! Regenerates **Figure 12**: extra failures uncovered by PARBOR's
//! neighbor-aware patterns versus an equal-budget random-pattern test, for
//! all 18 modules.
//!
//! Paper: 1 K–45 K extra failures per module, a 2–55 % increase, ≈ +21.9 %
//! on average; vendor C modules are the most vulnerable.

use std::sync::{Mutex, PoisonError};

use parbor_dram::{ChipGeometry, Vendor};
use parbor_repro::{compare_parbor_vs_random, table_row};

fn main() {
    let _timer = parbor_repro::FigureTimer::start("fig12_extra_failures");
    let geometry = ChipGeometry::experiment_slice();
    println!("Figure 12: extra failures uncovered by PARBOR vs equal-budget random test");
    println!("(geometry: {geometry:?})\n");
    let widths = [8usize, 8, 10, 10, 12, 10];
    println!(
        "{}",
        table_row(
            [
                "module",
                "budget",
                "parbor",
                "random",
                "only-parbor",
                "increase"
            ]
            .map(String::from)
            .as_ref(),
            &widths
        )
    );
    // The 18 modules are independent: compare them in parallel.
    let jobs: Vec<(Vendor, u32)> = Vendor::ALL
        .into_iter()
        .flat_map(|v| (1..=v.paper_module_count() as u32).map(move |i| (v, i)))
        .collect();
    let results = Mutex::new(Vec::new());
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(6))
        .unwrap_or(2);
    std::thread::scope(|scope| {
        for chunk in jobs.chunks(jobs.len().div_ceil(workers)) {
            let results = &results;
            scope.spawn(move || {
                for &(vendor, idx) in chunk {
                    let cmp =
                        compare_parbor_vs_random(vendor, idx, geometry).expect("comparison runs");
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(cmp);
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by(|a, b| a.module.cmp(&b.module));

    let mut increases = Vec::new();
    for cmp in &results {
        increases.push(cmp.percent_increase());
        println!(
            "{}",
            table_row(
                &[
                    cmp.module.clone(),
                    cmp.parbor_rounds.to_string(),
                    cmp.parbor_failures.len().to_string(),
                    cmp.random_failures.len().to_string(),
                    cmp.only_parbor().to_string(),
                    format!("{:.1}%", cmp.percent_increase()),
                ],
                &widths
            )
        );
    }
    let avg = increases.iter().sum::<f64>() / increases.len() as f64;
    println!("\naverage increase: {avg:.1}%  (paper: 21.9%, range 2-55%)");
}
