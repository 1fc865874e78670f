//! Ablation: the frequency-ranking threshold of the recursion's noise
//! filter (paper §5.2.4, DESIGN.md §5).
//!
//! Too low a threshold lets random-failure noise masquerade as neighbor
//! distances; too high a threshold drops genuine but less-frequent
//! distances. The default (0.2) sits in the stable plateau.

use parbor_core::{Parbor, ParborConfig, RecursionConfig};
use parbor_dram::{ChipGeometry, Vendor};
use parbor_repro::build_module;

fn main() {
    let _timer = parbor_repro::FigureTimer::start("ablation_ranking");
    let geometry = ChipGeometry::new(1, 256, 8192).expect("valid geometry");
    println!("Ablation: recursion rank threshold sweep\n");
    for vendor in Vendor::ALL {
        let mut module = build_module(vendor, 1, geometry).expect("module builds");
        let parbor = Parbor::new(ParborConfig::default());
        let victims = parbor.discover(&mut module).expect("victims found");
        println!("Vendor {vendor} (truth {:?}):", vendor.paper_distances());
        for threshold in [0.02, 0.05, 0.1, 0.2, 0.4, 0.7] {
            let recursion = RecursionConfig {
                rank_threshold: threshold,
                ..RecursionConfig::default()
            };
            let parbor = Parbor::new(ParborConfig {
                recursion,
                ..ParborConfig::default()
            });
            match parbor.locate(&mut module, &victims) {
                Ok(outcome) => {
                    let correct = outcome.distances == vendor.paper_distances();
                    println!(
                        "  threshold {threshold:>4}: {:>3} tests, distances {:?}{}",
                        outcome.total_tests,
                        outcome.distances,
                        if correct { "  <- exact" } else { "" }
                    );
                }
                Err(e) => println!("  threshold {threshold:>4}: {e}"),
            }
        }
        println!();
    }
}
