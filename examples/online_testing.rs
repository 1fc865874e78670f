//! In-the-field deployment: run PARBOR one maintenance slot at a time with
//! [`ScanMachine::advance`] — the paper's §1/§3 usage model, where memory
//! stays in service between test rounds.
//!
//! Run with: `cargo run --release --example online_testing`

use parbor_core::{ParborConfig, ScanMachine};
use parbor_dram::{ChipGeometry, DramChip, Vendor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut chip = DramChip::new(ChipGeometry::new(1, 96, 8192)?, Vendor::C, 77)?;
    let mut machine = ScanMachine::new(ParborConfig::default());

    println!("running PARBOR one maintenance slot at a time:");
    let mut stage = machine.state().stage_name();
    let mut slot = 0u32;
    while !machine.is_done() {
        // One write→wait→read round per slot.
        machine.advance(&mut chip, 1)?;
        slot += 1;
        if machine.state().stage_name() != stage {
            stage = machine.state().stage_name();
            println!(
                "  slot {slot:>3}: entered {stage} ({} rounds so far)",
                machine.rounds_done()
            );
        }
        // ... the system would serve memory traffic here between slots ...
    }

    let profile = machine.profile().expect("finished");
    println!("\ndone after {} rounds:", profile.total_rounds());
    println!("  distances: {:?}", profile.distances);
    println!("  failures : {}", profile.failure_count());
    assert_eq!(profile.distances, Vendor::C.paper_distances());
    assert_eq!(machine.rounds_done(), chip.rounds_run());
    Ok(())
}
