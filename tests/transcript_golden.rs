//! Pins the exact bytes of a recorded PARBOR transcript.
//!
//! A transcript round carries a digest of the round's write set (unit, row,
//! length and row content), so the file changes whenever any stage writes a
//! different image, a different row, or in a different order. How the images
//! are built and held (fresh, shared between units, pooled) must not show
//! here: the digest folds content, never pointers.

use parbor_core::{Parbor, ParborConfig};
use parbor_dram::{ChipGeometry, ModuleSpec, Vendor};
use parbor_hal::hash::fnv1a64;
use parbor_hal::RecordingPort;

/// Rounds in the recorded run: discovery, recursion and chip-wide test.
const GOLDEN_ROUNDS: u64 = 124;
/// Length of the transcript file in bytes.
const GOLDEN_LEN: usize = 9474;
/// FNV-1a 64 of the whole transcript file.
const GOLDEN_FNV: u64 = 0x5f26_6b12_08df_2bba;

#[test]
fn two_chip_parbor_transcript_bytes_are_pinned() {
    let module = ModuleSpec {
        chips: 2,
        geometry: ChipGeometry::new(1, 64, 1024).unwrap(),
        seed: 7,
        ..ModuleSpec::new(Vendor::A)
    }
    .build()
    .unwrap();
    let path = std::env::temp_dir().join(format!(
        "parbor-transcript-golden-{}.pbt",
        std::process::id()
    ));
    let mut port = RecordingPort::create(module, &path).unwrap();
    let report = Parbor::new(ParborConfig::default()).run(&mut port).unwrap();
    let rounds = port.rounds_recorded();
    port.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Every stage wrote rounds into the transcript.
    assert!(report.discovery_rounds > 0);
    assert!(report.chipwide.rounds > 0);
    assert!(rounds > (report.discovery_rounds + report.chipwide.rounds) as u64);
    assert_eq!(
        (rounds, bytes.len(), fnv1a64(&bytes)),
        (GOLDEN_ROUNDS, GOLDEN_LEN, GOLDEN_FNV),
        "transcript bytes changed: {rounds} rounds, {} bytes, fnv {:#018x}",
        bytes.len(),
        fnv1a64(&bytes)
    );
}
