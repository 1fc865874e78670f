//! Bit-identity pins for the mechanism refactor.
//!
//! The digests below were captured from the simulator *before* the failure
//! model was refactored behind the `FailureMechanism` trait. A chip with an
//! empty extra-mechanism stack (and one whose extras are all at rate or
//! threshold zero) must keep reproducing them bit for bit.

use parbor_dram::{ChipGeometry, DramModule, ModuleConfig, ModuleId, PatternKind, Vendor};
use parbor_hal::{MechanismSpec, ParallelMode, RowId, RowWrite, TestPort};
use proptest::prelude::*;

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fold over every flip a scenario produces.
fn fold(digest: u64, words: &[u64]) -> u64 {
    words.iter().fold(digest, |acc, &w| mix64(acc ^ w))
}

const ROWS: u32 = 48;
const COLS: u32 = 8192;
const ROUNDS: usize = 6;

fn scenario_digest(port: &mut dyn TestPort) -> u64 {
    let patterns = [
        PatternKind::Solid(true),
        PatternKind::ColStripe { period: 2 },
        PatternKind::Checkerboard,
    ];
    let mut digest = 0x5EED_0001u64;
    for round in 0..ROUNDS {
        let pattern = &patterns[round % patterns.len()];
        let invert = (round / patterns.len()) % 2 == 1;
        let mut writes = Vec::new();
        for unit in 0..port.units() {
            for r in 0..ROWS {
                let row = RowId::new(0, r);
                let data = if invert {
                    pattern.inverse().row_bits(r, COLS as usize)
                } else {
                    pattern.row_bits(r, COLS as usize)
                };
                writes.push(RowWrite { unit, row, data });
            }
        }
        for flip in port.run_round(writes).expect("round") {
            digest = fold(
                digest,
                &[
                    u64::from(flip.unit),
                    u64::from(flip.flip.addr.bank),
                    u64::from(flip.flip.addr.row),
                    u64::from(flip.flip.addr.col),
                    u64::from(flip.flip.expected),
                ],
            );
        }
    }
    digest
}

fn build_module(vendor: Vendor, seed: u64, mode: ParallelMode) -> parbor_dram::DramModule {
    let mut module = ModuleConfig::new(vendor)
        .geometry(ChipGeometry::new(1, ROWS, COLS).expect("geometry"))
        .chips(2)
        .seed(seed)
        .module_id(ModuleId(7))
        .build()
        .expect("module");
    module.set_parallel_mode(mode);
    module
}

/// Digests captured at commit `ed640c5` (pre-refactor), `ParallelMode::Never`.
const GOLDEN: [(Vendor, u64, u64); 6] = [
    (Vendor::A, 1, 0x2186_B612_824E_415E),
    (Vendor::A, 7, 0xE9E9_6E2C_E088_7C47),
    (Vendor::B, 1, 0xF9FA_437D_C14C_BA50),
    (Vendor::B, 7, 0x7B49_1935_1479_8C43),
    (Vendor::C, 1, 0x8698_A4E1_144B_28C0),
    (Vendor::C, 7, 0x5998_9DEF_3F17_0707),
];

#[test]
fn empty_stack_matches_pre_refactor_digests() {
    for (vendor, seed, want) in GOLDEN {
        let got = scenario_digest(&mut build_module(vendor, seed, ParallelMode::Never));
        assert_eq!(got, want, "({vendor:?}, seed {seed}) drifted from golden");
    }
}

#[test]
fn parallel_eval_matches_pre_refactor_digests() {
    for (vendor, seed, want) in GOLDEN {
        let got = scenario_digest(&mut build_module(vendor, seed, ParallelMode::Always));
        assert_eq!(
            got, want,
            "({vendor:?}, seed {seed}) drifted from golden under parallel eval"
        );
    }
}

#[test]
fn zeroed_mechanism_stack_matches_pre_refactor_digests() {
    // Every extra mechanism at rate/threshold zero must be a no-op: the
    // stack is walked, but no flip may escape and no RNG state may leak
    // into the base model.
    let specs = MechanismSpec::parse_stack("hammer=rate:0;press=rate:0;drift=rate:0")
        .expect("zero-rate stack parses");
    for (vendor, seed, want) in GOLDEN {
        let mut module = ModuleConfig::new(vendor)
            .geometry(ChipGeometry::new(1, ROWS, COLS).expect("geometry"))
            .chips(2)
            .seed(seed)
            .module_id(ModuleId(7))
            .mechanisms(specs.clone())
            .build()
            .expect("module");
        module.set_parallel_mode(ParallelMode::Never);
        let got = scenario_digest(&mut module);
        assert_eq!(
            got, want,
            "({vendor:?}, seed {seed}) zero-rate mechanism stack is not inert"
        );
    }
}

#[test]
fn active_stack_is_deterministic_across_worker_counts() {
    // A live mechanism stack must still be a pure function of (spec, seed,
    // round): worker count and parallel mode must not change which flips
    // are emitted or their order.
    let specs = MechanismSpec::parse_stack("hammer=thresh:100k,rate:2e-3;drift=rate:1e-3,period:4")
        .expect("stack parses");
    let build = |mode: ParallelMode| {
        let mut module = ModuleConfig::new(Vendor::B)
            .geometry(ChipGeometry::new(1, ROWS, COLS).expect("geometry"))
            .chips(2)
            .seed(7)
            .module_id(ModuleId(7))
            .mechanisms(specs.clone())
            .build()
            .expect("module");
        module.set_parallel_mode(mode);
        module
    };
    let baseline = scenario_digest(&mut build(ParallelMode::Never));
    assert_ne!(
        baseline, GOLDEN[3].2,
        "active stack should perturb the flip stream"
    );
    for mode in [ParallelMode::Always, ParallelMode::Auto] {
        let got = scenario_digest(&mut build(mode));
        assert_eq!(got, baseline, "digest drifted under {mode:?}");
    }
}

/// Digests of a live `hammer;press;drift` stack (default parameters),
/// captured before the mechanism hashing was restructured. Pins the flip
/// stream itself, not just agreement between parallel modes.
const LIVE_STACK_GOLDEN: [(Vendor, u64, u64); 2] = [
    (Vendor::A, 1, 0x485A_FB98_AFF8_BBBF),
    (Vendor::B, 7, 0xCA84_48DC_968D_C8CF),
];

#[test]
fn live_stack_matches_golden_digests() {
    let specs = MechanismSpec::parse_stack("hammer;press;drift").expect("stack parses");
    for (vendor, seed, want) in LIVE_STACK_GOLDEN {
        for mode in [ParallelMode::Never, ParallelMode::Always] {
            let mut module = ModuleConfig::new(vendor)
                .geometry(ChipGeometry::new(1, ROWS, COLS).expect("geometry"))
                .chips(2)
                .seed(seed)
                .module_id(ModuleId(7))
                .mechanisms(specs.clone())
                .build()
                .expect("module");
            module.set_parallel_mode(mode);
            let got = scenario_digest(&mut module);
            assert_eq!(
                got, want,
                "({vendor:?}, seed {seed}) live stack drifted from golden under {mode:?}"
            );
        }
    }
}

/// Smaller scenario used by the property tests below (vendor C's 128-column
/// tile span keeps the geometry cheap enough for 64 cases).
fn small_digest(mut module: DramModule) -> u64 {
    let patterns = [
        PatternKind::Solid(true),
        PatternKind::ColStripe { period: 2 },
    ];
    let mut digest = 0x5EED_0002u64;
    for round in 0..3 {
        let pattern = &patterns[round % patterns.len()];
        let mut writes = Vec::new();
        for unit in 0..module.units() {
            for r in 0..12 {
                let row = RowId::new(0, r);
                writes.push(RowWrite {
                    unit,
                    row,
                    data: pattern.row_bits(r, 128),
                });
            }
        }
        for flip in module.run_round(writes).expect("round") {
            digest = fold(
                digest,
                &[
                    u64::from(flip.unit),
                    u64::from(flip.flip.addr.bank),
                    u64::from(flip.flip.addr.row),
                    u64::from(flip.flip.addr.col),
                    u64::from(flip.flip.expected),
                ],
            );
        }
    }
    digest
}

fn small_module(seed: u64, stack: &str, mode: ParallelMode) -> DramModule {
    let mut config = ModuleConfig::new(Vendor::C)
        .geometry(ChipGeometry::new(1, 12, 128).expect("geometry"))
        .chips(2)
        .seed(seed)
        .module_id(ModuleId(3));
    if !stack.is_empty() {
        config = config.mechanisms(MechanismSpec::parse_stack(stack).expect("stack parses"));
    }
    let mut module = config.build().expect("module");
    module.set_parallel_mode(mode);
    module
}

proptest! {
    /// An empty stack and every individually-zeroed mechanism are
    /// bit-identical to the pre-refactor device for any fault seed.
    #[test]
    fn zeroed_stacks_are_inert_for_any_seed(seed in any::<u64>(), which in 0usize..4) {
        let stack = [
            "hammer=rate:0",
            "press=rate:0",
            "drift=rate:0",
            "hammer=rate:0;press=rate:0;drift=rate:0",
        ][which];
        let bare = small_digest(small_module(seed, "", ParallelMode::Never));
        let zeroed = small_digest(small_module(seed, stack, ParallelMode::Never));
        prop_assert_eq!(bare, zeroed);
    }

    /// Digests are a pure function of (seed, stack): parallel evaluation
    /// must reproduce the serial flip stream exactly, live stack included.
    #[test]
    fn digests_do_not_depend_on_worker_count(seed in any::<u64>(), live in any::<bool>()) {
        let stack = if live { "hammer=thresh:100k,rate:2e-3;drift=rate:1e-3,period:4" } else { "" };
        let serial = small_digest(small_module(seed, stack, ParallelMode::Never));
        let threaded = small_digest(small_module(seed, stack, ParallelMode::Always));
        prop_assert_eq!(serial, threaded);
    }
}

#[test]
fn mechanism_rounds_emit_only_registered_metrics() {
    use parbor_obs::{metrics, InMemoryRecorder, RecorderHandle};
    let rec = InMemoryRecorder::handle();
    let module = small_module(
        7,
        "hammer=thresh:100k,rate:2e-3;drift=rate:1e-3,period:4",
        ParallelMode::Never,
    )
    .with_recorder(RecorderHandle::from(rec.clone()));
    small_digest(module);
    assert!(
        rec.counter(metrics::mech::ROUNDS) > 0,
        "live stack recorded no mech.rounds"
    );
    let unregistered: Vec<String> = rec
        .snapshot()
        .metric_names()
        .into_iter()
        .filter(|name| !metrics::is_registered(name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "mechanism rounds emitted unregistered metric names {unregistered:?}"
    );
}
