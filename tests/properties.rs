//! Property-based tests (proptest) on the core invariants: scrambler
//! bijectivity, schedule correctness, region arithmetic, and row-bit
//! algebra, over randomized inputs.

use proptest::prelude::*;

use parbor_core::{LevelPlan, Parbor, ParborConfig, RoundSchedule};
use parbor_dram::{
    hamiltonian_walk, walk_distance_set, IdentityScrambler, PatternKind, RowBits, Scrambler,
    TileWalkScrambler, Vendor,
};

#[path = "common/remap.rs"]
mod remap;
use remap::RemapTable;

proptest! {
    #[test]
    fn rowbits_flip_is_involution(len in 1usize..600, bits in prop::collection::vec(0usize..600, 0..40)) {
        let mut row = RowBits::zeros(len);
        let bits: Vec<usize> = bits.into_iter().map(|b| b % len).collect();
        for &b in &bits {
            row.flip(b);
        }
        for &b in &bits {
            row.flip(b);
        }
        prop_assert_eq!(row.count_ones(), 0);
    }

    #[test]
    fn rowbits_inversion_complements_counts(len in 1usize..700, seed in any::<u64>()) {
        let row = PatternKind::Random { seed }.row_bits(0, len);
        let inv = row.inverted();
        prop_assert_eq!(row.count_ones() + inv.count_ones(), len);
        // Double inversion is identity.
        prop_assert_eq!(inv.inverted(), row);
    }

    #[test]
    fn diff_indices_matches_manual_xor(len in 1usize..300, seed in any::<u64>()) {
        let a = PatternKind::Random { seed }.row_bits(0, len);
        let b = PatternKind::Random { seed: seed ^ 1 }.row_bits(1, len);
        let diffs = a.diff_indices(&b);
        for i in 0..len {
            let differs = a.get(i) != b.get(i);
            prop_assert_eq!(differs, diffs.contains(&i));
        }
    }

    #[test]
    fn vendor_scramblers_bijective_at_any_width(
        vendor_idx in 0usize..3,
        groups in 1usize..6,
    ) {
        let vendor = Vendor::ALL[vendor_idx];
        let span = match vendor {
            Vendor::A => 1024,
            Vendor::B => 512,
            Vendor::C => 128,
        };
        let width = span * groups;
        let s = vendor.scrambler(width);
        let mut seen = vec![false; width];
        for col in 0..width {
            let p = s.system_to_physical(col);
            prop_assert!(!seen[p]);
            seen[p] = true;
            prop_assert_eq!(s.physical_to_system(p), col);
        }
    }

    #[test]
    fn remap_preserves_bijection(
        pairs in prop::collection::vec((0usize..512, 512usize..1024), 0..12),
    ) {
        // Deduplicate positions to satisfy RemapTable's validation.
        let mut used = std::collections::HashSet::new();
        let pairs: Vec<(usize, usize)> = pairs
            .into_iter()
            .filter(|&(a, b)| used.insert(a) && used.insert(b))
            .collect();
        let base = std::sync::Arc::new(IdentityScrambler::new(1024));
        let s = RemapTable::new(pairs).unwrap().apply(base).unwrap();
        let mut seen = vec![false; 1024];
        for col in 0..1024 {
            let p = s.system_to_physical(col);
            prop_assert!(!seen[p]);
            seen[p] = true;
            prop_assert_eq!(s.physical_to_system(p), col);
        }
    }

    #[test]
    fn schedules_verify_for_random_distance_sets(
        mags in prop::collection::btree_set(1i64..64, 1..4),
        order in 1u32..4,
    ) {
        let distances: Vec<i64> = mags.iter().flat_map(|&m| [m, -m]).collect();
        let s = RoundSchedule::with_order(&distances, 8192, order).unwrap();
        prop_assert!(s.verify(&distances));
        // Every chunk position is a victim exactly once.
        let mut count = vec![0usize; s.chunk()];
        for r in 0..s.rounds_per_polarity() {
            for &v in s.victims(r) {
                count[v as usize] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn level_plan_region_ranges_partition_the_row(width_exp in 1u32..4) {
        // Widths 2·8^k: 16, 128, 1024.
        let width = 2 * 8usize.pow(width_exp);
        let plan = LevelPlan::paper(width).unwrap();
        for level in 0..plan.levels() {
            let mut covered = 0usize;
            for idx in 0..plan.region_count(level) {
                let (lo, hi) = plan.region_range(idx, level).unwrap();
                prop_assert_eq!(lo, covered);
                covered = hi;
            }
            prop_assert_eq!(covered, width);
        }
    }

    #[test]
    fn hamiltonian_walks_honor_step_sets(
        len in 8usize..48,
        s1 in 1u64..5,
        s2 in 1u64..7,
    ) {
        // Always include step 1 so a walk exists.
        let steps = vec![1u64, s1, s2];
        let walk = hamiltonian_walk(len, &steps).unwrap();
        let mut sorted = walk.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
        for d in walk_distance_set(&walk) {
            prop_assert!(steps.contains(&d));
        }
    }

    #[test]
    fn observability_never_perturbs_the_pipeline(seed in 1u64..64, vendor_idx in 0usize..3) {
        // Recording metrics must not change a single pipeline outcome:
        // the NullRecorder run and ShardedRecorder runs with one shard and
        // with the default shard count produce identical reports.
        use parbor_dram::{ChipGeometry, DramChip};
        use parbor_obs::{metrics, RecorderHandle, ShardedRecorder};
        use std::sync::Arc;

        let vendor = Vendor::ALL[vendor_idx];
        let geometry = ChipGeometry::new(1, 64, 8192).unwrap();
        let run = |rec: RecorderHandle| {
            let mut chip = DramChip::new(geometry, vendor, seed)
                .unwrap()
                .with_recorder(rec.clone());
            let report = Parbor::new(ParborConfig::default())
                .with_recorder(rec)
                .run(&mut chip)
                .unwrap();
            (
                report.victim_count,
                report.recursion,
                report.chipwide.rounds,
                report.chipwide.failing,
            )
        };
        let null = run(RecorderHandle::null());
        let single_rec = Arc::new(ShardedRecorder::with_shards(1));
        let single = run(RecorderHandle::from(single_rec.clone()));
        prop_assert_eq!(&null, &single);
        let sharded_rec = ShardedRecorder::handle();
        let sharded = run(RecorderHandle::from(sharded_rec.clone()));
        prop_assert_eq!(&null, &sharded);
        // ...and both recording runs really recorded the phases,
        // identically to each other.
        let single_snap = single_rec.snapshot();
        let sharded_snap = sharded_rec.snapshot();
        prop_assert!(single_snap.counter(metrics::recursion::TESTS) > 0);
        prop_assert!(single_snap.counter(metrics::chipwide::ROUNDS) > 0);
        prop_assert_eq!(&single_snap.counters, &sharded_snap.counters);
        prop_assert_eq!(&single_snap.histograms, &sharded_snap.histograms);
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_sample_oracle(
        samples in prop::collection::vec(0u64..2_000_000, 1..400),
    ) {
        // p50/p99/p999 must land within one bucket of the exact
        // sorted-sample percentile: the snapshot's answer and the oracle's
        // answer fall in the same or adjacent log-linear buckets.
        use parbor_obs::hist::{bucket_index, HdrHistogram};

        let mut h = HdrHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.50, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let approx = snap.p(q);
            let distance = bucket_index(approx).abs_diff(bucket_index(exact));
            prop_assert!(
                distance <= 1,
                "p({}) = {} vs exact {} ({} buckets apart, n={})",
                q, approx, exact, distance, sorted.len()
            );
        }
        prop_assert_eq!(snap.min, sorted[0]);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
    }

    #[test]
    fn parallel_module_execution_is_bit_identical_to_serial(
        seed in 1u64..64,
        vendor_idx in 0usize..3,
        chips in 2usize..10,
        pattern_seed in any::<u64>(),
    ) {
        // The chip-group path must produce the same flips in the same order
        // as the serial path — not just the same set — for even and uneven
        // groups up to the paper's 8 chips. ParallelMode is forced (Always /
        // Never) so the comparison is meaningful even on single-core hosts.
        use parbor_hal::{ParallelMode, RoundPlan, TestPort};
use parbor_dram::{ChipGeometry, ModuleConfig, RowId};

        let vendor = Vendor::ALL[vendor_idx];
        let build = |mode: ParallelMode| {
            let mut module = ModuleConfig::new(vendor)
                .geometry(ChipGeometry::new(1, 24, 1024).unwrap())
                .chips(chips)
                .seed(seed)
                .build()
                .unwrap();
            module.set_parallel_mode(mode);
            module
        };
        let plans = |module: &parbor_dram::DramModule| {
            let units = module.units();
            (0..6u64)
                .map(|round| {
                    RoundPlan::broadcast(units, &(0..24).map(|r| RowId::new(0, r)).collect::<Vec<_>>(), |row| {
                        PatternKind::Random { seed: pattern_seed ^ round ^ u64::from(row.row) }
                            .row_bits(row.row, 1024)
                    })
                })
                .collect::<Vec<_>>()
        };

        let mut par = build(ParallelMode::Always);
        let mut ser = build(ParallelMode::Never);
        prop_assert_eq!(par.parallel_mode(), ParallelMode::Always);
        prop_assert_eq!(ser.parallel_mode(), ParallelMode::Never);
        let par_flips = par.run_rounds(plans(&par)).unwrap();
        let ser_flips = ser.run_rounds(plans(&ser)).unwrap();
        prop_assert_eq!(par_flips, ser_flips);
        prop_assert_eq!(par.rounds_run(), ser.rounds_run());
    }

    #[test]
    fn sparse_fault_map_build_is_bit_identical_to_reference(
        seed in any::<u64>(),
        vendor_idx in 0usize..3,
        bank in 0u32..4,
        row in 0u32..4096,
    ) {
        // The geometric-screen sampler must reproduce the reference
        // per-stream sampler exactly: same entries, same order, same floats.
        use parbor_dram::{RetentionModel, RowFaultMap, RowId};

        let vendor = Vendor::ALL[vendor_idx];
        let scrambler = vendor.scrambler(1024);
        let rates = vendor.default_rates();
        let retention = RetentionModel::default();
        let id = RowId::new(bank, row);
        let fast = RowFaultMap::build(seed, id, scrambler.as_ref(), &rates, &retention);
        let reference =
            RowFaultMap::build_reference(seed, id, scrambler.as_ref(), &rates, &retention);
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn stencil_eval_is_bit_identical_to_scalar_kernel(
        seed in any::<u64>(),
        vendor_idx in 0usize..3,
        row in 0u32..256,
        data_seed in any::<u64>(),
        shift_milli in -900i32..900,
    ) {
        // The compiled word-parallel stencil must report exactly the scalar
        // walk's failing system columns, in the same ascending order.
        use parbor_dram::{CouplingStencil, RetentionModel, RowFaultMap, RowId};

        let vendor = Vendor::ALL[vendor_idx];
        let scrambler = vendor.scrambler(1024);
        let map = RowFaultMap::build(
            seed,
            RowId::new(0, row),
            scrambler.as_ref(),
            &vendor.default_rates(),
            &RetentionModel::default(),
        );
        let theta_shift = f64::from(shift_milli) / 1000.0;
        let stencil = CouplingStencil::compile(&map, theta_shift);
        let data = PatternKind::Random { seed: data_seed }.row_bits(row, 1024);
        prop_assert_eq!(
            stencil.eval(&data),
            map.coupling_fail_indices(&data, theta_shift)
        );
    }

    #[test]
    fn optimized_module_run_matches_full_reference_path(
        seed in 1u64..64,
        vendor_idx in 0usize..3,
        chips in 2usize..4,
        pattern_seed in any::<u64>(),
    ) {
        // Strongest end-to-end equivalence: every optimization enabled at
        // once (sparse sampler + compiled stencil + chip- and row-level
        // threads) against the fully retained reference path (scalar
        // kernel, reference sampler, serial execution). Flip streams and
        // cache/counter-visible behavior must match bit for bit.
        use parbor_hal::{KernelMode, ParallelMode, RoundPlan, TestPort};
use parbor_dram::{ChipGeometry, ModuleConfig, RowId};

        let vendor = Vendor::ALL[vendor_idx];
        let build = |mode: ParallelMode, kernel: KernelMode| {
            let mut module = ModuleConfig::new(vendor)
                .geometry(ChipGeometry::new(1, 24, 1024).unwrap())
                .chips(chips)
                .seed(seed)
                .build()
                .unwrap();
            module.set_parallel_mode(mode);
            module.set_kernel_mode(kernel);
            module
        };
        let plans = |module: &parbor_dram::DramModule| {
            let units = module.units();
            (0..6u64)
                .map(|round| {
                    RoundPlan::broadcast(units, &(0..24).map(|r| RowId::new(0, r)).collect::<Vec<_>>(), |row| {
                        PatternKind::Random { seed: pattern_seed ^ round ^ u64::from(row.row) }
                            .row_bits(row.row, 1024)
                    })
                })
                .collect::<Vec<_>>()
        };

        let mut fast = build(ParallelMode::Always, KernelMode::Stencil);
        let mut reference = build(ParallelMode::Never, KernelMode::Reference);
        let fast_flips = fast.run_rounds(plans(&fast)).unwrap();
        let ref_flips = reference.run_rounds(plans(&reference)).unwrap();
        prop_assert_eq!(fast_flips, ref_flips);
        prop_assert_eq!(fast.rounds_run(), reference.rounds_run());
    }

    #[test]
    fn tile_walk_round_trips(groups in 1usize..5, stride in 1usize..4) {
        // A small valid walk: identity over span/stride.
        let span = 24 * stride;
        let tile_len = span / stride;
        let walk: Vec<usize> = (0..tile_len).collect();
        let width = span * groups;
        let s = TileWalkScrambler::new(width, span, stride, walk).unwrap();
        for col in 0..width {
            prop_assert_eq!(s.physical_to_system(s.system_to_physical(col)), col);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume invariants (the parbor-fleet contract): a scan state
// survives JSON losslessly at any point, and a scan interrupted after an
// arbitrary number of rounds finishes with the exact same profile.
// ---------------------------------------------------------------------------

mod checkpointing {
    use super::*;
    use parbor_core::{FailureProfile, ScanMachine, ScanState};
    use parbor_dram::{ChipGeometry, ModuleSpec};
    use std::sync::OnceLock;

    fn spec(vendor: Vendor, seed: u64) -> ModuleSpec {
        ModuleSpec {
            chips: 1,
            geometry: ChipGeometry::new(1, 48, 8192).unwrap(),
            seed,
            ..ModuleSpec::new(vendor)
        }
    }

    /// The uninterrupted reference profile, computed once for the fixed
    /// module the resume property runs against.
    fn clean_profile() -> &'static FailureProfile {
        static CLEAN: OnceLock<FailureProfile> = OnceLock::new();
        CLEAN.get_or_init(|| {
            let mut machine = ScanMachine::new(ParborConfig::default());
            let mut module = spec(Vendor::B, 77).build().unwrap();
            machine.run_to_completion(&mut module).unwrap().clone()
        })
    }

    proptest! {
        #[test]
        fn scan_state_json_roundtrip_is_lossless_at_any_prefix(
            vendor_idx in 0usize..3,
            seed in 1u64..5000,
            k in 0usize..64,
        ) {
            let mut machine = ScanMachine::new(ParborConfig::default());
            let mut module = spec(Vendor::ALL[vendor_idx], seed).build().unwrap();
            let mut left = k;
            while left > 0 && !machine.is_done() {
                match machine.advance(&mut module, left) {
                    Ok(0) | Err(_) => break,
                    Ok(ran) => left -= ran.min(left),
                }
            }
            let json = serde_json::to_string(machine.state()).unwrap();
            let back: ScanState = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(&back, machine.state());
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }

        #[test]
        fn scan_interrupted_after_k_rounds_resumes_bit_identical(k in 0u64..300) {
            // Run the scan for (up to) k rounds, "crash" keeping only the
            // serialized checkpoint, rebuild a fresh device fast-forwarded
            // past the executed rounds, and finish.
            let mut machine = ScanMachine::new(ParborConfig::default());
            let mut module = spec(Vendor::B, 77).build().unwrap();
            while machine.rounds_done() < k && !machine.is_done() {
                let budget = (k - machine.rounds_done()) as usize;
                machine.advance(&mut module, budget).unwrap();
            }
            let json = serde_json::to_string(machine.state()).unwrap();
            drop(machine);
            drop(module);

            let state: ScanState = serde_json::from_str(&json).unwrap();
            let mut resumed = ScanMachine::from_state(state);
            let mut module = spec(Vendor::B, 77).build().unwrap();
            module.fast_forward(resumed.rounds_done());
            let profile = resumed.run_to_completion(&mut module).unwrap();
            prop_assert_eq!(profile, clean_profile());
        }
    }
}

// ---------------------------------------------------------------------------
// HAL transcript invariants (the parbor-hal contract): wrapping a backend in
// a RecordingPort never changes what the pipeline observes, and replaying
// the transcript reproduces the run bit for bit — including the bytes the
// fleet store persists.
// ---------------------------------------------------------------------------

mod hal_transcripts {
    use super::*;
    use parbor_core::{FailureProfile, ScanMachine};
    use parbor_dram::{ChipGeometry, ModuleSpec};
    use parbor_fleet::{Fleet, FleetConfig, ScanJob};
    use parbor_hal::{RecordingPort, ReplayPort, TestPort};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn spec(vendor: Vendor, seed: u64) -> ModuleSpec {
        ModuleSpec {
            chips: 1,
            geometry: ChipGeometry::new(1, 48, 1024).unwrap(),
            seed,
            ..ModuleSpec::new(vendor)
        }
    }

    fn scan<P: TestPort + ?Sized>(port: &mut P) -> FailureProfile {
        let mut machine = ScanMachine::new(ParborConfig::default());
        machine.run_to_completion(port).unwrap().clone()
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("parbor-hal-prop-{}-{tag}-{n}", std::process::id()))
    }

    /// Every file under `root`, as sorted (relative path, contents) pairs.
    fn dir_snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
        fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, Vec<u8>)>) {
            for entry in std::fs::read_dir(dir).expect("read_dir") {
                let path = entry.expect("entry").path();
                if path.is_dir() {
                    walk(&path, root, out);
                } else {
                    let rel = path
                        .strip_prefix(root)
                        .expect("under root")
                        .to_string_lossy()
                        .into_owned();
                    out.push((rel, std::fs::read(&path).expect("read file")));
                }
            }
        }
        let mut out = Vec::new();
        walk(root, root, &mut out);
        out.sort();
        out
    }

    proptest! {
        #[test]
        fn recording_is_transparent_and_replay_is_bit_identical(
            vendor_idx in 0usize..3,
            seed in 1u64..5000,
        ) {
            let vendor = Vendor::ALL[vendor_idx];
            let bare = scan(&mut spec(vendor, seed).build().unwrap());

            let path = temp_path("transcript");
            let mut recording =
                RecordingPort::create(spec(vendor, seed).build().unwrap(), &path).unwrap();
            let recorded = scan(&mut recording);
            recording.finish().unwrap();
            prop_assert_eq!(&recorded, &bare);

            let mut replay = ReplayPort::open(&path).unwrap();
            let replayed = scan(&mut replay);
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(&replayed, &bare);
            // The fleet store persists the serialized profile, so byte
            // equality of that form is the contract, not just `==`.
            prop_assert_eq!(
                serde_json::to_string(&replayed).unwrap(),
                serde_json::to_string(&bare).unwrap()
            );
        }

        #[test]
        fn fleet_replay_reproduces_the_store_bytes(seed in 1u64..2000) {
            let transcripts = temp_path("fleet-tr");
            std::fs::create_dir_all(&transcripts).unwrap();
            let config = || FleetConfig {
                workers: 1,
                ..FleetConfig::default()
            };
            let jobs = || vec![ScanJob::new("j0", spec(Vendor::B, seed))];

            let rec_root = temp_path("fleet-rec");
            let rec_dir = transcripts.clone();
            let fleet = Fleet::new(&rec_root, config())
                .unwrap()
                .with_port_factory(Box::new(move |job| {
                    Ok(Box::new(RecordingPort::create(
                        job.module.build()?,
                        rec_dir.join(format!("{}.pbt", job.name)),
                    )?))
                }));
            let report = fleet.run(jobs()).unwrap();
            prop_assert_eq!(report.failed(), 0);

            let replay_root = temp_path("fleet-replay");
            let replay_dir = transcripts.clone();
            let fleet = Fleet::new(&replay_root, config())
                .unwrap()
                .with_port_factory(Box::new(move |job| {
                    Ok(Box::new(ReplayPort::open(
                        replay_dir.join(format!("{}.pbt", job.name)),
                    )?))
                }));
            let report = fleet.run(jobs()).unwrap();
            prop_assert_eq!(report.failed(), 0);

            let rec_store = dir_snapshot(&rec_root.join("store"));
            let replay_store = dir_snapshot(&replay_root.join("store"));
            for dir in [&transcripts, &rec_root, &replay_root] {
                std::fs::remove_dir_all(dir).ok();
            }
            prop_assert!(!rec_store.is_empty(), "recorded store is empty");
            prop_assert_eq!(rec_store, replay_store);
        }
    }
}

// ---------------------------------------------------------------------------
// Round-engine and transcript invariants over a module whose `inject=`
// stack flips different bits every round, so a misattributed round or a
// mispacked flip cannot hide behind an empty flip list.
// ---------------------------------------------------------------------------

mod injected_rounds {
    use super::*;
    use parbor_dram::{ChipGeometry, DramModule, ModuleConfig, RowId};
    use parbor_hal::{
        Flip, MechanismSpec, ParallelMode, RecordingPort, ReplayPort, RoundExecutor, RoundPlan,
        TestPort,
    };

    fn module(chips: usize) -> DramModule {
        ModuleConfig::new(Vendor::B)
            .geometry(ChipGeometry::new(1, 16, 1024).unwrap())
            .chips(chips)
            .seed(3)
            .mechanisms(MechanismSpec::parse_stack("inject=rate:1,seed:17").unwrap())
            .build()
            .unwrap()
    }

    fn plan(units: u32, i: u32) -> RoundPlan {
        let rows: Vec<RowId> = (0..4).map(|r| RowId::new(0, r)).collect();
        RoundPlan::broadcast(units, &rows, |row| {
            RowBits::from_fn(1024, |c| (c as u32 ^ row.row).is_multiple_of(i + 2))
        })
    }

    #[test]
    fn batch_results_preserve_plan_order() {
        // Threaded chips in one batch against one serial round at a time.
        let mut batched = module(2);
        batched.set_parallel_mode(ParallelMode::Always);
        let batch = RoundExecutor::new(&mut batched)
            .run_batch(vec![plan(2, 1), plan(2, 2)])
            .unwrap();
        let mut serial = module(2);
        serial.set_parallel_mode(ParallelMode::Never);
        let mut exec = RoundExecutor::new(&mut serial);
        let one = exec.run(plan(2, 1)).unwrap();
        let two = exec.run(plan(2, 2)).unwrap();
        assert!(!one.is_empty());
        assert_eq!(batch, vec![one, two]);
    }

    #[test]
    fn replay_preserves_flips_exactly() {
        let path = std::env::temp_dir().join(format!(
            "parbor-prop-{}-injected-flips.pbt",
            std::process::id()
        ));
        let mut rec = RecordingPort::create(module(2), &path).unwrap();
        let live: Vec<Vec<Flip>> = (0..6)
            .map(|i| rec.run_round(plan(2, i).into_writes()).unwrap())
            .collect();
        rec.finish().unwrap();
        assert!(live.iter().all(|f| !f.is_empty()), "flips were injected");

        let mut replay = ReplayPort::open(&path).unwrap();
        for (i, expected) in live.iter().enumerate() {
            assert_eq!(&replay.rounds()[i].flips, expected);
            assert_eq!(
                &replay.run_round(plan(2, i as u32).into_writes()).unwrap(),
                expected
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
