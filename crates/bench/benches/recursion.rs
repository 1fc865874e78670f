//! The recursive neighbor search (paper Table 1 / Fig 11) and its
//! ablations: per-vendor cost and the effect of the region fanout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use parbor_bench::bench_chip;
use parbor_core::{LevelPlan, Parbor, ParborConfig, RecursionConfig};
use parbor_dram::Vendor;

fn bench_recursion_per_vendor(c: &mut Criterion) {
    let mut group = c.benchmark_group("recursion");
    group.sample_size(10);
    for vendor in Vendor::ALL {
        // Discover victims once; benchmark only the recursion.
        let mut chip = bench_chip(vendor, 96, 5).expect("chip builds");
        let parbor = Parbor::new(ParborConfig::default());
        let victims = parbor.discover(&mut chip).expect("victims found");
        group.bench_function(BenchmarkId::from_parameter(vendor), |b| {
            b.iter(|| {
                parbor
                    .locate(&mut chip, &victims)
                    .expect("recursion converges")
                    .total_tests
            })
        });
    }
    group.finish();
}

fn bench_fanout_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: the paper divides kept regions into 8; compare
    // fanouts 4 and 8 (both reach region size 1 from 8192-bit rows).
    let mut group = c.benchmark_group("recursion_fanout");
    group.sample_size(10);
    let mut chip = bench_chip(Vendor::A, 96, 6).expect("chip builds");
    let parbor = Parbor::new(ParborConfig::default());
    let victims = parbor.discover(&mut chip).expect("victims found");
    for fanout in [4usize, 8] {
        let plan = LevelPlan::with_fanout(8192, 2, fanout).expect("plan valid");
        let fanned = Parbor::new(ParborConfig {
            recursion: RecursionConfig {
                plan: Some(plan),
                ..RecursionConfig::default()
            },
            ..ParborConfig::default()
        });
        group.bench_function(BenchmarkId::from_parameter(fanout), |b| {
            b.iter(|| {
                fanned
                    .locate(&mut chip, &victims)
                    .expect("recursion converges")
                    .total_tests
            })
        });
    }
    group.finish();
}

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_discovery_96rows");
    group.sample_size(10);
    group.bench_function("vendor_c", |b| {
        let mut chip = bench_chip(Vendor::C, 96, 7).expect("chip builds");
        let parbor = Parbor::new(ParborConfig::default());
        b.iter(|| parbor.discover(&mut chip).expect("discovery runs").len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_recursion_per_vendor,
    bench_fanout_ablation,
    bench_discovery
);
criterion_main!(benches);
