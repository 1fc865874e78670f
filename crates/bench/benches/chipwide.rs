//! Neighbor-aware chip-wide testing: schedule construction per separation
//! order (the worst-case-purity ablation) and full test execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use parbor_bench::bench_chip;
use parbor_core::{ChipwideTest, Parbor, RoundSchedule};
use parbor_dram::Vendor;

fn bench_schedule_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_build_order");
    for order in [1u32, 2, 3, 4] {
        group.bench_function(BenchmarkId::from_parameter(order), |b| {
            b.iter(|| {
                RoundSchedule::with_order(Vendor::A.paper_distances(), 8192, order)
                    .expect("schedule builds")
                    .rounds_per_polarity()
            })
        });
    }
    group.finish();
}

fn bench_schedule_per_vendor(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_build_vendor");
    for vendor in Vendor::ALL {
        group.bench_function(BenchmarkId::from_parameter(vendor), |b| {
            b.iter(|| {
                RoundSchedule::build(vendor.paper_distances(), 8192)
                    .expect("schedule builds")
                    .rounds_per_polarity()
            })
        });
    }
    group.finish();
}

fn bench_chipwide_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("chipwide_run_64rows");
    group.sample_size(10);
    for vendor in Vendor::ALL {
        let mut chip = bench_chip(vendor, 64, 9).expect("chip builds");
        let test = ChipwideTest::new(vendor.paper_distances(), 8192).expect("test builds");
        let parbor = Parbor::default();
        group.bench_function(BenchmarkId::from_parameter(vendor), |b| {
            b.iter(|| {
                parbor
                    .chip_test_with(&mut chip, &test)
                    .expect("chip-wide test runs")
                    .failure_count()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_schedule_orders,
    bench_schedule_per_vendor,
    bench_chipwide_run
);
criterion_main!(benches);
