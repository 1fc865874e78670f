//! Fault-map and coupling-kernel hot paths: the sparse Bernoulli sampler vs.
//! the reference per-stream sampler, the compiled word-parallel coupling
//! stencil vs. the scalar entry walk, and the `RowBits` word-level primitives
//! they all lean on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use parbor_dram::{
    CouplingStencil, PatternKind, RetentionModel, RowBits, RowFaultMap, RowId, Vendor,
};

const COLS: usize = 8192;
const SEED: u64 = 7;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_map_build_sparse_vs_reference");
    group.throughput(Throughput::Elements(COLS as u64));
    let retention = RetentionModel::default();
    for vendor in Vendor::ALL {
        let scrambler = vendor.scrambler(COLS);
        let rates = vendor.default_rates();
        let mut row = 0u32;
        group.bench_function(BenchmarkId::new("sparse", vendor), |b| {
            b.iter(|| {
                row = row.wrapping_add(1) & 0xfff;
                RowFaultMap::build(
                    SEED,
                    RowId::new(0, row),
                    scrambler.as_ref(),
                    &rates,
                    &retention,
                )
                .len()
            })
        });
        let mut row = 0u32;
        group.bench_function(BenchmarkId::new("reference", vendor), |b| {
            b.iter(|| {
                row = row.wrapping_add(1) & 0xfff;
                RowFaultMap::build_reference(
                    SEED,
                    RowId::new(0, row),
                    scrambler.as_ref(),
                    &rates,
                    &retention,
                )
                .len()
            })
        });
    }
    group.finish();
}

fn eval_fixture(vendor: Vendor) -> (Vec<(RowFaultMap, CouplingStencil)>, Vec<RowBits>) {
    let scrambler = vendor.scrambler(COLS);
    let rates = vendor.default_rates();
    let retention = RetentionModel::default();
    let rows: Vec<_> = (0..32)
        .map(|r| {
            let map = RowFaultMap::build(
                SEED,
                RowId::new(0, r),
                scrambler.as_ref(),
                &rates,
                &retention,
            );
            let stencil = CouplingStencil::compile(&map, 0.0);
            (map, stencil)
        })
        .collect();
    let images: Vec<_> = (0..32)
        .map(|r| PatternKind::Random { seed: u64::from(r) }.row_bits(r, COLS))
        .collect();
    (rows, images)
}

fn bench_coupling_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupling_eval_stencil_vs_scalar");
    group.throughput(Throughput::Elements(32 * COLS as u64));
    for vendor in Vendor::ALL {
        let (rows, images) = eval_fixture(vendor);
        group.bench_function(BenchmarkId::new("stencil", vendor), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for ((_, stencil), data) in rows.iter().zip(&images) {
                    acc += stencil.eval(black_box(data)).len();
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("scalar", vendor), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for ((map, _), data) in rows.iter().zip(&images) {
                    acc += map.coupling_fail_indices(black_box(data), 0.0).len();
                }
                acc
            })
        });
    }
    group.finish();
}

fn bench_stencil_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("stencil_compile");
    for vendor in Vendor::ALL {
        let scrambler = vendor.scrambler(COLS);
        let map = RowFaultMap::build(
            SEED,
            RowId::new(0, 5),
            scrambler.as_ref(),
            &vendor.default_rates(),
            &RetentionModel::default(),
        );
        group.throughput(Throughput::Elements(map.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(vendor), &map, |b, map| {
            b.iter(|| CouplingStencil::compile(black_box(map), 0.0).lanes())
        });
    }
    group.finish();
}

fn bench_rowbits_words(c: &mut Criterion) {
    let mut group = c.benchmark_group("rowbits_word_ops");
    group.throughput(Throughput::Elements(COLS as u64));
    let a = PatternKind::Random { seed: 11 }.row_bits(0, COLS);
    let mut b2 = a.clone();
    for i in (0..COLS).step_by(97) {
        b2.flip(i);
    }
    group.bench_function("iter", |b| {
        b.iter(|| black_box(&a).iter().filter(|&v| v).count())
    });
    group.bench_function("count_ones", |b| b.iter(|| black_box(&a).count_ones()));
    group.bench_function("diff_indices", |b| {
        b.iter(|| black_box(&a).diff_indices(black_box(&b2)).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_coupling_eval,
    bench_stencil_compile,
    bench_rowbits_words
);
criterion_main!(benches);
