//! `store`: one thread sends a mixed stream to one profile store — puts of
//! new modules interleaved with gets of modules already written, with a
//! periodic `aggregate()` and `compact()` in the same loop. The stream runs
//! in epochs of a fixed number of puts, each into a fresh store, so every
//! epoch does the same work whatever the run length.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use parbor_core::{FailingCell, FailureProfile};
use parbor_dram::Vendor;
use parbor_store::ProfileStore;

use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::{setup_s, timed_setup, Outcome, RunConfig, Scale, SETUPS_BEFORE};

/// Stream shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Distinct profiles the puts draw from.
    pool: usize,
    /// Puts per epoch.
    puts: usize,
    /// Gets after each put.
    gets_per_put: usize,
    /// Puts between aggregates.
    aggregate_every: usize,
    /// Puts between compactions.
    compact_every: usize,
    /// Failing cells of a large profile.
    large: (u64, u64),
    /// Failing cells of a small profile.
    small: (u64, u64),
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            pool: 64,
            puts: 256,
            gets_per_put: 4,
            aggregate_every: 64,
            compact_every: 128,
            large: (7_000, 43_000),
            small: (16, 600),
        },
        Scale::Tiny => Shape {
            pool: 8,
            puts: 32,
            gets_per_put: 4,
            aggregate_every: 8,
            compact_every: 16,
            large: (500, 3_000),
            small: (4, 60),
        },
    }
}

/// The `detect` paper geometry as `(chips, rows)`, 8 Ki columns per row.
pub const PAPER_GEOMETRY: (u32, u32) = (8, 128);

/// A synthetic profile of `cells` failing cells on a module of
/// `(chips, rows)` × 8 Ki columns.
pub fn synth_profile(
    rng: &mut Rng,
    vendor: Vendor,
    cells: u64,
    (chips, rows): (u32, u32),
) -> FailureProfile {
    let mut failures: Vec<FailingCell> = (0..cells)
        .map(|_| FailingCell {
            unit: rng.below(u64::from(chips)) as u32,
            bank: 0,
            row: rng.below(u64::from(rows)) as u32,
            col: rng.below(8192) as u32,
            value: rng.below(2) == 1,
        })
        .collect();
    failures.sort();
    failures.dedup_by(|a, b| (a.unit, a.bank, a.row, a.col) == (b.unit, b.bank, b.row, b.col));
    let distances = vendor.paper_distances().to_vec();
    FailureProfile {
        victim_count: 200 + rng.below(800) as usize,
        discovery_rounds: 10,
        tests_per_level: vec![2, 8, 8, 24, 24 * (distances.len() / 2)],
        recursion_tests: 42 + 24 * (distances.len() / 2),
        distances,
        chipwide_rounds: 16 + rng.below(8) as usize,
        failures,
    }
}

/// `n` sizes stratified over `[lo, hi)`: one uniform draw inside each of
/// `n` equal strata, so every seed gets the same size distribution.
pub fn stratified(rng: &mut Rng, n: usize, (lo, hi): (u64, u64)) -> Vec<u64> {
    let width = (hi - lo) as f64 / n as f64;
    (0..n)
        .map(|k| lo + (width * (k as f64 + rng.unit())) as u64)
        .collect()
}

/// Failing-cell counts of `n` profiles on the paper geometry: every fourth
/// (from the first) is small, the rest span the counts `detect` produces
/// on that geometry; each class is stratified.
pub fn profile_sizes(rng: &mut Rng, n: usize, scale: Scale) -> Vec<u64> {
    let shape = shape(scale);
    let n_small = n.div_ceil(4);
    let small = stratified(rng, n_small, shape.small);
    let large = stratified(rng, n - n_small, shape.large);
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                small[i / 4]
            } else {
                large[i - i / 4 - 1]
            }
        })
        .collect()
}

/// The seeded profile pool, sized by [`profile_sizes`].
fn pool(seed: u64, scale: Scale) -> Vec<(Vendor, FailureProfile)> {
    let mut rng = Rng::new(seed ^ 0x5709_E000);
    let sizes = profile_sizes(&mut rng, shape(scale).pool, scale);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &cells)| {
            let vendor = [Vendor::A, Vendor::B, Vendor::C][i % 3];
            (
                vendor,
                synth_profile(&mut rng, vendor, cells, PAPER_GEOMETRY),
            )
        })
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// Everything one phase measured.
#[derive(Debug, Default)]
struct Measured {
    stream_s: f64,
    /// Puts per second of each epoch's stream.
    epoch_rates: Vec<f64>,
    puts: Vec<f64>,
    gets_l0: Vec<f64>,
    gets_gen: Vec<f64>,
    aggregates: Vec<f64>,
    compacts: Vec<f64>,
    compacted_records: u64,
    put_bytes: u64,
    compact_bytes: u64,
    final_bytes: u64,
    final_modules: u64,
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// One epoch: a fresh store, `shape.puts` puts with gets, aggregates and
/// compactions interleaved, then the ledger check.
#[allow(clippy::too_many_arguments)]
fn epoch(
    dir: &Path,
    epoch_no: usize,
    shape: Shape,
    pool: &[(Vendor, FailureProfile)],
    rng: &mut Rng,
    tracer: &mut Tracer,
    m: &mut Measured,
    out: &mut Outcome,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ProfileStore::open(dir).map_err(|e| format!("store open: {e}"))?;
    let mut written: Vec<(String, usize)> = Vec::with_capacity(shape.puts);
    // Puts walk seeded permutations of the pool, so each epoch writes the
    // same multiset of profiles.
    let order: Vec<usize> = (0..shape.puts.div_ceil(pool.len()))
        .flat_map(|_| permutation(rng, pool.len()))
        .collect();
    let start = Instant::now();
    for (p, &which) in order.iter().enumerate().take(shape.puts) {
        let (vendor, profile) = &pool[which];
        let name = format!("{vendor}{epoch_no}x{p}");
        let t0 = Instant::now();
        tracer.enter("store.put", p as u64);
        let put = store.put(&name, profile);
        tracer.exit();
        m.puts.push(us(t0));
        match put {
            Ok(meta) => {
                m.put_bytes += meta.bytes;
                written.push((name, which));
                out.op(true, String::new);
            }
            Err(e) => out.op(false, || format!("put {name}: {e}")),
        }
        for _ in 0..shape.gets_per_put {
            if written.is_empty() {
                break;
            }
            let (name, which) = &written[rng.below(written.len() as u64) as usize];
            let in_l0 = matches!(store.meta(name), Ok(Some(meta)) if meta.file.starts_with("L0-"));
            let t0 = Instant::now();
            tracer.enter("store.get", p as u64);
            let got = store.get(name);
            tracer.exit();
            let took = us(t0);
            if in_l0 {
                m.gets_l0.push(took);
            } else {
                m.gets_gen.push(took);
            }
            out.op(
                matches!(&got, Ok(s) if s.complete && !s.recovered && s.profile == pool[*which].1),
                || format!("get {name}: not the profile that was put ({:?})", got.err()),
            );
        }
        if (p + 1) % shape.aggregate_every == 0 {
            let t0 = Instant::now();
            tracer.enter("store.aggregate", p as u64);
            let agg = store.aggregate();
            tracer.exit();
            m.aggregates.push(us(t0));
            out.op(matches!(&agg, Ok(a) if a.modules == written.len()), || {
                format!(
                    "aggregate after {} puts: {:?}",
                    p + 1,
                    agg.map(|a| a.modules)
                )
            });
        }
        if (p + 1) % shape.compact_every == 0 {
            let t0 = Instant::now();
            tracer.enter("store.compact", p as u64);
            let report = store.compact();
            tracer.exit();
            m.compacts.push(us(t0));
            match report {
                Ok(r) => {
                    m.compacted_records += r.input_records as u64;
                    m.compact_bytes += r.output_bytes;
                    out.op(r.output_records == written.len() && r.dropped == 0, || {
                        format!(
                            "compact after {} puts wrote {} records",
                            p + 1,
                            r.output_records
                        )
                    });
                }
                Err(e) => out.op(false, || format!("compact: {e}")),
            }
        }
    }
    let stream_s = start.elapsed().as_secs_f64();
    m.stream_s += stream_s;
    m.epoch_rates.push(shape.puts as f64 / stream_s);
    match store.stats() {
        Ok(s) => {
            out.op(s.ledger_balanced && s.modules == written.len(), || {
                format!(
                    "epoch {epoch_no}: ledger balanced {} with {} of {} modules",
                    s.ledger_balanced,
                    s.modules,
                    written.len()
                )
            });
            m.final_bytes += s.segment_bytes;
            m.final_modules += s.modules as u64;
        }
        Err(e) => out.op(false, || format!("stats: {e}")),
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn phase(
    dir: &Path,
    shape: Shape,
    pool: &[(Vendor, FailureProfile)],
    seed: u64,
    budget_s: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut rng = Rng::new(seed ^ 0x5EED_57A7);
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < budget_s {
        epoch(dir, n, shape, pool, &mut rng, tracer, &mut m, out)?;
        n += 1;
    }
    Ok(m)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Runs the `store` workload.
///
/// # Errors
///
/// Store open failures.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = shape(cfg.scale);
    let pool = pool(cfg.seed, cfg.scale);
    let dir: PathBuf = cfg.out_dir.join("store-stream");
    let warm_dir = cfg.out_dir.join("store-setup");
    let set_up = || warm_up(&warm_dir, &pool);
    let (setups, ()) = timed_setup(SETUPS_BEFORE, set_up)?;

    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut quiet = Tracer::new(false);
    let m = phase(&dir, shape, &pool, cfg.seed, budget, &mut quiet, &mut out)?;
    let mut gets: Vec<f64> = m.gets_l0.iter().chain(&m.gets_gen).copied().collect();
    gets.sort_by(f64::total_cmp);
    let tail = stats::tail(&gets);
    let puts_per_s = stats::median(&m.epoch_rates);
    out.e2e.insert("work_per_s", puts_per_s);
    out.e2e.insert("op_us_p50", stats::quantile(&gets, 0.5));
    out.e2e.insert("op_us_tail", tail.value);
    out.notes.push(format!(
        "store: {} puts, {} gets, {} aggregates, {} compactions in {} epochs, {:.2} s; median epoch {puts_per_s:.1} puts/s; get p50 {:.1} us, tail {:.1} us ({tail})",
        m.puts.len(),
        gets.len(),
        m.aggregates.len(),
        m.compacts.len(),
        m.epoch_rates.len(),
        m.stream_s,
        stats::quantile(&gets, 0.5),
        tail.value,
    ));

    if cfg.trace {
        let mut tracer = Tracer::new(true);
        let t = phase(
            &dir,
            shape,
            &pool,
            cfg.seed,
            cfg.seconds / 2.0,
            &mut tracer,
            &mut out,
        )?;
        let l = &mut out.layers;
        l.insert("store.put_us_p50", median_or_zero(&t.puts));
        l.insert("store.get_l0_us_p50", median_or_zero(&t.gets_l0));
        l.insert("store.get_gen_us_p50", median_or_zero(&t.gets_gen));
        l.insert("store.aggregate_ms", mean(&t.aggregates) / 1e3);
        l.insert("store.compact_ms", mean(&t.compacts) / 1e3);
        l.insert(
            "store.compact_records_per_s",
            t.compacted_records as f64 / (t.compacts.iter().sum::<f64>() / 1e6),
        );
        l.insert(
            "store.bytes_per_module",
            t.final_bytes as f64 / t.final_modules as f64,
        );
        l.insert(
            "store.write_amp",
            (t.put_bytes + t.compact_bytes) as f64 / t.put_bytes as f64,
        );
        let traced_rate = stats::median(&t.epoch_rates);
        l.insert(
            "trace.overhead_pct",
            100.0 * (puts_per_s / traced_rate - 1.0),
        );
        let mut spans: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, totals) in tracer.all_totals() {
            spans.insert(name, totals.total_ns as f64 / 1e9);
        }
        out.notes.push(format!(
            "store ledger: seconds per layer call {spans:?} over a {:.2} s stream",
            t.stream_s
        ));
        let path = cfg.out_dir.join("trace-store.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.e2e.insert("setup_s", setup_s(&setups, set_up)?);
    Ok(out)
}

/// Set-up: open a fresh store and load it the way an operator would
/// before serving traffic — sixteen profiles put and read back, one
/// aggregate, one compaction — paying first-use costs (directories, page
/// cache, allocator) before timing.
fn warm_up(dir: &Path, pool: &[(Vendor, FailureProfile)]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ProfileStore::open(dir).map_err(|e| format!("store open: {e}"))?;
    for (i, (vendor, profile)) in pool.iter().take(16).enumerate() {
        let name = format!("{vendor}warm{i}");
        store
            .put(&name, profile)
            .map_err(|e| format!("warm-up put: {e}"))?;
        store.get(&name).map_err(|e| format!("warm-up get: {e}"))?;
    }
    store
        .aggregate()
        .map_err(|e| format!("warm-up aggregate: {e}"))?;
    store
        .compact()
        .map_err(|e| format!("warm-up compact: {e}"))?;
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
