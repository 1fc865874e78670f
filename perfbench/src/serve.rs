//! `serve`: DC-REF content checks against the inline query server, from
//! one thread. A seeded store is generated untimed; set-up is store open +
//! snapshot compile + server start. Then an open-loop Poisson phase at a
//! fixed rate, timed from each request's scheduled send, and a closed-loop
//! phase with a fixed number of requests in flight.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parbor_dram::{CouplingStencil, DramModule, ModuleSpec, RowBits, RowId, Vendor};
use parbor_obs::RecorderHandle;
use parbor_serve::{
    Connection, InlineServer, Reply, Request, Response, SendOutcome, ServeConfig, ServeReport,
    ServeSnapshot,
};
use parbor_store::ProfileStore;

use crate::rng::Rng;
use crate::stats;
use crate::store::{permutation, profile_sizes, synth_profile, PAPER_GEOMETRY};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig, Scale};

/// Request and reply ring capacity: a scheduler stall of several
/// milliseconds at the open-loop rate must not overflow the rings.
const QUEUE_CAPACITY: usize = 1 << 14;

/// Open-loop arrival rate, requests per second: fixed, and about 15 % of
/// the single-thread saturation rate (client and server share the thread),
/// so that a few percent of host speed does not turn into queueing.
pub const OPEN_LOOP_RATE: f64 = 200_000.0;

#[derive(Debug, Clone, Copy)]
struct Shape {
    stored: usize,
    missing: usize,
    chips: u32,
    rows: u32,
    images: usize,
    targets: usize,
    requests: usize,
    rate: f64,
    in_flight: usize,
}

/// Stored profiles take the `store` workload's failing-cell counts (one in
/// four small, the rest 7 k–43 k, the range `detect` produces on the paper
/// geometry), so a large profile tracks nearly every row and the snapshot
/// compiles a stencil for each.
fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            stored: 8,
            missing: 2,
            chips: PAPER_GEOMETRY.0,
            rows: PAPER_GEOMETRY.1,
            images: 256,
            targets: 4096,
            requests: 1 << 16,
            rate: OPEN_LOOP_RATE,
            in_flight: 64,
        },
        Scale::Tiny => Shape {
            stored: 3,
            missing: 1,
            chips: 2,
            rows: 64,
            images: 32,
            targets: 256,
            requests: 4096,
            rate: 100_000.0,
            in_flight: 16,
        },
    }
}

/// One pre-generated request.
#[derive(Debug, Clone, Copy)]
enum Req {
    Check {
        module: u32,
        unit: u32,
        row: RowId,
        image: u32,
    },
    Rescan,
}

/// Generated inputs: the modules, the seeded store, images and requests.
struct Inputs {
    modules: Vec<DramModule>,
    missing: Vec<u32>,
    images: Vec<Arc<RowBits>>,
    requests: Vec<Req>,
}

fn generate(seed: u64, scale: Scale, store_dir: &Path) -> Result<Inputs, String> {
    let shape = shape(scale);
    let mut rng = Rng::new(seed ^ 0x5E77_E000);
    let total = shape.stored + shape.missing;
    let mut modules = Vec::with_capacity(total);
    for i in 0..total {
        let mut spec = ModuleSpec::new([Vendor::A, Vendor::B, Vendor::C][i % 3]);
        spec.geometry =
            parbor_dram::ChipGeometry::new(1, shape.rows, 8192).expect("nonzero geometry");
        spec.chips = shape.chips as usize;
        spec.seed = rng.next_u64();
        spec.module_id = i as u32;
        modules.push(
            spec.build()
                .map_err(|e| format!("serve module build: {e}"))?,
        );
    }
    // Missing modules are spread through the index, so both workers' shares
    // and every vendor see some.
    let missing: Vec<u32> = (0..shape.missing)
        .map(|k| (k * total / shape.missing + 1) as u32)
        .collect();
    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = ProfileStore::open(store_dir).map_err(|e| format!("store open: {e}"))?;
    // Requests address an equal number of tracked rows per stored module,
    // few enough that the stencils they touch stay in cache: the checks
    // measure stencil evaluation and dispatch, not memory bandwidth, and
    // every seed weighs the vendors alike.
    let per_module = shape.targets / shape.stored;
    let mut tracked: Vec<(u32, u32, RowId)> = Vec::new();
    let sizes = profile_sizes(&mut rng, shape.stored, scale);
    let order = permutation(&mut rng, shape.stored);
    let stored = (0..modules.len() as u32).filter(|i| !missing.contains(i));
    for (k, i) in stored.enumerate() {
        let module = &modules[i as usize];
        let cells = sizes[order[k]];
        let profile = synth_profile(&mut rng, module.vendor(), cells, (shape.chips, shape.rows));
        let mut rows: Vec<(u32, RowId)> = profile
            .failures
            .iter()
            .map(|c| (c.unit, RowId::new(c.bank, c.row)))
            .collect();
        rows.dedup();
        tracked.extend((0..per_module).map(|_| {
            let (u, r) = rows[rng.below(rows.len() as u64) as usize];
            (i, u, r)
        }));
        store
            .put(&module.name(), &profile)
            .map_err(|e| format!("serve store put: {e}"))?;
    }
    let images = (0..shape.images)
        .map(|i| {
            let kind = i % 8;
            let w = rng.next_u64();
            Arc::new(RowBits::from_word_fn(8192, |k| match kind {
                0 => 0,
                1 => u64::MAX,
                2 => 0xAAAA_AAAA_AAAA_AAAA,
                3 => w.rotate_left(k as u32),
                _ => {
                    let mut r = Rng::new(w ^ k as u64);
                    r.next_u64()
                }
            }))
        })
        .collect();
    let requests = (0..shape.requests)
        .map(|_| {
            if rng.below(64) == 0 {
                return Req::Rescan;
            }
            let image = rng.below(shape.images as u64) as u32;
            if rng.below(8) == 0 || tracked.is_empty() {
                let module = missing[rng.below(missing.len() as u64) as usize];
                Req::Check {
                    module,
                    unit: rng.below(u64::from(shape.chips)) as u32,
                    row: RowId::new(0, rng.below(u64::from(shape.rows)) as u32),
                    image,
                }
            } else {
                let (module, unit, row) = tracked[rng.below(tracked.len() as u64) as usize];
                Req::Check {
                    module,
                    unit,
                    row,
                    image,
                }
            }
        })
        .collect();
    Ok(Inputs {
        modules,
        missing,
        images,
        requests,
    })
}

/// Set-up timings.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    open_s: f64,
    compile_s: f64,
    total_s: f64,
}

fn setup(modules: &[DramModule], store_dir: &Path) -> Result<(SetupTimes, InlineServer), String> {
    let t0 = Instant::now();
    let store = ProfileStore::open(store_dir).map_err(|e| format!("store open: {e}"))?;
    let t1 = Instant::now();
    let snapshot = ServeSnapshot::compile_with_store(modules, &store)
        .map_err(|e| format!("snapshot compile: {e}"))?;
    let t2 = Instant::now();
    let server = InlineServer::start(
        snapshot,
        ServeConfig {
            workers: 1,
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        },
        RecorderHandle::null(),
    );
    Ok((
        SetupTimes {
            open_s: (t1 - t0).as_secs_f64(),
            compile_s: (t2 - t1).as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
        },
        server,
    ))
}

/// Send-outcome ledger of one connection.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    offered: u64,
    accepted: u64,
    dropped: u64,
    busy: u64,
    answered: u64,
    checks: u64,
    hot: u64,
}

impl Ledger {
    fn add(&mut self, o: &Ledger) {
        self.offered += o.offered;
        self.accepted += o.accepted;
        self.dropped += o.dropped;
        self.busy += o.busy;
        self.answered += o.answered;
        self.checks += o.checks;
        self.hot += o.hot;
    }
}

/// Client state shared by both phases: the in-flight request table and the
/// sample of answers kept for the bit-identity check.
struct Client<'a> {
    inputs: &'a Inputs,
    conn: Connection,
    /// `(request index, due)` by reply id modulo the table size.
    inflight: Vec<(u32, Option<Instant>)>,
    samples: Vec<(u32, bool, Vec<u32>)>,
    ledger: Ledger,
}

/// Every this many content-check answers, one is kept for the bit-identity
/// check against a direct stencil evaluation.
const SAMPLE_EVERY: u64 = 509;

const INFLIGHT_SLOTS: usize = 1 << 15;

impl<'a> Client<'a> {
    fn send(&mut self, idx: usize, due: Option<Instant>, tracer: &mut Tracer) -> SendOutcome {
        let req = self.inputs.requests[idx];
        let id = self.ledger.accepted;
        self.ledger.offered += 1;
        tracer.enter("serve.send", id);
        let outcome = match req {
            Req::Check {
                module,
                unit,
                row,
                image,
            } => self.conn.send_content_check(
                module,
                unit,
                row,
                &self.inputs.images[image as usize],
                due,
            ),
            Req::Rescan => self.conn.send_to(0, Request::RescanQuery, due),
        };
        tracer.exit();
        match outcome {
            SendOutcome::Sent => {
                self.inflight[id as usize % INFLIGHT_SLOTS] = (idx as u32, due);
                self.ledger.accepted += 1;
            }
            SendOutcome::Dropped => self.ledger.dropped += 1,
            SendOutcome::Busy => self.ledger.busy += 1,
        }
        outcome
    }

    /// Receives every ready reply; returns client-side latencies (ns) of
    /// replies that carried a schedule.
    fn recv_all(&mut self, tracer: &mut Tracer, latencies: &mut Vec<u32>, out: &mut Outcome) {
        loop {
            tracer.enter("serve.recv", self.ledger.answered);
            let reply = self.conn.try_recv();
            tracer.exit();
            let Some(reply) = reply else { break };
            let (idx, due) = self.inflight[reply.id as usize % INFLIGHT_SLOTS];
            if let Some(due) = due {
                latencies.push(due.elapsed().as_nanos().min(u128::from(u32::MAX - 1)) as u32);
            }
            self.ledger.answered += 1;
            self.check(idx, &reply, out);
            self.conn.recycle(reply);
        }
    }

    fn check(&mut self, idx: u32, reply: &Reply, out: &mut Outcome) {
        match (&reply.response, self.inputs.requests[idx as usize]) {
            (
                Response::ContentCheck {
                    tracked,
                    hot,
                    fails,
                },
                Req::Check { .. },
            ) => {
                self.ledger.checks += 1;
                if *hot {
                    self.ledger.hot += 1;
                }
                if self.ledger.checks.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push((idx, *tracked, fails.clone()));
                }
                out.op(*hot != fails.is_empty(), || {
                    format!("request {idx}: hot flag disagrees with failing columns")
                });
            }
            (Response::Rescan { stale_modules }, Req::Rescan) => {
                // One worker owns every module, so every unprofiled module
                // must be flagged.
                let ok = self
                    .inputs
                    .missing
                    .iter()
                    .all(|m| stale_modules.contains(m));
                out.op(ok, || format!("rescan {idx} omits an unprofiled module"));
            }
            _ => out.op(false, || format!("request {idx}: reply of the wrong kind")),
        }
    }
}

/// Open loop: Poisson arrivals at `rate`, each timed from its scheduled
/// send. A refused send stays due and is retried; a request never accepted
/// counts as missing every latency limit.
fn open_loop(
    server: &mut InlineServer,
    client: &mut Client<'_>,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> OpenLoop {
    let mut latencies = Vec::with_capacity((rate * seconds * 1.05) as usize);
    let mean_gap_ns = 1e9 / rate;
    let end_ns = seconds * 1e9;
    let start = Instant::now();
    let mut due_ns = rng.exp(mean_gap_ns);
    let mut next = rng.below(client.inputs.requests.len() as u64) as usize;
    let mut scheduled = 0u64;
    let mut lag_ns = 0.0;
    let pump_before = tracer.totals("serve.pump").total_ns;
    while due_ns < end_ns {
        let now_ns = start.elapsed().as_nanos() as f64;
        if now_ns > 2.0 * end_ns {
            // Hopelessly behind: the rest of the schedule misses.
            while due_ns < end_ns {
                latencies.push(u32::MAX);
                scheduled += 1;
                due_ns += rng.exp(mean_gap_ns);
            }
            break;
        }
        while due_ns <= now_ns && due_ns < end_ns {
            let due = start + Duration::from_nanos(due_ns as u64);
            match client.send(next, Some(due), tracer) {
                SendOutcome::Busy => break,
                outcome => {
                    if outcome == SendOutcome::Dropped {
                        latencies.push(u32::MAX);
                    }
                    scheduled += 1;
                    lag_ns += now_ns - due_ns;
                    next = (next + 1) % client.inputs.requests.len();
                    due_ns += rng.exp(mean_gap_ns);
                }
            }
        }
        tracer.enter("serve.pump", scheduled);
        server.pump();
        tracer.exit();
        client.recv_all(tracer, &mut latencies, out);
    }
    while client.conn.outstanding() > 0 {
        server.pump();
        client.recv_all(tracer, &mut latencies, out);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let pump_ns = tracer.totals("serve.pump").total_ns - pump_before;
    OpenLoop {
        latencies,
        scheduled,
        lag_us: lag_ns / scheduled.max(1) as f64 / 1e3,
        busy_ratio: pump_ns as f64 / (wall_s * 1e9),
    }
}

struct OpenLoop {
    latencies: Vec<u32>,
    scheduled: u64,
    lag_us: f64,
    busy_ratio: f64,
}

/// Closed loop: keep `in_flight` requests outstanding; returns content
/// checks answered per second, and the requests the server served.
fn closed_loop(
    server: &mut InlineServer,
    client: &mut Client<'_>,
    in_flight: usize,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (f64, u64) {
    let mut sink = Vec::new();
    let mut next = 0usize;
    let mut served = 0u64;
    let checks_before = client.ledger.checks;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        while client.conn.outstanding() < in_flight {
            if client.send(next, None, tracer) != SendOutcome::Sent {
                break;
            }
            next = (next + 1) % client.inputs.requests.len();
        }
        tracer.enter("serve.pump", served);
        served += server.pump() as u64;
        tracer.exit();
        client.recv_all(tracer, &mut sink, out);
    }
    while client.conn.outstanding() > 0 {
        served += server.pump() as u64;
        client.recv_all(tracer, &mut sink, out);
    }
    let rate = (client.ledger.checks - checks_before) as f64 / start.elapsed().as_secs_f64();
    (rate, served)
}

/// Measurement rounds, each on a freshly compiled snapshot and server, so
/// one allocation layout or one burst of interference from other processes
/// does not decide the result: every reported figure is the median over
/// rounds, set-up included.
const ROUNDS: usize = 16;

/// What one untraced round measured.
struct Round {
    checks_per_s: f64,
    p50_us: f64,
    tail: stats::Tail,
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// Input generation or set-up failures.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let shape = shape(cfg.scale);
    let store_dir = cfg.out_dir.join("serve-store");
    let inputs = generate(cfg.seed, cfg.scale, &store_dir)?;
    // With tracing, the first half of the rounds runs untraced.
    let traced_from = if cfg.trace { ROUNDS / 2 } else { ROUNDS };
    let slice_s = cfg.seconds / ROUNDS as f64 / 2.0;
    let mut rng = Rng::new(cfg.seed ^ 0xA771_7A15);
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);

    let mut setups = Vec::new();
    let mut latencies_us = Vec::new();
    let mut scheduled = 0;
    let (mut rounds, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut pump_ns, mut pumped, mut lag_us, mut busy) = (0, 0, Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut ledger = Ledger::default();
    let mut arena_hit = Vec::new();
    for round in 0..ROUNDS {
        let traced = round >= traced_from;
        let (times, mut server) = setup(&inputs.modules, &store_dir)?;
        setups.push(times);
        let mut client = Client {
            inputs: &inputs,
            conn: server.connect(),
            inflight: vec![(0, None); INFLIGHT_SLOTS],
            samples: Vec::new(),
            ledger: Ledger::default(),
        };
        let tr = if traced { &mut tracer } else { &mut quiet };
        let open = open_loop(
            &mut server,
            &mut client,
            &mut rng,
            shape.rate,
            slice_s,
            tr,
            &mut out,
        );
        let pump_before = tr.totals("serve.pump").total_ns;
        let (checks_per_s, served) = closed_loop(
            &mut server,
            &mut client,
            shape.in_flight,
            slice_s,
            tr,
            &mut out,
        );
        if traced {
            pump_ns += tr.totals("serve.pump").total_ns - pump_before;
            pumped += served;
            lag_us.push(open.lag_us);
            busy.push(open.busy_ratio);
            traced_rates.push(checks_per_s);
        } else {
            // A request that was dropped or never sent misses every limit:
            // it is charged the whole open-loop phase.
            let miss_us = slice_s * 1e6;
            let mut round_us: Vec<f64> = open
                .latencies
                .iter()
                .map(|&ns| {
                    if ns == u32::MAX {
                        miss_us
                    } else {
                        f64::from(ns) / 1e3
                    }
                })
                .collect();
            round_us.resize(round_us.len().max(open.scheduled as usize), miss_us);
            scheduled += open.scheduled;
            round_us.sort_by(f64::total_cmp);
            rounds.push(Round {
                checks_per_s,
                p50_us: stats::quantile(&round_us, 0.5),
                tail: stats::tail(&round_us),
            });
            latencies_us.append(&mut round_us);
        }
        samples.append(&mut client.samples);
        let round_ledger = client.ledger;
        drop(client);
        let report = server.shutdown();
        check_ledger(&round_ledger, &report, &mut out);
        ledger.add(&round_ledger);
        arena_hit.push(report.arena_hit_rate);
    }

    let median_of = |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let checks_per_s = median_of(|r| r.checks_per_s);
    let p50 = median_of(|r| r.p50_us);
    let tail = median_of(|r| r.tail.value);
    let setup_s = stats::median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("work_per_s", checks_per_s);
    out.e2e.insert("op_us_p50", p50);
    out.e2e.insert("op_us_tail", tail);
    out.notes.push(format!(
        "serve: {} rounds, medians over rounds; open loop {scheduled} requests at {:.0}/s, latency p50 {p50:.3} us, tail {tail:.3} us ({} per round); closed loop ({} in flight) {checks_per_s:.0} checks/s",
        rounds.len(),
        shape.rate,
        rounds[0].tail,
        shape.in_flight,
    ));
    out.notes.push(format!(
        "serve: per round checks/s / p50 us / tail us: {}",
        rounds
            .iter()
            .map(|r| format!("{:.0}/{:.3}/{:.3}", r.checks_per_s, r.p50_us, r.tail.value))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    latencies_us.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "serve: pooled open-loop latency percentiles (us) p50/75/90/95/99/99.9: {:?}",
        [0.5, 0.75, 0.9, 0.95, 0.99, 0.999].map(|q| stats::quantile(&latencies_us, q))
    ));

    if cfg.trace {
        let l = &mut out.layers;
        let per = |t: crate::trace::Totals| t.total_ns as f64 / t.count.max(1) as f64;
        l.insert(
            "serve.pump_us_per_check",
            pump_ns as f64 / pumped.max(1) as f64 / 1e3,
        );
        l.insert("serve.pump_busy_ratio", stats::median(&busy));
        l.insert("serve.send_ns", per(tracer.totals("serve.send")));
        l.insert("serve.recv_ns", per(tracer.totals("serve.recv")));
        l.insert("serve.generator_lag_us", stats::median(&lag_us));
        l.insert(
            "trace.overhead_pct",
            100.0 * (checks_per_s / stats::median(&traced_rates) - 1.0),
        );
        let median_ms = |f: fn(&SetupTimes) -> f64| {
            stats::median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3
        };
        l.insert("store.open_ms", median_ms(|t| t.open_s));
        l.insert("serve.snapshot_compile_ms", median_ms(|t| t.compile_s));
        l.insert("dram.stencil_eval_ns", stencil_eval_ns(&inputs));
        l.insert(
            "serve.drop_ratio",
            ledger.dropped as f64 / ledger.offered as f64,
        );
        l.insert(
            "serve.busy_ratio",
            ledger.busy as f64 / ledger.offered as f64,
        );
        l.insert("serve.hot_ratio", ledger.hot as f64 / ledger.checks as f64);
        l.insert("serve.arena_hit_ratio", stats::median(&arena_hit));
        let path = cfg.out_dir.join("trace-serve.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    verify_samples(&inputs, &samples, &mut out);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(out)
}

fn check_ledger(ledger: &Ledger, report: &ServeReport, out: &mut Outcome) {
    out.op(
        ledger.offered == ledger.accepted + ledger.dropped + ledger.busy,
        || format!("offered {} != accepted + dropped + busy", ledger.offered),
    );
    out.op(
        ledger.accepted == ledger.answered && report.answered == ledger.accepted,
        || {
            format!(
                "accepted {} != answered {} (server says {})",
                ledger.accepted, ledger.answered, report.answered
            )
        },
    );
    out.op(report.dropped == ledger.dropped, || {
        format!(
            "server dropped {} but client saw {}",
            report.dropped, ledger.dropped
        )
    });
}

/// Each sampled answer must equal a direct stencil evaluation (or be
/// empty and untracked for rows the store does not profile).
fn verify_samples(inputs: &Inputs, samples: &[(u32, bool, Vec<u32>)], out: &mut Outcome) {
    let mut compiled: BTreeMap<(u32, u32, RowId), CouplingStencil> = BTreeMap::new();
    for (idx, tracked, fails) in samples {
        let Req::Check {
            module,
            unit,
            row,
            image,
        } = inputs.requests[*idx as usize]
        else {
            continue;
        };
        let missing = inputs.missing.contains(&module);
        let ok = if missing {
            !tracked && fails.is_empty()
        } else {
            let stencil = compiled.entry((module, unit, row)).or_insert_with(|| {
                inputs.modules[module as usize].chips()[unit as usize].compile_stencil(row)
            });
            *tracked && *fails == stencil.eval(&inputs.images[image as usize])
        };
        out.op(ok, || {
            format!("request {idx}: answer differs from a direct stencil eval")
        });
    }
}

/// Direct `CouplingStencil::eval` on the request stream's tracked targets
/// and images: the stencil layer's share of a content check.
fn stencil_eval_ns(inputs: &Inputs) -> f64 {
    let mut compiled: BTreeMap<(u32, u32, RowId), CouplingStencil> = BTreeMap::new();
    let mut work = Vec::new();
    for req in &inputs.requests {
        if let Req::Check {
            module,
            unit,
            row,
            image,
        } = *req
        {
            if inputs.missing.contains(&module) {
                continue;
            }
            if compiled.len() >= 512 && !compiled.contains_key(&(module, unit, row)) {
                continue;
            }
            compiled.entry((module, unit, row)).or_insert_with(|| {
                inputs.modules[module as usize].chips()[unit as usize].compile_stencil(row)
            });
            work.push(((module, unit, row), image));
        }
    }
    let stencils: Vec<(&CouplingStencil, &RowBits)> = work
        .iter()
        .map(|(key, image)| (&compiled[key], &*inputs.images[*image as usize]))
        .collect();
    let mut buf = Vec::new();
    let mut evals = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.2 {
        for (stencil, image) in &stencils {
            stencil.eval_into(std::hint::black_box(image), &mut buf);
            std::hint::black_box(&buf);
        }
        evals += stencils.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / evals.max(1) as f64
}
