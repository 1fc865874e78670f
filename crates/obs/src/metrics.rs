//! The canonical registry of every metric and span name the workspace
//! emits.
//!
//! Names are plain strings at the recording site, which makes a typo'd
//! metric silent: it records fine, dashboards just never see it. The
//! constants here are the single spelling authority — producers record
//! through them, consumers (`bench_report`, `fleet top`, tests) read
//! through them, and [`is_registered`] lets the registry test run the full
//! pipeline and reject any emitted name that is not declared below.
//!
//! Naming convention: `<subsystem>.<noun>` with `snake_case` nouns;
//! histograms of per-round quantities end in a plural (`round_flips`),
//! spans name the thing being timed (`pipeline.discover`).

/// Names recorded by the detection pipeline's stage spans
/// (`crates/parbor/src/pipeline.rs`).
pub mod pipeline {
    /// Span: one full detection run end to end.
    pub const RUN: &str = "pipeline.run";
    /// Span: the victim-discovery stage.
    pub const DISCOVER: &str = "pipeline.discover";
    /// Span: the recursive neighborhood-narrowing stage.
    pub const RECURSION: &str = "pipeline.recursion";
    /// Span: the chip-wide verification stage.
    pub const CHIPWIDE: &str = "pipeline.chipwide";
}

/// Names recorded during victim discovery.
pub mod discover {
    /// Counter: victim rows admitted to the working set.
    pub const VICTIMS: &str = "discover.victims";
    /// Counter: detection rounds executed while discovering.
    pub const ROUNDS: &str = "discover.rounds";
    /// Histogram: bit flips observed per discovery round.
    pub const ROUND_FLIPS: &str = "discover.round_flips";
}

/// Names recorded by the recursive narrowing stage.
pub mod recursion {
    /// Span: one recursion level; the payload is the region size.
    pub const LEVEL: &str = "recursion.level";
    /// Counter: neighborhood tests executed (the paper's Table 1 count).
    pub const TESTS: &str = "recursion.tests";
    /// Counter: candidate victims discarded as non-reproducing.
    pub const VICTIMS_DISCARDED: &str = "recursion.victims_discarded";
}

/// Names recorded while aggregating recursion results.
pub mod aggregate {
    /// Counter: coupling distances kept after ranking.
    pub const DISTANCES_KEPT: &str = "aggregate.distances_kept";
    /// Counter: coupling distances dropped by the ranking cut.
    pub const DISTANCES_DROPPED: &str = "aggregate.distances_dropped";
}

/// Names recorded by the chip-wide verification stage.
pub mod chipwide {
    /// Counter: detection rounds executed chip-wide.
    pub const ROUNDS: &str = "chipwide.rounds";
    /// Histogram: bit flips observed per chip-wide round.
    pub const ROUND_FLIPS: &str = "chipwide.round_flips";
    /// Counter: data-dependent failures confirmed.
    pub const FAILURES: &str = "chipwide.failures";
}

/// Names recorded by the simulated DRAM chip and module
/// (`crates/dram`).
pub mod dram {
    /// Counter: detection rounds applied to a chip.
    pub const ROUNDS: &str = "dram.rounds";
    /// Counter: row reads served.
    pub const ROW_READS: &str = "dram.row_reads";
    /// Counter: row writes served.
    pub const ROW_WRITES: &str = "dram.row_writes";
    /// Gauge: rows resident in the chip's evaluation cache. The cache was
    /// removed and nothing emits this name any more; it stays registered
    /// only because the benchmark still reads it.
    pub const EVAL_CACHE: &str = "dram.eval_cache";
    /// Counter: evaluation-cache hits. No longer emitted (the cache was
    /// removed); kept registered for the benchmark.
    pub const EVAL_CACHE_HITS: &str = "dram.eval_cache_hits";
    /// Counter: evaluation-cache misses. No longer emitted (the cache was
    /// removed); kept registered for the benchmark.
    pub const EVAL_CACHE_MISSES: &str = "dram.eval_cache_misses";
    /// Gauge: fault maps currently cached.
    pub const FAULT_MAP_CACHE: &str = "dram.fault_map_cache";
    /// Counter: fault maps built.
    pub const FAULT_MAPS_BUILT: &str = "dram.fault_maps_built";
    /// Counter: fault maps evicted from the cache.
    pub const FAULT_MAPS_EVICTED: &str = "dram.fault_maps_evicted";
    /// Counter: scrambler address translations performed through the trait
    /// path (arithmetic per call).
    pub const SCRAMBLER_TRANSLATIONS: &str = "dram.scrambler_translations";
    /// Counter: scrambler address translations served from a precomputed
    /// lookup table instead of the trait path.
    pub const SCRAMBLER_LUT_LOOKUPS: &str = "dram.scrambler_lut_lookups";
    /// Counter: port-level detection rounds (module fan-out).
    pub const PORT_ROUNDS: &str = "dram.port_rounds";
    /// Histogram: row writes per port-level round.
    pub const PORT_ROUND_WRITES: &str = "dram.port_round_writes";
    /// Histogram: bit flips per port-level round.
    pub const PORT_ROUND_FLIPS: &str = "dram.port_round_flips";
}

/// Names recorded by the `parbor efficacy` harness
/// (`crates/parbor/src/efficacy.rs`): per-cell detection quality of the
/// pipeline against each failure mechanism.
pub mod efficacy {
    /// Counter: truth cells the pipeline missed, summed over runs.
    pub const FALSE_NEGATIVES: &str = "efficacy.false_negatives";
    /// Counter: detected cells outside the mechanism truth set.
    pub const FALSE_POSITIVES: &str = "efficacy.false_positives";
    /// Counter: mechanism × vendor pipeline runs executed.
    pub const RUNS: &str = "efficacy.runs";
    /// Counter: truth cells the pipeline detected.
    pub const TRUE_POSITIVES: &str = "efficacy.true_positives";
}

/// Names recorded by the HAL round executor (`crates/hal`).
pub mod engine {
    /// Counter: rounds executed through the engine.
    pub const ROUNDS: &str = "engine.rounds";
    /// Counter: round-arena buffer requests served from the pool (each hit
    /// is one heap allocation avoided on the round hot path).
    pub const ARENA_HITS: &str = "engine.arena_hits";
    /// Counter: round-arena buffer requests that fell through to a fresh
    /// allocation (pool empty or still warming up).
    pub const ARENA_MISSES: &str = "engine.arena_misses";
    /// Counter: buffers returned to the round arena for reuse.
    pub const ARENA_RECYCLED: &str = "engine.arena_recycled";
    /// Histogram: row writes per engine round.
    pub const ROUND_WRITES: &str = "engine.round_writes";
    /// Histogram: bit flips per engine round.
    pub const ROUND_FLIPS: &str = "engine.round_flips";
    /// Histogram: rounds per submitted batch.
    pub const BATCH_ROUNDS: &str = "engine.batch_rounds";
}

/// Names recorded by the composable failure-mechanism layer — the chip's
/// extra-mechanism stack (`crates/dram`) and the mechanism-backed port
/// injector (`crates/hal/src/inject.rs`).
pub mod mech {
    /// Counter: mechanism flips merged into round results.
    pub const FLIPS: &str = "mech.flips";
    /// Counter: rounds evaluated against a non-empty mechanism stack.
    pub const ROUNDS: &str = "mech.rounds";
    /// Counter: mechanism flips dropped because the base model (or inner
    /// port) already flipped the same bit.
    pub const SUPPRESSED: &str = "mech.suppressed";
}

/// Names recorded by the memory-controller simulator (`crates/memsim`).
pub mod memsim {
    /// Counter: accesses that hit the open row.
    pub const ROW_HITS: &str = "memsim.row_hits";
    /// Counter: accesses that forced an activate.
    pub const ROW_MISSES: &str = "memsim.row_misses";
    /// Counter: refresh windows owed and issued.
    pub const REFRESH_WINDOWS: &str = "memsim.refresh_windows";
    /// Counter: DC-REF reclassifications of a weak row to the slow bin.
    pub const DCREF_FAST_TO_SLOW: &str = "memsim.dcref_fast_to_slow";
    /// Counter: DC-REF reclassifications of a weak row to the fast bin.
    pub const DCREF_SLOW_TO_FAST: &str = "memsim.dcref_slow_to_fast";
}

/// Names recorded by the figure-reproduction harness (`crates/repro`).
pub mod figure {
    /// Span: one paper-figure reproduction run.
    pub const RUN: &str = "figure.run";
}

/// Names recorded by the `parbor-fleet` scan orchestrator.
pub mod fleet {
    /// Counter: jobs accepted into the queue (excludes jobs already in the
    /// profile store).
    pub const JOBS_QUEUED: &str = "fleet.jobs_queued";
    /// Gauge: jobs currently executing on a worker.
    pub const JOBS_RUNNING: &str = "fleet.jobs_running";
    /// Counter: jobs that finished and landed a profile in the store.
    pub const JOBS_DONE: &str = "fleet.jobs_done";
    /// Counter: jobs that errored (no profile landed).
    pub const JOBS_FAILED: &str = "fleet.jobs_failed";
    /// Counter: checkpoint records appended to job journals.
    pub const CHECKPOINTS: &str = "fleet.checkpoints";
    /// Counter: bytes of checkpoint records written (framing included).
    pub const CHECKPOINT_BYTES: &str = "fleet.checkpoint_bytes";
    /// Counter: jobs resumed from a journal instead of started fresh.
    pub const RESUMES: &str = "fleet.resumes";
    /// Counter: recovery events — a journal tail or store segment failed
    /// its checksum and was rolled back to the last valid record.
    pub const RECOVERY: &str = "fleet.recovery";
    /// Span: one scan job from claim to completion.
    pub const JOB_SPAN: &str = "fleet.job";
    /// Histogram: wall-clock per completed job, microseconds (the source
    /// of `bench_report`'s fleet rates and `status.json`'s ETA).
    pub const JOB_US: &str = "fleet.job_us";
    /// Span: one campaign from first claim to final store flush.
    pub const CAMPAIGN_SPAN: &str = "fleet.campaign";
}

/// Names recorded by the `parbor-serve` profile-query service.
///
/// Workers count locally on the hot path (no recorder call per request)
/// and flush these once at shutdown, so a saturated server costs the
/// recorder a handful of calls per run, not one per query.
pub mod serve {
    /// Counter: requests answered (all types, across workers).
    pub const ANSWERED: &str = "serve.answered";
    /// Counter: worker-arena index buffers served from the pool. The
    /// hit/(hit+miss) ratio is the zero-allocation assertion in CI.
    pub const ARENA_HITS: &str = "serve.arena_hits";
    /// Counter: worker-arena index buffers that allocated fresh.
    pub const ARENA_MISSES: &str = "serve.arena_misses";
    /// Counter: worker-arena index buffers returned to the pool.
    pub const ARENA_RECYCLED: &str = "serve.arena_recycled";
    /// Counter: `ContentCheck` requests answered.
    pub const CONTENT_CHECKS: &str = "serve.content_checks";
    /// Counter: requests rejected at a full worker queue (accounted
    /// drops; offered = answered + dropped + still-queued).
    pub const DROPPED: &str = "serve.dropped";
    /// Counter: content checks whose row content matched a worst-case
    /// coupling pattern (at least one failing lane).
    pub const HOT_ROWS: &str = "serve.hot_rows";
    /// Gauge: p50 request latency in nanoseconds (merged workers).
    pub const LATENCY_P50_NS: &str = "serve.latency_p50_ns";
    /// Gauge: p99.9 request latency in nanoseconds (merged workers).
    pub const LATENCY_P999_NS: &str = "serve.latency_p999_ns";
    /// Gauge: p99 request latency in nanoseconds (merged workers).
    pub const LATENCY_P99_NS: &str = "serve.latency_p99_ns";
    /// Counter: `RescanQuery` requests answered.
    pub const RESCAN_QUERIES: &str = "serve.rescan_queries";
    /// Counter: responses dropped because the client vanished without
    /// draining its reply ring (zero under the documented in-flight cap).
    pub const RESP_DROPPED: &str = "serve.resp_dropped";
    /// Span: one server lifetime from first worker spawn to drain.
    pub const RUN: &str = "serve.run";
    /// Counter: `StoreStats` requests answered.
    pub const STORE_STATS: &str = "serve.store_stats";
    /// Gauge: workers serving at shutdown.
    pub const WORKERS: &str = "serve.workers";
}

/// Names recorded by the `parbor-store` columnar profile storage engine.
pub mod store {
    /// Counter: live records folded into streaming aggregation.
    pub const AGG_RECORDS: &str = "store.agg_records";
    /// Counter: segment files streamed during aggregation.
    pub const AGG_SEGMENTS: &str = "store.agg_segments";
    /// Span: one generational compaction end to end.
    pub const COMPACT_SPAN: &str = "store.compact";
    /// Counter: bytes written into compacted generations.
    pub const COMPACT_BYTES: &str = "store.compact_bytes";
    /// Counter: records written into compacted generations.
    pub const COMPACT_RECORDS: &str = "store.compact_records";
    /// Counter: compactions completed (the manifest swap landed and the
    /// index was rewritten).
    pub const COMPACTIONS: &str = "store.compactions";
    /// Counter: stale files collected — retired compaction inputs, orphan
    /// chunks from a crashed compaction, leftover temp files.
    pub const GC_FILES: &str = "store.gc_files";
    /// Counter: reads served from v1 JSONL segments awaiting migration.
    pub const LEGACY_READS: &str = "store.legacy_reads";
    /// Counter: bytes written through `put`/`stage` (magic and framing
    /// included).
    pub const PUT_BYTES: &str = "store.put_bytes";
    /// Counter: profiles written through `put`/`stage`.
    pub const PUTS: &str = "store.puts";
    /// Counter: profile reads served (columnar and legacy).
    pub const READS: &str = "store.reads";
    /// Counter: recovery events — a record needed salvage, a torn manifest
    /// was rebuilt from segments, or a crashed compaction was rolled
    /// forward.
    pub const RECOVERY: &str = "store.recovery";
}

/// Every registered name, in ASCII order (checked by a test) so
/// [`is_registered`] can binary-search and the slice doubles as
/// documentation.
pub const ALL: &[&str] = &[
    aggregate::DISTANCES_DROPPED,
    aggregate::DISTANCES_KEPT,
    chipwide::FAILURES,
    chipwide::ROUND_FLIPS,
    chipwide::ROUNDS,
    discover::ROUND_FLIPS,
    discover::ROUNDS,
    discover::VICTIMS,
    dram::EVAL_CACHE,
    dram::EVAL_CACHE_HITS,
    dram::EVAL_CACHE_MISSES,
    dram::FAULT_MAP_CACHE,
    dram::FAULT_MAPS_BUILT,
    dram::FAULT_MAPS_EVICTED,
    dram::PORT_ROUND_FLIPS,
    dram::PORT_ROUND_WRITES,
    dram::PORT_ROUNDS,
    dram::ROUNDS,
    dram::ROW_READS,
    dram::ROW_WRITES,
    dram::SCRAMBLER_LUT_LOOKUPS,
    dram::SCRAMBLER_TRANSLATIONS,
    efficacy::FALSE_NEGATIVES,
    efficacy::FALSE_POSITIVES,
    efficacy::RUNS,
    efficacy::TRUE_POSITIVES,
    engine::ARENA_HITS,
    engine::ARENA_MISSES,
    engine::ARENA_RECYCLED,
    engine::BATCH_ROUNDS,
    engine::ROUND_FLIPS,
    engine::ROUND_WRITES,
    engine::ROUNDS,
    figure::RUN,
    fleet::CAMPAIGN_SPAN,
    fleet::CHECKPOINT_BYTES,
    fleet::CHECKPOINTS,
    fleet::JOB_SPAN,
    fleet::JOB_US,
    fleet::JOBS_DONE,
    fleet::JOBS_FAILED,
    fleet::JOBS_QUEUED,
    fleet::JOBS_RUNNING,
    fleet::RECOVERY,
    fleet::RESUMES,
    mech::FLIPS,
    mech::ROUNDS,
    mech::SUPPRESSED,
    memsim::DCREF_FAST_TO_SLOW,
    memsim::DCREF_SLOW_TO_FAST,
    memsim::REFRESH_WINDOWS,
    memsim::ROW_HITS,
    memsim::ROW_MISSES,
    pipeline::CHIPWIDE,
    pipeline::DISCOVER,
    pipeline::RECURSION,
    pipeline::RUN,
    recursion::LEVEL,
    recursion::TESTS,
    recursion::VICTIMS_DISCARDED,
    serve::ANSWERED,
    serve::ARENA_HITS,
    serve::ARENA_MISSES,
    serve::ARENA_RECYCLED,
    serve::CONTENT_CHECKS,
    serve::DROPPED,
    serve::HOT_ROWS,
    serve::LATENCY_P50_NS,
    serve::LATENCY_P999_NS,
    serve::LATENCY_P99_NS,
    serve::RESCAN_QUERIES,
    serve::RESP_DROPPED,
    serve::RUN,
    serve::STORE_STATS,
    serve::WORKERS,
    store::AGG_RECORDS,
    store::AGG_SEGMENTS,
    store::COMPACT_SPAN,
    store::COMPACT_BYTES,
    store::COMPACT_RECORDS,
    store::COMPACTIONS,
    store::GC_FILES,
    store::LEGACY_READS,
    store::PUT_BYTES,
    store::PUTS,
    store::READS,
    store::RECOVERY,
];

/// Whether `name` is a registered metric or span name.
pub fn is_registered(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{:?} out of order", pair);
        }
    }

    #[test]
    fn lookup_finds_registered_names_only() {
        assert!(is_registered(pipeline::RUN));
        assert!(is_registered(fleet::JOB_US));
        assert!(is_registered(mech::FLIPS));
        assert!(is_registered(efficacy::TRUE_POSITIVES));
        assert!(!is_registered("pipeline.runn"));
        assert!(!is_registered("mech.flipss"));
        assert!(!is_registered(""));
    }

    #[test]
    fn names_follow_the_subsystem_dot_noun_convention() {
        for name in ALL {
            let (subsystem, noun) = name.split_once('.').expect("dot-separated");
            assert!(!subsystem.is_empty() && !noun.is_empty(), "bad name {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "bad characters in {name}"
            );
        }
    }
}
