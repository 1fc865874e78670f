//! Observability layer for the PARBOR reproduction: named counters,
//! exact-percentile histograms, gauges, and timed spans, recorded through a
//! [`Recorder`] trait object carried by the pipeline, device, and simulator
//! runners.
//!
//! Two implementations ship with the crate:
//!
//! - [`NullRecorder`] — the default everywhere; every method is a no-op and
//!   [`Recorder::enabled`] returns `false` so instrumentation sites can skip
//!   work (formatting names, computing values) entirely.
//! - [`ShardedRecorder`] — the one recording implementation: per-thread
//!   shards with no shared lock on the record path.
//!
//! Everything a [`ShardedRecorder`] captured is read through one merged
//! [`ObsSnapshot`]: digest it as a [`RunSummary`], dump the span stream as
//! JSONL with [`ObsSnapshot::trace_jsonl`] (size-bounded via
//! [`ObsSnapshot::write_trace_rotating`]), read a trace back with
//! [`Trace::load`] — torn tails are salvaged, not fatal — and turn it into
//! a per-stage self/total [`Profile`] or [`folded_stacks`] flamegraph
//! input. Long-running orchestrators publish progress through the
//! [`FleetStatus`] surface. Histograms are log-linear with a bounded
//! per-bucket relative error (see [`hist`]), so `p50`/`p99`/`p999` come out
//! of every snapshot. Metric names live in the [`metrics`] registry.
//!
//! Instrumented code takes no direct dependency on any implementation: it
//! holds an `Arc<dyn Recorder>` (see [`RecorderHandle`]) defaulting to the
//! null recorder, so uninstrumented call sites keep compiling — and keep
//! their exact behavior, because the null recorder never observes anything.
//!
//! Spans nest through a parent stack maintained by the recorder:
//!
//! ```
//! use parbor_obs::{span, Recorder, ShardedRecorder};
//!
//! let rec = ShardedRecorder::new();
//! {
//!     let _run = span!(rec, "pipeline.run");
//!     {
//!         let _level = span!(rec, "recursion.level", 4096);
//!         rec.incr("recursion.tests", 2);
//!     }
//! }
//! let snap = rec.snapshot();
//! let spans = &snap.spans;
//! assert_eq!(spans.len(), 2);
//! assert_eq!(snap.counter("recursion.tests"), 2);
//! // The inner span closed first and points at its parent.
//! assert_eq!(spans[0].name, "recursion.level");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! ```

pub mod hist;
pub mod metrics;
mod profile;
mod recorder;
mod shard;
mod status;
mod summary;
pub mod trace;

pub use hist::HistogramSnapshot;
pub use profile::{folded_stacks, Profile, StageStat, Trace, TraceSpan};
pub use recorder::{
    null_recorder, AsRecorder, NullRecorder, Recorder, RecorderHandle, SpanGuard, SpanId,
    SpanRecord,
};
pub use shard::{ObsSnapshot, ShardedRecorder};
pub use status::FleetStatus;
pub use summary::{HistogramStat, PhaseTiming, RunSummary};

/// Opens a timed span on a recorder; the span closes when the returned
/// guard drops.
///
/// `span!(rec, "name")` opens a plain span; `span!(rec, "name", value)`
/// attaches a numeric payload (e.g. the region size of a recursion level).
/// `rec` may be a concrete recorder, a `&dyn Recorder`, or a
/// [`RecorderHandle`] (`Arc<dyn Recorder>`).
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $crate::SpanGuard::enter($crate::AsRecorder::as_dyn(&$rec), $name, None)
    };
    ($rec:expr, $name:expr, $value:expr) => {
        $crate::SpanGuard::enter(
            $crate::AsRecorder::as_dyn(&$rec),
            $name,
            Some($value as u64),
        )
    };
}
