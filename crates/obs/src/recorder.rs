//! The [`Recorder`] trait, the handle instrumented code carries, and the
//! null recorder it defaults to.

use std::sync::{Arc, OnceLock};

/// Identifier of an open span. `0` means "no span" (the null recorder).
pub type SpanId = u64;

/// Sink for metrics and spans emitted by instrumented code.
///
/// All methods take `&self`; implementations are internally synchronized so
/// a recorder can be shared across the pipeline, device, and simulator via
/// an `Arc` ([`RecorderHandle`]).
pub trait Recorder: Send + Sync {
    /// Whether this recorder observes anything. Instrumentation sites may
    /// skip computing expensive values when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named monotonic counter.
    fn incr(&self, name: &str, delta: u64);

    /// Records one observation into the named log-linear histogram (see
    /// [`crate::hist`] for the bucket scheme).
    fn observe(&self, name: &str, value: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: i64);

    /// Opens a span; the currently open span (if any) becomes its parent.
    /// Prefer the [`span!`](crate::span) macro, whose guard closes the span
    /// on scope exit.
    fn span_enter(&self, name: &str, value: Option<u64>) -> SpanId;

    /// Closes a span opened by [`Recorder::span_enter`].
    fn span_exit(&self, id: SpanId);
}

/// How instrumented structs carry their recorder: a cheap-to-clone handle
/// that derefs to `dyn Recorder` and defaults to the null recorder.
///
/// The handle implements `Debug`/`PartialEq`/`Eq` so it can ride inside
/// derive-heavy structs: equality always holds, because observability must
/// never affect a value's identity or behavior.
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl RecorderHandle {
    /// Wraps a recorder.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        RecorderHandle(rec)
    }

    /// The shared no-op handle (what [`Default`] returns).
    pub fn null() -> Self {
        null_recorder()
    }
}

impl<R: Recorder + 'static> From<Arc<R>> for RecorderHandle {
    fn from(rec: Arc<R>) -> Self {
        RecorderHandle(rec)
    }
}

impl From<Arc<dyn Recorder>> for RecorderHandle {
    fn from(rec: Arc<dyn Recorder>) -> Self {
        RecorderHandle(rec)
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        null_recorder()
    }
}

impl std::ops::Deref for RecorderHandle {
    type Target = dyn Recorder;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.0.enabled())
            .finish()
    }
}

impl PartialEq for RecorderHandle {
    fn eq(&self, _other: &Self) -> bool {
        true // recorders never contribute to a value's identity
    }
}

impl Eq for RecorderHandle {}

impl AsRecorder for RecorderHandle {
    fn as_dyn(&self) -> &dyn Recorder {
        &*self.0
    }
}

/// The shared no-op recorder instrumented structs default to.
pub fn null_recorder() -> RecorderHandle {
    static NULL: OnceLock<Arc<dyn Recorder>> = OnceLock::new();
    RecorderHandle(Arc::clone(NULL.get_or_init(|| Arc::new(NullRecorder))))
}

/// Converts recorder-ish values to `&dyn Recorder` (used by the
/// [`span!`](crate::span) macro so it accepts concrete recorders,
/// `&dyn Recorder`, and [`RecorderHandle`]s alike).
pub trait AsRecorder {
    /// The value as a trait object.
    fn as_dyn(&self) -> &dyn Recorder;
}

impl<R: Recorder> AsRecorder for R {
    fn as_dyn(&self) -> &dyn Recorder {
        self
    }
}

impl AsRecorder for Arc<dyn Recorder> {
    fn as_dyn(&self) -> &dyn Recorder {
        &**self
    }
}

impl AsRecorder for &dyn Recorder {
    fn as_dyn(&self) -> &dyn Recorder {
        *self
    }
}

/// Closes its span when dropped.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard<'a> {
    rec: &'a dyn Recorder,
    id: SpanId,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span (see the [`span!`](crate::span) macro).
    pub fn enter(rec: &'a dyn Recorder, name: &str, value: Option<u64>) -> Self {
        let id = rec.span_enter(name, value);
        SpanGuard { rec, id }
    }

    /// The span's id (0 under the null recorder).
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            self.rec.span_exit(self.id);
        }
    }
}

/// The zero-cost default: records nothing, reads no clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn incr(&self, _name: &str, _delta: u64) {}
    fn observe(&self, _name: &str, _value: u64) {}
    fn gauge(&self, _name: &str, _value: i64) {}
    fn span_enter(&self, _name: &str, _value: Option<u64>) -> SpanId {
        0
    }
    fn span_exit(&self, _id: SpanId) {}
}

/// One recorded span. `end_us == None` while the span is still open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (1-based, in open order).
    pub id: SpanId,
    /// Id of the span that was open when this one started.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `"recursion.level"`.
    pub name: String,
    /// Optional numeric payload (e.g. the level's region size).
    pub value: Option<u64>,
    /// Start time, microseconds since the recorder was created.
    pub start_us: u64,
    /// End time, microseconds since the recorder was created.
    pub end_us: Option<u64>,
}

impl SpanRecord {
    /// The span's duration in microseconds (0 while still open).
    pub fn duration_us(&self) -> u64 {
        self.end_us.map_or(0, |e| e.saturating_sub(self.start_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        rec.incr("a", 1);
        rec.observe("h", 1);
        rec.gauge("g", 1);
        let id = rec.span_enter("s", None);
        assert_eq!(id, 0);
        rec.span_exit(id);
    }
}
