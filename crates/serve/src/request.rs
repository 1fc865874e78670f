//! Typed request/response schema of the profile-query service.
//!
//! Three request kinds cover the online PARBOR surface:
//!
//! - [`Request::ContentCheck`] — DC-REF's hot-path question: *does this
//!   row's current content hit a worst-case coupling pattern?* Content
//!   travels as `Arc<RowBits>`, so enqueueing is a refcount bump, not a
//!   copy; the answer lists the failing system columns in an
//!   arena-pooled buffer.
//! - [`Request::RescanQuery`] — the scheduler's question: *which of your
//!   modules need a fresh scan?* (no stored profile, or enough hot
//!   content checks accumulated since load).
//! - [`Request::StoreStats`] — an observability probe returning the
//!   worker's live counters and latency histogram.
//!
//! Requests ride in [`Envelope`]s carrying a client-assigned id and the
//! *scheduled* arrival time. Latency is measured from that schedule, not
//! from dequeue, so open-loop runs report coordinated-omission-correct
//! numbers: a request delayed in a backed-up queue is charged its full
//! wait.

use std::sync::Arc;
use std::time::Instant;

use parbor_dram::{RowBits, RowId};

use crate::worker::WorkerStats;

/// A query to the service. See the module docs for the three kinds.
#[derive(Debug, Clone)]
pub enum Request {
    /// Is `content` (the row's current data) a worst-case coupling
    /// pattern for `(module, unit, row)`?
    ContentCheck {
        /// Module index in the serving snapshot.
        module: u32,
        /// Chip (unit) index within the module.
        unit: u32,
        /// Row address within the unit.
        row: RowId,
        /// The row's current content; shared, never copied per request.
        content: Arc<RowBits>,
    },
    /// Which of the answering worker's modules need rescanning?
    RescanQuery,
    /// Snapshot the answering worker's counters and latency histogram.
    StoreStats,
}

/// A request in flight: id, scheduled arrival, payload.
#[derive(Debug)]
pub struct Envelope {
    /// Client-assigned correlation id (unique per connection).
    pub id: u64,
    /// Scheduled arrival time; `Some` makes the worker record latency
    /// from this instant (open-loop measurement), `None` skips latency
    /// accounting (closed-loop saturation).
    pub due: Option<Instant>,
    /// The query itself.
    pub req: Request,
}

/// A worker's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to a [`Request::ContentCheck`].
    ContentCheck {
        /// Whether the row has a compiled stencil in the snapshot.
        /// Untracked rows answer cold with no failing entries.
        tracked: bool,
        /// Whether at least one coupling pattern matched (the row is
        /// "hot": its content is worst-case for some cell).
        hot: bool,
        /// Indices of the failing entries of the row's fault map,
        /// ascending, as [`StencilSnapshot::eval_into`] reports them; they
        /// are positions in the map, not column numbers. The buffer is
        /// pooled: return it via `Connection::recycle` to keep the hot path
        /// allocation-free.
        ///
        /// [`StencilSnapshot::eval_into`]: parbor_core::StencilSnapshot::eval_into
        fails: Vec<u32>,
    },
    /// Answer to a [`Request::RescanQuery`].
    Rescan {
        /// Modules (owned by the answering worker) that want a rescan.
        /// Pooled buffer; recycle like `fails`.
        stale_modules: Vec<u32>,
    },
    /// Answer to a [`Request::StoreStats`].
    Stats(Box<WorkerStats>),
}

/// A response with its correlation id and measured latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The [`Envelope::id`] this answers.
    pub id: u64,
    /// Worker index that served the request (used to recycle pooled
    /// buffers into the right arena).
    pub worker: u32,
    /// Nanoseconds from scheduled arrival to completion; `0` when the
    /// envelope carried no schedule.
    pub latency_ns: u64,
    /// The answer.
    pub response: Response,
}
