//! `cbtree-obs`: the observability substrate of the workspace.
//!
//! Its pieces, all dependency-free:
//!
//! - [`trace`] — lock-free event tracing, switched on at run time:
//!   each thread appends compact binary events (latch
//!   request/grant/release with level and node id, op begin/end,
//!   optimistic restarts, right-link chases, split windows, transaction
//!   commit/spill) to its own fixed-capacity [`ring::Ring`]; a
//!   coordinator drains all rings at quiesce into one time-ordered
//!   [`Trace`]. Switched off, every emit function is one relaxed load
//!   and an untaken branch to an outlined cold body.
//! - [`level`] — [`LevelRecord`], one tree level's lock queue as every
//!   pillar (analysis, simulation, live, trace replay) reports it.
//! - [`stats`] — the Welford accumulator and the `{mean, ci95, n}`
//!   [`stats::Summary`] the simulator's and the live harness's reports
//!   share.
//! - [`replay`](mod@replay) — reconstructs per-level records, latch-chain depth, and
//!   restart/chase/split rates from a drained trace, closing the
//!   analysis/sim/live triangle with a fourth, directly measured column.
//! - [`json`] — a small hand-rolled JSON/JSONL serializer and parser
//!   for machine-readable run artifacts; exact integers, explicit
//!   rejection of NaN/Inf.
//! - [`table`] — the aligned-table/CSV writer shared by every CLI;
//!   report tables are projections of the JSON records a run writes.
//! - [`metrics`] — the *always-on* (never switched off) continuous
//!   metrics plane: relaxed-atomic counters/gauges and double-buffered
//!   windowed log₂ histograms a sampler thread harvests into
//!   per-window time-series records while workers keep recording.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod event;
pub mod json;
pub mod level;
pub mod metrics;
pub mod replay;
pub mod ring;
pub mod stats;
pub mod table;
pub mod trace;

pub use event::{opcode, Event, EventKind, MODE_EXCLUSIVE, OP_HIT};
pub use json::{parse_jsonl, read_jsonl, write_jsonl, Json, JsonError};
pub use level::LevelRecord;
pub use replay::{replay, BatchReplay, OpReplay, Replay};
pub use trace::Trace;

/// Version stamped into every JSONL artifact's `meta` record; bump on
/// any backward-incompatible record-shape change.
pub const SCHEMA_VERSION: u32 = 2;
