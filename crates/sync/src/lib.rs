//! `cbtree-sync`: a dependency-free FCFS reader/writer lock with
//! built-in observability.
//!
//! This crate is the synchronization substrate of the *live execution*
//! pillar. It provides [`FcfsRwLock`], a reader/writer lock whose queue
//! discipline matches the paper's Appendix queueing model and the
//! discrete-event simulator's `LockTable`:
//!
//! - requests are served **first-come-first-served** from a single
//!   arrival-order queue (no reader overtaking, no writer preference);
//! - when the lock frees up, the **maximal compatible prefix** of the
//!   queue is admitted — a single writer, or a burst of consecutive
//!   readers granted together;
//! - **uncontended acquire and release are each one CAS** on a packed
//!   `AtomicU64` holding `(writer, queue-nonempty, reader count)`; the
//!   lock detours through its ticketed `Mutex`+`Condvar` queue only
//!   while someone is actually waiting, so the FCFS discipline above is
//!   preserved bit for bit whenever it matters;
//! - the lock keeps no counters: it reports every grant (with the time a
//!   queued request waited) and every timed hold to a [`LockSink`] its
//!   owner chooses. A standalone lock reports to its own [`LockStats`]
//!   — relaxed-atomic counters and log₂-bucketed wait histograms — so a
//!   measurement harness can read its waiting times, hold times and
//!   writer utilization `ρ_w` without perturbing the hot path; a lock
//!   built with the empty sink `()` holds no statistics at all, and its
//!   owner (the B-tree, per level) passes a sink to each acquisition.
//!   `LockStats` timing can be 1-in-N sampled ([`SamplePeriod`]) with
//!   counts kept exact and sampled durations scaled so the derived
//!   estimators stay unbiased;
//! - holds are timed with [`Stamp`], a raw time-stamp-counter reading,
//!   summed in ticks and converted to nanoseconds only when a snapshot
//!   is built;
//! - [`prefetch`] requests a value's cache lines ahead of its use, so
//!   the B-tree asks for a node's lines before it latches the node.
//!
//! All `unsafe` in the workspace's locking layer is confined to this
//! crate (the `UnsafeCell` data access behind the guards, the counter
//! read behind [`Stamp`] and the prefetch hint); the B-tree crate itself
//! stays `#![deny(unsafe_code)]`.
//!
//! The lock's acquire and release paths carry the injection points of
//! [`inject`] — seeded schedule-perturbation fault injection used by the
//! `cbtree-check` concurrency-correctness pillar to explore many more
//! interleavings per stress run and to replay a failing seed's decision
//! stream. They cost one relaxed load each until an injector is enabled.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod fcfs;
mod histogram;
pub mod inject;
mod prefetch;
mod stamp;
mod stats;

pub use fcfs::{FcfsRwLock, RwLockReadGuard, RwLockWriteGuard, UnownedWriteGuard};
pub use histogram::{Histogram, HistogramSnapshot};
pub use inject::{InjectConfig, InjectStats};
pub use prefetch::prefetch;
pub use stamp::Stamp;
pub use stats::{LockSink, LockStats, LockStatsSnapshot, SamplePeriod};
