//! Concurrency-correctness pillar for the concurrent B-tree study.
//!
//! The performance pillars (simulator, queueing model, live measurement)
//! are only meaningful if the trees they measure are *correct under
//! concurrency* — a protocol that loses keys is arbitrarily fast. This
//! crate supplies the evidence, three layers deep:
//!
//! 1. **History recording + linearizability** ([`history`],
//!    [`linearize`]): N threads drive a `ConcurrentBTree` while every
//!    invocation/response is timestamped by a global atomic clock; the
//!    recorded history is then checked against a sequential `BTreeMap`
//!    oracle with a Wing–Gong style search (bounded window and step
//!    budget, falling back to a sequential-consistency check, with a
//!    minimized violation witness on failure).
//! 2. **Structural auditors** ([`audit`](mod@audit)): at quiesce points, every
//!    level's right-link chain is replayed against the parent level's
//!    child pointers — catching lost separators and rewired links that
//!    pure child-pointer invariant checks cannot see — plus key
//!    ordering, fullness bounds, and tree/oracle content equality.
//! 3. **Schedule perturbation** (`cbtree_sync::inject`, on for as long
//!    as the guard `inject::enable` returns lives): the stress harness
//!    ([`stress`]) seeds deterministic yield/spin-delay decisions at
//!    latch acquire/release and inside the B-link half-split window, so
//!    rare interleavings are explored on purpose and a failing seed
//!    replays its decision stream exactly.
//!
//! The checker's teeth are measured on the real engine: each patch in
//! `crates/check/mutants/` plants one bug in the tree (a B-link reader
//! that skips the post-latch right-link chase, an OLC reader that skips
//! the parent re-validation, a latched reader that skips the slot
//! generation check, …) and names the check that must then fail;
//! `scripts/mutants.sh` applies each one to a temporary copy and fails
//! when a mutant survives. The `stress` binary sweeps protocol × seed ×
//! thread-count; CI runs its quick mode on every push.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod audit;
pub mod history;
pub mod linearize;
pub mod stress;

pub use audit::{audit, audit_with_contents, AuditReport};
pub use history::{record, Clock, History, Op, OpRecord};
pub use linearize::{check_history, CheckConfig, Verdict, ViolationWitness};
pub use stress::{run_stress, StressConfig, StressOutcome};
