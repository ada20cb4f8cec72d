//! Real in-memory concurrent B+-trees implementing the three algorithms
//! of Johnson & Shasha (PODS 1990), usable as an ordinary concurrent
//! ordered map from `u64` keys to arbitrary values.
//!
//! There is one tree type, [`ConcurrentBTree`]: the same node
//! representation, the same split/merge machinery, latched by the
//! [`Protocol`] chosen at construction. The engine ([`descent`]) reads
//! the protocol's row of one policy table, [`Protocol::policy`] in
//! `cbtree-btree-model` — read latching, update latching, transaction
//! retention — which the simulator and the analytical model read too, so
//! protocols differ in data, not in code:
//!
//! * [`Protocol::LockCoupling`] — Naive Lock-coupling (Bayer–Schkolnick):
//!   readers crab with shared latches; updaters crab with exclusive
//!   latches, retaining the latch chain above any node that might
//!   restructure.
//! * [`Protocol::OptimisticDescent`] — Optimistic Descent: updates
//!   descend like readers and exclusively latch only the leaf; when the
//!   leaf is unsafe the operation restarts as a full exclusive descent.
//! * [`Protocol::BLink`] — the Link-type algorithm (Lehman–Yao): every
//!   node carries a high key and a right link; operations hold **at most
//!   one latch at a time** and recover from concurrent splits by chasing
//!   right links.
//! * [`Protocol::Olc`] — Optimistic Lock Coupling (the ROADMAP's fourth,
//!   post-1990 protocol): readers take **no latches at all**, instead
//!   validating each node's packed lock-word version counter
//!   hand-over-hand and restarting from the deepest still-valid
//!   ancestor on a mismatch; writers latch as in lock-coupling.
//! * [`Protocol::TwoPhase`] — the strict-2PL baseline the paper compares
//!   against.
//! * [`Protocol::RecoveryNaive`] / [`Protocol::RecoveryLeaf`] — the §6/§7
//!   recovery application: lock-coupling with exclusive latches retained
//!   (all of them, or the leaf's only) until an explicit transaction
//!   commit.
//!
//! All trees are merge-at-empty with lazy reclamation (a node that loses
//! its last key remains linked; §3.2 of the paper argues merge-at-empty
//! is the right policy for concurrent B-trees, and with insert-dominated
//! mixes empties are rare). Every tree counts latch acquisitions per
//! level, optimistic restarts, right-link chases, and peak latch-chain
//! depth into an [`OpCountersSnapshot`] the measurement harness surfaces
//! next to the lock-utilisation statistics, which the tree also keeps
//! per level ([`ConcurrentBTree::level_stats`]); node locks hold none.
//!
//! # Example
//!
//! ```
//! use cbtree_btree::{ConcurrentBTree, Protocol};
//!
//! let tree = ConcurrentBTree::new(Protocol::BLink, 64);
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         let tree = &tree;
//!         s.spawn(move || {
//!             for i in 0..1000u64 {
//!                 tree.insert(t * 1000 + i, format!("v{i}"));
//!             }
//!         });
//!     }
//! });
//! assert_eq!(tree.len(), 4000);
//! assert_eq!(tree.get(&2999).as_deref(), Some("v999"));
//!
//! // The protocol is a value: pick it at run time.
//! let algo: Protocol = "lock-coupling".parse().unwrap();
//! let other = ConcurrentBTree::new(algo, 32);
//! other.insert(1, 10u64);
//! assert_eq!(other.get(&1), Some(10));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arena;
pub mod batch;
pub mod counters;
pub mod descent;
pub mod map;
pub mod node;
pub mod olc;

pub use arena::{Arena, NodeId, NodeRef};
pub use batch::{BatchOp, BatchOutcome, BatchScratch, BatchSummary};
pub use cbtree_btree_model::Protocol;
pub use counters::OpCountersSnapshot;
pub use descent::ConcurrentBTree;
pub use map::ConcurrentMap;
pub use olc::OlcValue;
