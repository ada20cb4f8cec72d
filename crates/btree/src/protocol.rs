//! The latching protocols, named: the vocabulary every CLI, report and
//! comparison row uses. Each name is one row of the descent engine's
//! policy table (see [`crate::descent`]); the prose below says what that
//! row means.

use std::fmt;
use std::str::FromStr;

/// The latching protocols. Every one is the same B+-tree
/// ([`ConcurrentBTree`](crate::ConcurrentBTree)) latched differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Naive Lock-coupling (Bayer–Schkolnick). Readers crab down with
    /// shared latches (child latched before the parent is released).
    /// Updaters crab with exclusive latches and release the retained
    /// ancestor chain as soon as a newly latched child is *safe* (cannot
    /// split for inserts / cannot empty for deletes); restructuring then
    /// happens entirely under the retained chain.
    LockCoupling,
    /// Optimistic Descent (Bayer–Schkolnick). Updates gamble that the
    /// leaf will be safe: the first pass descends with shared latches
    /// and takes an exclusive latch only on the leaf, acquired while
    /// still holding the parent's shared latch. If the leaf turns out to
    /// be unsafe, everything is released and the operation redoes itself
    /// as a full exclusive descent — exactly the lock-coupling write
    /// path — counted as a restart.
    OptimisticDescent,
    /// Link-type / B-link (Lehman–Yao). Every node carries a high key
    /// and a right link. Operations hold **at most one latch at a
    /// time**: a descent latches a node, decides, releases, then latches
    /// the next. A node observed without a latch may have split in the
    /// meantime, so whenever a latched node does not cover the search
    /// key the operation chases `right` until one does. Splits are
    /// half-splits: the new sibling becomes reachable via the link
    /// *before* its separator is posted in the parent, under the
    /// parent's own (single) latch. Emptied leaves are never reclaimed.
    BLink,
    /// Optimistic Lock Coupling, the LeanStore/ART-style refinement the
    /// ROADMAP names as the fourth protocol. Readers take **no latches
    /// at all**: every node visit is a seqlock read window against the
    /// node lock's packed version counter — snapshot the version, read
    /// unlatched, validate — and moving to a child is hand-over-hand in
    /// versions (the parent is re-validated after the child's window
    /// closes). A failed validation restarts from the deepest still-valid
    /// ancestor; a node that no longer covers the key is recovered from
    /// by chasing right links. Because slots of vacuumed leaves are
    /// reused, every optimistic acceptance also re-checks the handle's
    /// slot generation after the validated window. Writers latch exactly
    /// as in lock-coupling, so every structural change bumps the version
    /// of each node it touches. Against the 1990 algorithms this drives
    /// the reader latch demand to zero, paying a small restart
    /// probability instead.
    Olc,
    /// Strict Two-Phase latching over the whole path, the straw-man
    /// baseline: every descent — reads included — retains *all* of its
    /// latches until the operation completes, so every operation holds
    /// the root's latch for its whole duration.
    TwoPhase,
    /// The §6/§7 recovery application, naive variant: lock-coupling
    /// whose every exclusive latch still held at operation end (the
    /// retained unsafe chain) stays held until
    /// [`txn_commit`](crate::ConcurrentBTree::txn_commit). Callers
    /// perform `k` operations, then commit; with `k = 1` this is plain
    /// lock-coupling plus commit bookkeeping. A thread holding retained
    /// latches never blocks: it probes, and spills (early-commits) its
    /// latches when a probe fails (see [`crate::descent`]).
    RecoveryNaive,
    /// The §6/§7 recovery application, leaf-only variant: only the
    /// leaf's exclusive latch is retained to commit; restructuring
    /// latches release at operation end (undo of a structure change is
    /// handled separately, e.g. by logging, so only the data page stays
    /// locked).
    RecoveryLeaf,
}

impl Protocol {
    /// The paper's three protocols, in its presentation order.
    pub const ALL: [Protocol; 3] = [
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
    ];

    /// The paper's protocols plus the Two-Phase baseline.
    pub const ALL_WITH_BASELINE: [Protocol; 4] = [
        Protocol::TwoPhase,
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
    ];

    /// Every protocol, recovery variants included.
    pub const ALL_WITH_RECOVERY: [Protocol; 7] = [
        Protocol::TwoPhase,
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
        Protocol::Olc,
        Protocol::RecoveryNaive,
        Protocol::RecoveryLeaf,
    ];

    /// Short display name used in benchmark tables. Round-trips through
    /// [`Protocol::from_str`].
    pub fn name(self) -> &'static str {
        match self {
            Protocol::LockCoupling => "lock-coupling",
            Protocol::OptimisticDescent => "optimistic",
            Protocol::BLink => "b-link",
            Protocol::Olc => "olc",
            Protocol::TwoPhase => "two-phase",
            Protocol::RecoveryNaive => "recovery-naive",
            Protocol::RecoveryLeaf => "recovery-leaf",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Protocol {
    type Err = String;

    /// Parses a protocol name; accepts the canonical [`Protocol::name`]
    /// spellings plus the historical CLI aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lock-coupling" | "coupling" | "naive" => Ok(Protocol::LockCoupling),
            "optimistic" => Ok(Protocol::OptimisticDescent),
            "b-link" | "blink" | "link" => Ok(Protocol::BLink),
            "olc" | "optimistic-lock-coupling" => Ok(Protocol::Olc),
            "two-phase" | "twophase" => Ok(Protocol::TwoPhase),
            "recovery-naive" => Ok(Protocol::RecoveryNaive),
            "recovery-leaf" => Ok(Protocol::RecoveryLeaf),
            other => Err(format!(
                "unknown protocol {other:?} (expected one of: {})",
                Protocol::ALL_WITH_RECOVERY.map(|p| p.name()).join(", ")
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Protocol::ALL_WITH_RECOVERY
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn names_round_trip_through_fromstr_and_display() {
        for p in Protocol::ALL_WITH_RECOVERY {
            assert_eq!(p.name().parse::<Protocol>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        // Historical CLI aliases keep working.
        assert_eq!("blink".parse::<Protocol>(), Ok(Protocol::BLink));
        assert_eq!("link".parse::<Protocol>(), Ok(Protocol::BLink));
        assert_eq!("coupling".parse::<Protocol>(), Ok(Protocol::LockCoupling));
        assert_eq!("naive".parse::<Protocol>(), Ok(Protocol::LockCoupling));
        assert_eq!("twophase".parse::<Protocol>(), Ok(Protocol::TwoPhase));
        assert!("nope".parse::<Protocol>().is_err());
    }
}
