//! The latching protocols, named, and their one policy table: the
//! vocabulary every pillar, CLI, report and comparison row uses.
//! [`Protocol::policy`] is the only place a protocol's latching is
//! decided. The live tree, the simulator and the analytical model read
//! its read and update columns ([`ReadPolicy`], [`UpdatePolicy`]); the
//! tree also reads its transaction-retention column, which the simulator
//! and the model take from their own recovery configuration instead.

use std::fmt;
use std::str::FromStr;

/// The latching protocols. Every one is the same B+-tree latched
/// differently.
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
    /// retained unsafe chain) stays held until the transaction commits.
    /// Callers perform `k` operations, then commit; with `k = 1` this is
    /// plain lock-coupling plus commit bookkeeping. A thread holding
    /// retained latches never blocks: it probes, and spills
    /// (early-commits) its latches when a probe fails.
    RecoveryNaive,
    /// The §6/§7 recovery application, leaf-only variant: only the
    /// leaf's exclusive latch is retained to commit; restructuring
    /// latches release at operation end (undo of a structure change is
    /// handled separately, e.g. by logging, so only the data page stays
    /// locked).
    RecoveryLeaf,
}

/// How exclusive latches interact with transaction recovery (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecoveryMode {
    /// The index is not covered by transactional recovery: W locks are
    /// released as soon as the structural operation completes.
    #[default]
    None,
    /// Naive recovery: *every* W lock an operation places is held until
    /// the surrounding transaction commits.
    Naive,
    /// Leaf-only recovery (Shasha '85): only leaf-level W locks are held
    /// until commit; non-leaf W locks are released as soon as possible.
    LeafOnly,
}

/// How a protocol latches read-only operations on the way down: the
/// policy table's read column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPolicy {
    /// Shared crabbing: the child is latched before the parent releases.
    Crab,
    /// Strict 2PL: every shared latch is retained until the operation
    /// completes.
    RetainAll,
    /// Lehman–Yao: at most one shared latch at a time; non-covering
    /// nodes are recovered from by chasing right links.
    Link,
    /// Optimistic lock coupling: readers take **no latches at all**.
    /// Each node visit snapshots the node's lock-word version counter,
    /// reads the node unlatched, and validates the version afterwards
    /// (hand-over-hand: the parent is re-validated after the child's
    /// read window closes). A failed validation restarts the descent
    /// from the deepest recorded ancestor whose version still holds;
    /// non-covering nodes are recovered from by chasing right links, as
    /// in [`ReadPolicy::Link`].
    Olc,
}

/// How a protocol latches updates: the policy table's update column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Exclusive crabbing to the leaf. With `retain_all: false` the
    /// retained ancestor chain is released whenever a newly latched
    /// child is *safe* (cannot split / cannot empty); with `retain_all:
    /// true` every latch is held to completion (the Two-Phase baseline).
    Crab {
        /// Never release ancestors (strict 2PL) instead of releasing
        /// above safe children.
        retain_all: bool,
    },
    /// First pass descends shared and exclusively latches only the leaf
    /// (acquired under the parent's shared latch); an unsafe leaf
    /// restarts the operation as an exclusive crab — counted as an
    /// optimistic *restart*.
    OptimisticLeaf,
    /// Lehman–Yao: one exclusive latch at a time; splits are
    /// half-splits whose separators are posted upward afterwards.
    Link,
}

/// One protocol's row of the policy table, [`Protocol::policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// How read-only operations latch.
    pub read: ReadPolicy,
    /// How inserts and deletes latch.
    pub update: UpdatePolicy,
    /// Which exclusive latches outlive the operation until its
    /// transaction commits (paper §7).
    pub txn: RecoveryMode,
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

    /// The baseline set plus Optimistic Lock Coupling: one protocol per
    /// distinct read and update column, in the order the figures and
    /// reports print them.
    pub const ALL_EXTENDED: [Protocol; 5] = [
        Protocol::TwoPhase,
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
        Protocol::Olc,
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

    /// This protocol's row of the policy table: how it latches reads,
    /// how it latches updates, and which exclusive latches outlive an
    /// operation. The recovery protocols are lock-coupling's row under a
    /// retention mode; every other protocol retains nothing.
    #[inline]
    pub const fn policy(self) -> Policy {
        use ReadPolicy as R;
        use RecoveryMode as T;
        use UpdatePolicy as U;
        const COUPLE: UpdatePolicy = U::Crab { retain_all: false };
        let (read, update, txn) = match self {
            Protocol::TwoPhase => (R::RetainAll, U::Crab { retain_all: true }, T::None),
            Protocol::LockCoupling => (R::Crab, COUPLE, T::None),
            Protocol::RecoveryNaive => (R::Crab, COUPLE, T::Naive),
            Protocol::RecoveryLeaf => (R::Crab, COUPLE, T::LeafOnly),
            Protocol::OptimisticDescent => (R::Crab, U::OptimisticLeaf, T::None),
            Protocol::BLink => (R::Link, U::Link, T::None),
            Protocol::Olc => (R::Olc, COUPLE, T::None),
        };
        Policy { read, update, txn }
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

    #[test]
    fn every_name_and_alias_finds_its_row_of_the_policy_table() {
        // What `--algo` accepts and what a run artifact's `meta.protocol`
        // says, against the columns every pillar reads.
        use {ReadPolicy as R, RecoveryMode as T, UpdatePolicy as U};
        const COUPLE: UpdatePolicy = U::Crab { retain_all: false };
        let rows = [
            ("lock-coupling", R::Crab, COUPLE, T::None),
            ("coupling", R::Crab, COUPLE, T::None),
            ("naive", R::Crab, COUPLE, T::None),
            ("optimistic", R::Crab, U::OptimisticLeaf, T::None),
            ("b-link", R::Link, U::Link, T::None),
            ("blink", R::Link, U::Link, T::None),
            ("link", R::Link, U::Link, T::None),
            (
                "two-phase",
                R::RetainAll,
                U::Crab { retain_all: true },
                T::None,
            ),
            (
                "twophase",
                R::RetainAll,
                U::Crab { retain_all: true },
                T::None,
            ),
            ("olc", R::Olc, COUPLE, T::None),
            ("optimistic-lock-coupling", R::Olc, COUPLE, T::None),
            ("recovery-naive", R::Crab, COUPLE, T::Naive),
            ("recovery-leaf", R::Crab, COUPLE, T::LeafOnly),
        ];
        for (name, read, update, txn) in rows {
            let p: Protocol = name.parse().expect(name);
            assert_eq!(p.policy(), Policy { read, update, txn }, "{name}");
        }
        for p in Protocol::ALL_WITH_RECOVERY {
            assert!(rows.iter().any(|row| row.0 == p.name()), "{}", p.name());
        }
        // The five-protocol list holds one protocol per distinct pair of
        // read and update columns, and misses none.
        let columns = |p: Protocol| (p.policy().read, p.policy().update);
        for (i, a) in Protocol::ALL_EXTENDED.into_iter().enumerate() {
            for b in &Protocol::ALL_EXTENDED[i + 1..] {
                assert_ne!(columns(a), columns(*b), "{a} and {b}");
            }
        }
        for p in Protocol::ALL_WITH_RECOVERY {
            let covered = Protocol::ALL_EXTENDED
                .iter()
                .any(|&q| columns(q) == columns(p));
            assert!(covered, "{p}");
        }
    }
}
