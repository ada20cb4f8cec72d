//! End-to-end correctness-pillar tests: the real protocols (the paper's
//! three plus OLC) survive perturbed stress with a linearizable verdict
//! and clean audits, and directed slot-recycling races on a real OLC
//! tree keep its gets linearizable and its range scans complete. The
//! planted bugs that must fail these checks live in
//! `crates/check/mutants/`.

use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_check::history::{record, Clock, History, Op};
use cbtree_check::stress::{run_stress, StressConfig};
use cbtree_check::{audit, audit_with_contents, check_history, CheckConfig, Verdict};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary. Each stress run spawns 8 worker
/// threads, and the recycle scenario's reader must park before its
/// writer starts; running the tests concurrently starves those windows
/// of the interleavings they need.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A shape small enough for debug-build CI but hot enough (tiny nodes,
/// narrow key space, injection on) to exercise splits constantly.
fn shape(protocol: Protocol, seed: u64) -> StressConfig {
    StressConfig {
        threads: 8,
        ops_per_thread: 150,
        ..StressConfig::quick(protocol, seed)
    }
}

#[test]
fn real_protocols_are_linearizable_under_perturbed_stress() {
    let _serial = serial();
    for protocol in Protocol::ALL.into_iter().chain([Protocol::Olc]) {
        for seed in [2, 41] {
            let out = run_stress(&shape(protocol, seed));
            assert!(
                out.passed(),
                "{protocol:?} seed {seed}: {}",
                out.failure().unwrap_or_default()
            );
            assert!(
                matches!(out.verdict, Verdict::Linearizable { .. }),
                "{protocol:?} seed {seed}: expected full linearizability, got {:?}",
                out.verdict
            );
            let report = out
                .audit
                .unwrap_or_else(|e| panic!("{protocol:?} seed {seed}: {e}"));
            assert!(
                report.nodes_per_level.len() >= 2,
                "{protocol:?}: stress should grow a multi-level tree"
            );
        }
    }
}

/// Races one reader against the slot recycling a stale leaf handle would
/// miss, on a real OLC tree whose writer vacuums after every remove, and
/// returns the checker's verdict together with the number of slots the
/// vacuum passes reclaimed. On the sound engine the verdict is always
/// linearizable.
///
/// Random stress essentially never convicts that bug, and for an
/// instructive reason: a leaf only recycles once it *drains*, and by then
/// the drained keys — the one being read included — are absent, so a
/// stale `None` is linearizable. The convicting sequence is compound: a
/// split first moves the read key `K` *right*, out of the held leaf, then
/// the leaf's remnant empties and is vacuumed, all inside one reader's
/// unlatched window, while `K` itself is never touched. Two subtleties
/// shape the setup:
///
/// * a split moves `K` rightward only when `K` sits in the *upper* half
///   of the overflowing leaf, so `K` must not be its leaf's minimum — and
///   once a split picks `K` as a separator it stays a leaf minimum for
///   good. Hence `K` sits *between* prefill keys, and the scenario is
///   one-shot per tree (each attempt builds a fresh tree);
/// * vacuum never reclaims a parent's first child, so `K`'s leaf must not
///   be one of those slots; the ascending prefill pins the layout.
///
/// The reader descends to `K`'s leaf and (on the mutant) parks in its
/// window; the writer waits a beat, force-splits `K`'s leaf by filling it
/// from below (`K` ends in the new right sibling, the held slot keeps the
/// left remnant), then drains every key but `K`. `K` is present from
/// prefill to teardown and no write targets it, so any `Get(K) → None`
/// is unjustifiable under every linearization.
fn recycle_race() -> (Verdict, usize) {
    // Prefill 0, 8, …, 120 builds (capacity 3) leaves on multiple-of-8
    // separators; 84 enters the reclaimable leaf covering [80, 96) as a
    // non-minimum, non-separator tenant, so the fillers 81..84 land
    // beside it and the first overflow sends it right.
    const K: u64 = 84;
    let tree = ConcurrentBTree::new(Protocol::Olc, 3);
    let mut init: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 8, i * 8)).collect();
    init.push((K, K));
    for &(k, v) in &init {
        tree.insert(k, v);
    }

    let clock = Clock::new();
    let done = AtomicBool::new(false);
    let reclaimed = AtomicUsize::new(0);
    let batches = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..3 {
                let r = record(&tree, &clock, 0, Op::Get(K));
                let missed = r.ret.is_none();
                out.push(r);
                if missed {
                    break; // one stale read convicts
                }
            }
            done.store(true, Ordering::Release);
            out
        });
        let writer = s.spawn(|| {
            let mut out = Vec::new();
            let remove = |out: &mut Vec<_>, k| {
                out.push(record(&tree, &clock, 1, Op::Remove(k)));
                reclaimed.fetch_add(tree.vacuum(), Ordering::Relaxed);
            };
            // Let the reader reach K's leaf and park: its descent takes
            // microseconds, this pause a millisecond. A pause, not a
            // barrier, because the window is inside the engine's `get`,
            // where the test has no hook to signal from.
            std::thread::sleep(Duration::from_millis(1));
            // Overflow K's leaf from below: the first filler splits
            // {80, K, 88} into {80, 81}, the slot the reader holds, and a
            // fresh right sibling {K, 88}.
            for f in [K - 3, K - 2, K - 1] {
                out.push(record(&tree, &clock, 1, Op::Insert(f, f)));
            }
            // Drain everything but K, vacuuming after each remove, so the
            // held remnant recycles the moment it empties; nothing
            // allocates afterwards, so the slot stays a placeholder.
            for f in [K - 3, K - 2, K - 1] {
                remove(&mut out, f);
            }
            for &(k, _) in &init {
                if k != K {
                    remove(&mut out, k);
                }
            }
            // Hold still until the reader has taken its reads.
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            out
        });
        vec![reader.join().unwrap(), writer.join().unwrap()]
    });

    let verdict = check_history(
        &History::from_threads(init, batches),
        CheckConfig::default(),
    );
    if let Verdict::Linearizable { final_state } = &verdict {
        audit_with_contents(&tree, final_state).unwrap_or_else(|e| panic!("audit: {e}"));
    }
    (verdict, reclaimed.into_inner())
}

#[test]
fn reads_across_slot_recycling_stay_linearizable() {
    let _serial = serial();
    // The race is near-deterministic on a mutant (its reader parks before
    // the writer starts), but it races real threads, so five attempts.
    for attempt in 1..=5 {
        let (verdict, reclaimed) = recycle_race();
        assert!(
            reclaimed > 0,
            "attempt {attempt}: the drain recycled no slot, so the race never ran"
        );
        assert!(
            matches!(verdict, Verdict::Linearizable { .. }),
            "attempt {attempt}: a read across slot recycling convicted: {verdict:?}"
        );
    }
}

/// Races OLC range scans against a writer that drains one middle leaf
/// and vacuums it, and returns the stable keys of the first scan that
/// did not return each of them exactly once (if any), together with the
/// number of slots the vacuum passes reclaimed.
///
/// The latch-free range walk follows each right link with no parent
/// re-validation, so when the leaf a link named is vacuumed before the
/// walk reads it, the slot's generation is the only sign: a retired
/// slot is an empty leaf with no high key and no right link, which a
/// walk that skips the check takes for the end of the tree.
/// `mutants/skip-generation-check.patch` removes that check and parks
/// the walk on its first hop, and must be convicted.
///
/// The drained leaf `B` is the second child of the leftmost level-2
/// node (vacuum never reclaims a first child), so a scan from key 0
/// reads the leftmost leaf and then hops to `B`. Every key outside `B`
/// is present from prefill to teardown and no write targets it, so a
/// scan must return each of them exactly once whatever it overlaps.
fn range_recycle_race() -> (Option<Vec<u64>>, usize) {
    const KEYS: u64 = 48;
    let tree = ConcurrentBTree::new(Protocol::Olc, 4);
    for k in 0..KEYS {
        tree.insert(k, k);
    }
    let drained: Vec<u64> = {
        let mut p = tree.root_handle();
        while p.read().level > 2 {
            let first = p.read().kid(0).expect("internal");
            p.goto(first);
        }
        let b = p.read().kid(1).expect("a split leaves two children");
        p.goto(b);
        let keys = p.read().keys().to_vec();
        keys
    };
    let stable: Vec<u64> = (0..KEYS).filter(|k| !drained.contains(k)).collect();

    let done = AtomicBool::new(false);
    let reclaimed = AtomicUsize::new(0);
    let bad_scan = std::thread::scope(|s| {
        let reader = s.spawn(|| loop {
            // Read `done` before the scan, so one scan starts after the
            // drain has finished.
            let last = done.load(Ordering::Acquire);
            let got: Vec<u64> = tree
                .range(0, KEYS)
                .into_iter()
                .map(|(k, _)| k)
                .filter(|k| !drained.contains(k))
                .collect();
            if got != stable {
                return Some(got);
            }
            if last {
                return None;
            }
        });
        s.spawn(|| {
            // Let the reader's first scan reach `B` (a pause, not a
            // barrier: the window is inside the engine's `range`).
            std::thread::sleep(Duration::from_millis(1));
            for &k in &drained {
                tree.remove(&k);
                reclaimed.fetch_add(tree.vacuum(), Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
        });
        reader.join().unwrap()
    });
    audit(&tree).unwrap_or_else(|e| panic!("audit: {e}"));
    (bad_scan, reclaimed.into_inner())
}

#[test]
fn ranges_across_slot_recycling_return_every_stable_key() {
    let _serial = serial();
    for attempt in 1..=5 {
        let (bad_scan, reclaimed) = range_recycle_race();
        assert!(
            reclaimed > 0,
            "attempt {attempt}: the drain recycled no slot, so the race never ran"
        );
        if let Some(got) = bad_scan {
            panic!(
                "attempt {attempt}: a range across slot recycling did not return \
                 every stable key once: {got:?}"
            );
        }
    }
}
