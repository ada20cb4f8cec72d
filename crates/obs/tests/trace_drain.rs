//! Cross-thread drain tests for the tracing facade.

use cbtree_obs::trace;
use std::collections::HashMap;
use std::sync::Barrier;

/// Events from one thread stay in timestamp order after the global
/// merge, and every thread's events survive an uncontended drain.
#[test]
fn cross_thread_drain_preserves_per_thread_timestamp_order() {
    let _guard = trace::measurement_lock();
    trace::enable(true);
    let _ = trace::drain(); // discard anything a sibling test left behind

    const THREADS: usize = 4;
    const EVENTS: u64 = 500;
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for i in 0..EVENTS {
                    // node encodes (spawn index, sequence) so the test can
                    // check per-thread order independent of trace ids.
                    trace::split_begin(1, t as u64 * 10_000 + i);
                }
            });
        }
    });

    let t = trace::drain();
    trace::enable(false);
    assert_eq!(t.dropped, 0, "500 events fit every ring");
    // Group by emitting thread: within each, timestamps and sequence
    // numbers must both be non-decreasing.
    let mut by_thread: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for e in &t.events {
        by_thread
            .entry(e.thread)
            .or_default()
            .push((e.ts_ns, e.node));
    }
    let worker_events: Vec<&Vec<(u64, u64)>> = by_thread
        .values()
        .filter(|v| v.len() == EVENTS as usize)
        .collect();
    assert_eq!(
        worker_events.len(),
        THREADS,
        "all {THREADS} worker rings drained"
    );
    for seq in worker_events {
        for w in seq.windows(2) {
            assert!(w[0].0 <= w[1].0, "timestamps sorted within a thread");
            assert!(w[0].1 < w[1].1, "per-thread emission order preserved");
        }
    }
    // The merged stream as a whole is timestamp-sorted.
    for w in t.events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns);
    }
}

/// Disabled emission writes nothing; re-enabling resumes.
#[test]
fn enable_gate_controls_emission() {
    let _guard = trace::measurement_lock();
    trace::enable(true);
    let _ = trace::drain();

    trace::enable(false);
    trace::split_begin(1, 1);
    trace::enable(true);
    trace::split_begin(1, 2);
    let t = trace::drain();
    trace::enable(false);
    let mine: Vec<u64> = t.events.iter().map(|e| e.node).collect();
    assert_eq!(mine, vec![2], "only the enabled emission landed");
}
