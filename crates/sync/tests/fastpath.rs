//! Integration tests for the packed-word fast path: FCFS discipline must
//! survive arbitrary interleavings of fast (CAS-only) and queued (slow
//! path) acquisitions, and sampled statistics must agree with exact ones.

use cbtree_sync::{FcfsRwLock, SamplePeriod};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

/// Deterministic FCFS handoff: a pinned reader forces a writer onto the
/// slow path; a second reader that provably arrives *after* the writer
/// queued must be granted after it, even though the second reader would
/// otherwise be read-compatible with the pinned one. Each round orders
/// the grants through a shared sequence counter.
#[test]
fn no_reader_overtakes_a_queued_writer() {
    const ROUNDS: usize = 100;

    for _ in 0..ROUNDS {
        let lock = Arc::new(FcfsRwLock::new(0u64));
        let seq = Arc::new(AtomicU64::new(0));

        // 1. Pin the lock in shared mode via the fast path.
        let pin = lock.read();

        // 2. A writer arrives and must queue behind the pin.
        let writer = {
            let lock = Arc::clone(&lock);
            let seq = Arc::clone(&seq);
            thread::spawn(move || {
                let mut g = lock.write();
                let my_seq = seq.fetch_add(1, Ordering::SeqCst);
                *g += 1;
                my_seq
            })
        };
        // Wait until the writer is visibly in the queue, so the next
        // reader's arrival is strictly after the writer's.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while lock.queued() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "writer never queued behind the pinned reader"
            );
            thread::yield_now();
        }

        // 3. A late reader arrives. It is compatible with the pin, but
        //    FCFS forbids admitting it past the queued writer: the
        //    QUEUED bit must divert it to the slow path, behind the
        //    writer.
        let late_reader = {
            let lock = Arc::clone(&lock);
            let seq = Arc::clone(&seq);
            thread::spawn(move || {
                let g = lock.read();
                let my_seq = seq.fetch_add(1, Ordering::SeqCst);
                std::hint::black_box(*g);
                my_seq
            })
        };
        // Let the late reader reach the lock; it must block, so the
        // sequence counter stays at 0 while the pin is held.
        while lock.queued() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "late reader never queued behind the writer"
            );
            thread::yield_now();
        }
        assert_eq!(
            seq.load(Ordering::SeqCst),
            0,
            "someone was granted the lock while the reader pinned it"
        );

        // 4. Release the pin: the writer must be served first.
        drop(pin);
        let w_seq = writer.join().unwrap();
        let r_seq = late_reader.join().unwrap();
        assert!(
            w_seq < r_seq,
            "late reader (seq {r_seq}) overtook the queued writer (seq {w_seq})"
        );
        assert_eq!(*lock.read(), 1);
        let snap = lock.stats().snapshot();
        assert_eq!(snap.w_acquires, 1);
        assert_eq!(snap.w_contended, 1);
        assert_eq!(snap.r_contended, 1);
    }
}

/// Interleaves guaranteed-fast-path acquisitions (no contention) with
/// guaranteed-queued ones (a reader pins the lock while writers arrive)
/// and checks exact counts plus queue drain.
#[test]
fn fast_and_queued_acquisitions_interleave_correctly() {
    const ROUNDS: usize = 50;
    let lock = Arc::new(FcfsRwLock::new(0u64));

    for round in 0..ROUNDS {
        // Fast-path exercise: uncontended write and read.
        *lock.write() += 1;
        assert_eq!(*lock.read(), round as u64 * 3 + 1);

        // Queued exercise: hold a read guard, launch two writers that
        // must take the slow path, then release and let them drain.
        let pin = lock.read();
        let mut writers = Vec::new();
        for _ in 0..2 {
            let lock = Arc::clone(&lock);
            writers.push(thread::spawn(move || {
                *lock.write() += 1;
            }));
        }
        // Wait until both writers are visibly queued so their slow-path
        // entry is not racy in this test.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while lock.queued() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "writers never queued behind the pinned reader"
            );
            thread::yield_now();
        }
        drop(pin);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(lock.queued(), 0);
    }

    let snap = lock.stats().snapshot();
    assert_eq!(*lock.read(), ROUNDS as u64 * 3);
    assert_eq!(snap.w_acquires, ROUNDS as u64 * 3);
    // Every pinned round forced exactly two writers through the queue.
    assert_eq!(snap.w_contended, ROUNDS as u64 * 2);
}

/// Runs the same deterministic workload under exact (N = 1) and sampled
/// (N = 8) timing and checks the *scaled* sampled statistics agree with
/// the exact ones: identical counts, and utilization / mean waits within
/// a few percent. Holds are stretched with a spin loop so per-sample
/// noise stays small relative to the signal; the comparison retries a
/// few times before failing to tolerate scheduler outliers.
#[test]
fn sampled_stats_agree_with_exact_stats() {
    fn workload(sample: SamplePeriod) -> (cbtree_sync::LockStatsSnapshot, u64) {
        const WRITES_PER_THREAD: u64 = 400;
        const THREADS: usize = 4;
        let lock = Arc::new(FcfsRwLock::with_sampling(0u64, sample));
        let start = Arc::new(Barrier::new(THREADS));
        let t0 = std::time::Instant::now();
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let start = Arc::clone(&start);
            handles.push(thread::spawn(move || {
                start.wait();
                for i in 0..WRITES_PER_THREAD {
                    let mut g = lock.write();
                    // ~1us of real work per hold so hold times dominate
                    // measurement overhead.
                    let mut acc = *g;
                    for _ in 0..400 {
                        acc = std::hint::black_box(
                            acc.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                    *g = acc;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = t0.elapsed().as_nanos() as u64;
        (lock.stats().snapshot(), elapsed)
    }

    const ATTEMPTS: usize = 5;
    let mut last_err = String::new();
    for attempt in 0..ATTEMPTS {
        let (exact, exact_elapsed) = workload(SamplePeriod::EXACT);
        let (sampled, sampled_elapsed) = workload(SamplePeriod::every(8));

        // Counts are exact under any sampling period.
        assert_eq!(exact.w_acquires, 1600);
        assert_eq!(sampled.w_acquires, 1600);
        assert_eq!(exact.r_acquires, 0);
        assert_eq!(sampled.r_acquires, 0);

        // Sampled timing actually sampled: raw histogram entries are
        // roughly total/8, not total.
        let timed = sampled.w_wait_hist.total();
        assert!(
            (100..=400).contains(&timed),
            "expected ~200 timed waits at N=8, got {timed}"
        );
        assert_eq!(exact.w_wait_hist.total(), 1600);

        // Scaled aggregates agree within tolerance.
        let rho_exact = exact.writer_utilization(exact_elapsed, 1);
        let rho_sampled = sampled.writer_utilization(sampled_elapsed, 1);
        let wait_exact = exact.mean_w_wait_ns();
        let wait_sampled = sampled.mean_w_wait_ns();

        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1e-9);
        let tol = 0.25;
        if rel(rho_exact, rho_sampled) < tol
            && (wait_exact < 500.0 || rel(wait_exact, wait_sampled) < 2.0 * tol)
        {
            return;
        }
        last_err = format!(
            "attempt {attempt}: rho {rho_exact:.4} vs {rho_sampled:.4}, \
             mean w-wait {wait_exact:.0} ns vs {wait_sampled:.0} ns"
        );
    }
    panic!("sampled stats never converged to exact stats: {last_err}");
}

/// Uncontended (pure fast path) version discipline: every write release
/// bumps the version by exactly one, read acquire/release never moves
/// it, and a snapshot taken before a write stops validating afterwards.
#[test]
fn version_bumps_once_per_fast_path_write_release() {
    let lock = FcfsRwLock::new(0u64);
    assert_eq!(lock.version(), Some(0));
    for i in 0..50u64 {
        let snap = lock.version().expect("uncontended");
        assert_eq!(snap, i);
        for _ in 0..4 {
            std::hint::black_box(*lock.read());
        }
        assert_eq!(lock.version(), Some(i), "read releases must not bump");
        assert!(lock.validate(snap));
        *lock.write() += 1;
        assert_eq!(lock.version(), Some(i + 1), "one bump per write release");
        assert!(
            !lock.validate(snap),
            "pre-write snapshot must stop validating"
        );
    }
}

/// The version counter must survive the Mutex+Condvar fallback: a writer
/// forced through the queued acquire path AND the queued release path
/// (a late reader keeps QUEUED set while the writer holds) still bumps
/// exactly once, and the queued readers bump nothing.
#[test]
fn version_bumps_once_through_the_queued_slow_path() {
    const ROUNDS: u64 = 20;
    let lock = Arc::new(FcfsRwLock::new(0u64));
    for round in 0..ROUNDS {
        assert_eq!(lock.version(), Some(round), "one bump per completed round");

        // A pinned reader forces the writer to queue; a late reader
        // queued behind the writer keeps QUEUED set across the writer's
        // release, forcing that release through the mutex as well.
        let pin = lock.read();
        let writer = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                *lock.write() += 1;
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while lock.queued() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "writer never queued behind the pinned reader"
            );
            thread::yield_now();
        }
        let late = {
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                std::hint::black_box(*lock.read());
            })
        };
        while lock.queued() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "late reader never queued behind the writer"
            );
            thread::yield_now();
        }
        drop(pin);
        writer.join().unwrap();
        late.join().unwrap();
        assert_eq!(
            lock.version(),
            Some(round + 1),
            "slow-path write release must bump exactly once"
        );
    }
    assert_eq!(*lock.read(), ROUNDS);
}

/// A writer released on the slow path must hand the lock to the queue
/// head even while fast-path readers keep arriving (the QUEUED bit must
/// close the fast path until the queue drains).
#[test]
fn queued_writer_eventually_acquires_under_reader_storm() {
    let lock = Arc::new(FcfsRwLock::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let lock = Arc::clone(&lock);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::hint::black_box(*lock.read());
            }
        }));
    }

    // 100 writes through the storm: each must terminate (FCFS admits
    // the writer ahead of all readers that arrive after it queues).
    for _ in 0..100 {
        *lock.write() += 1;
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(*lock.read(), 100);
    let snap = lock.stats().snapshot();
    assert_eq!(snap.w_acquires, 100);
}
