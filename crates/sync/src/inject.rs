//! Schedule-perturbation fault injection.
//!
//! Concurrency bugs hide in narrow timing windows — a reader that chose
//! its leaf an instant before a half-split moved the key right, a root
//! swap racing an ascent. The OS scheduler explores only a thin slice of
//! the interleaving space, so a stress run can pass thousands of times
//! while a one-in-a-million window stays closed. This module widens those
//! windows on purpose: *injection points* placed at lock acquire/release
//! and inside the B-link half-split window consult a **seeded** decision
//! stream and either yield the thread or spin-delay it.
//!
//! Determinism model: every perturbation decision is a pure function of
//! `(seed, thread ordinal, call index)` — re-running a failing seed
//! replays the identical decision stream, which in practice reproduces
//! the same class of interleaving (exact thread timing still belongs to
//! the OS; the decisions, and therefore the perturbation pattern, are
//! exactly reproducible). Worker threads that want stable ordinals across
//! runs call [`register_thread`] before their first injected operation;
//! unregistered threads draw ordinals from a global counter in first-use
//! order.
//!
//! Every build carries the injection points; [`enable`] switches them on
//! and the [`Injector`] it returns switches them off when dropped. With
//! no injector alive a site costs one relaxed atomic load and an untaken
//! branch to the outlined slow path.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where in the locking protocol a perturbation point sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Immediately before requesting a shared latch.
    AcquireShared,
    /// Immediately before requesting an exclusive latch.
    AcquireExclusive,
    /// Immediately after releasing a latch.
    Release,
    /// Inside a B-link half-split: the sibling is linked and reachable,
    /// but the separator has not yet been posted to the parent.
    HalfSplit,
    /// Immediately before snapshotting a latch's version counter — the
    /// opening edge of an optimistic (OLC) read window.
    ReadVersion,
    /// Immediately before re-checking a snapshotted version — the
    /// closing edge of an optimistic read window. Dilating this gap is
    /// what forces the torn interleavings a missing re-validation hides.
    Validate,
}

/// Tuning knobs of the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectConfig {
    /// Probability (per mille) that a lock-site visit yields the thread.
    pub yield_per_mille: u32,
    /// Probability (per mille) that a lock-site visit spin-delays.
    pub spin_per_mille: u32,
    /// Maximum spin iterations per delay (each iteration is a
    /// `spin_loop` hint; thousands ≈ a microsecond).
    pub max_spin: u32,
    /// Spin iterations applied on *every* [`Site::HalfSplit`] visit —
    /// the half-split window is the structurally interesting one, so it
    /// is always widened rather than probabilistically.
    pub split_window_spin: u32,
}

impl Default for InjectConfig {
    fn default() -> Self {
        InjectConfig {
            yield_per_mille: 50,
            spin_per_mille: 200,
            max_spin: 2_000,
            split_window_spin: 4_000,
        }
    }
}

/// Counters of perturbations actually performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectStats {
    /// Injection-point visits while enabled.
    pub visits: u64,
    /// Thread yields injected.
    pub yields: u64,
    /// Spin delays injected.
    pub spins: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Held by the one live [`Injector`]: the injector is process-wide.
static GATE: Mutex<()> = Mutex::new(());
/// Bumped on every `enable`, invalidating thread-local streams.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static YIELD_PM: AtomicU32 = AtomicU32::new(0);
static SPIN_PM: AtomicU32 = AtomicU32::new(0);
static MAX_SPIN: AtomicU32 = AtomicU32::new(0);
static SPLIT_SPIN: AtomicU32 = AtomicU32::new(0);
static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

static VISITS: AtomicU64 = AtomicU64::new(0);
static YIELDS: AtomicU64 = AtomicU64::new(0);
static SPINS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(epoch, rng state)` of this thread's decision stream.
    static STREAM: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Explicitly registered ordinal (`u64::MAX` = unregistered).
    static ORDINAL: Cell<u64> = const { Cell::new(u64::MAX) };
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The installed injector. Injection stays on for the guard's whole
/// life and switches off when it drops; the guard holds the process-wide
/// gate meanwhile, so a second [`enable`] waits for it.
#[must_use = "injection switches off when the injector is dropped"]
pub struct Injector {
    _gate: MutexGuard<'static, ()>,
}

impl Injector {
    /// Perturbation counters since this injector was enabled.
    pub fn stats(&self) -> InjectStats {
        InjectStats {
            visits: VISITS.load(Ordering::Relaxed),
            yields: YIELDS.load(Ordering::Relaxed),
            spins: SPINS.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Release);
    }
}

/// Installs the injector: injection-point visits draw from the decision
/// stream seeded by `seed` until the returned guard drops. Blocks while
/// another [`Injector`] is alive.
pub fn enable(seed: u64, cfg: InjectConfig) -> Injector {
    // A holder that panicked dropped its guard, which switched injection
    // off: the gate protects no data, so a poisoned one is as good.
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    SEED.store(seed, Ordering::Relaxed);
    YIELD_PM.store(cfg.yield_per_mille.min(1000), Ordering::Relaxed);
    SPIN_PM.store(cfg.spin_per_mille.min(1000), Ordering::Relaxed);
    MAX_SPIN.store(cfg.max_spin.max(1), Ordering::Relaxed);
    SPLIT_SPIN.store(cfg.split_window_spin, Ordering::Relaxed);
    NEXT_ORDINAL.store(0, Ordering::Relaxed);
    VISITS.store(0, Ordering::Relaxed);
    YIELDS.store(0, Ordering::Relaxed);
    SPINS.store(0, Ordering::Relaxed);
    EPOCH.fetch_add(1, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
    Injector { _gate: gate }
}

/// Whether an injector is currently installed.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Pins this thread's decision-stream ordinal (call before the thread's
/// first injected operation to make its stream reproducible across runs
/// regardless of spawn order).
pub fn register_thread(ordinal: u64) {
    ORDINAL.with(|o| o.set(ordinal));
    // Invalidate the local stream so the next visit reseeds from the
    // registered ordinal.
    STREAM.with(|s| s.set((0, 0)));
}

/// An injection point: possibly yields or spin-delays the calling thread
/// while an [`Injector`] is alive.
#[inline]
pub fn perturb(site: Site) {
    if ENABLED.load(Ordering::Relaxed) {
        perturb_slow(site);
    }
}

#[cold]
#[inline(never)]
fn perturb_slow(site: Site) {
    VISITS.fetch_add(1, Ordering::Relaxed);
    if site == Site::HalfSplit {
        let n = SPLIT_SPIN.load(Ordering::Relaxed);
        if n > 0 {
            SPINS.fetch_add(1, Ordering::Relaxed);
            for _ in 0..n {
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        return;
    }
    let epoch = EPOCH.load(Ordering::Relaxed);
    let draw = STREAM.with(|s| {
        let (e, mut state) = s.get();
        if e != epoch {
            let ordinal = ORDINAL.with(|o| {
                let v = o.get();
                if v != u64::MAX {
                    v
                } else {
                    NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed)
                }
            });
            let mut sm = SEED.load(Ordering::Relaxed) ^ ordinal.wrapping_mul(0xA24B_AED4_963E_E407);
            state = splitmix64(&mut sm);
        }
        let draw = splitmix64(&mut state);
        s.set((epoch, state));
        draw
    });
    let roll = (draw % 1000) as u32;
    let y = YIELD_PM.load(Ordering::Relaxed);
    if roll < y {
        YIELDS.fetch_add(1, Ordering::Relaxed);
        std::thread::yield_now();
    } else if roll < y + SPIN_PM.load(Ordering::Relaxed) {
        SPINS.fetch_add(1, Ordering::Relaxed);
        let n = 1 + ((draw >> 32) as u32 % MAX_SPIN.load(Ordering::Relaxed));
        for _ in 0..n {
            std::hint::spin_loop();
        }
    }
}
