//! The injector's own tests, in a test binary of their own: the
//! injector is process-global, and these tests count injection-point
//! visits exactly — in the library's unit-test binary every sibling test
//! that takes a lock while one of them has the injector enabled adds
//! visits (and is itself perturbed). Here the only lock traffic is what
//! the tests themselves generate; the gate serializes them against each
//! other.
#![cfg(feature = "inject")]

use cbtree_sync::inject::{
    disable, enable, is_enabled, perturb, register_thread, stats, InjectConfig, Site,
};

/// Serialize tests that toggle the global injector.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn disabled_by_default_and_after_disable() {
    let _g = GATE.lock().unwrap();
    disable();
    assert!(!is_enabled());
    perturb(Site::AcquireShared); // must be a no-op
    assert!(enable(42, InjectConfig::default()));
    assert!(is_enabled());
    disable();
    assert!(!is_enabled());
}

#[test]
fn visits_counted_and_decisions_deterministic() {
    let _g = GATE.lock().unwrap();
    let cfg = InjectConfig {
        yield_per_mille: 100,
        spin_per_mille: 300,
        max_spin: 4,
        split_window_spin: 2,
    };
    let run = |seed: u64| {
        enable(seed, cfg);
        register_thread(7);
        for _ in 0..500 {
            perturb(Site::AcquireExclusive);
            perturb(Site::Release);
        }
        perturb(Site::HalfSplit);
        let s = stats();
        disable();
        s
    };
    let a = run(1234);
    let b = run(1234);
    let c = run(9999);
    assert_eq!(a, b, "same seed must replay the same decisions");
    assert_eq!(a.visits, 1001);
    assert!(a.spins >= 1, "half-split window always widens");
    // Different seeds should (overwhelmingly) make different choices.
    assert_ne!(a, c, "distinct seeds should differ");
}

#[test]
fn olc_window_sites_draw_from_the_stream() {
    let _g = GATE.lock().unwrap();
    let cfg = InjectConfig {
        yield_per_mille: 500,
        spin_per_mille: 500,
        max_spin: 2,
        split_window_spin: 0,
    };
    enable(77, cfg);
    register_thread(3);
    for _ in 0..200 {
        perturb(Site::ReadVersion);
        perturb(Site::Validate);
    }
    let s = stats();
    disable();
    assert_eq!(s.visits, 400);
    // yield+spin probability is 1.0, so every visit perturbed.
    assert_eq!(s.yields + s.spins, 400);
}

#[test]
fn half_split_site_always_spins() {
    let _g = GATE.lock().unwrap();
    enable(5, InjectConfig::default());
    register_thread(0);
    let before = stats();
    perturb(Site::HalfSplit);
    let after = stats();
    disable();
    assert_eq!(after.spins, before.spins + 1);
}
