//! The injector's own tests, in a test binary of their own: the
//! injector is process-global, and these tests count injection-point
//! visits exactly — in the library's unit-test binary every sibling test
//! that takes a lock while one of them has the injector enabled adds
//! visits (and is itself perturbed). Here the only lock traffic is what
//! the checks themselves generate. They run in order from one test: a
//! check that injection is off after a drop holds no gate, so no sibling
//! may enable meanwhile.

use cbtree_sync::inject::{enable, is_enabled, perturb, register_thread, InjectConfig, Site};

#[test]
fn injector() {
    dropping_the_injector_switches_injection_off();
    a_panicking_holder_leaves_injection_off_and_the_gate_usable();
    visits_counted_and_decisions_deterministic();
    olc_window_sites_draw_from_the_stream();
    half_split_site_always_spins();
}

fn dropping_the_injector_switches_injection_off() {
    let injector = enable(42, InjectConfig::default());
    assert!(is_enabled());
    register_thread(0);
    perturb(Site::HalfSplit);
    assert_eq!(injector.stats().visits, 1);
    drop(injector);
    assert!(!is_enabled());
    perturb(Site::AcquireShared); // a no-op now
    let injector = enable(42, InjectConfig::default());
    assert_eq!(injector.stats().visits, 0, "counters restart on enable");
}

fn a_panicking_holder_leaves_injection_off_and_the_gate_usable() {
    let panicked = std::thread::spawn(|| {
        let _injector = enable(1, InjectConfig::default());
        panic!("holder fails while injecting");
    })
    .join();
    assert!(panicked.is_err());
    assert!(!is_enabled(), "the unwinding holder's drop switched it off");
    let injector = enable(2, InjectConfig::default());
    assert!(is_enabled(), "a poisoned gate is recovered");
    drop(injector);
}

fn visits_counted_and_decisions_deterministic() {
    let cfg = InjectConfig {
        yield_per_mille: 100,
        spin_per_mille: 300,
        max_spin: 4,
        split_window_spin: 2,
    };
    let run = |seed: u64| {
        let injector = enable(seed, cfg);
        register_thread(7);
        for _ in 0..500 {
            perturb(Site::AcquireExclusive);
            perturb(Site::Release);
        }
        perturb(Site::HalfSplit);
        injector.stats()
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

fn olc_window_sites_draw_from_the_stream() {
    let cfg = InjectConfig {
        yield_per_mille: 500,
        spin_per_mille: 500,
        max_spin: 2,
        split_window_spin: 0,
    };
    let injector = enable(77, cfg);
    register_thread(3);
    for _ in 0..200 {
        perturb(Site::ReadVersion);
        perturb(Site::Validate);
    }
    let s = injector.stats();
    assert_eq!(s.visits, 400);
    // yield+spin probability is 1.0, so every visit perturbed.
    assert_eq!(s.yields + s.spins, 400);
}

fn half_split_site_always_spins() {
    let injector = enable(5, InjectConfig::default());
    register_thread(0);
    let before = injector.stats();
    perturb(Site::HalfSplit);
    assert_eq!(injector.stats().spins, before.spins + 1);
}
