//! Concurrency stress sweep: protocol × seed, with linearizability
//! checking, structural audits, and seeded schedule perturbation.
//!
//! ```text
//! stress --quick                 CI mode: 4 protocols x 16 seeds, ~seconds
//! stress --quick --batch 4       same sweep over sorted-batch execution
//!                                (workers group ops into execute_batch calls)
//! stress --full                  manual deep sweep (more seeds, ops, threads)
//! stress --replay 7 --protocol b-link
//!                                re-run one failing (protocol, seed) pair;
//!                                the perturbation decision stream is a pure
//!                                function of the seed, so the run replays
//!                                the same schedule pressure
//! stress --demo-bug              run all three known-bad readers (latched,
//!                                optimistic, and recycling-blind); exits 0
//!                                iff the checker convicts each of them
//! ```
//!
//! Exits non-zero on any failure so CI can gate on it.

use cbtree_btree::Protocol;
use cbtree_check::history::ConcurrentMap;
use cbtree_check::stress::{run_stress, run_stress_on, StressConfig, StressOutcome};
use cbtree_check::{
    buggy::{run_recycle_conviction, SkipParentRevalidation, SkipRightLink},
    Verdict,
};
use cbtree_workload::cli::Flags;

#[derive(Debug, Clone, Default)]
struct Args {
    quick: bool,
    full: bool,
    demo_bug: bool,
    replay: Option<u64>,
    protocol: Option<Protocol>,
    threads: Option<usize>,
    ops: Option<usize>,
    batch: Option<usize>,
    seeds: usize,
    seed_base: u64,
    no_inject: bool,
}

const USAGE: &str = "\
usage: stress [--quick|--full] [--protocol NAME] [--threads N] \
[--ops N] [--batch N] [--seeds N] [--seed-base N] [--no-inject] \
[--replay SEED] [--demo-bug]
";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut args = Args {
        seeds: 16,
        seed_base: 1,
        ..Args::default()
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--full" => args.full = true,
            "--demo-bug" => args.demo_bug = true,
            "--no-inject" => args.no_inject = true,
            "--replay" => args.replay = Some(flags.value()?),
            "--protocol" => args.protocol = Some(flags.value()?),
            "--threads" => args.threads = Some(flags.value()?),
            "--ops" => args.ops = Some(flags.value()?),
            "--batch" => args.batch = Some(flags.at_least(1)?),
            "--seeds" => args.seeds = flags.value()?,
            "--seed-base" => args.seed_base = flags.value()?,
            _ => return Err(flags.unknown()),
        }
    }
    if !(args.quick || args.full || args.demo_bug || args.replay.is_some()) {
        args.quick = true;
    }
    Ok(args)
}

fn shape(args: &Args, protocol: Protocol, seed: u64) -> StressConfig {
    let mut cfg = if args.full {
        StressConfig::full(protocol, seed)
    } else {
        StressConfig::quick(protocol, seed)
    };
    if let Some(t) = args.threads {
        cfg.threads = t;
    }
    if let Some(o) = args.ops {
        cfg.ops_per_thread = o;
    }
    if let Some(b) = args.batch {
        cfg.batch_max = b;
    }
    if args.no_inject {
        cfg.inject = None;
    }
    cfg
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::Linearizable { .. } => "linearizable",
        Verdict::SequentiallyConsistent { .. } => "seq-consistent",
        Verdict::Violation(_) => "VIOLATION",
        Verdict::Inconclusive => "inconclusive",
    }
}

fn main() {
    let args = Flags::from_env(USAGE).parse_or_exit(parse_args);

    if args.demo_bug {
        std::process::exit(demo_bug(&args));
    }

    let protocols: Vec<Protocol> = match args.protocol {
        Some(p) => vec![p],
        None => Protocol::ALL
            .iter()
            .copied()
            .chain([Protocol::Olc])
            .collect(),
    };
    let seeds: Vec<u64> = match args.replay {
        Some(s) => vec![s],
        None => (0..args.seeds as u64).map(|i| args.seed_base + i).collect(),
    };

    let mut failures = 0usize;
    println!(
        "{:<14} {:>6} {:>8} {:>15} {:>9} {:>8}  outcome",
        "protocol", "seed", "ops", "verdict", "perturbs", "ms"
    );
    for &protocol in &protocols {
        for &seed in &seeds {
            let cfg = shape(&args, protocol, seed);
            let t0 = std::time::Instant::now();
            let out = run_stress(&cfg);
            let ms = t0.elapsed().as_millis();
            let perturbs = out.inject_stats.yields + out.inject_stats.spins;
            let ok = out.passed();
            println!(
                "{:<14} {:>6} {:>8} {:>15} {:>9} {:>8}  {}",
                protocol.name(),
                seed,
                out.ops,
                verdict_name(&out.verdict),
                perturbs,
                ms,
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures += 1;
                if let Some(why) = out.failure() {
                    eprintln!("\n--- {} seed {} ---\n{}", protocol.name(), seed, why);
                    eprintln!(
                        "replay with: stress --replay {} --protocol {}{}{}\n",
                        seed,
                        protocol.name(),
                        if args.full { " --full" } else { "" },
                        match args.batch {
                            Some(b) if b > 1 => format!(" --batch {b}"),
                            _ => String::new(),
                        }
                    );
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("stress: {failures} failing run(s)");
        std::process::exit(1);
    }
    println!(
        "stress: {} runs passed ({} protocols x {} seeds)",
        protocols.len() * seeds.len(),
        protocols.len(),
        seeds.len()
    );
}

/// Runs all three known-bad readers until the checker convicts each.
/// Exit 0 = the pillar has teeth; exit 1 = some bug escaped every seed.
fn demo_bug(args: &Args) -> i32 {
    let mut status = 0;
    status |= drive_bug(
        args,
        Protocol::BLink,
        "SkipRightLink (B-link reader that skips the post-latch covers() re-check)",
        SkipRightLink::new,
    );
    status |= drive_bug(
        args,
        Protocol::Olc,
        "SkipParentRevalidation (OLC reader that skips the parent re-validation)",
        SkipParentRevalidation::new,
    );
    // The recycling-blind reader needs a *directed* scenario: the
    // convicting interleaving (split moves the key right, the held
    // leaf's remnant drains and is vacuumed, the key itself untouched)
    // is vanishingly rare under the random sweep — by the time a leaf
    // drains naturally, the read key is gone with it, and the buggy
    // `None` is linearizable.
    status |= drive_scenario(
        args,
        "SkipGenerationCheck (reader that trusts a handle across a vacuum window)",
        run_recycle_conviction,
    );
    status
}

/// Runs a directed conviction scenario up to `--seeds` times (each run
/// records a real two-thread race; scheduling can let one slip).
fn drive_scenario(args: &Args, what: &str, run: impl Fn() -> StressOutcome) -> i32 {
    println!("driving {what}");
    for attempt in 1..=args.seeds.max(1) {
        let out = run();
        println!(
            "  attempt {:>2}: {:>15} {}",
            attempt,
            verdict_name(&out.verdict),
            if out.passed() { "(escaped)" } else { "CAUGHT" }
        );
        if !out.passed() {
            if let Some(why) = out.failure() {
                println!("\n{why}");
            }
            println!("bug caught at attempt {attempt}; the checker has teeth.");
            return 0;
        }
    }
    eprintln!("demo-bug: {what} escaped every attempt");
    1
}

fn drive_bug<M: ConcurrentMap<u64>>(
    args: &Args,
    protocol: Protocol,
    what: &str,
    make: impl Fn(usize) -> M,
) -> i32 {
    println!("driving {what}");
    for seed in 0..args.seeds as u64 {
        let seed = args.seed_base + seed;
        let cfg = shape(args, protocol, seed);
        let map = make(cfg.capacity);
        let out = run_stress_on(&map, &cfg);
        println!(
            "  seed {:>4}: {:>15} {}",
            seed,
            verdict_name(&out.verdict),
            if out.passed() { "(escaped)" } else { "CAUGHT" }
        );
        if !out.passed() {
            if let Some(why) = out.failure() {
                println!("\n{why}");
            }
            println!("bug caught at seed {seed}; the checker has teeth.");
            return 0;
        }
    }
    eprintln!("demo-bug: {what} escaped all seeds");
    1
}
