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
//! ```
//!
//! Exits non-zero on any failure so CI can gate on it.

use cbtree_btree::Protocol;
use cbtree_check::stress::{run_stress, StressConfig};
use cbtree_check::Verdict;
use cbtree_workload::cli::Flags;

#[derive(Debug, Clone, Default)]
struct Args {
    quick: bool,
    full: bool,
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
[--replay SEED]
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
    if !(args.quick || args.full || args.replay.is_some()) {
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
