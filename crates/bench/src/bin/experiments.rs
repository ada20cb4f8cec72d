//! Regenerates the tables and figures of Johnson & Shasha (PODS 1990).
//!
//! ```text
//! experiments [--quick] [--no-sim] [--out DIR] [--seeds a,b,c]
//!             [--report FILE.md] <name>...
//! ```
//!
//! `<name>` is one of `fig3` … `fig16`, `ablation-rot-se2`,
//! `ablation-merge-policy`, or `all`. Each table is printed and, with
//! `--out`, also written as CSV.

use cbtree_bench::{run_figure, ExpOptions, FIGURES};
use cbtree_workload::cli::Flags;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(flags: &mut Flags) -> Result<(ExpOptions, Vec<String>, Option<PathBuf>), String> {
    let mut opts = ExpOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut report = None;
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--quick" => {
                opts.quick = true;
                opts.seeds = vec![1, 2];
            }
            "--no-sim" => opts.with_sim = false,
            "--report" => report = Some(flags.value()?),
            "--out" => opts.out_dir = Some(flags.value()?),
            "--seeds" => opts.seeds = flags.list()?,
            name if name.starts_with('-') => return Err(flags.unknown()),
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        return Err("no figure named".into());
    }
    Ok((opts, names, report))
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: experiments [--quick] [--no-sim] [--out DIR] [--seeds a,b,c] \
         [--report FILE.md] <name>...\n\
         names: {} or `all`\n",
        FIGURES.map(|(name, _)| name).join(", ")
    );
    let (opts, names, report) = Flags::from_env(usage).parse_or_exit(parse_args);
    let mut report_body = String::from(
        "# cbtree experiment report\n\nRegenerated tables for Johnson & Shasha \
         (PODS 1990). See EXPERIMENTS.md for the paper-vs-measured commentary.\n\n",
    );
    for name in &names {
        let start = std::time::Instant::now();
        for table in run_figure(name, &opts) {
            table.print();
            report_body.push_str("```text\n");
            report_body.push_str(&table.render());
            report_body.push_str("```\n\n");
        }
        eprintln!("[{name} done in {:.1}s]\n", start.elapsed().as_secs_f64());
    }
    if let Some(path) = report {
        if let Err(e) = std::fs::write(&path, report_body) {
            eprintln!("error: failed to write report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {}", path.display());
    }
    ExitCode::SUCCESS
}
