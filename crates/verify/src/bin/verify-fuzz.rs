//! `verify-fuzz` — the differential schedule fuzzer CLI.
//!
//! ```text
//! verify-fuzz [--budget N] [--seed S] [--workload matmul|conv2d|fused|all]
//!             [--repro-dir DIR] [--props N] [--replay FILE] [--static-oracle]
//! ```
//!
//! Draws `--budget` random schedules per run, checks each against the
//! interpreter oracle, shrinks any failure and writes a reproducer to
//! `--repro-dir` (default `results/repro/`). `--replay FILE` re-runs a
//! written reproducer and reports whether the failure still reproduces.
//! `--static-oracle` additionally runs the `tvm-analysis` verifier on
//! every passing case and treats analyzer/interpreter disagreements as
//! failures. Exit code is non-zero when any check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use tvm_verify::{
    check_graph_static, check_simplify, fuzz, FuzzOptions, Repro, WorkloadKind, ALL_WORKLOADS,
};

struct Args {
    budget: usize,
    seed: u64,
    workloads: Vec<WorkloadKind>,
    repro_dir: PathBuf,
    props: usize,
    graph_props: usize,
    replay: Option<PathBuf>,
    static_oracle: bool,
}

const USAGE: &str = "usage: verify-fuzz [--budget N] [--seed S] [--workload matmul|conv2d|fused|all]\n                   [--repro-dir DIR] [--props N] [--graph-props N] [--replay FILE]\n                   [--static-oracle]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        budget: 64,
        seed: 0,
        workloads: ALL_WORKLOADS.to_vec(),
        repro_dir: PathBuf::from("results/repro"),
        props: 64,
        graph_props: 64,
        replay: None,
        static_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--budget" => {
                args.budget = value("--budget").parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                args.seed = value("--seed").parse().unwrap_or_else(|_| usage());
            }
            "--workload" => {
                let w = value("--workload");
                args.workloads = if w == "all" {
                    ALL_WORKLOADS.to_vec()
                } else {
                    vec![WorkloadKind::parse(&w).unwrap_or_else(|| {
                        eprintln!("unknown workload `{w}`");
                        usage()
                    })]
                };
            }
            "--repro-dir" => args.repro_dir = PathBuf::from(value("--repro-dir")),
            "--props" => {
                args.props = value("--props").parse().unwrap_or_else(|_| usage());
            }
            "--graph-props" => {
                args.graph_props = value("--graph-props").parse().unwrap_or_else(|_| usage());
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay"))),
            "--static-oracle" => args.static_oracle = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let repro = match Repro::load(path) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot load reproducer {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!(
            "replaying {} seed {} ({} primitives, recorded: {})",
            repro.workload,
            repro.seed,
            repro.replay_trace().len(),
            repro.failure
        );
        for p in repro.replay_trace() {
            println!("  {p}");
        }
        let outcome = repro.replay();
        println!("outcome: {outcome}");
        return if outcome.is_failure() {
            // The recorded bug still reproduces — for a fuzzing tool this
            // is the "successful replay" case but still a failing program.
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut failed = false;

    println!(
        "fuzzing {} schedules (seed {}) over {:?}...",
        args.budget,
        args.seed,
        args.workloads.iter().map(|w| w.name()).collect::<Vec<_>>()
    );
    let report = fuzz(&FuzzOptions {
        seed: args.seed,
        budget: args.budget,
        workloads: args.workloads.clone(),
        repro_dir: Some(args.repro_dir.clone()),
        static_oracle: args.static_oracle,
    });
    println!(
        "  {} cases, {} passed, {} invalid, {} distinct traces, {} static-checked, {} failures",
        report.cases,
        report.passed,
        report.invalid,
        report.distinct_traces,
        report.static_checked,
        report.failures.len()
    );
    for f in &report.failures {
        failed = true;
        println!(
            "  FAILURE {} seed {}: {} (trace {} -> shrunk {} primitives)",
            f.workload,
            f.seed,
            f.failure,
            f.trace.len(),
            f.shrunk.len()
        );
        for p in &f.shrunk {
            println!("    {p}");
        }
        if let Some(p) = &f.repro_path {
            println!("    reproducer: {}", p.display());
        }
    }
    if report.invalid > 0 {
        // Generated traces must always be valid; anything else is a
        // generator regression worth failing loudly on.
        println!(
            "  WARNING: {} generated traces were invalid",
            report.invalid
        );
        failed = true;
    }

    if args.props > 0 {
        print!(
            "property: simplify preserves semantics ({} cases)... ",
            args.props
        );
        match check_simplify(args.seed, args.props) {
            Ok(()) => println!("ok"),
            Err(e) => {
                println!("FAILED\n  {e}");
                failed = true;
            }
        }
    }

    if args.graph_props > 0 {
        print!(
            "graph static oracle: optimizer output verifies, injected faults are caught \
             ({} cases)... ",
            args.graph_props
        );
        match check_graph_static(args.seed, args.graph_props) {
            Ok(stats) => println!(
                "ok ({} clean, {}/{} mutations caught)",
                stats.clean, stats.caught, stats.mutations
            ),
            Err(e) => {
                println!("FAILED\n  {e}");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
