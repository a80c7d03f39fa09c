//! The scenario driver: runs any registered experiment through
//! `monotone-bench`'s sharded [`Runner`].
//!
//! ```sh
//! cargo run --release -p monotone-bench --bin exp_runner -- --list
//! cargo run --release -p monotone-bench --bin exp_runner -- error_scaling
//! cargo run --release -p monotone-bench --bin exp_runner -- --shards 4 --workers 2 lsh
//! cargo run --release -p monotone-bench --bin exp_runner -- --all
//! ```
//!
//! Each run prints the scenario's tables/checks and writes its CSV
//! artifacts plus a `BENCH_<scenario>.json` timing record into the
//! output directory (`results/` by default; `--out DIR` overrides it —
//! the CI determinism job uses that to diff runs at different shard and
//! worker counts).
//!
//! The exit status is 1 when any scenario fails to run or fails its
//! paper-shape checks, once every named scenario has run and written its
//! output; 2 on a usage error.

use std::path::PathBuf;

use monotone_bench::{results_dir, scenarios, Runner, Scenario};
use monotone_engine::Engine;

const USAGE: &str = "usage: exp_runner [--list] [--all] [--shards N] [--workers N] [--procs N] \
     [--out DIR] <scenario>...";

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut shards: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut list = false;
    let mut all = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--shards" => shards = Some(parse_count(args.next(), "--shards")),
            "--workers" => workers = Some(parse_count(args.next(), "--workers")),
            "--procs" => {
                // Scenario distributed legs read the count from the
                // environment (they spawn their own worker processes).
                let procs = parse_count(args.next(), "--procs");
                std::env::set_var(monotone_bench::DIST_PROCS_ENV, procs.to_string());
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory\n{USAGE}");
                    std::process::exit(2);
                })))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            name if !name.starts_with('-') => names.push(name.to_owned()),
            other => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let registry = scenarios::registry();
    if list {
        println!("{} registered scenarios:", registry.len());
        for s in registry.iter() {
            println!("  {:<18} {}", s.name(), s.description());
        }
        return;
    }
    if all {
        if !names.is_empty() {
            eprintln!("--all cannot be combined with explicit scenario names ({names:?})\n{USAGE}");
            std::process::exit(2);
        }
        names = registry.iter().map(|s| s.name().to_owned()).collect();
    }
    if names.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    // Resolve every name up front so a typo exits before any scenario
    // runs or writes artifacts.
    let chosen: Vec<&dyn Scenario> = names
        .iter()
        .map(|name| match registry.iter().find(|s| s.name() == name) {
            Some(scenario) => scenario.as_ref(),
            None => {
                eprintln!("unknown scenario {name:?}; try --list");
                std::process::exit(2);
            }
        })
        .collect();

    let engine = workers.map_or_else(Engine::new, Engine::with_threads);
    let mut runner = Runner::new(engine);
    if let Some(shards) = shards {
        runner = runner.with_shards(shards);
    }
    let dir = out_dir.unwrap_or_else(results_dir);

    let mut failed = false;
    for scenario in chosen {
        let name = scenario.name();
        println!("\n=== scenario {name}: {} ===", scenario.description());
        match scenarios::execute(scenario, &runner, &dir) {
            Ok(run) => failed |= !run.ok,
            Err(e) => {
                eprintln!("scenario {name} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn parse_count(arg: Option<String>, flag: &str) -> usize {
    match arg.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer\n{USAGE}");
            std::process::exit(2);
        }
    }
}
