//! The scenario registry: every experiment of the suite as a
//! [`Scenario`], executed by this crate's sharded [`Runner`].
//!
//! Each module here is one registry entry describing a paper experiment
//! as (instance-family generator, estimator set, sweep axes, aggregation)
//! — the shape the runner shards deterministically over the engine's
//! worker count. The `exp_runner` binary drives them
//! (`cargo run --bin exp_runner -- <scenario> [--shards N]`).
//!
//! Every run emits its CSV artifacts plus a machine-readable timing
//! record `BENCH_<scenario>.json` under `results/`, the same perf-record
//! convention as `BENCH_engine.json`, so the CI perf trajectory covers
//! the whole experiment suite.

mod allpairs;
mod coordination_gain;
mod error_scaling;
mod example1;
mod example2;
mod example3;
mod example4;
mod example5;
mod ht_dominance;
mod j_ratio;
mod lp_difference;
mod lsh;
mod multiway;
mod optimal_ratio;
mod ratio4;
mod rg_ratios;
mod service;
mod similarity;

use std::path::{Path, PathBuf};

use monotone_core::Result;

use crate::{Runner, Scenario, ScenarioRun};

/// The full experiment registry, in E-number order (the order
/// `exp_runner --list` and `--all` follow).
pub fn registry() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(example1::Example1),
        Box::new(example2::Example2),
        Box::new(example3::Example3),
        Box::new(example4::Example4),
        Box::new(example5::Example5),
        Box::new(ratio4::Ratio4),
        Box::new(rg_ratios::RgRatios),
        Box::new(ht_dominance::HtDominance),
        Box::new(lp_difference::LpDifference::new()),
        Box::new(similarity::Similarity::new()),
        Box::new(j_ratio::JRatio),
        Box::new(lsh::Lsh),
        Box::new(error_scaling::ErrorScaling::new()),
        Box::new(optimal_ratio::OptimalRatio),
        Box::new(coordination_gain::CoordinationGain),
        Box::new(multiway::Multiway),
        Box::new(service::Service),
        Box::new(allpairs::AllPairs),
    ]
}

/// Writes a run's CSV artifacts and its `BENCH_<name>.json` timing
/// record under `dir`, returning the paths written (timing record last).
///
/// # Panics
///
/// Panics on I/O errors (experiment drivers want loud failures).
pub fn emit(run: &ScenarioRun, dir: &Path) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("create output dir");
    let mut paths = Vec::new();
    for artifact in &run.artifacts {
        paths.push(crate::write_csv_in(
            dir,
            &artifact.spec.file,
            &artifact.spec.headers,
            &artifact.rows,
        ));
    }
    let bench = dir.join(format!("BENCH_{}.json", run.name));
    std::fs::write(&bench, run.timing_json()).expect("write timing record");
    paths.push(bench);
    paths
}

/// Runs one scenario through `runner`, prints its report, and emits its
/// artifacts + timing record into `dir`.
///
/// # Errors
///
/// Propagates the scenario's first shard error.
pub fn execute(scenario: &dyn Scenario, runner: &Runner, dir: &Path) -> Result<ScenarioRun> {
    let run = runner.run(scenario)?;
    for line in &run.lines {
        println!("{line}");
    }
    if !run.ok {
        println!(
            "WARNING: paper-shape checks FAILED for scenario {}",
            run.name
        );
    }
    for path in emit(&run, dir) {
        println!("wrote {}", path.display());
    }
    let t = &run.timing;
    println!(
        "[{}] {} units over {} shards / {} workers in {:.3}s ({:.1} units/s)",
        run.name, t.units, t.shards, t.workers, t.elapsed_secs, t.units_per_sec
    );
    Ok(run)
}
