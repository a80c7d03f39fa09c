//! Scenario-subsystem integration: a tiny scenario registered and run at
//! several shard counts must produce identical aggregates, and emitting a
//! run must write CSV artifacts plus a timing record with a positive
//! rate. Also pins the registry contents the `exp_runner` binary serves.

use std::ops::Range;
use std::path::PathBuf;

use monotone_bench::{scenarios, CsvSpec, FinishOut, Runner, Scenario, UnitOut};
use monotone_coord::seed::SeedHasher;
use monotone_core::Result;
use monotone_engine::{workload, Engine, EngineQuery};

/// A miniature sweep over the canonical engine workload: one unit per
/// salt block, each unit an engine batch whose mean L* estimate is both
/// a CSV row and an aggregate metric.
struct TinyScenario;

impl Scenario for TinyScenario {
    fn name(&self) -> &'static str {
        "tiny"
    }

    fn description(&self) -> &'static str {
        "integration-test sweep over the canonical RG1+ workload"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new("tiny.csv", &["unit", "mean_estimate"])]
    }

    fn units(&self) -> usize {
        6
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state, reused by the shard's units.
        let pool = workload::rg1_instance_pool(8, 12);
        let query = EngineQuery::rg_plus(1.0, 1.0);
        units
            .map(|unit| {
                let jobs = workload::rg1_pair_jobs(&pool, 16 * (unit + 1));
                let batch = engine.run(&jobs, &query)?;
                let mean = batch.summaries[0].mean_estimate;
                let mut out = UnitOut::default();
                out.row(0, vec![format!("{unit}"), format!("{mean}")]);
                out.metric(mean);
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let total: f64 = outs.iter().map(|o| o.metrics[0]).sum();
        FinishOut::new(vec![format!("total {total}")], total > 0.0)
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "monotone_scenario_runner_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The registered scenario named `name`.
fn registered(name: &str) -> Box<dyn Scenario> {
    scenarios::registry()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("{name} registered"))
}

#[test]
fn tiny_scenario_identical_aggregates_across_shard_counts() {
    let one = Runner::new(Engine::with_threads(1))
        .with_shards(1)
        .run(&TinyScenario)
        .expect("run at 1 shard");
    let three = Runner::new(Engine::with_threads(2))
        .with_shards(3)
        .run(&TinyScenario)
        .expect("run at 3 shards");

    // Identical aggregates: artifacts, report lines, and check verdicts.
    assert_eq!(one.artifacts, three.artifacts);
    assert_eq!(one.lines, three.lines);
    assert_eq!(one.ok, three.ok);
    assert!(one.ok, "mean estimates must be positive");
    assert_eq!(one.artifacts[0].rows.len(), 6);
    assert_eq!(one.timing.shards, 1);
    assert_eq!(three.timing.shards, 3);
}

#[test]
fn emitting_a_run_writes_artifacts_and_a_positive_rate_timing_record() {
    let scenario = TinyScenario;
    let run = Runner::new(Engine::with_threads(2))
        .with_shards(3)
        .run(&scenario)
        .expect("run");
    let dir = scratch_dir("emit");
    let paths = scenarios::emit(&run, &dir);

    // One CSV artifact + the timing record, both on disk.
    assert_eq!(paths.len(), 2);
    let csv = std::fs::read_to_string(&paths[0]).expect("csv written");
    assert!(csv.starts_with("unit,mean_estimate\n"));
    assert_eq!(csv.lines().count(), 1 + 6);

    let record = std::fs::read_to_string(&paths[1]).expect("timing record written");
    assert!(paths[1].ends_with("BENCH_tiny.json"));
    assert!(record.contains("\"bench\": \"scenario_tiny\""));
    assert!(record.contains("\"units\": 6"));
    // The recorded rate must be strictly positive.
    let rate: f64 = record
        .lines()
        .find(|l| l.contains("units_per_sec"))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_end_matches(',').parse().expect("rate number"))
        .expect("units_per_sec field");
    assert!(rate > 0.0, "rate {rate} must be positive");
    assert!(run.timing.units_per_sec > 0.0);
    // The record names the machine as the repository benchmark does.
    let cores: usize = record
        .lines()
        .find(|l| l.contains("\"available_parallelism\""))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_end_matches(',').parse().expect("core count"))
        .expect("available_parallelism field");
    assert_eq!(
        cores,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let lanes = format!(
        "\"seed_many_lanes\": \"{}\",",
        SeedHasher::seed_many_lanes()
    );
    assert!(record.contains(&lanes), "missing {lanes} in {record}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_registry_serves_all_eighteen_experiments() {
    let registry = scenarios::registry();
    let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        vec![
            "example1",
            "example2",
            "example3",
            "example4",
            "example5",
            "ratio4",
            "rg_ratios",
            "ht_dominance",
            "lp_difference",
            "similarity",
            "j_ratio",
            "lsh",
            "error_scaling",
            "optimal_ratio",
            "coordination_gain",
            "multiway",
            "service",
            "allpairs",
        ]
    );
    for s in registry.iter() {
        assert!(!s.description().is_empty());
        assert!(s.units() > 0, "{} has an empty sweep", s.name());
        assert!(!s.artifacts().is_empty(), "{} emits no CSVs", s.name());
    }
}

/// The three places that enumerate scenarios outside the registry — the
/// README's scenario table, the CI determinism job's scenario list, and
/// the registry itself (which `exp_runner --list` prints verbatim) —
/// must not drift apart silently.
#[test]
fn readme_table_and_ci_scenario_lists_match_the_registry() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let registry = scenarios::registry();
    let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();

    // README scenario table (under the "Scenario index" heading): one
    // row per registry entry, in registration (E-number) order.
    let readme = std::fs::read_to_string(root.join("README.md")).expect("read README.md");
    let table_names: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.contains("### Scenario index"))
        .take_while(|l| !l.starts_with('#') || l.contains("### Scenario index"))
        .filter_map(|l| {
            let rest = l.strip_prefix("| `")?;
            rest.split('`').next()
        })
        .collect();
    assert_eq!(
        table_names, names,
        "README scenario table rows must match the registry, in order"
    );

    // The determinism job's explicit scenario list must name real
    // scenarios and cover the all-pairs join.
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let det_line = ci
        .lines()
        .find(|l| l.contains("--out \"/tmp/det$s\""))
        .expect("determinism job run line present in ci.yml");
    let det_names: Vec<&str> = det_line
        .split_whitespace()
        .skip_while(|w| *w != "--out")
        .skip(2)
        .collect();
    assert!(
        !det_names.is_empty(),
        "determinism job must list scenarios explicitly"
    );
    for name in &det_names {
        assert!(
            names.contains(name),
            "determinism job lists unknown scenario {name:?}"
        );
    }
    assert!(
        det_names.contains(&"allpairs"),
        "determinism job must cover the all-pairs join"
    );
}

/// A scenario must emit byte-identical CSV rows and report lines, and
/// pass its paper-shape checks, at every shard × worker geometry of the
/// full 1/2/4 × 1/2/4 grid. The group-job scenarios pin the determinism
/// contract of `SourceJob`s over a `WeightMerger`; the known-data sweeps
/// pin their worker-pool evaluation, whose report lines carry checks no
/// CSV holds.
fn assert_scenario_deterministic(name: &str) {
    let scenario = registered(name);
    let reference = Runner::new(Engine::with_threads(1))
        .with_shards(1)
        .run(scenario.as_ref())
        .unwrap_or_else(|e| panic!("{name} at 1/1: {e}"));
    assert!(reference.ok, "{name} paper-shape checks failed");
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 4] {
            let run = Runner::new(Engine::with_threads(workers))
                .with_shards(shards)
                .run(scenario.as_ref())
                .unwrap_or_else(|e| panic!("{name} at {shards}/{workers}: {e}"));
            assert_eq!(
                run.artifacts, reference.artifacts,
                "{name}: CSV rows differ at {shards} shards / {workers} workers"
            );
            assert_eq!(run.lines, reference.lines);
            assert!(run.ok, "{name} checks failed at {shards}/{workers}");
        }
    }
}

#[test]
fn multiway_group_jobs_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("multiway");
}

#[test]
fn lsh_group_jobs_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("lsh");
}

#[test]
fn example5_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("example5");
}

#[test]
fn rg_ratios_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("rg_ratios");
}

#[test]
fn ht_dominance_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("ht_dominance");
}

#[test]
fn j_ratio_deterministic_across_shards_and_workers() {
    assert_scenario_deterministic("j_ratio");
}

#[test]
fn example1_runs_through_the_registry_end_to_end() {
    let run = Runner::new(Engine::with_threads(2))
        .with_shards(2)
        .run(registered("example1").as_ref())
        .expect("run example1");
    assert!(run.ok);
    assert_eq!(run.artifacts[0].rows.len(), 5);
    // The known Example 1 values survive the port (L1 sum of the paper).
    assert_eq!(run.artifacts[0].rows[0][0], "L1({b,c,e})");
    let l1: f64 = run.artifacts[0].rows[0][1].parse().expect("number");
    assert!((l1 - 0.72).abs() < 1e-12, "L1 {l1}");
}
