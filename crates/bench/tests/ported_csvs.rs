//! Scenarios must regenerate their committed CSV artifacts
//! byte-identically and pass their paper-shape checks
//! (`ScenarioRun::ok`): a change to how a scenario computes its cells may
//! change the route, never the numbers. The checks cover claims no CSV
//! holds, such as L\*'s growth at v2 = 0 (`example4`), Theorem 4.3
//! (`example5`) and L\* ≤ HT (`ht_dominance`). CI's scenario suite pins
//! every CSV in release builds; this test guards the scenarios listed
//! here at `cargo test` time.

use std::path::PathBuf;

use monotone_bench::scenarios;
use monotone_engine::{CsvArtifact, Engine, Runner};

/// The committed results directory (the workspace's `results/`).
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results")
}

/// Renders an assembled artifact exactly as `write_csv_in` serializes it.
fn rendered(artifact: &CsvArtifact) -> String {
    let mut out = String::new();
    out.push_str(&artifact.spec.headers.join(","));
    out.push('\n');
    for row in &artifact.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn assert_regenerates(name: &str) {
    let registry = scenarios::registry();
    let scenario = registry
        .get(name)
        .unwrap_or_else(|| panic!("{name} registered"));
    // Multi-shard, multi-worker on purpose: byte-identity must hold for
    // every execution geometry, not just the one that wrote the files.
    let run = Runner::new(Engine::with_threads(2))
        .with_shards(3)
        .run(scenario)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    assert!(run.ok, "{name}: paper-shape checks failed");
    for artifact in &run.artifacts {
        let path = results_dir().join(&artifact.spec.file);
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed {}: {e}", path.display()));
        assert_eq!(
            rendered(artifact),
            committed,
            "{name}: {} diverged from the committed artifact",
            artifact.spec.file
        );
    }
}

#[test]
fn example4_regenerates_committed_csvs() {
    assert_regenerates("example4");
}

#[test]
fn example5_regenerates_committed_csvs() {
    assert_regenerates("example5");
}

#[test]
fn rg_ratios_regenerates_committed_csv() {
    assert_regenerates("rg_ratios");
}

#[test]
fn ht_dominance_regenerates_committed_csv() {
    assert_regenerates("ht_dominance");
}

#[test]
fn lp_difference_regenerates_committed_csv() {
    assert_regenerates("lp_difference");
}

#[test]
fn j_ratio_regenerates_committed_csv() {
    assert_regenerates("j_ratio");
}

#[test]
#[ignore = "debug-mode ADS construction takes minutes; the CI determinism job pins this CSV in release"]
fn similarity_regenerates_committed_csv() {
    assert_regenerates("similarity");
}

#[test]
fn lsh_regenerates_committed_csv() {
    assert_regenerates("lsh");
}

#[test]
fn coordination_gain_regenerates_committed_csv() {
    assert_regenerates("coordination_gain");
}

#[test]
fn multiway_regenerates_committed_csv() {
    assert_regenerates("multiway");
}

#[test]
fn error_scaling_regenerates_committed_csv() {
    assert_regenerates("error_scaling");
}

#[test]
fn service_regenerates_committed_csv() {
    assert_regenerates("service");
}
