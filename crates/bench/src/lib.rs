//! # monotone-bench
//!
//! Experiment harness for the reproduction of Cohen, *"Estimation for
//! Monotone Sampling"* (PODC 2014). Every experiment is a [`Scenario`]
//! in the [`scenarios`] registry, executed by this crate's sharded
//! [`Runner`] via the `exp_runner` binary (the README's experiment table
//! lists them, with the CSV each one writes under `results/`); Criterion
//! micro-benchmarks live under `benches/`.

pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod stats;
pub mod table;

pub use runner::{CsvArtifact, Runner, ScenarioRun, ScenarioTiming};
pub use scenario::{CsvSpec, FinishOut, Scenario, UnitOut};

use std::fs;
use std::path::{Path, PathBuf};

use monotone_coord::seed::SeedHasher;

/// Environment variable the distributed scenario legs read their
/// process-shard count from (set by `exp_runner --procs N`). The legs
/// spawn that many `shard_worker` child processes; every CSV artifact
/// stays byte-identical whatever the count (the determinism matrix
/// diffs runs at 1, 2, and 4).
pub const DIST_PROCS_ENV: &str = "MONOTONE_DIST_PROCS";

/// Process-shard count for the distributed scenario legs:
/// [`DIST_PROCS_ENV`], defaulting to 1 (a single worker process — the
/// distribution path still runs, over one child).
pub fn distributed_procs() -> usize {
    std::env::var(DIST_PROCS_ENV)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Directory into which experiment binaries drop their CSV series.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Renders a CSV artifact — the header line, then one line per row —
/// exactly as [`write_csv_in`] writes it: the single serializer for
/// every scenario artifact.
pub fn csv_text<H: AsRef<str>>(headers: &[H], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    push_record(&mut out, headers);
    for row in rows {
        push_record(&mut out, row);
    }
    out
}

/// Appends one CSV record: the cells joined by commas, then a newline.
/// A cell holding a comma, a double quote or a line break is quoted per
/// RFC 4180 — wrapped in double quotes, each inner quote doubled — so
/// labels such as `L1({b,c,e})` stay one field.
fn push_record<C: AsRef<str>>(out: &mut String, cells: &[C]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cell = cell.as_ref();
        if cell.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Writes a CSV file (headers + rows) into `dir`, returning the path
/// written.
///
/// # Panics
///
/// Panics on I/O errors (experiment drivers want loud failures).
pub fn write_csv_in<H: AsRef<str>>(
    dir: &Path,
    name: &str,
    headers: &[H],
    rows: &[Vec<String>],
) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, csv_text(headers, rows)).expect("write csv");
    path
}

/// The machine fields every `BENCH_*.json` record carries, with the
/// values the repository benchmark's `# machine` line prints: the
/// available cores and the lane implementation
/// [`SeedHasher::seed_many`] dispatches to. Each field sits on its own
/// indented line ending in a comma, ready to splice into a record.
pub fn machine_fields() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "  \"available_parallelism\": {cores},\n  \"seed_many_lanes\": \"{}\",\n",
        SeedHasher::seed_many_lanes()
    )
}

/// Formats a float compactly for tables.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.abs() >= 1000.0 || x.abs() < 0.001 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}
