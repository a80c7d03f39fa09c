//! # monotone-bench
//!
//! Experiment harness for the reproduction of Cohen, *"Estimation for
//! Monotone Sampling"* (PODC 2014). Every experiment is a [`scenarios`]
//! registry entry executed by the engine's sharded runner via the
//! `exp_runner` binary (the README's experiment table lists them, with
//! the CSV each one writes under `results/`); Criterion
//! micro-benchmarks live under `benches/`.

pub mod scenarios;
pub mod stats;
pub mod table;

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

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

/// Writes a CSV file (headers + rows) into `dir`, returning the path
/// written — the single serialization point for every scenario artifact.
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
    let mut out = fs::File::create(&path).expect("create csv");
    let headers: Vec<&str> = headers.iter().map(AsRef::as_ref).collect();
    writeln!(out, "{}", headers.join(",")).expect("write header");
    for row in rows {
        writeln!(out, "{}", row.join(",")).expect("write row");
    }
    path
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
