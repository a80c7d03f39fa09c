//! Scenario descriptions.
//!
//! Every experiment in this workspace has the same shape: sweep a family
//! of instances or parameters (the *units*), run estimators over each
//! unit, and aggregate the per-unit results into CSV series and
//! paper-shape checks. A [`Scenario`] captures that shape declaratively —
//! which CSV artifacts it produces, how many sweep units it has, how to
//! run a contiguous *shard* of units (so per-shard prepared state such as
//! MEPs, datasets, or graph truths is built once and reused across the
//! shard), and how to aggregate the ordered unit outputs at the end.
//!
//! The [`Runner`](crate::Runner) executes scenarios over the engine's
//! worker count; [`scenarios::registry`](crate::scenarios::registry)
//! lists every experiment so the `exp_runner` binary can list and run
//! them.
//!
//! Determinism contract: a unit's output may depend only on its unit
//! index (and the scenario's own immutable state), never on which shard
//! or worker executed it. The runner concatenates unit outputs in unit
//! order, so every CSV artifact is byte-identical for every shard and
//! worker count.
//!
//! # Examples
//!
//! ```
//! use monotone_bench::{CsvSpec, Runner, Scenario, UnitOut};
//! use monotone_engine::Engine;
//!
//! struct Squares;
//! impl Scenario for Squares {
//!     fn name(&self) -> &'static str {
//!         "squares"
//!     }
//!     fn description(&self) -> &'static str {
//!         "x^2 over a tiny sweep"
//!     }
//!     fn artifacts(&self) -> Vec<CsvSpec> {
//!         vec![CsvSpec::new("squares.csv", &["x", "x_squared"])]
//!     }
//!     fn units(&self) -> usize {
//!         4
//!     }
//!     fn run_shard(
//!         &self,
//!         units: std::ops::Range<usize>,
//!         _engine: &Engine,
//!     ) -> monotone_core::Result<Vec<UnitOut>> {
//!         Ok(units
//!             .map(|x| {
//!                 let mut out = UnitOut::default();
//!                 out.row(0, vec![format!("{x}"), format!("{}", x * x)]);
//!                 out
//!             })
//!             .collect())
//!     }
//! }
//!
//! let run = Runner::new(Engine::with_threads(2))
//!     .with_shards(3)
//!     .run(&Squares)
//!     .unwrap();
//! assert_eq!(run.artifacts[0].rows.len(), 4);
//! assert_eq!(run.artifacts[0].rows[3], vec!["3".to_string(), "9".to_string()]);
//! ```

use std::ops::Range;

use monotone_core::Result;
use monotone_engine::Engine;

/// Declaration of one CSV artifact a scenario emits: the file name
/// (relative to the results directory) and its column headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvSpec {
    /// File name, e.g. `"e7_rg_ratios.csv"`.
    pub file: String,
    /// Column headers, written as the first CSV line.
    pub headers: Vec<String>,
}

impl CsvSpec {
    /// A spec from a file name and header slice.
    pub fn new(file: &str, headers: &[&str]) -> CsvSpec {
        CsvSpec {
            file: file.to_owned(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
        }
    }
}

/// Output of one sweep unit: CSV rows tagged with the artifact they
/// belong to, display rows tagged with a scenario-private table index
/// (consumed by [`Scenario::finish`] to rebuild human-readable tables),
/// free-form note lines, and scalar metrics for aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitOut {
    /// `(artifact index, row)` pairs; the runner concatenates them in
    /// unit order into [`CsvArtifact`](crate::CsvArtifact)s.
    pub rows: Vec<(usize, Vec<String>)>,
    /// `(table index, row)` pairs for the scenario's own tables.
    pub display: Vec<(usize, Vec<String>)>,
    /// Human-readable per-unit notes, interleaved by `finish`.
    pub notes: Vec<String>,
    /// Scalar metrics (ratios, errors, check booleans as 0/1) consumed by
    /// `finish` for cross-unit aggregation.
    pub metrics: Vec<f64>,
}

impl UnitOut {
    /// Appends a CSV row to artifact `artifact`.
    pub fn row(&mut self, artifact: usize, cells: Vec<String>) -> &mut UnitOut {
        self.rows.push((artifact, cells));
        self
    }

    /// Appends a display row to the scenario-private table `table`.
    pub fn show(&mut self, table: usize, cells: Vec<String>) -> &mut UnitOut {
        self.display.push((table, cells));
        self
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut UnitOut {
        self.notes.push(line.into());
        self
    }

    /// Appends a scalar metric.
    pub fn metric(&mut self, x: f64) -> &mut UnitOut {
        self.metrics.push(x);
        self
    }

    /// The display rows of table `table`, in insertion order.
    pub fn table_rows(&self, table: usize) -> impl Iterator<Item = &Vec<String>> + '_ {
        self.display
            .iter()
            .filter(move |(t, _)| *t == table)
            .map(|(_, row)| row)
    }
}

/// Post-sweep aggregation result: the human-readable report (rendered
/// tables, observations) and whether the scenario's paper-shape checks
/// passed (informational — a failed check is reported, not fatal).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FinishOut {
    /// Report lines, printed in order by the driver.
    pub lines: Vec<String>,
    /// Whether every paper-shape check passed.
    pub ok: bool,
    /// Scenario-contributed numeric fields spliced into the
    /// `BENCH_<name>.json` timing record
    /// ([`ScenarioRun::timing_json`](crate::ScenarioRun::timing_json)) —
    /// figures a scenario measures itself and CI gates (e.g. the
    /// allpairs scenario's minimum slice recall). Keys must be unique and
    /// not collide with the fixed schema keys.
    pub bench_fields: Vec<(String, f64)>,
}

impl FinishOut {
    /// A report from lines and a check verdict.
    pub fn new(lines: Vec<String>, ok: bool) -> FinishOut {
        FinishOut {
            lines,
            ok,
            bench_fields: Vec::new(),
        }
    }

    /// Adds one numeric field to the scenario's `BENCH_<name>.json`
    /// record.
    #[must_use]
    pub fn with_bench_field(mut self, key: &str, value: f64) -> FinishOut {
        self.bench_fields.push((key.to_owned(), value));
        self
    }
}

/// A sweep-shaped experiment workload, executable by the
/// [`Runner`](crate::Runner).
///
/// Implementations must be deterministic per unit index: `run_shard` over
/// `a..b` must produce exactly the outputs units `a..b` would produce in
/// any other sharding, so artifacts are identical at every shard and
/// worker count.
pub trait Scenario: Sync {
    /// Name in the registry (also the `BENCH_<name>.json` timing-record
    /// stem).
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// The CSV artifacts this scenario emits, indexed by position.
    fn artifacts(&self) -> Vec<CsvSpec>;

    /// Number of independent sweep units.
    fn units(&self) -> usize;

    /// Runs the contiguous shard `units`, returning one [`UnitOut`] per
    /// unit in ascending unit order. State shared by the shard's units
    /// (MEPs, variance calculators, datasets) should be prepared once at
    /// the top of this call.
    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>>;

    /// Aggregates the ordered unit outputs into the final report. The
    /// default reports nothing and passes.
    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let _ = outs;
        FinishOut::new(Vec::new(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_out_channels() {
        let mut out = UnitOut::default();
        out.row(0, vec!["x".into()])
            .show(1, vec!["y".into()])
            .note("n")
            .metric(2.0);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.table_rows(1).count(), 1);
        assert_eq!(out.table_rows(0).count(), 0);
        assert_eq!(out.metrics, vec![2.0]);
    }
}
