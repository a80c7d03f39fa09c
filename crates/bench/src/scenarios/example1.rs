//! E1 — Example 1 table: exact queries over the 3×8 demo dataset.
//!
//! Regenerates every query value of the paper's Example 1 and reports the
//! printed paper value next to ours. Two entries in the paper are
//! arithmetic slips (see EXPERIMENTS.md): L1({b,c,e}) and L1+({b,c,e}).

use std::ops::Range;

use monotone_coord::instance::Dataset;
use monotone_coord::query::exact_sum;
use monotone_core::func::{LinearAbsPow, RangePow, RangePowPlus};
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

/// One unit per paper query; `(name, paper value, note)`.
const QUERIES: [(&str, &str, &str); 5] = [
    ("L1({b,c,e})", "0.71", "paper summands total 0.72"),
    ("L2^2({c,f,h})", "≈0.16", "match"),
    ("L2({c,f,h})", "≈0.40", "match"),
    (
        "L1+({b,c,e})",
        "0.235",
        "paper took 0.10-0.05 as 0.005; correct sum 0.28",
    ),
    ("G({b,d})", "≈1.18", "paper printed √G; G itself is 1.4144"),
];

pub struct Example1;

impl Scenario for Example1 {
    fn name(&self) -> &'static str {
        "example1"
    }

    fn description(&self) -> &'static str {
        "E1: exact Example 1 queries over the 3x8 demo dataset"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new("e1_example1.csv", &["query", "ours", "paper"])]
    }

    fn units(&self) -> usize {
        QUERIES.len()
    }

    fn run_shard(&self, units: Range<usize>, _engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: the demo dataset and key selections.
        let data = Dataset::example1();
        let pair = Dataset::new(vec![data.instance(0).clone(), data.instance(1).clone()]);
        // Items: a..h = keys 0..8; H selections from the paper.
        let bce = [1u64, 2, 4];
        let cfh = [2u64, 5, 7];
        let bd = [1u64, 3];
        Ok(units
            .map(|i| {
                let ours = match i {
                    0 => exact_sum(&RangePow::new(1.0, 2), &pair, Some(&bce)),
                    1 => exact_sum(&RangePow::new(2.0, 2), &pair, Some(&cfh)),
                    2 => exact_sum(&RangePow::new(2.0, 2), &pair, Some(&cfh)).sqrt(),
                    3 => exact_sum(&RangePowPlus::new(1.0), &pair, Some(&bce)),
                    _ => exact_sum(
                        &LinearAbsPow::new(vec![1.0, -2.0, 1.0], 0.0, 2.0),
                        &data,
                        Some(&bd),
                    ),
                };
                let (name, paper, note) = QUERIES[i];
                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![name.to_owned(), format!("{ours}"), paper.to_owned()],
                );
                out.show(
                    0,
                    vec![
                        name.to_owned(),
                        fnum(ours),
                        paper.to_owned(),
                        note.to_owned(),
                    ],
                );
                out
            })
            .collect())
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E1: Example 1 queries (paper values in parentheses where they differ)",
            &["query", "ours", "paper", "note"],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        FinishOut::new(vec![t.render()], true)
    }
}
