//! E2 — Example 2 table: coordinated PPS outcomes for the paper's seeds.
//!
//! Replays the exact seeds of Example 2 (u(a)=0.32, …) over the Example 1
//! dataset with unit-scale PPS and prints the per-item outcomes, matching
//! the paper's S(a) = (0.95, *, *), …, S(h) = (*, *, *).

use std::ops::Range;

use monotone_coord::instance::Dataset;
use monotone_core::scheme::{EntryState, TupleScheme};
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
const SEEDS: [f64; 8] = [0.32, 0.21, 0.04, 0.23, 0.84, 0.70, 0.15, 0.64];
/// The outcomes printed in the paper.
const EXPECTED: [&str; 8] = [
    "(0.95, *, *)",
    "(*, 0.44, *)",
    "(0.23, *, *)",
    "(0.7, 0.8, *)",
    "(*, *, *)",
    "(*, *, *)",
    "(*, 0.2, *)",
    "(*, *, *)",
];

pub struct Example2;

impl Scenario for Example2 {
    fn name(&self) -> &'static str {
        "example2"
    }

    fn description(&self) -> &'static str {
        "E2: coordinated PPS outcomes replaying the paper's Example 2 seeds"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e2_example2.csv",
            &["item", "seed", "outcome"],
        )]
    }

    fn units(&self) -> usize {
        NAMES.len()
    }

    fn run_shard(&self, units: Range<usize>, _engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: dataset and scheme, built once.
        let data = Dataset::example1();
        let scheme = TupleScheme::pps(&[1.0, 1.0, 1.0])?;
        let mut v = vec![0.0; data.arity()];
        Ok(units
            .map(|i| {
                data.tuple_into(i as u64, &mut v);
                let out_tuple = scheme.sample(&v, SEEDS[i]).expect("valid sample");
                let shown: Vec<String> = out_tuple
                    .entries()
                    .iter()
                    .map(|e| match e {
                        EntryState::Known(w) => format!("{w}"),
                        EntryState::Capped => "*".to_owned(),
                    })
                    .collect();
                let outcome = format!("({})", shown.join(", "));
                let matches = outcome.replace(".00", "") == *EXPECTED[i]
                    || normalize(&outcome) == normalize(EXPECTED[i]);
                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        NAMES[i].to_owned(),
                        format!("{}", SEEDS[i]),
                        outcome.clone(),
                    ],
                );
                out.show(
                    0,
                    vec![
                        NAMES[i].to_owned(),
                        format!("{}", SEEDS[i]),
                        format!("{v:?}"),
                        outcome,
                        EXPECTED[i].to_owned(),
                        if matches { "yes" } else { "NO" }.to_owned(),
                    ],
                );
                out.metric(f64::from(u8::from(matches)));
                out
            })
            .collect())
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E2: Example 2 coordinated PPS outcomes (τ* = 1)",
            &["item", "u", "tuple", "outcome", "paper", "match"],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        let all_match = outs.iter().all(|o| o.metrics == vec![1.0]);
        FinishOut::new(
            vec![
                t.render(),
                format!("\nall outcomes match the paper: {all_match}"),
            ],
            all_match,
        )
    }
}

/// Compares outcomes up to numeric formatting (0.7 vs 0.70).
fn normalize(s: &str) -> Vec<Option<f64>> {
    s.trim_matches(['(', ')'])
        .split(',')
        .map(|tok| {
            let tok = tok.trim();
            if tok == "*" {
                None
            } else {
                Some(tok.parse::<f64>().expect("number"))
            }
        })
        .collect()
}
