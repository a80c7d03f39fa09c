//! E5 — Example 5 tables: order-optimal estimators on V = {0..3}².
//!
//! Regenerates, for RG1+ with thresholds π = (0.25, 0.5, 0.75):
//! the lower-bound table (unit 0), the estimate tables of three
//! ≺⁺-optimal estimators (units 1–3: L\* order, U\* order, and the
//! "difference-2 first" custom order of the walkthrough) with exact
//! unbiasedness and variance columns, and the cross-checks (unit 4:
//! Theorem 4.3 agreement of the L\*-order estimator with closed-form L\*,
//! plus the variance-by-order customization table).
//!
//! Every table cell — lower bound, order-optimal estimate per interval,
//! exact moments, Theorem 4.3 gap — is evaluated over the engine's
//! worker pool. The order objects memoize through a `RefCell`, so each
//! cell builds its own; the memo is a pure cache and never changes a
//! number.

use std::ops::Range;

use monotone_core::discrete::{DiscreteMep, DiscreteOutcome, OrderOptimal};
use monotone_core::func::RangePowPlus;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const PI: [f64; 3] = [0.25, 0.5, 0.75];
const INTERVALS: [&str; 4] = ["(0,π1]", "(π1,π2]", "(π2,π3]", "(π3,1]"];
const ORDER_NAMES: [&str; 3] = [
    "L* order (f ascending)",
    "U* order (f descending)",
    "custom order (difference 2 first)",
];
const ORDER_FILES: [&str; 3] = [
    "e5_estimates_lstar.csv",
    "e5_estimates_ustar.csv",
    "e5_estimates_custom.csv",
];
const VECTOR_HEADERS: [&str; 7] = [
    "interval", "(1,0)", "(2,1)", "(2,0)", "(3,2)", "(3,1)", "(3,0)",
];

/// Display-table indices (scenario-private).
const SHOW_LOWER: usize = 0;
const SHOW_EST: usize = 1; // 1..=3: estimate tables per order
const SHOW_MOMENTS: usize = 4; // 4..=6: moment tables per order
const SHOW_VARIANCE: usize = 7;

fn example5() -> Result<DiscreteMep<RangePowPlus>> {
    let mut vectors = Vec::new();
    for a in 0..4 {
        for b in 0..4 {
            vectors.push(vec![a as f64, b as f64]);
        }
    }
    let probs = vec![(0.0, 0.0), (1.0, PI[0]), (2.0, PI[1]), (3.0, PI[2])];
    DiscreteMep::new(RangePowPlus::new(1.0), vectors, vec![probs.clone(), probs])
}

fn positive_vectors() -> Vec<Vec<f64>> {
    vec![
        vec![1.0, 0.0],
        vec![2.0, 1.0],
        vec![2.0, 0.0],
        vec![3.0, 2.0],
        vec![3.0, 1.0],
        vec![3.0, 0.0],
    ]
}

fn order_for<'a>(mep: &'a DiscreteMep<RangePowPlus>, idx: usize) -> OrderOptimal<'a, RangePowPlus> {
    match idx {
        0 => OrderOptimal::f_ascending(mep),
        1 => OrderOptimal::f_descending(mep),
        _ => OrderOptimal::by_key(mep, |v| {
            let d = v[0] - v[1];
            (d - 2.0).abs() * 10.0 + d
        }),
    }
}

/// Evaluates `cell` on the outcome of every (interval, vector) pair over
/// `engine`'s worker pool, vectors inner — the row layout of the
/// Example 5 tables.
fn interval_sweep(
    engine: &Engine,
    mep: &DiscreteMep<RangePowPlus>,
    vectors: &[Vec<f64>],
    cell: impl Fn(&DiscreteOutcome) -> f64 + Sync,
) -> Vec<f64> {
    let outcomes: Vec<DiscreteOutcome> = (0..mep.interval_count())
        .flat_map(|k| vectors.iter().map(move |v| mep.outcome_at_interval(v, k)))
        .collect();
    engine.map_chunked(&outcomes, |_, outcome| cell(outcome))
}

pub struct Example5;

impl Scenario for Example5 {
    fn name(&self) -> &'static str {
        "example5"
    }

    fn description(&self) -> &'static str {
        "E5: order-optimal estimators on the discrete {0..3}^2 walkthrough"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        let mut specs = vec![CsvSpec::new(
            "e5_lower_bounds.csv",
            &["interval", "v10", "v21", "v20", "v32", "v31", "v30"],
        )];
        for file in ORDER_FILES {
            specs.push(CsvSpec::new(
                file,
                &["interval", "v10", "v21", "v20", "v32", "v31", "v30"],
            ));
        }
        specs
    }

    fn units(&self) -> usize {
        5
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: the discrete MEP and probe vectors.
        let mep = example5()?;
        let positive = positive_vectors();
        units
            .map(|unit| {
                let mut out = UnitOut::default();
                match unit {
                    // Lower-bound table (paper's first Example 5 table).
                    0 => {
                        let lbs = interval_sweep(engine, &mep, &positive, |o| mep.lower_bound(o));
                        for (k, row) in lbs.chunks(positive.len()).enumerate() {
                            let mut cells = vec![INTERVALS[k].to_owned()];
                            cells.extend(row.iter().map(|&lb| fnum(lb)));
                            out.row(0, cells.clone());
                            out.show(SHOW_LOWER, cells);
                        }
                    }
                    // One ≺⁺-optimal order: estimates per interval + exact moments.
                    1..=3 => {
                        let order = unit - 1;
                        let ests = interval_sweep(engine, &mep, &positive, |o| {
                            order_for(&mep, order).estimate(o)
                        });
                        for (k, row) in ests.chunks(positive.len()).enumerate() {
                            let mut cells = vec![INTERVALS[k].to_owned()];
                            cells.extend(row.iter().map(|&est| fnum(est)));
                            out.row(unit, cells.clone());
                            out.show(SHOW_EST + order, cells);
                        }
                        let moments = engine
                            .map_chunked(&positive, |_, v| {
                                let est = order_for(&mep, order);
                                Ok((est.expected(v)?, est.variance(v)?))
                            })
                            .into_iter()
                            .collect::<Result<Vec<_>>>()?;
                        for (v, (mean, variance)) in positive.iter().zip(moments) {
                            let f = (v[0] - v[1]).max(0.0);
                            out.show(
                                SHOW_MOMENTS + order,
                                vec![format!("{v:?}"), fnum(mean), fnum(f), fnum(variance)],
                            );
                        }
                    }
                    // Cross-checks: Theorem 4.3 agreement over every
                    // domain vector and the variance-by-order
                    // customization table.
                    _ => {
                        let max_gap = interval_sweep(engine, &mep, mep.vectors(), |o| {
                            let asc = OrderOptimal::f_ascending(&mep);
                            (asc.estimate(o) - mep.lstar_estimate(o)).abs()
                        })
                        .into_iter()
                        .fold(0.0f64, f64::max);
                        out.note(format!(
                            "max |order-opt(f asc) − L*| over all outcomes: {} (Theorem 4.3)",
                            fnum(max_gap)
                        ));
                        out.metric(f64::from(u8::from(max_gap < 1e-9)));

                        let vars = engine
                            .map_chunked(&positive, |_, v| {
                                (0..3)
                                    .map(|order| order_for(&mep, order).variance(v))
                                    .collect::<Result<Vec<f64>>>()
                            })
                            .into_iter()
                            .collect::<Result<Vec<_>>>()?;
                        for (v, row) in positive.iter().zip(vars) {
                            let mut cells = vec![format!("{v:?}")];
                            cells.extend(row.into_iter().map(fnum));
                            out.show(SHOW_VARIANCE, cells);
                        }
                    }
                }
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        let mut t = Table::new("E5: lower bounds RG1+(v)(u)", &VECTOR_HEADERS);
        for row in outs[0].table_rows(SHOW_LOWER) {
            t.row(row.clone());
        }
        lines.push(t.render());

        for order in 0..3 {
            let out = &outs[1 + order];
            let mut t = Table::new(
                &format!("E5: {} — estimates per interval", ORDER_NAMES[order]),
                &VECTOR_HEADERS,
            );
            for row in out.table_rows(SHOW_EST + order) {
                t.row(row.clone());
            }
            lines.push(t.render());
            let mut s = Table::new(
                &format!("E5: {} — exact moments", ORDER_NAMES[order]),
                &["vector", "E[f̂]", "f(v)", "variance"],
            );
            for row in out.table_rows(SHOW_MOMENTS + order) {
                s.row(row.clone());
            }
            lines.push(s.render());
            lines.push(String::new());
        }

        let checks = &outs[4];
        lines.extend(checks.notes.iter().cloned());
        let mut c = Table::new(
            "E5: variance by order (customization effect)",
            &["vector", "L* order", "U* order", "custom (d=2 first)"],
        );
        for row in checks.table_rows(SHOW_VARIANCE) {
            c.row(row.clone());
        }
        lines.push(c.render());
        FinishOut::new(lines, checks.metrics == vec![1.0])
    }
}
