//! E16 — k-way union distinct counts over arity-N group jobs.
//!
//! The paper's Section 1 lists distinct counts — items active in at least
//! one instance — among the sum aggregates coordinated sketches support,
//! and the customization line (arXiv:1212.0243, arXiv:1406.6490) targets
//! exactly such multi-instance set relations. This scenario exercises the
//! engine's arity-N surface end to end: for k ∈ {2, 3, 4, 6, 8} it builds
//! a k-instance group with half-overlapping supports
//! ([`workload::distinct_group_pool`]) and estimates the k-way union size
//! through [`Engine::run`] twice — once with the OR family's
//! registered inverse-probability closed form, once with closed forms
//! disabled (the generic quadrature L\* over arity-k outcomes) — and
//! records their agreement alongside the paper-style accuracy measures.
//! One sweep unit per k.

use std::ops::Range;

use monotone_core::Result;
use monotone_engine::{workload, Engine, EngineQuery};

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const ARITIES: [usize; 5] = [2, 3, 4, 6, 8];
const ITEMS_PER_INSTANCE: u64 = 400;
const SCALE: f64 = 2.0;
const SALTS: u64 = 24;
/// Randomizations run through the generic path (quadrature per sampled
/// item at arity k is orders pricier than the closed form; a prefix of
/// the same salts is enough to pin the agreement).
const GENERIC_SALTS: u64 = 4;

pub struct Multiway;

impl Scenario for Multiway {
    fn name(&self) -> &'static str {
        "multiway"
    }

    fn description(&self) -> &'static str {
        "E16: k-way union distinct counts over arity-N group jobs, closed vs generic"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e16_multiway.csv",
            &[
                "k",
                "union_truth",
                "mean_estimate",
                "nrmse",
                "max_closed_generic_gap",
            ],
        )]
    }

    fn units(&self) -> usize {
        ARITIES.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        units
            .map(|unit| {
                let k = ARITIES[unit];
                let group = workload::distinct_group_pool(k, ITEMS_PER_INSTANCE);
                let jobs = workload::group_jobs(&group, SALTS, 0);
                let query = EngineQuery::distinct_k(k, SCALE);
                let batch = engine.run(&jobs, &query)?;
                let truth = batch.pairs[0].truth;
                let summary = &batch.summaries[0];

                // Closed-form vs generic agreement on a salt prefix: the
                // dispatch decision changes the route, never the estimand.
                let generic = engine.run(
                    &jobs[..GENERIC_SALTS as usize],
                    &query.clone().without_closed_forms(),
                )?;
                let gap = batch
                    .pairs
                    .iter()
                    .zip(&generic.pairs)
                    .map(|(c, g)| (c.estimates[0] - g.estimates[0]).abs())
                    .fold(0.0f64, f64::max);

                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        format!("{k}"),
                        format!("{truth}"),
                        format!("{}", summary.mean_estimate),
                        format!("{}", summary.nrmse),
                        format!("{gap}"),
                    ],
                );
                out.show(
                    0,
                    vec![
                        format!("{k}"),
                        fnum(truth),
                        fnum(summary.mean_estimate),
                        fnum(summary.nrmse),
                        fnum(gap),
                    ],
                );
                // Metrics for finish: relative mean error, relative
                // agreement gap (the absolute gap scales with the union).
                out.metric((summary.mean_estimate - truth).abs() / truth)
                    .metric(gap / truth);
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            &format!("E16: k-way union distinct count, {SALTS} randomizations (PPS τ* = {SCALE})"),
            &[
                "k",
                "union truth",
                "mean L* estimate",
                "nrmse",
                "max |closed − generic|",
            ],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        let mean_ok = outs.iter().all(|o| o.metrics[0] < 0.1);
        let agree_ok = outs.iter().all(|o| o.metrics[1] < 1e-6);
        FinishOut::new(
            vec![
                t.render(),
                format!(
                    "\npaper-shape checks: mean within 10% of the union at every k ({mean_ok}),"
                ),
                format!(
                    "closed-form and generic-quadrature L* agree to 1e-6 relative ({agree_ok})"
                ),
                "— the inverse-probability form is the same estimator, dispatched".to_owned(),
                "through the OR family's arity-N registration.".to_owned(),
            ],
            mean_ok && agree_ok,
        )
    }
}
