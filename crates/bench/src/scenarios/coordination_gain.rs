//! E15 — why coordinate: estimation accuracy of coordinated vs independent
//! samples (paper, Section 1: coordination "allows for more accurate
//! estimates of queries that span multiple instances").
//!
//! Holds the marginal sampling design fixed (same per-item inclusion
//! probabilities, same expected sample sizes) and compares the NRMSE of L1
//! sum estimation from *coordinated* samples (L\* and HT estimators)
//! against *independently seeded* samples (product-form HT), across a drift
//! sweep from near-identical to strongly differing instance pairs. One
//! sweep unit per drift level; the coordinated side runs as one engine
//! batch per unit (64 salts × {L\*, HT} in a single pass over each pair).

use std::ops::Range;

use monotone_coord::independent::IndependentPps;
use monotone_coord::instance::{Dataset, Instance};
use monotone_coord::query::weighted_jaccard;
use monotone_coord::seed::SeedHasher;
use monotone_core::func::RangePowPlus;
use monotone_core::Result;
use monotone_datagen::zipf::lognormal_factor;
use monotone_engine::{Engine, EngineQuery, EstimatorKind, PairJob};
use rand::SeedableRng;

use crate::{fnum, stats::nrmse, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const SIGMAS: [f64; 6] = [0.02, 0.05, 0.1, 0.25, 0.5, 1.0];
const ITEMS: u64 = 2000;
const SCALE: f64 = 2.0; // E|S| ≈ n/scale · E[w] — a few hundred items
const TRIALS: u64 = 64;

pub struct CoordinationGain;

impl Scenario for CoordinationGain {
    fn name(&self) -> &'static str {
        "coordination_gain"
    }

    fn description(&self) -> &'static str {
        "E15: coordinated vs independently-seeded estimation accuracy across drift"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e15_coordination_gain.csv",
            &[
                "sigma",
                "data_jaccard",
                "nrmse_coord_lstar",
                "nrmse_coord_ht",
                "nrmse_indep_ht",
            ],
        )]
    }

    fn units(&self) -> usize {
        SIGMAS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: query and item function.
        let f = RangePowPlus::new(1.0);
        let query = EngineQuery::rg_plus(1.0, SCALE)
            .with_estimators(&[EstimatorKind::LStar, EstimatorKind::HorvitzThompson]);
        units
            .map(|unit| {
                let sigma = SIGMAS[unit];
                let mut rng = rand::rngs::StdRng::seed_from_u64(7 + (sigma * 1000.0) as u64);
                // All-positive pair so the independent product-HT is unbiased too.
                let a = Instance::from_pairs(
                    (0..ITEMS).map(|k| (k, 0.1 + 0.9 * ((k % 89) as f64 / 89.0))),
                );
                let b =
                    Instance::from_pairs(a.iter().map(|(k, w)| {
                        (k, (w * lognormal_factor(&mut rng, sigma)).clamp(0.01, 1.0))
                    }));
                let jac = weighted_jaccard(&a, &b);

                // Coordinated estimation: one batch over all randomizations.
                let jobs: Vec<PairJob> =
                    (0..TRIALS).map(|salt| PairJob::new(&a, &b, salt)).collect();
                let batch = engine.run(&jobs, &query)?;
                let (el, eh) = (batch.summaries[0].nrmse, batch.summaries[1].nrmse);
                let truth = batch.summaries[0].mean_truth;

                // Independent sampling baseline (the contrast case stays
                // per-call: it is the design the engine exists to beat).
                let data = Dataset::new(vec![a, b]);
                let indep_ht: Vec<f64> = (0..TRIALS)
                    .map(|salt| {
                        let is = IndependentPps::uniform_scale(2, SCALE, SeedHasher::new(salt));
                        let isamples = is.sample_all(&data);
                        is.ht_sum_estimate(&f, &isamples, None)
                    })
                    .collect();
                let ei = nrmse(&indep_ht, truth);

                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        format!("{sigma}"),
                        format!("{jac}"),
                        format!("{el}"),
                        format!("{eh}"),
                        format!("{ei}"),
                    ],
                );
                out.show(
                    0,
                    vec![format!("{sigma}"), fnum(jac), fnum(el), fnum(eh), fnum(ei)],
                );
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E15: NRMSE of the L1+ sum estimate — coordinated vs independent samples",
            &[
                "drift sigma",
                "data jaccard",
                "coord L*",
                "coord HT",
                "indep HT (product)",
            ],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        FinishOut::new(
            vec![
                t.render(),
                "\npaper-shape check: with the same marginal design, coordinated L* is far"
                    .to_owned(),
                "more accurate than independent product-HT, most dramatically on similar"
                    .to_owned(),
                "instances (small drift) — the reason coordination exists. Coordinated HT"
                    .to_owned(),
                "already beats independent HT; L* adds the partial-information outcomes."
                    .to_owned(),
            ],
            true,
        )
    }
}
