//! E9 — Lp-difference estimation over coordinated samples (paper,
//! Section 7 / companion \[7\]).
//!
//! Estimates `L1` and `L2²` differences (split into increase and decrease
//! parts estimated with `RGp+`) on two synthetic dataset families:
//!
//! * *flow-like* (IP traffic stand-in): heavy churn → large differences —
//!   the U\* estimator should win;
//! * *stable-like* (surnames stand-in): small drift → small differences —
//!   the L\* estimator should win, and U\* can be much worse, while L\*
//!   never is (its 4-competitiveness in action).
//!
//! Reports NRMSE per estimator across a sampling-rate sweep. One sweep
//! unit per (family, p, target-size) cell; each cell runs its 48
//! coordinated randomizations as ONE engine batch (96 pair jobs: the
//! increase and decrease directions share each salt's coordinated
//! sample), replacing the per-call `estimate_sum` loop this experiment
//! hand-rolled before.

use std::ops::Range;

use monotone_coord::instance::Dataset;
use monotone_coord::pps::scale_for_expected_size;
use monotone_core::Result;
use monotone_datagen::pairs::{flow_like, stable_like, PairConfig};
use monotone_engine::{Engine, EngineQuery, EstimatorKind, PairJob};
use rand::SeedableRng;

use crate::{fnum, stats::nrmse, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const TRIALS: u64 = 48;
const PS: [f64; 2] = [1.0, 2.0];
const TARGETS: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
const FAMILIES: [&str; 2] = ["flow-like (dissimilar)", "stable-like (similar)"];
const ESTIMATORS: [EstimatorKind; 4] = [
    EstimatorKind::LStar,
    EstimatorKind::UStar,
    EstimatorKind::HorvitzThompson,
    EstimatorKind::DyadicJ,
];

/// Scenario state built lazily on first use (registry construction and
/// `--list` stay free): the two dataset families (the paper's fixed-seed
/// synthetic stand-ins).
#[derive(Default)]
pub struct LpDifference {
    families: std::sync::OnceLock<[Dataset; 2]>,
}

impl LpDifference {
    pub fn new() -> LpDifference {
        LpDifference::default()
    }

    fn families(&self) -> &[Dataset; 2] {
        self.families.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(20140615);
            let mut flow_cfg = PairConfig::flow();
            flow_cfg.keys = 1500;
            let mut stable_cfg = PairConfig::stable();
            stable_cfg.keys = 1500;
            // The two families share one seeded stream, in this order.
            let flow = flow_like(&flow_cfg, &mut rng);
            let stable = stable_like(&stable_cfg, &mut rng);
            [flow, stable]
        })
    }
}

impl Scenario for LpDifference {
    fn name(&self) -> &'static str {
        "lp_difference"
    }

    fn description(&self) -> &'static str {
        "E9: Lp-difference NRMSE sweeps on flow-like vs stable-like pairs (engine batches)"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e9_lp_difference.csv",
            &[
                "family",
                "p",
                "target_size",
                "nrmse_lstar",
                "nrmse_ustar",
                "nrmse_ht",
                "nrmse_j",
            ],
        )]
    }

    fn units(&self) -> usize {
        FAMILIES.len() * PS.len() * TARGETS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        units
            .map(|unit| {
                let fam = unit / (PS.len() * TARGETS.len());
                let p = PS[(unit / TARGETS.len()) % PS.len()];
                let target = TARGETS[unit % TARGETS.len()];
                let data = &self.families()[fam];
                let (a, b) = (data.instance(0), data.instance(1));
                let scale =
                    scale_for_expected_size(a, target).max(scale_for_expected_size(b, target));
                let query = EngineQuery::rg_plus(p, scale).with_estimators(&ESTIMATORS);
                // One batch: per salt, the increase direction (a, b) and the
                // decrease direction (b, a) under the SAME coordinated sample.
                let mut jobs: Vec<PairJob> = Vec::with_capacity(2 * TRIALS as usize);
                jobs.extend((0..TRIALS).map(|salt| PairJob::new(a, b, salt * 7 + 1)));
                jobs.extend((0..TRIALS).map(|salt| PairJob::new(b, a, salt * 7 + 1)));
                let batch = engine.run(&jobs, &query)?;
                // Lp^p = increase part + decrease part, per salt.
                let truth = batch.pairs[0].truth + batch.pairs[TRIALS as usize].truth;
                let mut errs = Vec::with_capacity(ESTIMATORS.len());
                for e in 0..ESTIMATORS.len() {
                    let series: Vec<f64> = (0..TRIALS as usize)
                        .map(|t| {
                            batch.pairs[t].estimates[e]
                                + batch.pairs[TRIALS as usize + t].estimates[e]
                        })
                        .collect();
                    errs.push(nrmse(&series, truth));
                }
                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        FAMILIES[fam].to_owned(),
                        format!("{p}"),
                        format!("{target}"),
                        format!("{}", errs[0]),
                        format!("{}", errs[1]),
                        format!("{}", errs[2]),
                        format!("{}", errs[3]),
                    ],
                );
                out.show(
                    fam * PS.len() + ((unit / TARGETS.len()) % PS.len()),
                    vec![
                        format!("{target}"),
                        fnum(errs[0]),
                        fnum(errs[1]),
                        fnum(errs[2]),
                        fnum(errs[3]),
                    ],
                );
                out.metric(truth);
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        for (fam, fam_name) in FAMILIES.iter().enumerate() {
            let data = &self.families()[fam];
            lines.push(format!(
                "\n### dataset family: {fam_name} ({} / {} items)",
                data.instance(0).len(),
                data.instance(1).len()
            ));
            for (pi, p) in PS.iter().enumerate() {
                let table = fam * PS.len() + pi;
                let first_unit = (fam * PS.len() + pi) * TARGETS.len();
                let truth = outs[first_unit].metrics[0];
                let mut t = Table::new(
                    &format!(
                        "E9 {fam_name}: NRMSE of Lp^p estimate, p = {p} (truth {})",
                        fnum(truth)
                    ),
                    &["expected sample size", "L*", "U*", "HT", "J"],
                );
                for out in &outs[first_unit..first_unit + TARGETS.len()] {
                    for row in out.table_rows(table) {
                        t.row(row.clone());
                    }
                }
                lines.push(t.render());
            }
        }
        lines.push("\npaper-shape checks:".to_owned());
        lines.push("  * U* should beat L* on the flow-like family,".to_owned());
        lines.push("  * L* should beat U* on the stable-like family,".to_owned());
        lines.push(
            "  * L* never blows up (4-competitive), HT degrades where reveal probs vanish."
                .to_owned(),
        );
        FinishOut::new(lines, true)
    }
}
