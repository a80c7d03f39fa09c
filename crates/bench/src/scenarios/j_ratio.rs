//! E11 — empirical competitiveness of the dyadic J baseline vs L\*.
//!
//! The J estimator of \[15\] guarantees O(1) competitiveness (84 in that
//! paper) but is neither admissible nor monotone; Theorem 4.1's bound of 4
//! for L\* is the improvement. We measure the per-data ratio
//! `E[f̂²]/E[(f̂⁽ᵛ⁾)²]` of both estimators across the RGp+ family and the
//! tight scalar family. One sweep unit per (problem, data) cell; each
//! shard evaluates its cells over the engine's worker pool.

use std::ops::Range;

use monotone_core::estimate::DyadicJ;
use monotone_core::func::{ItemFn, PowerGapFamily, RangePowPlus};
use monotone_core::problem::Mep;
use monotone_core::scheme::TupleScheme;
use monotone_core::variance::VarianceCalc;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const RG_PS: [f64; 3] = [0.5, 1.0, 2.0];
const RG_VECTORS: [[f64; 2]; 4] = [[0.9, 0.0], [0.9, 0.45], [0.9, 0.8], [0.3, 0.1]];
const POWER_PS: [f64; 3] = [0.0, 0.2, 0.35];

/// The dyadic-J and L\* competitive ratios of `f` on `v` under PPS(1) in
/// every entry, NaN where the optimum is numerically zero.
fn ratios<F: ItemFn>(f: F, v: &[f64], calc: &VarianceCalc) -> Result<(f64, f64)> {
    let mep = Mep::new(f, TupleScheme::pps(&vec![1.0; v.len()])?)?;
    let rj = calc.competitive_ratio(&mep, &DyadicJ::new(), v)?;
    let rl = calc.lstar_competitive_ratio(&mep, v)?;
    Ok((rj.unwrap_or(f64::NAN), rl.unwrap_or(f64::NAN)))
}

pub struct JRatio;

impl Scenario for JRatio {
    fn name(&self) -> &'static str {
        "j_ratio"
    }

    fn description(&self) -> &'static str {
        "E11: per-data competitive ratios of the dyadic J baseline vs L*"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e11_j_ratio.csv",
            &["problem", "data", "ratio_j", "ratio_lstar"],
        )]
    }

    fn units(&self) -> usize {
        RG_PS.len() * RG_VECTORS.len() + POWER_PS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        let calc = VarianceCalc::new(1e-10, 3000);
        let rg_cells = RG_PS.len() * RG_VECTORS.len();
        let units: Vec<usize> = units.collect();
        let outs = engine.map_chunked(&units, |_, &unit| -> Result<UnitOut> {
            let (problem, problem_shown, data, data_shown, (rj, rl)) = if unit < rg_cells {
                let p = RG_PS[unit / RG_VECTORS.len()];
                let v = RG_VECTORS[unit % RG_VECTORS.len()];
                (
                    format!("RG{p}+"),
                    format!("RG{p}+"),
                    format!("{};{}", v[0], v[1]),
                    format!("({}, {})", v[0], v[1]),
                    ratios(RangePowPlus::new(p), &v, &calc)?,
                )
            } else {
                // The tight scalar family: an arity-1 problem at v = 0.
                let p = POWER_PS[unit - rg_cells];
                (
                    format!("power{p}"),
                    format!("power p={p}"),
                    "0".to_owned(),
                    "0".to_owned(),
                    ratios(PowerGapFamily::new(p), &[0.0], &calc)?,
                )
            };
            let mut out = UnitOut::default();
            out.row(0, vec![problem, data, format!("{rj}"), format!("{rl}")]);
            out.show(0, vec![problem_shown, data_shown, fnum(rj), fnum(rl)]);
            out.metric(rj).metric(rl);
            Ok(out)
        });
        outs.into_iter().collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E11: per-data competitive ratios — J (dyadic) vs L*",
            &["problem", "data", "ratio J", "ratio L*"],
        );
        let mut sup_j: f64 = 0.0;
        let mut sup_l: f64 = 0.0;
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
            if let [rj, rl] = out.metrics[..] {
                if rj.is_finite() {
                    sup_j = sup_j.max(rj);
                }
                if rl.is_finite() {
                    sup_l = sup_l.max(rl);
                }
            }
        }
        FinishOut::new(
            vec![
                t.render(),
                format!(
                    "\nsup observed: J = {}, L* = {} (L* is provably <= 4 everywhere)",
                    fnum(sup_j),
                    fnum(sup_l)
                ),
            ],
            true,
        )
    }
}
