//! E8 — Theorem 4.2: L\* dominates the Horvitz-Thompson estimator (and all
//! monotone estimators).
//!
//! Tabulates per-data variance of L\*, HT and the dyadic J baseline for
//! RG1+ and RG2+ over a grid of data vectors. L\*'s variance is at most
//! HT's everywhere; at `v2 = 0` HT is not even applicable (reveal
//! probability 0) while L\* remains unbiased. One sweep unit per
//! (p, data-vector) cell; each shard evaluates its cells over the
//! engine's worker pool.

use std::ops::Range;

use monotone_core::estimate::{DyadicJ, HorvitzThompson};
use monotone_core::func::RangePowPlus;
use monotone_core::problem::Mep;
use monotone_core::scheme::TupleScheme;
use monotone_core::variance::VarianceCalc;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const PS: [f64; 2] = [1.0, 2.0];
const VECTORS: [[f64; 2]; 8] = [
    [0.9, 0.0],
    [0.9, 0.1],
    [0.9, 0.3],
    [0.9, 0.6],
    [0.9, 0.85],
    [0.5, 0.0],
    [0.5, 0.25],
    [0.5, 0.45],
];

pub struct HtDominance;

impl Scenario for HtDominance {
    fn name(&self) -> &'static str {
        "ht_dominance"
    }

    fn description(&self) -> &'static str {
        "E8: L* variance dominates HT wherever HT applies (Theorem 4.2)"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e8_ht_dominance.csv",
            &["p", "v", "var_lstar", "var_ht", "var_j", "ht_applicable"],
        )]
    }

    fn units(&self) -> usize {
        PS.len() * VECTORS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        let calc = VarianceCalc::new(1e-9, 2000);
        let units: Vec<usize> = units.collect();
        let outs = engine.map_chunked(&units, |_, &unit| -> Result<UnitOut> {
            let pi = unit / VECTORS.len();
            let (p, v) = (PS[pi], VECTORS[unit % VECTORS.len()]);
            let mep = Mep::new(RangePowPlus::new(p), TupleScheme::pps(&[1.0, 1.0])?)?;
            let ht = HorvitzThompson::new();
            let var_l = calc.lstar_stats(&mep, &v)?.variance;
            let var_h = calc.stats(&mep, &ht, &v)?.variance;
            let var_j = calc.stats(&mep, &DyadicJ::new(), &v)?.variance;
            let applicable = ht.is_applicable(&mep, &v)?;
            // HT's "variance" is meaningless where it is biased; report the
            // mean-squared error about f(v) instead (same formula).
            let ok = !applicable || var_l <= var_h + 1e-6;
            let mut out = UnitOut::default();
            out.row(
                0,
                vec![
                    format!("{p}"),
                    format!("{};{}", v[0], v[1]),
                    format!("{var_l}"),
                    format!("{var_h}"),
                    format!("{var_j}"),
                    format!("{applicable}"),
                ],
            );
            out.show(
                pi,
                vec![
                    format!("({}, {})", v[0], v[1]),
                    fnum(var_l),
                    if applicable {
                        fnum(var_h)
                    } else {
                        format!("{} (biased)", fnum(var_h))
                    },
                    fnum(var_j),
                    if applicable { "yes" } else { "no" }.into(),
                    if ok { "yes" } else { "NO" }.into(),
                ],
            );
            out.metric(f64::from(u8::from(ok)));
            Ok(out)
        });
        outs.into_iter().collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        let mut all_ok = true;
        for (pi, p) in PS.iter().enumerate() {
            let mut t = Table::new(
                &format!("E8: variance on RG{p}+ (PPS 1)"),
                &[
                    "v",
                    "VAR L*",
                    "VAR HT",
                    "VAR J",
                    "HT applicable",
                    "L* <= HT",
                ],
            );
            let group = &outs[pi * VECTORS.len()..(pi + 1) * VECTORS.len()];
            let dominated = group.iter().all(|o| o.metrics == vec![1.0]);
            all_ok &= dominated;
            for out in group {
                for row in out.table_rows(pi) {
                    t.row(row.clone());
                }
            }
            lines.push(t.render());
            lines.push(format!(
                "  L* dominates HT wherever HT applies: {dominated}\n"
            ));
        }
        FinishOut::new(lines, all_ok)
    }
}
