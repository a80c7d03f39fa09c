//! E7 — the L\* competitive ratios for exponentiated ranges: 2 for RG1,
//! 2.5 for RG2 (paper, Section 1 "Contributions" and Section 7).
//!
//! Sweeps `v = (1, v2)` for `v2/v1 ∈ [0, 1)` under PPS(1) and reports the
//! per-data ratio `E[(f̂ᴸ)²]/E[(f̂⁽ᵛ⁾)²]` and its supremum, for both `RGp+`
//! and the symmetric `RGp`, p ∈ {1, 2}. One sweep unit per (function,
//! grid-point) cell — 80 cells the runner shards freely; each shard
//! evaluates its cells over the engine's worker pool.

use std::ops::Range;

use monotone_core::func::{RangePow, RangePowPlus};
use monotone_core::problem::Mep;
use monotone_core::scheme::TupleScheme;
use monotone_core::variance::VarianceCalc;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const FUNCS: [&str; 4] = ["RG1+", "RG2+", "RG1", "RG2"];
const PAPER: [&str; 4] = ["2", "2.5", "2", "2.5"];
const POINTS: usize = 20;

/// The L\* competitive ratio of function `func` on `v` under common-scale
/// PPS(1), NaN when the optimum is numerically zero.
fn lstar_ratio(func: usize, v: [f64; 2], calc: &VarianceCalc) -> Result<f64> {
    let pps = TupleScheme::pps(&[1.0, 1.0])?;
    let ratio = match func {
        0 => calc.lstar_competitive_ratio(&Mep::new(RangePowPlus::new(1.0), pps)?, &v)?,
        1 => calc.lstar_competitive_ratio(&Mep::new(RangePowPlus::new(2.0), pps)?, &v)?,
        2 => calc.lstar_competitive_ratio(&Mep::new(RangePow::new(1.0, 2), pps)?, &v)?,
        _ => calc.lstar_competitive_ratio(&Mep::new(RangePow::new(2.0, 2), pps)?, &v)?,
    };
    Ok(ratio.unwrap_or(f64::NAN))
}

pub struct RgRatios;

impl Scenario for RgRatios {
    fn name(&self) -> &'static str {
        "rg_ratios"
    }

    fn description(&self) -> &'static str {
        "E7: L* ratio sweeps for RGp+/RGp, sup vs the paper's 2 and 2.5"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e7_rg_ratios.csv",
            &["function", "v2", "ratio"],
        )]
    }

    fn units(&self) -> usize {
        FUNCS.len() * POINTS
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        let calc = VarianceCalc::new(1e-10, 3000);
        let units: Vec<usize> = units.collect();
        let outs = engine.map_chunked(&units, |_, &unit| -> Result<UnitOut> {
            let (func, v2) = (unit / POINTS, (unit % POINTS) as f64 / POINTS as f64);
            let ratio = lstar_ratio(func, [1.0, v2], &calc)?;
            let mut out = UnitOut::default();
            out.row(
                0,
                vec![FUNCS[func].to_owned(), format!("{v2}"), format!("{ratio}")],
            );
            out.show(func, vec![format!("{v2:.2}"), fnum(ratio)]);
            out.metric(ratio);
            Ok(out)
        });
        outs.into_iter().collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        let mut sups = [0.0f64; 4];
        for (func, name) in FUNCS.iter().enumerate() {
            let mut t = Table::new(
                &format!("E7: L* ratio sweep for {name}, v = (1, v2)"),
                &["v2", "ratio"],
            );
            for out in &outs[func * POINTS..(func + 1) * POINTS] {
                for row in out.table_rows(func) {
                    t.row(row.clone());
                }
                if let Some(&ratio) = out.metrics.first() {
                    if ratio.is_finite() {
                        sups[func] = sups[func].max(ratio);
                    }
                }
            }
            lines.push(t.render());
            lines.push(format!("  sup ratio for {name}: {}\n", fnum(sups[func])));
        }
        let mut t = Table::new(
            "E7 summary: sup ratios vs paper",
            &["function", "sup ratio (ours)", "paper"],
        );
        for (func, name) in FUNCS.iter().enumerate() {
            t.row(vec![
                (*name).to_owned(),
                fnum(sups[func]),
                PAPER[func].to_owned(),
            ]);
        }
        lines.push(t.render());
        FinishOut::new(lines, true)
    }
}
