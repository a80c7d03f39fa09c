//! E6 — Theorem 4.1: the L\* competitive ratio is tight at 4.
//!
//! Sweeps the family `f(v) = (1 − v^{1−p})/(1−p)` on `V = [0,1]` with
//! `τ(u) = u`, data `v = 0`. The paper proves ratio `2/(1−p)`, approaching 4
//! as `p → 0.5⁻`. We print the closed form alongside the numeric ratio
//! computed by the generic machinery (log-grid integration); the numeric
//! column is reliable up to p ≈ 0.4 — beyond that the integrals concentrate
//! below any fixed grid floor and only the closed form is meaningful (the
//! divergence is the point of the construction).

use std::ops::Range;

use monotone_core::func::PowerGapFamily;
use monotone_core::problem::Mep;
use monotone_core::scheme::TupleScheme;
use monotone_core::variance::VarianceCalc;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const PS: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.49, 0.499];

pub struct Ratio4;

impl Scenario for Ratio4 {
    fn name(&self) -> &'static str {
        "ratio4"
    }

    fn description(&self) -> &'static str {
        "E6: tightness of the L* ratio 4 on the power-gap family"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new("e6_ratio4.csv", &["p", "closed", "numeric"])]
    }

    fn units(&self) -> usize {
        PS.len()
    }

    fn run_shard(&self, units: Range<usize>, _engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: the variance calculator.
        let calc = VarianceCalc::new(1e-12, 4000);
        units
            .map(|i| {
                let p = PS[i];
                let fam = PowerGapFamily::new(p);
                let closed = fam.ratio_at_zero();
                let numeric_valid = p <= 0.41;
                let numeric = if p < 0.48 {
                    let mep = Mep::new(fam, TupleScheme::pps(&[1.0])?)?;
                    calc.lstar_competitive_ratio(&mep, &[0.0])?
                        .unwrap_or(f64::NAN)
                } else {
                    f64::NAN
                };
                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![format!("{p}"), format!("{closed}"), format!("{numeric}")],
                );
                out.show(
                    0,
                    vec![
                        format!("{p}"),
                        fnum(closed),
                        if numeric.is_nan() {
                            "-".into()
                        } else {
                            fnum(numeric)
                        },
                        if numeric_valid {
                            "yes"
                        } else {
                            "tail-dominated"
                        }
                        .into(),
                    ],
                );
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E6: L* ratio on the tight family (paper: 2/(1−p) → 4)",
            &["p", "closed-form ratio", "numeric ratio", "numeric valid"],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        FinishOut::new(
            vec![
                t.render(),
                "\nsup over the family = 4 (Theorem 4.1); L* is 4-competitive for every MEP"
                    .to_owned(),
            ],
            true,
        )
    }
}
