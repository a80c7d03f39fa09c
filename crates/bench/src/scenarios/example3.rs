//! E3 — Example 3 figures: lower-bound functions and their lower hulls.
//!
//! Three panels (p ∈ {0.5, 1, 2}) of `RGp+` under PPS(1), for the data
//! vectors (0.6, 0.2) and (0.6, 0): the LB curve `max(0, v1 − max(v2, u))^p`
//! and its lower hull (whose negated slopes are the v-optimal estimates).
//! One sweep unit per panel, one CSV artifact per panel, plus structural
//! checks mirroring the paper's observations.

use std::ops::Range;

use monotone_core::func::RangePowPlus;
use monotone_core::problem::Mep;
use monotone_core::scheme::TupleScheme;
use monotone_core::Result;
use monotone_engine::Engine;

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const PANELS: [f64; 3] = [0.5, 1.0, 2.0];

pub struct Example3;

impl Scenario for Example3 {
    fn name(&self) -> &'static str {
        "example3"
    }

    fn description(&self) -> &'static str {
        "E3: lower-bound curves and lower hulls for RGp+, one panel per p"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        PANELS
            .iter()
            .map(|p| {
                CsvSpec::new(
                    &format!("e3_lb_hull_p{p}.csv"),
                    &["u", "lb_062", "hull_062", "lb_060", "hull_060"],
                )
            })
            .collect()
    }

    fn units(&self) -> usize {
        PANELS.len()
    }

    fn run_shard(&self, units: Range<usize>, _engine: &Engine) -> Result<Vec<UnitOut>> {
        units
            .map(|panel| {
                let p = PANELS[panel];
                let mep = Mep::new(RangePowPlus::new(p), TupleScheme::pps(&[1.0, 1.0])?)?;
                let lb_a = mep.data_lower_bound(&[0.6, 0.2])?;
                let lb_b = mep.data_lower_bound(&[0.6, 0.0])?;
                let hull_a = lb_a.hull(1e-6, 2000);
                let hull_b = lb_b.hull(1e-6, 2000);
                let mut out = UnitOut::default();
                for k in 1..=160 {
                    let u = k as f64 * 0.005;
                    out.row(
                        panel,
                        vec![
                            format!("{u:.4}"),
                            format!("{}", lb_a.eval(u)),
                            format!("{}", hull_a.value(u)),
                            format!("{}", lb_b.eval(u)),
                            format!("{}", hull_b.value(u)),
                        ],
                    );
                    if k % 20 == 0 {
                        out.show(
                            panel,
                            vec![
                                format!("{u:.2}"),
                                fnum(lb_a.eval(u)),
                                fnum(hull_a.value(u)),
                                fnum(lb_b.eval(u)),
                                fnum(hull_b.value(u)),
                            ],
                        );
                    }
                }

                // Structural observations from the paper's panel captions.
                let mut ok = true;
                let same_above =
                    step_check(0.25, 0.6, |u| (lb_a.eval(u) - lb_b.eval(u)).abs() < 1e-12);
                ok &= same_above;
                out.note(format!("  curves coincide for u > v2 = 0.2: {same_above}"));
                if p <= 1.0 {
                    // Hull linear on (0, v1]: constant negated slope.
                    let s1 = hull_b.neg_slope_at(0.1);
                    let s2 = hull_b.neg_slope_at(0.5);
                    out.note(format!(
                        "  p <= 1: hull of (0.6, 0) linear on (0, v1]: slopes {} vs {}",
                        fnum(s1),
                        fnum(s2)
                    ));
                } else {
                    // Hull coincides with LB near v1 and is linear near 0.
                    let near = (lb_a.eval(0.55) - hull_a.value(0.55)).abs();
                    let far = lb_a.eval(0.05) - hull_a.value(0.05);
                    out.note(format!(
                        "  p > 1: hull matches LB near v1 (gap {}), strictly below near 0 (gap {})",
                        fnum(near),
                        fnum(far)
                    ));
                }
                if p == 1.0 {
                    let equal = step_check(0.0, 0.6, |u| {
                        (lb_b.eval(u.max(1e-9)) - hull_b.value(u.max(1e-9))).abs() < 1e-9
                    });
                    ok &= equal;
                    out.note(format!("  v2 = 0, p = 1: LB equals its hull: {equal}"));
                }
                out.metric(f64::from(u8::from(ok)));
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        for (panel, out) in outs.iter().enumerate() {
            let mut t = Table::new(
                &format!("E3 panel p={}: LB and hull at probe points", PANELS[panel]),
                &["u", "LB(0.6,0.2)", "CH(0.6,0.2)", "LB(0.6,0)", "CH(0.6,0)"],
            );
            for row in out.table_rows(panel) {
                t.row(row.clone());
            }
            lines.push(t.render());
            lines.extend(out.notes.iter().cloned());
            lines.push(String::new());
        }
        let ok = outs.iter().all(|o| o.metrics == vec![1.0]);
        FinishOut::new(lines, ok)
    }
}

/// Checks a predicate on a 50-point grid over `[lo, hi]`.
fn step_check<F: Fn(f64) -> bool>(lo: f64, hi: f64, pred: F) -> bool {
    let n = 50;
    (0..=n).all(|k| pred(lo + (hi - lo) * k as f64 / n as f64))
}
