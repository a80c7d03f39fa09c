//! The U\* estimator (paper, Section 6).
//!
//! U\* solves the in-range condition (21b) with equality: on every outcome it
//! takes the *supremum* of the optimal range, making it order-optimal for
//! data with large `f` values (e.g. highly dissimilar instances) under
//! condition (49). The generic path integrates the defining integral
//! equation backwards from `u = 1`; closed forms from Example 4 cover
//! `RGp+` under PPS.

use super::MonotoneEstimator;
use crate::func::{ItemFn, RangePowPlus};
use crate::problem::Mep;
use crate::scheme::{LinearThreshold, Outcome, ThresholdFn};

/// Evaluates the sup-inf slope functional
/// `sup_{z ∈ S*(u)} inf_η (f̄_z(η) − M)/(u − η)` (Eq. (48)).
///
/// The sup over the (half-open) outcome box is taken over corners, plus a
/// *sliver* candidate capturing data just below a cap: such data stays
/// hidden on a vanishing interval `(u − δ, u)`, where its lower bound
/// coincides with the path lower bound, contributing the chord slope
/// `(f̄_path(u − h) − M)/h` in the limit. `sliver` must be that precomputed
/// candidate (use `f64::INFINITY` to disable, e.g. when no entry is capped).
///
/// Exact for the coordinate-monotone families in this crate; see
/// [`ItemFn::sup_lower_bound`] for the caveat on general functions.
pub(crate) fn sup_inf_slope<F: ItemFn>(
    f: &F,
    known_u: &[Option<f64>],
    caps_u: &[f64],
    u: f64,
    m: f64,
    etas: &[(f64, Vec<f64>)],
    sliver: f64,
) -> f64 {
    let r = known_u.len();
    let unknown: Vec<usize> = (0..r).filter(|&i| known_u[i].is_none()).collect();
    let nmask = 1u32 << unknown.len();
    let mut best = f64::NEG_INFINITY;
    let mut known_eta: Vec<Option<f64>> = known_u.to_vec();
    for mask in 0..nmask {
        let mut corner_inf = f64::INFINITY;
        for (eta, caps_eta) in etas {
            if *eta >= u - 1e-15 {
                continue;
            }
            for (bit, &i) in unknown.iter().enumerate() {
                let corner = if mask & (1 << bit) != 0 {
                    caps_u[i]
                } else {
                    0.0
                };
                let visible = if corner > 0.0 {
                    caps_eta[i] < corner
                } else {
                    caps_eta[i] <= 0.0
                };
                known_eta[i] = if visible { Some(corner) } else { None };
            }
            let lb = f.box_inf(&known_eta, caps_eta);
            let slope = (lb - m).max(0.0) / (u - eta);
            if slope < corner_inf {
                corner_inf = slope;
            }
        }
        if corner_inf > best {
            best = corner_inf;
        }
        for &i in &unknown {
            known_eta[i] = None;
        }
    }
    let best = if best.is_finite() { best.max(0.0) } else { 0.0 };
    if unknown.is_empty() {
        best
    } else {
        best.min(sliver.max(0.0))
    }
}

/// Generic U\* estimator: backward (Heun) integration of the integral
/// equation (48) along the outcome's path.
///
/// # Examples
///
/// ```
/// use monotone_core::estimate::{MonotoneEstimator, UStar};
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::Mep;
/// use monotone_core::scheme::TupleScheme;
///
/// let mep = Mep::new(RangePowPlus::new(2.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// // Example 4 (p = 2 ≥ 1): for u ∈ (v2, v1] the U* estimate is p·(v1-u)^(p-1).
/// let outcome = mep.scheme().sample(&[0.6, 0.2], 0.4).unwrap();
/// let est = UStar::new().estimate(&mep, &outcome);
/// assert!((est - 2.0 * (0.6 - 0.4)).abs() < 2e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UStar {
    steps: usize,
}

impl UStar {
    /// U\* with the default grid resolution.
    pub fn new() -> UStar {
        UStar { steps: 256 }
    }

    /// U\* with a custom number of backward-integration steps (accuracy vs
    /// speed; cost is quadratic in `steps`).
    ///
    /// # Panics
    ///
    /// Panics if `steps < 8`.
    pub fn with_steps(steps: usize) -> UStar {
        assert!(steps >= 8, "UStar needs at least 8 steps");
        UStar { steps }
    }

    /// Solves the integral equation along a path described by
    /// `states(u, &mut known, &mut caps)` from `u = 1` down to `lo`,
    /// returning `(u, estimate)` pairs at descending grid nodes.
    fn solve_path<F, T, S>(
        &self,
        mep: &Mep<F, T>,
        states: S,
        lo: f64,
        extra_bps: &[f64],
    ) -> Vec<(f64, f64)>
    where
        F: ItemFn,
        T: ThresholdFn,
        S: Fn(f64, &mut Vec<Option<f64>>, &mut Vec<f64>),
    {
        // Descending grid: linear nodes plus breakpoints, with log-scale
        // refinement near lo when lo is small.
        let mut grid: Vec<f64> = (0..=self.steps)
            .map(|k| lo + (1.0 - lo) * k as f64 / self.steps as f64)
            .collect();
        if lo < 0.01 {
            let extra = crate::quad::log_grid(lo, 0.01, self.steps / 2);
            crate::quad::merge_into_grid(&mut grid, &extra);
        }
        crate::quad::merge_into_grid(&mut grid, extra_bps);
        grid.reverse(); // descending from 1 to lo

        let r = mep.arity();
        let caps_of = |u: f64| -> Vec<f64> {
            (0..r)
                .map(|i| mep.scheme().thresholds()[i].cap(u))
                .collect()
        };
        let mut etas: Vec<(f64, Vec<f64>)> = Vec::with_capacity(grid.len() + 1);
        etas.push((0.0, caps_of(f64::MIN_POSITIVE)));
        for &u in &grid {
            etas.push((u, caps_of(u)));
        }

        let mut known = Vec::with_capacity(r);
        let mut caps = Vec::with_capacity(r);
        let mut caps_near = Vec::with_capacity(r);
        let chord_h = (1.0 - lo).max(1e-6) / (2.0 * self.steps as f64);
        let phi = |u: f64,
                   m: f64,
                   known: &mut Vec<Option<f64>>,
                   caps: &mut Vec<f64>,
                   caps_near: &mut Vec<f64>|
         -> f64 {
            states(u, known, caps);
            let lb_u = mep.f().box_inf(known, caps);
            // M = ∫_u^1 f̂ can never exceed f̄(u) (Eq. (7)); clamp away the
            // integration drift so the sliver chord below stays stable.
            let m = m.min(lb_u);
            // Sliver candidate: chord to the path lower bound just below u,
            // capturing data hidden just under a cap. Hidden entries stay
            // hidden with the tighter caps; known entries stay known.
            let h = chord_h.min(0.5 * u).max(1e-12);
            caps_near.clear();
            for i in 0..known.len() {
                caps_near.push(if known[i].is_none() {
                    mep.scheme().thresholds()[i].cap(u - h)
                } else {
                    caps[i]
                });
            }
            let lb_near = mep.f().box_inf(known, caps_near);
            let sliver = (lb_near - m).max(0.0) / h;
            sup_inf_slope(mep.f(), known, caps, u, m, &etas, sliver)
        };

        let mut out = Vec::with_capacity(grid.len());
        let mut big_f = 0.0;
        let mut e_prev = phi(grid[0], big_f, &mut known, &mut caps, &mut caps_near);
        out.push((grid[0], e_prev));
        for k in 1..grid.len() {
            let du = grid[k - 1] - grid[k];
            let pred = big_f + e_prev * du;
            let e_corr = phi(grid[k], pred, &mut known, &mut caps, &mut caps_near);
            big_f += 0.5 * (e_prev + e_corr) * du;
            let e_here = phi(grid[k], big_f, &mut known, &mut caps, &mut caps_near);
            out.push((grid[k], e_here));
            e_prev = e_here;
        }
        out
    }
}

impl Default for UStar {
    fn default() -> Self {
        UStar::new()
    }
}

impl<F: ItemFn, T: ThresholdFn> MonotoneEstimator<F, T> for UStar {
    fn estimate(&self, mep: &Mep<F, T>, outcome: &Outcome) -> f64 {
        let rho = outcome.seed();
        let scheme = mep.scheme();
        // Fast path: outcomes consistent with f = 0 data along the entire
        // remaining path force a zero estimate (unbiasedness +
        // nonnegativity), and outcomes whose box is a single point with
        // lower bound zero do too.
        {
            let mut known = Vec::new();
            let mut caps = Vec::new();
            scheme.states_at(outcome, rho, &mut known, &mut caps);
            if mep.f().box_sup(&known, &caps) <= 0.0 {
                return 0.0;
            }
        }
        let lb = mep.lower_bound(outcome);
        let bps = lb.breakpoints();
        let curve = self.solve_path(
            mep,
            |u, known, caps| scheme.states_at(outcome, u, known, caps),
            rho,
            &bps,
        );
        curve.last().map(|&(_, e)| e).unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "U*"
    }
}

/// Closed-form U\* for [`RangePowPlus`] under coordinated PPS with a common
/// scale (paper, Example 4, extended to truncated inclusion probabilities).
///
/// On the normalized scale `w = v/τ*`, the U\* order's representative for a
/// "w2 hidden" outcome is `(w1, 0)`, whose v-optimal extension is the lower
/// hull of `f̄(u) = (w1 − u)₊^p` on `(0, 1]` anchored at the point `(1, 0)`:
///
/// * `p >= 1`: the hull follows the curve down to the tangency seed
///   `a = w1` (if `w1 <= 1`), `a = (p − w1)/(p − 1)` (if `1 < w1 < p`), or
///   `a = 0` (if `w1 >= p`), then the chord of slope
///   `k = (w1 − a)^p/(1 − a)`; the hidden-outcome estimate is
///   `p(w1 − u)^{p−1}` below `a` and `k` above, and the revealed-outcome
///   estimate at `β = w2` is `((w1 − β)^p − k(1 − β))/β` for `β >= a` and 0
///   below (the paper's `0` / `p(v1 − u)^{p−1}` split is the `w1 <= 1`
///   special case);
/// * `p <= 1`: the hull is the chord to `(min(w1, 1), 0)`: the hidden
///   estimate is the constant `w1^p/min(w1, 1)` and the revealed estimate
///   compensates, reducing to the paper's `v1^{p−1}` /
///   `((v1−v2)^p − v1^{p−1}(v1−v2))/v2` when `w1 <= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgPlusUStar {
    p: f64,
    scale: f64,
}

impl RgPlusUStar {
    /// Creates the closed form for exponent `p > 0` and PPS scale `τ*`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or the scale is not positive.
    pub fn new(p: f64, scale: f64) -> RgPlusUStar {
        assert!(p.is_finite() && p > 0.0, "exponent must be positive");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        RgPlusUStar { p, scale }
    }

    /// Tangency seed of the hull for `p >= 1`.
    fn tangency(&self, w1: f64) -> f64 {
        let p = self.p;
        if w1 <= 1.0 {
            w1
        } else if p > 1.0 && w1 < p {
            (p - w1) / (p - 1.0)
        } else {
            0.0
        }
    }

    /// Chord slope `k` beyond the tangency seed for `p >= 1`.
    fn chord(&self, w1: f64, a: f64) -> f64 {
        if a >= 1.0 {
            0.0
        } else {
            (w1 - a).max(0.0).powf(self.p) / (1.0 - a)
        }
    }

    /// The estimate from raw sampled values (`None` = capped entry) plus the
    /// shared seed — the allocation-free hot path for the batch engine; the
    /// [`MonotoneEstimator::estimate`] impl delegates here.
    pub fn estimate_values(&self, v1: Option<f64>, v2: Option<f64>, u: f64) -> f64 {
        let p = self.p;
        let Some(v1) = v1 else {
            return 0.0;
        };
        let w1 = v1 / self.scale;
        let factor = self.scale.powf(p);
        match v2 {
            None => {
                if p >= 1.0 {
                    let a = self.tangency(w1);
                    // At u == a the curve and chord agree for p > 1; for
                    // p == 1 the paper's half-open interval (v2, v1] puts
                    // the curve value at the endpoint.
                    if u <= a {
                        factor * p * (w1 - u).max(0.0).powf(p - 1.0)
                    } else {
                        factor * self.chord(w1, a)
                    }
                } else {
                    factor * w1.powf(p) / w1.min(1.0)
                }
            }
            Some(v2) => {
                let w2 = v2 / self.scale;
                if w2 >= w1 {
                    return 0.0;
                }
                if w2 >= 1.0 {
                    // Both entries always sampled: f is known on the whole
                    // path and the estimate is the constant f.
                    return factor * (w1 - w2).powf(p);
                }
                if p >= 1.0 {
                    let a = self.tangency(w1);
                    if w2 < a {
                        0.0
                    } else {
                        let k = self.chord(w1, a);
                        factor * ((w1 - w2).powf(p) - k * (1.0 - w2)).max(0.0) / w2
                    }
                } else {
                    let c = w1.min(1.0);
                    let hidden = w1.powf(p) / c;
                    let m = (c - w2).max(0.0) * hidden;
                    factor * ((w1 - w2).powf(p) - m).max(0.0) / w2
                }
            }
        }
    }
}

impl MonotoneEstimator<RangePowPlus, LinearThreshold> for RgPlusUStar {
    fn estimate(&self, mep: &Mep<RangePowPlus, LinearThreshold>, outcome: &Outcome) -> f64 {
        debug_assert_eq!(mep.f().p(), self.p, "exponent mismatch");
        self.estimate_values(outcome.known(0), outcome.known(1), outcome.seed())
    }

    fn name(&self) -> &'static str {
        "U* (closed form)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RangePowPlus;
    use crate::quad::{integrate_with_breakpoints, QuadConfig};
    use crate::scheme::TupleScheme;

    fn mep_p(p: f64) -> Mep<RangePowPlus, LinearThreshold> {
        Mep::new(RangePowPlus::new(p), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap()
    }

    #[test]
    fn closed_form_unbiased() {
        for &p in &[0.5, 1.0, 2.0] {
            let mep = mep_p(p);
            let est = RgPlusUStar::new(p, 1.0);
            for &v in &[[0.6, 0.2], [0.6, 0.0], [0.9, 0.45]] {
                let cfg = QuadConfig::default();
                let mean = integrate_with_breakpoints(
                    |u| {
                        let out = mep.scheme().sample(&v, u).unwrap();
                        est.estimate(&mep, &out)
                    },
                    1e-10,
                    1.0,
                    &[v[1], v[0]],
                    &cfg,
                );
                let expect = (v[0] - v[1]).max(0.0).powf(p);
                assert!(
                    (mean - expect).abs() < 1e-6,
                    "p={p} v={v:?}: mean {mean} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn generic_matches_closed_form_p2() {
        let mep = mep_p(2.0);
        let closed = RgPlusUStar::new(2.0, 1.0);
        let generic = UStar::with_steps(256);
        for &v in &[[0.6, 0.2], [0.6, 0.0]] {
            for &u in &[0.25, 0.4, 0.55] {
                let out = mep.scheme().sample(&v, u).unwrap();
                let a = closed.estimate(&mep, &out);
                let b = generic.estimate(&mep, &out);
                assert!(
                    (a - b).abs() < 5e-3,
                    "v={v:?} u={u}: closed {a} vs generic {b}"
                );
            }
        }
    }

    #[test]
    fn generic_matches_closed_form_p_half() {
        // p = 0.5 ≤ 1: the U* estimate is v1^{p-1} on (v2, v1] and the
        // compensating constant below v2.
        let mep = mep_p(0.5);
        let closed = RgPlusUStar::new(0.5, 1.0);
        let generic = UStar::with_steps(256);
        let v = [0.6, 0.2];
        for &u in &[0.1, 0.3, 0.5] {
            let out = mep.scheme().sample(&v, u).unwrap();
            let a = closed.estimate(&mep, &out);
            let b = generic.estimate(&mep, &out);
            assert!(
                (a - b).abs() < 2e-2 * a.max(1.0),
                "u={u}: closed {a} vs generic {b}"
            );
        }
    }

    #[test]
    fn generic_matches_closed_form_p1_revealed_region() {
        // For p = 1 the U* estimate is 1 on (v2, v1] and 0 on u <= v2.
        let mep = mep_p(1.0);
        let generic = UStar::with_steps(256);
        let v = [0.7, 0.3];
        let out_mid = mep.scheme().sample(&v, 0.5).unwrap();
        let e_mid = generic.estimate(&mep, &out_mid);
        assert!((e_mid - 1.0).abs() < 5e-3, "got {e_mid}");
        let out_low = mep.scheme().sample(&v, 0.2).unwrap();
        let e_low = generic.estimate(&mep, &out_low);
        assert!(e_low.abs() < 5e-3, "got {e_low}");
    }

    #[test]
    fn closed_form_unbiased_with_truncation() {
        // Weights above the PPS scale (inclusion probability 1): the
        // extended tangent/chord forms must stay unbiased and nonnegative.
        let scale = 0.5;
        for &p in &[0.5, 1.0, 2.0, 3.0] {
            let mep = Mep::new(
                RangePowPlus::new(p),
                TupleScheme::pps(&[scale, scale]).unwrap(),
            )
            .unwrap();
            let est = RgPlusUStar::new(p, scale);
            for &v in &[[0.9, 0.2], [0.9, 0.6], [0.9, 0.0], [1.8, 0.3], [0.8, 0.7]] {
                let cfg = QuadConfig::default();
                let mean = integrate_with_breakpoints(
                    |u| {
                        let out = mep.scheme().sample(&v, u).unwrap();
                        let e = est.estimate(&mep, &out);
                        assert!(e >= 0.0, "negative estimate at p={p} v={v:?} u={u}");
                        e
                    },
                    1e-10,
                    1.0,
                    &[v[0] / scale, v[1] / scale],
                    &cfg,
                );
                let expect = (v[0] - v[1]).max(0.0).powf(p);
                assert!(
                    (mean - expect).abs() < 1e-5 * expect.max(0.1),
                    "p={p} v={v:?}: mean {mean} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn truncated_closed_form_matches_generic() {
        let scale = 0.5;
        let mep = Mep::new(
            RangePowPlus::new(2.0),
            TupleScheme::pps(&[scale, scale]).unwrap(),
        )
        .unwrap();
        let closed = RgPlusUStar::new(2.0, scale);
        let generic = UStar::with_steps(256);
        for &v in &[[0.9, 0.2], [0.9, 0.0]] {
            for &u in &[0.2, 0.5, 0.8] {
                let out = mep.scheme().sample(&v, u).unwrap();
                let a = closed.estimate(&mep, &out);
                let b = generic.estimate(&mep, &out);
                assert!(
                    (a - b).abs() < 2e-2 * a.max(1.0),
                    "v={v:?} u={u}: closed {a} vs generic {b}"
                );
            }
        }
    }

    #[test]
    fn zero_when_first_entry_hidden() {
        let mep = mep_p(1.0);
        let out = mep.scheme().sample(&[0.6, 0.2], 0.8).unwrap();
        assert_eq!(RgPlusUStar::new(1.0, 1.0).estimate(&mep, &out), 0.0);
        let e = UStar::new().estimate(&mep, &out);
        assert!(e.abs() < 1e-6, "got {e}");
    }

    #[test]
    fn ustar_vopt_when_v2_zero() {
        // Paper: when v2 = 0 the U* estimates are v-optimal:
        // p(v1-u)^{p-1} for p >= 1.
        let mep = mep_p(2.0);
        let est = RgPlusUStar::new(2.0, 1.0);
        let v = [0.6, 0.0];
        for &u in &[0.1, 0.3, 0.5] {
            let out = mep.scheme().sample(&v, u).unwrap();
            let e = est.estimate(&mep, &out);
            assert!((e - 2.0 * (0.6 - u)).abs() < 1e-12, "u={u}");
        }
    }
}
