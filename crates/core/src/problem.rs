//! Monotone estimation problems: a function bundled with a sampling scheme.

use crate::error::{Error, Result};
use crate::func::ItemFn;
use crate::hull::LowerHull;
use crate::quad::{log_grid, merge_into_grid};
use crate::scheme::{Outcome, ThresholdFn, TupleScheme};

/// A monotone estimation problem (paper, Section 1): estimate `f(v) >= 0`
/// from the outcome of a monotone sampling scheme.
///
/// # Examples
///
/// ```
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::Mep;
/// use monotone_core::scheme::TupleScheme;
///
/// // Estimate RG1+ under coordinated PPS with τ* = 1 (paper, Example 3).
/// let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// let outcome = mep.scheme().sample(&[0.6, 0.2], 0.35).unwrap();
/// let lb = mep.lower_bound(&outcome);
/// // At the seed, v2 is hidden below 0.35: f̄ = max(0, 0.6 - 0.35) = 0.25.
/// assert!((lb.at_seed() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Mep<F, T> {
    f: F,
    scheme: TupleScheme<T>,
}

impl<F: ItemFn, T: ThresholdFn> Mep<F, T> {
    /// Bundles a function with a scheme of matching arity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ArityMismatch`] when the arities differ.
    pub fn new(f: F, scheme: TupleScheme<T>) -> Result<Mep<F, T>> {
        if f.arity() != scheme.arity() {
            return Err(Error::ArityMismatch {
                expected: f.arity(),
                got: scheme.arity(),
            });
        }
        Ok(Mep { f, scheme })
    }

    /// The estimated function.
    pub fn f(&self) -> &F {
        &self.f
    }

    /// The sampling scheme.
    pub fn scheme(&self) -> &TupleScheme<T> {
        &self.scheme
    }

    /// Number of tuple entries.
    pub fn arity(&self) -> usize {
        self.scheme.arity()
    }

    /// The lower-bound function along the path of an outcome: `f̄(u)` for
    /// `u >= outcome.seed()` (paper, Section 2). This is everything an
    /// estimator may use.
    pub fn lower_bound<'a>(&'a self, outcome: &'a Outcome) -> LowerBoundFn<'a, F, T> {
        LowerBoundFn { mep: self, outcome }
    }

    /// The lower-bound function of fully known data `v` over all of `(0, 1]`
    /// (used by oracle quantities: v-optimal estimates, variances,
    /// competitive ratios).
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn data_lower_bound(&self, v: &[f64]) -> Result<DataLowerBound<'_, F, T>> {
        if v.len() != self.arity() {
            return Err(Error::ArityMismatch {
                expected: self.arity(),
                got: v.len(),
            });
        }
        for &w in v {
            crate::error::check_value(w)?;
        }
        Ok(DataLowerBound {
            mep: self,
            v: v.to_vec(),
        })
    }
}

/// Reusable buffers for repeated lower-bound evaluations.
///
/// [`LowerBoundFn::eval`] needs two per-entry work vectors; allocating them
/// on every quadrature node dominates the generic estimator cost. A scratch
/// lets integration loops (and the batch engine) evaluate `f̄` thousands of
/// times with zero allocation.
///
/// # Examples
///
/// ```
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::{LbScratch, Mep};
/// use monotone_core::scheme::TupleScheme;
///
/// let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// let outcome = mep.scheme().sample(&[0.6, 0.2], 0.35).unwrap();
/// let lb = mep.lower_bound(&outcome);
/// let mut scratch = LbScratch::new();
/// assert_eq!(lb.eval_with(0.35, &mut scratch), lb.eval(0.35));
/// ```
#[derive(Debug, Default)]
pub struct LbScratch {
    known: Vec<Option<f64>>,
    caps: Vec<f64>,
}

impl LbScratch {
    /// An empty scratch; buffers grow to the problem arity on first use.
    pub fn new() -> LbScratch {
        LbScratch::default()
    }
}

/// The lower-bound function `f̄(u)` restricted to an outcome's path
/// (`u ∈ [seed, 1]`).
#[derive(Debug)]
pub struct LowerBoundFn<'a, F, T> {
    mep: &'a Mep<F, T>,
    outcome: &'a Outcome,
}

impl<F: ItemFn, T: ThresholdFn> LowerBoundFn<'_, F, T> {
    /// `f̄(u)`: the infimum of `f` over data consistent with the outcome the
    /// path would have produced at seed `u >= seed`.
    pub fn eval(&self, u: f64) -> f64 {
        self.eval_with(u, &mut LbScratch::new())
    }

    /// Allocation-free [`eval`](LowerBoundFn::eval) writing into a reusable
    /// [`LbScratch`]; the hot path of the generic estimators.
    pub fn eval_with(&self, u: f64, scratch: &mut LbScratch) -> f64 {
        self.mep
            .scheme
            .states_at(self.outcome, u, &mut scratch.known, &mut scratch.caps);
        self.mep.f.box_inf(&scratch.known, &scratch.caps)
    }

    /// `f̄(ρ)` at the outcome's own seed.
    pub fn at_seed(&self) -> f64 {
        self.eval(self.outcome.seed())
    }

    /// Seed values in `(seed, 1)` where the path outcome changes.
    pub fn breakpoints(&self) -> Vec<f64> {
        self.mep.scheme.path_breakpoints(self.outcome)
    }

    /// The outcome's seed `ρ`.
    pub fn seed(&self) -> f64 {
        self.outcome.seed()
    }
}

/// The lower-bound function `f̄⁽ᵛ⁾(u)` of fully known data over `(0, 1]`.
#[derive(Debug)]
pub struct DataLowerBound<'a, F, T> {
    mep: &'a Mep<F, T>,
    v: Vec<f64>,
}

impl<F: ItemFn, T: ThresholdFn> DataLowerBound<'_, F, T> {
    /// `f̄⁽ᵛ⁾(u)` for `u ∈ (0, 1]`.
    pub fn eval(&self, u: f64) -> f64 {
        let scheme = &self.mep.scheme;
        let r = self.v.len();
        let mut known = Vec::with_capacity(r);
        let mut caps = Vec::with_capacity(r);
        for i in 0..r {
            let cap = scheme.thresholds()[i].cap(u);
            if self.v[i] >= cap {
                known.push(Some(self.v[i]));
                caps.push(0.0);
            } else {
                known.push(None);
                caps.push(cap);
            }
        }
        self.mep.f.box_inf(&known, &caps)
    }

    /// `f(v)`, the target value (and the limit of `f̄⁽ᵛ⁾` at `0⁺` whenever an
    /// unbiased nonnegative estimator exists — Eq. (9)).
    pub fn target(&self) -> f64 {
        self.mep.f.eval(&self.v)
    }

    /// The data vector.
    pub fn data(&self) -> &[f64] {
        &self.v
    }

    /// Seed values in `(0, 1)` where the data's outcome changes (inclusion
    /// probabilities of the entries plus threshold kinks).
    pub fn breakpoints(&self) -> Vec<f64> {
        let scheme = &self.mep.scheme;
        let mut bps = Vec::new();
        for i in 0..self.v.len() {
            let p = scheme.thresholds()[i].inclusion_prob(self.v[i]);
            if p > 0.0 && p < 1.0 {
                bps.push(p);
            }
            scheme.thresholds()[i].breakpoints(0.0, 1.0, &mut bps);
        }
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bps.dedup();
        bps
    }

    /// Builds the lower hull of `f̄⁽ᵛ⁾` on a log grid of `n` points down to
    /// `eps`, anchored at the limit point `(0, f(v))`. The negated hull
    /// slopes are the v-optimal estimates (Eq. (15)).
    pub fn hull(&self, eps: f64, n: usize) -> LowerHull {
        let mut grid = log_grid(eps, 1.0, n);
        merge_into_grid(&mut grid, &self.breakpoints());
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(grid.len() + 1);
        pts.push((0.0, self.target()));
        for &u in &grid {
            pts.push((u, self.eval(u)));
        }
        LowerHull::of_points(&pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{RangePow, RangePowPlus};
    use crate::scheme::TupleScheme;

    fn rg1plus_mep() -> Mep<RangePowPlus, crate::scheme::LinearThreshold> {
        Mep::new(
            RangePowPlus::new(1.0),
            TupleScheme::pps(&[1.0, 1.0]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = Mep::new(
            RangePowPlus::new(1.0),
            TupleScheme::pps(&[1.0, 1.0, 1.0]).unwrap(),
        );
        assert!(matches!(r, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn data_lower_bound_matches_example3() {
        // Example 3: RGp+(u, v) = max(0, v1 - max(v2, u))^p.
        let mep = rg1plus_mep();
        for &(v1, v2) in &[(0.6, 0.2), (0.6, 0.0)] {
            let lb = mep.data_lower_bound(&[v1, v2]).unwrap();
            for k in 1..=40 {
                let u = k as f64 / 40.0;
                let expect = (v1 - v2.max(u)).max(0.0);
                assert!(
                    (lb.eval(u) - expect).abs() < 1e-12,
                    "v=({v1},{v2}) u={u}: {} vs {expect}",
                    lb.eval(u)
                );
            }
        }
    }

    #[test]
    fn outcome_lower_bound_agrees_with_data_lower_bound_on_path() {
        // For u >= ρ the outcome view and the full-data view must agree.
        let mep = rg1plus_mep();
        let v = [0.6, 0.2];
        let data_lb = mep.data_lower_bound(&v).unwrap();
        for &rho in &[0.05, 0.3, 0.7] {
            let out = mep.scheme().sample(&v, rho).unwrap();
            let lb = mep.lower_bound(&out);
            for k in 0..=20 {
                let u = rho + (1.0 - rho) * k as f64 / 20.0;
                assert!(
                    (lb.eval(u) - data_lb.eval(u)).abs() < 1e-12,
                    "rho={rho} u={u}"
                );
            }
        }
    }

    #[test]
    fn lower_bound_non_increasing_and_reaches_target() {
        let mep = Mep::new(
            RangePow::new(2.0, 3),
            TupleScheme::pps(&[1.0, 1.0, 1.0]).unwrap(),
        )
        .unwrap();
        let v = [0.7, 0.2, 0.4];
        let lb = mep.data_lower_bound(&v).unwrap();
        let mut prev = f64::INFINITY;
        for k in 1..=1000 {
            let u = k as f64 / 1000.0;
            let x = lb.eval(u);
            assert!(x <= prev + 1e-12, "LB increased at u={u}");
            prev = x;
        }
        // Limit at 0+ equals f(v) (condition (9)).
        assert!((lb.eval(1e-9) - lb.target()).abs() < 1e-9);
    }

    #[test]
    fn hull_is_convex_minorant() {
        let mep = rg1plus_mep();
        let lb = mep.data_lower_bound(&[0.6, 0.2]).unwrap();
        let hull = lb.hull(1e-6, 400);
        // Minorant: every hull vertex lies on or below the LB function.
        let lb_at = |u: f64| if u == 0.0 { lb.target() } else { lb.eval(u) };
        assert!(hull.vertices().iter().all(|&(u, y)| y <= lb_at(u) + 1e-9));
        // Convexity: negated slopes non-increasing in u.
        let mut prev = f64::INFINITY;
        for w in hull.vertices().windows(2) {
            let s = -(w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            assert!(s <= prev + 1e-12);
            prev = s;
        }
    }

    #[test]
    fn breakpoints_are_inclusion_probs() {
        let mep = rg1plus_mep();
        let lb = mep.data_lower_bound(&[0.6, 0.2]).unwrap();
        assert_eq!(lb.breakpoints(), vec![0.2, 0.6]);
    }
}
