//! v-optimal (oracle) estimates.
//!
//! For fixed data `v`, the minimum-variance nonnegative unbiased estimates
//! on the outcomes `S(u, v)` are the negated slopes of the lower hull of the
//! lower-bound function `f̄⁽ᵛ⁾` (paper, Eq. (15) and Example 3). No single
//! estimator attains them for all data simultaneously — they peek at `v` —
//! so this type is *not* a [`MonotoneEstimator`](super::MonotoneEstimator);
//! it provides the denominators of competitive ratios and the `opt` curves
//! of the Example 4 panels.

use crate::error::Result;
use crate::func::ItemFn;
use crate::hull::LowerHull;
use crate::problem::Mep;
use crate::scheme::ThresholdFn;

/// Oracle v-optimal estimates and their second moment.
///
/// # Examples
///
/// ```
/// use monotone_core::estimate::VOptimal;
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::Mep;
/// use monotone_core::scheme::TupleScheme;
///
/// let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// let vopt = VOptimal::new();
/// // For v = (0.6, 0): f̄ = max(0, 0.6-u) is convex, so the v-optimal
/// // estimate is 1 on (0, 0.6] and E[f̂²] = 0.6.
/// let esq = vopt.esq(&mep, &[0.6, 0.0]).unwrap();
/// assert!((esq - 0.6).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VOptimal {
    eps: f64,
    grid: usize,
}

impl VOptimal {
    /// Default resolution (log grid of 2000 points down to 1e-9).
    pub fn new() -> VOptimal {
        VOptimal {
            eps: 1e-9,
            grid: 2000,
        }
    }

    /// Custom resolution: hull grid of `grid` points down to `eps`.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)` or `grid < 16`.
    pub fn with_resolution(eps: f64, grid: usize) -> VOptimal {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(grid >= 16, "grid too coarse");
        VOptimal { eps, grid }
    }

    /// The lower hull of `f̄⁽ᵛ⁾` anchored at `(0, f(v))`.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn hull<F: ItemFn, T: ThresholdFn>(&self, mep: &Mep<F, T>, v: &[f64]) -> Result<LowerHull> {
        Ok(mep.data_lower_bound(v)?.hull(self.eps, self.grid))
    }

    /// The v-optimal estimate at seed `u` for data `v`.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn estimate_for_data<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
        u: f64,
    ) -> Result<f64> {
        Ok(self.hull(mep, v)?.neg_slope_at(u))
    }

    /// The whole v-optimal estimate curve at the requested seeds.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn curve<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
        seeds: &[f64],
    ) -> Result<Vec<f64>> {
        let hull = self.hull(mep, v)?;
        Ok(seeds.iter().map(|&u| hull.neg_slope_at(u)).collect())
    }

    /// `E[(f̂⁽ᵛ⁾)²] = ∫₀¹ (dH/du)² du`: the minimum attainable second moment
    /// for data `v` among nonnegative unbiased estimators (Eq. (10)).
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn esq<F: ItemFn, T: ThresholdFn>(&self, mep: &Mep<F, T>, v: &[f64]) -> Result<f64> {
        Ok(self.hull(mep, v)?.sq_integral_of_slope())
    }
}

impl Default for VOptimal {
    fn default() -> Self {
        VOptimal::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{PowerGapFamily, RangePowPlus};
    use crate::scheme::TupleScheme;

    #[test]
    fn rg1plus_at_v2_zero_is_unit_indicator() {
        // f̄(u) = (0.6-u)+ is convex; v-optimal estimate is 1 on (0, 0.6].
        let mep = Mep::new(
            RangePowPlus::new(1.0),
            TupleScheme::pps(&[1.0, 1.0]).unwrap(),
        )
        .unwrap();
        let vopt = VOptimal::new();
        let v = [0.6, 0.0];
        assert!((vopt.estimate_for_data(&mep, &v, 0.3).unwrap() - 1.0).abs() < 1e-6);
        assert!(vopt.estimate_for_data(&mep, &v, 0.8).unwrap().abs() < 1e-9);
    }

    #[test]
    fn rg2plus_esq_closed_form() {
        // p=2, v=(v1, 0): opt estimate 2(v1-u); E[f̂²] = ∫ 4(v1-u)² = 4 v1³/3.
        let mep = Mep::new(
            RangePowPlus::new(2.0),
            TupleScheme::pps(&[1.0, 1.0]).unwrap(),
        )
        .unwrap();
        let vopt = VOptimal::with_resolution(1e-9, 4000);
        let esq = vopt.esq(&mep, &[0.6, 0.0]).unwrap();
        let expect = 4.0 * 0.6f64.powi(3) / 3.0;
        assert!(
            (esq - expect).abs() < 2e-3 * expect,
            "esq {esq} vs {expect}"
        );
    }

    #[test]
    fn power_family_esq_matches_closed_form() {
        // PowerGapFamily: E[(f̂⁽⁰⁾)²] = 1/(1-2p) for p not too close to 0.5.
        for &p in &[0.0, 0.2, 0.35] {
            let fam = PowerGapFamily::new(p);
            let mep = Mep::new(fam, TupleScheme::pps(&[1.0]).unwrap()).unwrap();
            let vopt = VOptimal::with_resolution(1e-12, 6000);
            let esq = vopt.esq(&mep, &[0.0]).unwrap();
            let expect = fam.esq_vopt_at_zero();
            assert!(
                (esq - expect).abs() < 5e-3 * expect,
                "p={p}: esq {esq} vs {expect}"
            );
        }
    }

    #[test]
    fn opt_estimates_differ_for_consistent_vectors() {
        // Example 3's key observation: for u ∈ (0.2, 0.6] the outcomes of
        // (0.6, 0.2) and (0.6, 0) coincide but their v-optimal estimates
        // differ — no estimator minimizes variance for both.
        let mep = Mep::new(
            RangePowPlus::new(1.0),
            TupleScheme::pps(&[1.0, 1.0]).unwrap(),
        )
        .unwrap();
        let vopt = VOptimal::new();
        let e_a = vopt.estimate_for_data(&mep, &[0.6, 0.2], 0.4).unwrap();
        let e_b = vopt.estimate_for_data(&mep, &[0.6, 0.0], 0.4).unwrap();
        assert!((e_b - 1.0).abs() < 1e-6);
        assert!(
            (e_a - e_b).abs() > 0.05,
            "estimates should differ: {e_a} vs {e_b}"
        );
    }

    #[test]
    fn min_variance_nonnegative() {
        let mep = Mep::new(
            RangePowPlus::new(1.0),
            TupleScheme::pps(&[1.0, 1.0]).unwrap(),
        )
        .unwrap();
        let vopt = VOptimal::new();
        for &v in &[[0.6, 0.2], [0.6, 0.0], [0.9, 0.89]] {
            // The minimum variance is `E[(f̂⁽ᵛ⁾)²] − f(v)²`.
            let f = mep.f().eval(&v);
            let var = vopt.esq(&mep, &v).unwrap() - f * f;
            assert!(var >= -1e-6, "negative min variance {var} for {v:?}");
        }
    }
}
