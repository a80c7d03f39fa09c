//! Variance, second-moment, and competitive-ratio calculators.
//!
//! The paper measures estimators by `E[f̂²]` per data vector (Eq. (16)) and
//! by *variance competitiveness*: the worst-case ratio of `E[f̂²]` to the
//! minimum attainable for the same data (Section 2). This module evaluates
//! those quantities numerically on log-scale grids with breakpoint
//! refinement, with a fast single-pass path for L\*.

use crate::error::Result;
use crate::estimate::{MonotoneEstimator, VOptimal};
use crate::func::ItemFn;
use crate::problem::Mep;
use crate::quad::{log_grid, merge_into_grid, trapezoid};
use crate::scheme::ThresholdFn;

/// Summary statistics of an estimator on one data vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorStats {
    /// `∫₀¹ f̂(u, v) du` — equals `f(v)` iff the estimator is unbiased at `v`
    /// (up to grid error).
    pub mean: f64,
    /// `∫₀¹ f̂(u, v)² du = E[f̂²]`.
    pub esq: f64,
    /// `esq − f(v)²` (meaningful when the estimator is unbiased).
    pub variance: f64,
}

/// Grid-based evaluator for estimator statistics.
///
/// # Examples
///
/// ```
/// use monotone_core::estimate::LStar;
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::Mep;
/// use monotone_core::scheme::TupleScheme;
/// use monotone_core::variance::VarianceCalc;
///
/// let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// let calc = VarianceCalc::default();
/// let stats = calc.stats(&mep, &LStar::new(), &[0.6, 0.2]).unwrap();
/// assert!((stats.mean - 0.4).abs() < 1e-3); // unbiased
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarianceCalc {
    /// Smallest seed on the integration grid.
    pub eps: f64,
    /// Number of log-grid points.
    pub grid: usize,
}

impl Default for VarianceCalc {
    fn default() -> Self {
        VarianceCalc {
            eps: 1e-9,
            grid: 1500,
        }
    }
}

impl VarianceCalc {
    /// Creates a calculator with a custom grid.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not in `(0, 1)` or `grid < 16`.
    pub fn new(eps: f64, grid: usize) -> VarianceCalc {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        assert!(grid >= 16, "grid too coarse");
        VarianceCalc { eps, grid }
    }

    fn grid_for<F: ItemFn, T: ThresholdFn>(&self, mep: &Mep<F, T>, v: &[f64]) -> Result<Vec<f64>> {
        let lb = mep.data_lower_bound(v)?;
        let mut g = log_grid(self.eps, 1.0, self.grid);
        merge_into_grid(&mut g, &lb.breakpoints());
        Ok(g)
    }

    /// Evaluates `mean`, `E[f̂²]` and variance of an arbitrary estimator on
    /// data `v` by sampling the estimate on the outcome path over a log grid.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn stats<F, T, E>(&self, mep: &Mep<F, T>, est: &E, v: &[f64]) -> Result<EstimatorStats>
    where
        F: ItemFn,
        T: ThresholdFn,
        E: MonotoneEstimator<F, T>,
    {
        let grid = self.grid_for(mep, v)?;
        let mut values = Vec::with_capacity(grid.len());
        for &u in &grid {
            let out = mep.scheme().sample(v, u)?;
            values.push(est.estimate(mep, &out));
        }
        Ok(self.stats_from_curve(mep, v, &grid, &values))
    }

    /// Statistics from a precomputed estimate curve on `grid` (ascending).
    pub fn stats_from_curve<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
        grid: &[f64],
        values: &[f64],
    ) -> EstimatorStats {
        let squares: Vec<f64> = values.iter().map(|e| e * e).collect();
        // Tail below eps: extend with the first value held constant (the
        // standard choice for bounded-left estimates; divergent-but-square-
        // integrable tails need closed forms, which the tests use).
        let tail_mean = values.first().copied().unwrap_or(0.0) * grid[0];
        let tail_esq = squares.first().copied().unwrap_or(0.0) * grid[0];
        let mean = trapezoid(grid, values) + tail_mean;
        let esq = trapezoid(grid, &squares) + tail_esq;
        let f = mep.f().eval(v);
        EstimatorStats {
            mean,
            esq,
            variance: esq - f * f,
        }
    }

    /// Fast single-pass statistics for the L\* estimator: one backward sweep
    /// accumulates `∫ f̄/u² du` so each grid point costs O(1) instead of a
    /// quadrature call.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn lstar_stats<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
    ) -> Result<EstimatorStats> {
        let curve = self.lstar_curve(mep, v)?;
        let grid: Vec<f64> = curve.iter().map(|&(u, _)| u).collect();
        let values: Vec<f64> = curve.iter().map(|&(_, e)| e).collect();
        Ok(self.stats_from_curve(mep, v, &grid, &values))
    }

    /// The L\* estimate curve `(u, f̂ᴸ(u, v))` on the ascending log grid,
    /// computed in a single backward pass over Eq. (31).
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn lstar_curve<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
    ) -> Result<Vec<(f64, f64)>> {
        let lb = mep.data_lower_bound(v)?;
        let grid = self.grid_for(mep, v)?;
        let n = grid.len();
        let lbs: Vec<f64> = grid.iter().map(|&u| lb.eval(u)).collect();
        // tail[i] = ∫_{u_i}^{1} f̄(x)/x² dx. Per segment, interpolate f̄
        // linearly and integrate exactly against the 1/x² kernel:
        // ∫ (α + βx)/x² dx = α(1/a − 1/b) + β ln(b/a). A plain trapezoid on
        // the product diverges in accumulated relative error as u → 0; this
        // form is exact for the piecewise-constant and piecewise-linear
        // lower bounds that dominate in practice.
        let mut tail = vec![0.0; n];
        for i in (0..n - 1).rev() {
            let (a, b) = (grid[i], grid[i + 1]);
            let (fa, fb) = (lbs[i], lbs[i + 1]);
            let beta = (fb - fa) / (b - a);
            let alpha = fa - beta * a;
            tail[i] = tail[i + 1] + alpha * (1.0 / a - 1.0 / b) + beta * (b / a).ln();
        }
        Ok(grid
            .iter()
            .zip(lbs.iter().zip(tail.iter()))
            .map(|(&u, (&f, &t))| (u, (f / u - t).max(0.0)))
            .collect())
    }

    /// The competitive ratio of an estimator on data `v`: `E[f̂²] / E[(f̂⁽ᵛ⁾)²]`,
    /// the quantity Theorem 4.1 bounds by 4 for L\*. Returns `None` when the
    /// optimum is (numerically) zero.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn competitive_ratio<F, T, E>(
        &self,
        mep: &Mep<F, T>,
        est: &E,
        v: &[f64],
    ) -> Result<Option<f64>>
    where
        F: ItemFn,
        T: ThresholdFn,
        E: MonotoneEstimator<F, T>,
    {
        let esq = self.stats(mep, est, v)?.esq;
        let opt = VOptimal::with_resolution(self.eps, self.grid).esq(mep, v)?;
        Ok(if opt > 1e-12 { Some(esq / opt) } else { None })
    }

    /// Competitive ratio of L\* via the fast path.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn lstar_competitive_ratio<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
    ) -> Result<Option<f64>> {
        let esq = self.lstar_stats(mep, v)?.esq;
        let opt = VOptimal::with_resolution(self.eps, self.grid).esq(mep, v)?;
        Ok(if opt > 1e-12 { Some(esq / opt) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{LStar, RgPlusLStar, RgPlusUStar};
    use crate::func::{PowerGapFamily, RangePowPlus};
    use crate::scheme::TupleScheme;

    fn mep_p(p: f64) -> Mep<RangePowPlus, crate::scheme::LinearThreshold> {
        Mep::new(RangePowPlus::new(p), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap()
    }

    #[test]
    fn lstar_esq_closed_form_rg1plus_v2_zero() {
        // f̂ᴸ = ln(v1/u) on (0, v1]; E[f̂²] = 2 v1 (paper's ratio-2 example).
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-10, 3000);
        let stats = calc.lstar_stats(&mep, &[0.6, 0.0]).unwrap();
        assert!((stats.mean - 0.6).abs() < 2e-3, "mean {}", stats.mean);
        assert!((stats.esq - 1.2).abs() < 5e-3, "esq {}", stats.esq);
    }

    #[test]
    fn lstar_ratio_two_for_rg1plus() {
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-10, 3000);
        let ratio = calc
            .lstar_competitive_ratio(&mep, &[0.6, 0.0])
            .unwrap()
            .unwrap();
        assert!((ratio - 2.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn lstar_ratio_two_point_five_for_rg2plus() {
        // p = 2, v = (v1, 0): E[(f̂ᴸ)²]/E[(f̂⁽ᵛ⁾)²] = (10/3 v1³)/(4/3 v1³) = 2.5.
        let mep = mep_p(2.0);
        let calc = VarianceCalc::new(1e-10, 3000);
        let ratio = calc
            .lstar_competitive_ratio(&mep, &[0.6, 0.0])
            .unwrap()
            .unwrap();
        assert!((ratio - 2.5).abs() < 0.03, "ratio {ratio}");
    }

    #[test]
    fn power_family_ratio_matches_closed_form() {
        for &p in &[0.1, 0.25, 0.35] {
            let fam = PowerGapFamily::new(p);
            let mep = Mep::new(fam, TupleScheme::pps(&[1.0]).unwrap()).unwrap();
            let calc = VarianceCalc::new(1e-12, 4000);
            let ratio = calc.lstar_competitive_ratio(&mep, &[0.0]).unwrap().unwrap();
            let expect = fam.ratio_at_zero();
            assert!(
                (ratio - expect).abs() < 0.05 * expect,
                "p={p}: ratio {ratio} vs {expect}"
            );
        }
    }

    #[test]
    fn lstar_fast_path_agrees_with_generic() {
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-6, 400);
        let fast = calc.lstar_stats(&mep, &[0.6, 0.2]).unwrap();
        let slow = calc
            .stats(&mep, &RgPlusLStar::new(1, 1.0), &[0.6, 0.2])
            .unwrap();
        assert!(
            (fast.esq - slow.esq).abs() < 1e-3,
            "{} vs {}",
            fast.esq,
            slow.esq
        );
        let generic = calc.stats(&mep, &LStar::new(), &[0.6, 0.2]).unwrap();
        assert!((fast.esq - generic.esq).abs() < 1e-3);
    }

    #[test]
    fn lstar_dominates_ht_on_rg1plus() {
        // Theorem 4.2 corollary: VAR[L*] <= VAR[HT] everywhere.
        use crate::estimate::HorvitzThompson;
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-9, 1200);
        let ht = HorvitzThompson::new();
        for &v in &[[0.6, 0.2], [0.9, 0.5], [0.4, 0.35]] {
            let l = calc.lstar_stats(&mep, &v).unwrap();
            let h = calc.stats(&mep, &ht, &v).unwrap();
            assert!(
                l.variance <= h.variance + 1e-6,
                "v={v:?}: L* {} vs HT {}",
                l.variance,
                h.variance
            );
        }
    }

    #[test]
    fn ustar_beats_lstar_on_dissimilar_data() {
        // U* is optimized for large f: at v = (0.6, 0) (maximal difference
        // given v1) its variance is below L*'s.
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-9, 1200);
        let u = calc
            .stats(&mep, &RgPlusUStar::new(1.0, 1.0), &[0.6, 0.0])
            .unwrap();
        let l = calc.lstar_stats(&mep, &[0.6, 0.0]).unwrap();
        assert!(
            u.variance < l.variance,
            "U* {} vs L* {}",
            u.variance,
            l.variance
        );
    }

    #[test]
    fn lstar_beats_ustar_on_similar_data() {
        let mep = mep_p(1.0);
        let calc = VarianceCalc::new(1e-9, 1200);
        let v = [0.6, 0.55];
        let u = calc.stats(&mep, &RgPlusUStar::new(1.0, 1.0), &v).unwrap();
        let l = calc.lstar_stats(&mep, &v).unwrap();
        assert!(
            l.variance < u.variance,
            "L* {} vs U* {}",
            l.variance,
            u.variance
        );
    }
}
