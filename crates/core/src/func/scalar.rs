//! Scalar (arity-1) monotone estimation problems.
//!
//! The tightness construction for Theorem 4.1 of the paper lives on the
//! one-dimensional domain `V = [0, 1]` with PPS thresholds `τ(u) = u` and the
//! decreasing functions `f(v) = (1 - v^{1-p})/(1-p)`, `p ∈ [0, 0.5)`. This
//! module provides a generic wrapper for non-increasing scalar functions and
//! the closed forms for that family.

use super::ItemFn;

/// A non-increasing scalar function `f : [0, ∞) -> R≥0` as an [`ItemFn`].
///
/// For non-increasing `g`, the infimum over `[0, cap]` is `g(cap)` and the
/// supremum is `g(0)`, so the box extrema are available without numeric
/// minimization.
///
/// # Examples
///
/// ```
/// use monotone_core::func::{ItemFn, ScalarDecreasing};
///
/// let f = ScalarDecreasing::new(|v| (1.0 - v).max(0.0));
/// assert_eq!(f.eval(&[0.25]), 0.75);
/// assert_eq!(f.box_inf(&[None], &[0.4]), 0.6); // inf over [0, 0.4]
/// assert_eq!(f.box_sup(&[None], &[0.4]), 1.0);
/// ```
#[derive(Clone)]
pub struct ScalarDecreasing<G> {
    g: G,
}

impl<G: Fn(f64) -> f64> ScalarDecreasing<G> {
    /// Wraps a non-increasing scalar function.
    ///
    /// The monotonicity contract is the caller's responsibility; it is
    /// spot-checked in debug builds at evaluation points.
    pub fn new(g: G) -> ScalarDecreasing<G> {
        ScalarDecreasing { g }
    }
}

impl<G> std::fmt::Debug for ScalarDecreasing<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalarDecreasing").finish_non_exhaustive()
    }
}

impl<G: Fn(f64) -> f64> ItemFn for ScalarDecreasing<G> {
    fn arity(&self) -> usize {
        1
    }

    fn eval(&self, v: &[f64]) -> f64 {
        assert_eq!(v.len(), 1, "scalar function arity mismatch");
        (self.g)(v[0])
    }

    fn box_inf(&self, known: &[Option<f64>], caps: &[f64]) -> f64 {
        match known[0] {
            Some(v) => (self.g)(v),
            None => (self.g)(caps[0]),
        }
    }

    fn box_sup(&self, known: &[Option<f64>], _caps: &[f64]) -> f64 {
        match known[0] {
            Some(v) => (self.g)(v),
            None => (self.g)(0.0),
        }
    }
}

/// The family `f(v) = (1 - v^{1-p})/(1-p)` on `V = [0, 1]`, which makes the
/// L\* competitive ratio approach 4 as `p → 0.5⁻` (paper, Theorem 4.1).
///
/// Closed forms (paper, Section 4, data `v = 0`):
///
/// * v-optimal estimate: `f̂⁽⁰⁾(u) = u^{-p}`, with `E[(f̂⁽⁰⁾)²] = 1/(1-2p)`;
/// * L\* estimate: `f̂ᴸ(u, 0) = (u^{-p} - 1)/p` (`-ln u` at `p = 0`), with
///   `E[(f̂ᴸ)²] = 2/((1-2p)(1-p))`;
/// * ratio `2/(1-p)`.
///
/// # Examples
///
/// ```
/// use monotone_core::func::PowerGapFamily;
///
/// let fam = PowerGapFamily::new(0.25);
/// assert!((fam.ratio_at_zero() - 2.0 / 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerGapFamily {
    p: f64,
}

impl PowerGapFamily {
    /// Creates the family member with parameter `p ∈ [0, 0.5)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 0.5)`.
    pub fn new(p: f64) -> PowerGapFamily {
        assert!(
            (0.0..0.5).contains(&p),
            "PowerGapFamily requires p in [0, 0.5), got {p}"
        );
        PowerGapFamily { p }
    }

    /// The parameter `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `f(v)` for `v ∈ [0, 1]`.
    pub fn value(&self, v: f64) -> f64 {
        (1.0 - v.powf(1.0 - self.p)) / (1.0 - self.p)
    }

    /// `E[(f̂⁽⁰⁾)²] = 1/(1-2p)`: the minimum attainable for data 0.
    pub fn esq_vopt_at_zero(&self) -> f64 {
        1.0 / (1.0 - 2.0 * self.p)
    }

    /// `E[(f̂ᴸ)²] = 2/((1-2p)(1-p))` for data 0.
    pub fn esq_lstar_at_zero(&self) -> f64 {
        2.0 / ((1.0 - 2.0 * self.p) * (1.0 - self.p))
    }

    /// The competitive ratio of L\* on data 0: `2/(1-p)`.
    pub fn ratio_at_zero(&self) -> f64 {
        self.esq_lstar_at_zero() / self.esq_vopt_at_zero()
    }
}

impl ItemFn for PowerGapFamily {
    fn arity(&self) -> usize {
        1
    }

    fn eval(&self, v: &[f64]) -> f64 {
        assert_eq!(v.len(), 1, "scalar function arity mismatch");
        self.value(v[0])
    }

    fn box_inf(&self, known: &[Option<f64>], caps: &[f64]) -> f64 {
        match known[0] {
            Some(v) => self.value(v),
            None => self.value(caps[0].min(1.0)),
        }
    }

    fn box_sup(&self, known: &[Option<f64>], _caps: &[f64]) -> f64 {
        match known[0] {
            Some(v) => self.value(v),
            None => self.value(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::ItemFn;

    #[test]
    fn family_values() {
        let fam = PowerGapFamily::new(0.0);
        assert!((fam.value(0.0) - 1.0).abs() < 1e-15);
        assert!((fam.value(1.0) - 0.0).abs() < 1e-15);
        // p = 0: f(v) = 1 - v.
        assert!((fam.value(0.3) - 0.7).abs() < 1e-15);
    }

    #[test]
    fn family_is_decreasing() {
        for &p in &[0.0, 0.2, 0.45, 0.499] {
            let fam = PowerGapFamily::new(p);
            let mut prev = f64::INFINITY;
            for k in 0..=50 {
                let v = k as f64 / 50.0;
                let f = fam.value(v);
                assert!(f <= prev + 1e-12, "not decreasing at p={p} v={v}");
                prev = f;
            }
        }
    }

    #[test]
    fn ratio_approaches_four() {
        assert!((PowerGapFamily::new(0.0).ratio_at_zero() - 2.0).abs() < 1e-12);
        assert!((PowerGapFamily::new(0.25).ratio_at_zero() - 8.0 / 3.0).abs() < 1e-12);
        assert!(PowerGapFamily::new(0.499).ratio_at_zero() > 3.99);
    }

    #[test]
    fn lstar_closed_form_integrates_to_value() {
        // The L* estimate on outcomes of data v = 0 is the closed form
        // f̂ᴸ(u, 0) = (u^{-p} - 1)/p (-ln u at p = 0), and its integral
        // over (0, 1] is f(0) = 1/(1-p) (unbiasedness at v = 0).
        use crate::estimate::{LStar, MonotoneEstimator};
        use crate::problem::Mep;
        use crate::quad::{integrate, QuadConfig};
        use crate::scheme::TupleScheme;
        for &p in &[0.0, 0.2, 0.4] {
            let closed_form = |u: f64| {
                if p == 0.0 {
                    -u.ln()
                } else {
                    (u.powf(-p) - 1.0) / p
                }
            };
            let fam = PowerGapFamily::new(p);
            let mep = Mep::new(fam, TupleScheme::pps(&[1.0]).unwrap()).unwrap();
            for &u in &[0.01, 0.3, 0.9] {
                let outcome = mep.scheme().sample(&[0.0], u).unwrap();
                let e = LStar::new().estimate(&mep, &outcome);
                let expect = closed_form(u);
                assert!((e - expect).abs() < 1e-6, "p={p} u={u}: {e} vs {expect}");
            }
            let total = integrate(closed_form, 1e-12, 1.0, &QuadConfig::default());
            let expect = 1.0 / (1.0 - p);
            assert!((total - expect).abs() < 1e-4, "p={p}: {total} vs {expect}");
        }
    }

    #[test]
    fn scalar_decreasing_extrema() {
        let f = ScalarDecreasing::new(|v: f64| (-v).exp());
        assert!((f.box_inf(&[None], &[0.5]) - (-0.5f64).exp()).abs() < 1e-15);
        assert_eq!(f.box_sup(&[None], &[0.5]), 1.0);
        assert_eq!(f.box_inf(&[Some(0.2)], &[0.0]), (-0.2f64).exp());
    }

    #[test]
    fn power_family_box_inf_clamps_cap() {
        // Caps above 1 must clamp to the domain edge v = 1 where f = 0.
        let fam = PowerGapFamily::new(0.3);
        assert_eq!(fam.box_inf(&[None], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires p in [0, 0.5)")]
    fn rejects_p_half() {
        let _ = PowerGapFamily::new(0.5);
    }
}
