//! The Horvitz-Thompson (inverse-probability) estimator.
//!
//! HT assigns `f(v)/p` on outcomes that *reveal* `f(v)` (i.e. `f` is constant
//! on the consistent set `S*`), where `p` is the probability of a revealing
//! outcome, and `0` otherwise. It is unbiased, nonnegative and monotone —
//! and therefore dominated by L\* (paper, Theorem 4.2). When the reveal
//! probability is zero (e.g. `RGp+` at `v = (v1, 0)` under PPS), HT is not
//! applicable: this implementation then degrades to the all-zero (biased)
//! estimator, which the experiments quantify.
//!
//! The revealing seeds form a prefix `(0, p]` of the sampling path, and an
//! outcome's known entries change only at its path breakpoints, so `p` is
//! usually one of them. `try_estimate` walks the breakpoints upward to the
//! last one that reveals and takes it as `p` when the next double above it
//! does not reveal. It falls back to a 64-step bisection of the path when
//! the boundary lies inside an interval (a cap that grows past the
//! tolerance, as for `TupleMax` with capped entries) or below `2⁻¹⁰`, where
//! 64 halvings can stop a few ulps short of a breakpoint; both routes give
//! the same bits.

use super::MonotoneEstimator;
use crate::error::{Error, Result};
use crate::func::ItemFn;
use crate::problem::Mep;
use crate::scheme::{Outcome, ThresholdFn};

/// Halvings of the seed interval when bisecting for the reveal boundary.
const BISECT_ITERS: u32 = 64;

/// Relative tolerance of the reveal test `sup − inf <= TOL · max(1, sup)`.
const TOL: f64 = 1e-9;

/// The smallest reveal boundary read off a path breakpoint. For a boundary
/// `B >= 2⁻¹⁰`, [`BISECT_ITERS`] halvings of `(ρ, 1]` leave a bracket
/// about 2⁻⁶⁴ wide against an ulp of `B` of at least 2⁻⁶², so the
/// bisection ends on `B` itself, with two binades to spare.
const FAST_PATH_FLOOR: f64 = 1.0 / 1024.0;

/// Bisects `(lo, 1]` for the end of the prefix of seeds that `reveals`
/// accepts, when `1` is not in it: the last accepted midpoint, or `lo`.
fn bisect(mut lo: f64, mut reveals: impl FnMut(f64) -> bool) -> f64 {
    let mut hi = 1.0;
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if mid <= 0.0 {
            break;
        }
        if reveals(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Horvitz-Thompson estimator driven by reveal detection on outcome boxes.
///
/// [`try_estimate`](Self::try_estimate) divides by the outcome's reveal
/// probability: the end of the prefix of seeds on its sampling path that
/// reveal `f(v)`. The known entries change only at the path's
/// breakpoints, so that end is usually one of them and is read off the
/// breakpoints. A 64-step bisection finds it instead when it lies between
/// two breakpoints or below `2⁻¹⁰`; both routes give the same bits.
///
/// # Examples
///
/// ```
/// use monotone_core::estimate::{HorvitzThompson, MonotoneEstimator};
/// use monotone_core::func::RangePowPlus;
/// use monotone_core::problem::Mep;
/// use monotone_core::scheme::TupleScheme;
///
/// let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
/// // Both entries sampled at u = 0.1: f = 0.4 revealed; reveal prob = v2 = 0.2.
/// let outcome = mep.scheme().sample(&[0.6, 0.2], 0.1).unwrap();
/// let ht = HorvitzThompson::new();
/// assert!((ht.estimate(&mep, &outcome) - 0.4 / 0.2).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HorvitzThompson;

impl HorvitzThompson {
    /// HT, whose reveal test allows a relative gap of `1e-9`.
    pub fn new() -> HorvitzThompson {
        HorvitzThompson
    }

    fn revealed<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        outcome: &Outcome,
        u: f64,
        known: &mut Vec<Option<f64>>,
        caps: &mut Vec<f64>,
    ) -> bool {
        mep.scheme().states_at(outcome, u, known, caps);
        let lo = mep.f().box_inf(known, caps);
        let hi = mep.f().box_sup(known, caps);
        hi - lo <= TOL * hi.abs().max(1.0)
    }

    /// The probability that sampling data `v` produces an outcome revealing
    /// `f(v)`: the measure of the (prefix) set of revealing seeds.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn reveal_probability<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
    ) -> Result<f64> {
        mep.data_lower_bound(v)?; // validates v
        let gap_ok = |u: f64| -> bool {
            let scheme = mep.scheme();
            let mut known = Vec::with_capacity(v.len());
            let mut caps = Vec::with_capacity(v.len());
            for i in 0..v.len() {
                let cap = scheme.thresholds()[i].cap(u);
                if v[i] >= cap {
                    known.push(Some(v[i]));
                    caps.push(0.0);
                } else {
                    known.push(None);
                    caps.push(cap);
                }
            }
            let lo = mep.f().box_inf(&known, &caps);
            let hi = mep.f().box_sup(&known, &caps);
            hi - lo <= TOL * hi.abs().max(1.0)
        };
        if gap_ok(1.0) {
            return Ok(1.0);
        }
        // The revealing seeds form a prefix (0, p]; bisect for p.
        Ok(bisect(0.0, gap_ok))
    }

    /// Whether HT is applicable to data `v`: either `f(v) = 0` or the reveal
    /// probability is positive.
    ///
    /// # Errors
    ///
    /// Returns an error if `v` is invalid for the scheme.
    pub fn is_applicable<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        v: &[f64],
    ) -> Result<bool> {
        if mep.f().eval(v) == 0.0 {
            return Ok(true);
        }
        // Reveal detection uses the relative tolerance `TOL`, so probes can
        // report spurious "reveals" at seeds up to ~TOL; require the reveal
        // probability to clear that noise floor.
        Ok(self.reveal_probability(mep, v)? > TOL * 100.0)
    }

    /// Like [`MonotoneEstimator::estimate`] but returns
    /// [`Error::NotApplicable`] instead of `0` on non-revealing outcomes,
    /// letting callers distinguish "HT says 0" from "HT has no information".
    pub fn try_estimate<F: ItemFn, T: ThresholdFn>(
        &self,
        mep: &Mep<F, T>,
        outcome: &Outcome,
    ) -> Result<f64> {
        let rho = outcome.seed();
        let mut known = Vec::with_capacity(outcome.arity());
        let mut caps = Vec::with_capacity(outcome.arity());
        if !self.revealed(mep, outcome, rho, &mut known, &mut caps) {
            return Err(Error::NotApplicable("outcome does not reveal f(v)"));
        }
        let f = mep.f().box_inf(&known, &caps);
        if f <= 0.0 {
            return Ok(0.0);
        }
        // Largest u on the path that still reveals (the revealing seeds form
        // a prefix of (0, 1]).
        let mut reveals = |u: f64| self.revealed(mep, outcome, u, &mut known, &mut caps);
        if reveals(1.0) {
            return Ok(f);
        }
        // The last breakpoint that reveals is the boundary when the next
        // double does not: the bisection below would end on it too.
        let mut b = rho;
        for bp in mep.scheme().path_breakpoints(outcome) {
            if !reveals(bp) {
                break;
            }
            b = bp;
        }
        if b >= FAST_PATH_FLOOR && !reveals(b.next_up()) {
            return Ok(f / b);
        }
        Ok(f / bisect(rho, reveals))
    }
}

impl<F: ItemFn, T: ThresholdFn> MonotoneEstimator<F, T> for HorvitzThompson {
    fn estimate(&self, mep: &Mep<F, T>, outcome: &Outcome) -> f64 {
        self.try_estimate(mep, outcome).unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "HT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{DistinctOr, LinearAbsPow, RangePow, RangePowPlus, TupleMax, TupleMin};
    use crate::quad::{integrate_with_breakpoints, QuadConfig};
    use crate::scheme::{StepThreshold, TupleScheme};

    fn mep_p(p: f64) -> Mep<RangePowPlus, crate::scheme::LinearThreshold> {
        Mep::new(RangePowPlus::new(p), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap()
    }

    #[test]
    fn reveal_probability_is_v2_for_rg_plus() {
        let mep = mep_p(1.0);
        let ht = HorvitzThompson::new();
        let p = ht.reveal_probability(&mep, &[0.6, 0.2]).unwrap();
        assert!((p - 0.2).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn inapplicable_when_v2_zero() {
        // Paper, Section 1: estimating the range of (0.5, 0) under PPS has
        // zero probability of revealing v2 = 0.
        let mep = mep_p(1.0);
        let ht = HorvitzThompson::new();
        assert!(!ht.is_applicable(&mep, &[0.5, 0.0]).unwrap());
        assert!(ht.is_applicable(&mep, &[0.5, 0.25]).unwrap());
        // f(v) = 0 data is trivially applicable.
        assert!(ht.is_applicable(&mep, &[0.2, 0.5]).unwrap());
    }

    #[test]
    fn estimate_inverse_probability() {
        let mep = mep_p(2.0);
        let ht = HorvitzThompson::new();
        let out = mep.scheme().sample(&[0.6, 0.2], 0.15).unwrap();
        let e = ht.estimate(&mep, &out);
        let expect = (0.4f64 * 0.4) / 0.2;
        assert!((e - expect).abs() < 1e-6, "got {e} vs {expect}");
    }

    #[test]
    fn zero_on_non_revealing_outcomes() {
        let mep = mep_p(1.0);
        let ht = HorvitzThompson::new();
        let out = mep.scheme().sample(&[0.6, 0.2], 0.35).unwrap();
        assert_eq!(ht.estimate(&mep, &out), 0.0);
        assert!(ht.try_estimate(&mep, &out).is_err());
    }

    #[test]
    fn unbiased_where_applicable() {
        let mep = mep_p(1.0);
        let ht = HorvitzThompson::new();
        let v = [0.7, 0.3];
        let cfg = QuadConfig::default();
        let mean = integrate_with_breakpoints(
            |u| {
                let out = mep.scheme().sample(&v, u).unwrap();
                ht.estimate(&mep, &out)
            },
            1e-9,
            1.0,
            &[0.3, 0.7],
            &cfg,
        );
        assert!((mean - 0.4).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn biased_low_when_inapplicable() {
        let mep = mep_p(1.0);
        let ht = HorvitzThompson::new();
        let v = [0.5, 0.0];
        let cfg = QuadConfig::default();
        let mean = integrate_with_breakpoints(
            |u| {
                let out = mep.scheme().sample(&v, u).unwrap();
                ht.estimate(&mep, &out)
            },
            1e-9,
            1.0,
            &[0.5],
            &cfg,
        );
        assert!(mean.abs() < 1e-9, "HT should be all-zero here, mean {mean}");
    }

    /// SplitMix64: a pinned pseudo-random stream.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (-53.0f64).exp2()
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        /// Log-uniform over the `binades` binades below `top`.
        fn log_uniform(&mut self, top: f64, binades: f64) -> f64 {
            top * (-binades * self.unit()).exp2()
        }
    }

    /// The reference: `try_estimate` with no breakpoint walk, bisecting
    /// `(ρ, 1]` in 64 steps on every revealing outcome.
    fn bisection_only<F: ItemFn, T: ThresholdFn>(
        ht: &HorvitzThompson,
        mep: &Mep<F, T>,
        outcome: &Outcome,
    ) -> Result<f64> {
        let rho = outcome.seed();
        let mut known = Vec::new();
        let mut caps = Vec::new();
        if !ht.revealed(mep, outcome, rho, &mut known, &mut caps) {
            return Err(Error::NotApplicable("outcome does not reveal f(v)"));
        }
        let f = mep.f().box_inf(&known, &caps);
        if f <= 0.0 {
            return Ok(0.0);
        }
        if ht.revealed(mep, outcome, 1.0, &mut known, &mut caps) {
            return Ok(f);
        }
        let mut lo = rho;
        let mut hi = 1.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if ht.revealed(mep, outcome, mid, &mut known, &mut caps) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(f / lo)
    }

    /// A weight at one of the edges for an entry whose threshold reaches
    /// `scale` at `u = 1`: zero, near 1e-10, above the scale, one of
    /// `ties` exactly, or log-uniform or uniform below the scale.
    fn draw_weight(rng: &mut Rng, scale: f64, ties: &[f64]) -> f64 {
        match rng.below(7) {
            0 => 0.0,
            1 => 1e-10 * (0.5 + rng.unit()),
            2 => scale * (1.0 + rng.unit()),
            3 if !ties.is_empty() => ties[rng.below(ties.len())],
            3 | 4 => rng.log_uniform(scale, 24.0),
            _ => scale * rng.unit(),
        }
    }

    /// A seed in `(0, 1]`: below 1e-9, log-uniform, or uniform.
    fn draw_seed(rng: &mut Rng) -> f64 {
        match rng.below(4) {
            0 => 1e-9 * (1.0 - rng.unit()),
            1 => rng.log_uniform(1.0, 30.0),
            _ => 1.0 - rng.unit(),
        }
    }

    /// A step threshold with up to five steps at seeds and caps in `(0, 1]`.
    fn draw_step(rng: &mut Rng) -> StepThreshold {
        let n = 1 + rng.below(5);
        let mut seeds: Vec<f64> = (0..n).map(|_| draw_seed(rng)).collect();
        let mut caps: Vec<f64> = (0..n).map(|_| rng.log_uniform(1.0, 24.0)).collect();
        seeds.sort_by(f64::total_cmp);
        seeds.dedup();
        caps.sort_by(f64::total_cmp);
        let steps = seeds.into_iter().zip(caps).collect();
        let top_cap = [1.0, f64::INFINITY][rng.below(2)];
        StepThreshold::new(steps, top_cap).unwrap()
    }

    /// Samples `n` outcomes of `mep` and records every one on which
    /// `try_estimate` and [`bisection_only`] differ in their bits, or in
    /// whether HT applies.
    fn record_mismatches<F: ItemFn, T: ThresholdFn>(
        label: &str,
        mep: &Mep<F, T>,
        scales: &[f64],
        ties: &[f64],
        n: usize,
        rng: &mut Rng,
        mismatches: &mut Vec<String>,
    ) {
        let ht = HorvitzThompson::new();
        let mut v = vec![0.0; scales.len()];
        for _ in 0..n {
            for i in 0..v.len() {
                v[i] = if i > 0 && rng.below(6) == 0 {
                    v[rng.below(i)]
                } else {
                    draw_weight(rng, scales[i], ties)
                };
            }
            let u = draw_seed(rng);
            let outcome = mep.scheme().sample(&v, u).unwrap();
            let want = bisection_only(&ht, mep, &outcome);
            let same = match (ht.try_estimate(mep, &outcome), want) {
                (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                (Err(Error::NotApplicable(_)), Err(Error::NotApplicable(_))) => true,
                _ => false,
            };
            if !same {
                mismatches.push(format!("{label}: v = {v:?}, u = {u:e}"));
            }
        }
    }

    /// Runs `f` under PPS with a common and with unequal scales, and under
    /// random step thresholds.
    fn record_family<F: ItemFn + Clone>(
        label: &str,
        f: F,
        rng: &mut Rng,
        mismatches: &mut Vec<String>,
    ) {
        const PER_SCHEME: usize = 1000;
        let r = f.arity();
        let common = vec![1.0; r];
        let unequal: Vec<f64> = [1.0, 2.5, 0.4, 7.0][..r].to_vec();
        for scales in [common, unequal] {
            let mep = Mep::new(f.clone(), TupleScheme::pps(&scales).unwrap()).unwrap();
            let label = format!("{label} PPS {scales:?}");
            record_mismatches(&label, &mep, &scales, &[], PER_SCHEME, rng, mismatches);
        }
        for _ in 0..PER_SCHEME / 50 {
            let thresholds: Vec<StepThreshold> = (0..r).map(|_| draw_step(rng)).collect();
            let ties: Vec<f64> = thresholds
                .iter()
                .flat_map(|t| t.steps().iter().map(|&(_, cap)| cap))
                .collect();
            let label = format!("{label} steps {thresholds:?}");
            let mep = Mep::new(f.clone(), TupleScheme::new(thresholds)).unwrap();
            record_mismatches(&label, &mep, &vec![1.0; r], &ties, 50, rng, mismatches);
        }
    }

    #[test]
    fn breakpoint_boundary_matches_the_bisection_bit_for_bit() {
        let mut rng = Rng(19);
        let mut mismatches = Vec::new();
        let m = &mut mismatches;
        for p in [0.5, 1.0, 2.0] {
            record_family(&format!("RG{p}+"), RangePowPlus::new(p), &mut rng, m);
        }
        record_family("RG2 arity 3", RangePow::new(2.0, 3), &mut rng, m);
        let g = LinearAbsPow::new(vec![1.0, -2.0, 1.0], 0.0, 2.0);
        record_family("|v1 - 2v2 + v3|^2", g, &mut rng, m);
        let g = LinearAbsPow::new(vec![0.5, -1.0], 0.25, 1.0);
        record_family("|v1/2 - v2 + 1/4|", g, &mut rng, m);
        for r in 2..=4 {
            record_family(&format!("OR arity {r}"), DistinctOr::new(r), &mut rng, m);
        }
        record_family("max arity 3", TupleMax::new(3), &mut rng, m);
        record_family("min arity 3", TupleMin::new(3), &mut rng, m);
        assert!(
            mismatches.is_empty(),
            "{} outcomes differ from the bisection, first: {}",
            mismatches.len(),
            mismatches[0]
        );
    }

    #[test]
    fn bisection_ends_on_every_boundary_from_the_floor_up() {
        let mut rng = Rng(1024);
        let mut binade = FAST_PATH_FLOOR;
        while binade < 1.0 {
            let top = 2.0 * binade;
            for j in 0..400 {
                let b = match j {
                    0 => binade,
                    1 => top.next_down(),
                    _ => binade * (1.0 + rng.unit()),
                };
                let tiny = [f64::MIN_POSITIVE, 1e-300, 1e-12];
                let below = [rng.log_uniform(b, 60.0), b * (1.0 - rng.unit())];
                for rho in tiny.into_iter().chain(below).chain([b.next_down(), b]) {
                    let end = bisect(rho, |u| u <= b);
                    assert_eq!(
                        end.to_bits(),
                        b.to_bits(),
                        "B = {b:e}, rho = {rho:e}: {end:e}"
                    );
                }
            }
            binade = top;
        }
    }
}
