//! Order-optimal estimators on discrete domains (paper, Section 5 and
//! Example 5).
//!
//! On a finite domain `V` with per-value inclusion probabilities, outcomes
//! are constant on the intervals between consecutive probability
//! breakpoints, and the ≺⁺-optimal estimator for any total order ≺ exists
//! and is computed by the iterative v-optimal-extension construction of
//! Lemma 5.1: the estimate on an outcome is the ≺-minimal consistent
//! vector's optimal slope given the mass already committed on
//! less-informative outcomes (Eq. (37)).
//!
//! Choosing ≺ by ascending `f` yields the L\* estimator (Theorem 4.3);
//! descending `f` yields U\* (Lemma 6.1); custom keys customize variance to
//! expected data patterns — exactly the walk-through of Example 5.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::func::ItemFn;

/// A monotone estimation problem over a finite domain.
///
/// Each coordinate has a finite set of admissible values with inclusion
/// probabilities that are non-decreasing in the value (monotone sampling);
/// a value `w` of coordinate `i` is sampled at seed `u` iff
/// `u <= prob_i(w)`. Lower bounds are computed over the *consistent subset
/// of V* (not over boxes), which is the correct notion for discrete domains.
#[derive(Debug, Clone)]
pub struct DiscreteMep<F> {
    f: F,
    vectors: Vec<Vec<f64>>,
    /// Per coordinate: sorted `(value, inclusion probability)` pairs.
    value_probs: Vec<Vec<(f64, f64)>>,
    /// Ascending right endpoints of the outcome-constant intervals;
    /// `ends.last() == 1.0`. Interval `k` is `(left_k, ends[k]]` with
    /// `left_0 = 0`.
    ends: Vec<f64>,
}

/// A canonical discrete outcome: the interval index plus the known entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteOutcome {
    interval: usize,
    known: Vec<Option<f64>>,
}

impl DiscreteOutcome {
    /// Index of the seed interval (0 = most informative).
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Known entries (`None` = hidden).
    pub fn known(&self) -> &[Option<f64>] {
        &self.known
    }
}

impl<F: ItemFn> DiscreteMep<F> {
    /// Builds a discrete problem.
    ///
    /// `value_probs[i]` must list every value coordinate `i` takes in
    /// `vectors`, with probabilities in `[0, 1]` non-decreasing in the value.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDomain`] for empty domains, missing value
    /// probabilities, or non-monotone probabilities, and
    /// [`Error::ArityMismatch`] when dimensions disagree.
    pub fn new(
        f: F,
        vectors: Vec<Vec<f64>>,
        value_probs: Vec<Vec<(f64, f64)>>,
    ) -> Result<DiscreteMep<F>> {
        if vectors.is_empty() {
            return Err(Error::InvalidDomain("empty vector set".to_owned()));
        }
        let r = f.arity();
        if value_probs.len() != r {
            return Err(Error::ArityMismatch {
                expected: r,
                got: value_probs.len(),
            });
        }
        let mut value_probs = value_probs;
        for vp in &mut value_probs {
            vp.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
            let mut prev = -1.0;
            for &(w, p) in vp.iter() {
                if !w.is_finite() || w < 0.0 {
                    return Err(Error::InvalidValue(w));
                }
                if !(0.0..=1.0).contains(&p) {
                    return Err(Error::InvalidProbability(p));
                }
                if p < prev {
                    return Err(Error::InvalidDomain(format!(
                        "inclusion probability decreases at value {w}"
                    )));
                }
                prev = p;
            }
        }
        for v in &vectors {
            if v.len() != r {
                return Err(Error::ArityMismatch {
                    expected: r,
                    got: v.len(),
                });
            }
            for (i, &w) in v.iter().enumerate() {
                if lookup(&value_probs[i], w).is_none() {
                    return Err(Error::InvalidDomain(format!(
                        "value {w} of coordinate {i} has no inclusion probability"
                    )));
                }
            }
        }
        let mut ends: Vec<f64> = value_probs
            .iter()
            .flatten()
            .map(|&(_, p)| p)
            .filter(|&p| p > 0.0 && p < 1.0)
            .collect();
        ends.push(1.0);
        ends.sort_by(|a, b| a.partial_cmp(b).expect("finite probs"));
        ends.dedup();
        Ok(DiscreteMep {
            f,
            vectors,
            value_probs,
            ends,
        })
    }

    /// The estimated function.
    pub fn f(&self) -> &F {
        &self.f
    }

    /// The domain vectors.
    pub fn vectors(&self) -> &[Vec<f64>] {
        &self.vectors
    }

    /// Right endpoints of the outcome-constant seed intervals (ascending;
    /// the last is 1).
    pub fn interval_ends(&self) -> &[f64] {
        &self.ends
    }

    /// Number of seed intervals.
    pub fn interval_count(&self) -> usize {
        self.ends.len()
    }

    /// Left endpoint of interval `k`.
    pub fn interval_left(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.ends[k - 1]
        }
    }

    /// Length of interval `k`.
    pub fn interval_len(&self, k: usize) -> f64 {
        self.ends[k] - self.interval_left(k)
    }

    fn prob(&self, coord: usize, value: f64) -> f64 {
        lookup(&self.value_probs[coord], value).expect("validated value")
    }

    /// The interval index containing seed `u`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSeed`] for `u` outside `(0, 1]`.
    pub fn interval_of(&self, u: f64) -> Result<usize> {
        crate::error::check_seed(u)?;
        Ok(self.ends.partition_point(|&e| e < u))
    }

    /// The outcome of sampling `v` at any seed inside interval `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `v` has the wrong arity (internal
    /// callers pass validated data; use [`DiscreteMep::outcome`] for checked
    /// access).
    pub fn outcome_at_interval(&self, v: &[f64], k: usize) -> DiscreteOutcome {
        assert!(k < self.ends.len());
        assert_eq!(v.len(), self.f.arity());
        let thresh = self.ends[k];
        let known = v
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                if self.prob(i, w) >= thresh {
                    Some(w)
                } else {
                    None
                }
            })
            .collect();
        DiscreteOutcome { interval: k, known }
    }

    /// The outcome of sampling `v` with seed `u`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid seeds or vectors outside the domain.
    pub fn outcome(&self, v: &[f64], u: f64) -> Result<DiscreteOutcome> {
        let k = self.interval_of(u)?;
        if v.len() != self.f.arity() {
            return Err(Error::ArityMismatch {
                expected: self.f.arity(),
                got: v.len(),
            });
        }
        Ok(self.outcome_at_interval(v, k))
    }

    /// Indices of domain vectors consistent with an outcome.
    pub fn consistent(&self, out: &DiscreteOutcome) -> Vec<usize> {
        let left = self.interval_left(out.interval);
        let thresh = self.ends[out.interval];
        (0..self.vectors.len())
            .filter(|&zi| {
                let z = &self.vectors[zi];
                z.iter().enumerate().all(|(i, &w)| match out.known[i] {
                    Some(kv) => w == kv && self.prob(i, w) >= thresh,
                    None => self.prob(i, w) <= left,
                })
            })
            .collect()
    }

    /// The lower-bound value `f̄` at an outcome: the minimum of `f` over the
    /// consistent subset of `V`.
    pub fn lower_bound(&self, out: &DiscreteOutcome) -> f64 {
        self.consistent(out)
            .into_iter()
            .map(|zi| self.f.eval(&self.vectors[zi]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Exact L\* estimate at an outcome, from the closed interval-sum form
    /// of Eq. (31) for step lower-bound functions:
    /// `f̂ᴸ(I_k) = b_k/ends_k − Σ_{j>k} b_j (1/ends_{j-1} − 1/ends_j)`.
    pub fn lstar_estimate(&self, out: &DiscreteOutcome) -> f64 {
        let k = out.interval;
        let b_k = self.lower_bound(out);
        if b_k <= 0.0 {
            return 0.0;
        }
        // Lower bounds on the coarser path outcomes: derived from this
        // outcome by hiding entries below each coarser threshold. Any
        // consistent vector yields the same path, so reconstruct from the
        // known entries (hidden entries stay hidden at coarser seeds).
        let mut tail = 0.0;
        for j in (k + 1)..self.interval_count() {
            let thresh = self.ends[j];
            let coarser = DiscreteOutcome {
                interval: j,
                known: out
                    .known
                    .iter()
                    .enumerate()
                    .map(|(i, kv)| kv.filter(|&w| self.prob(i, w) >= thresh))
                    .collect(),
            };
            let b_j = self.lower_bound(&coarser);
            tail += b_j * (1.0 / self.ends[j - 1] - 1.0 / self.ends[j]);
        }
        (b_k / self.ends[k] - tail).max(0.0)
    }
}

fn lookup(probs: &[(f64, f64)], w: f64) -> Option<f64> {
    probs
        .iter()
        .find(|&&(value, _)| value == w)
        .map(|&(_, p)| p)
}

/// The ≺⁺-optimal estimator for a total order on a discrete domain
/// (Lemma 5.1's construction, memoized per canonical outcome).
///
/// # Examples
///
/// ```
/// use monotone_core::discrete::{DiscreteMep, OrderOptimal};
/// use monotone_core::func::RangePowPlus;
///
/// // Example 5 of the paper: RG1+ over V = {0,1,2,3}² with thresholds
/// // π = (0.25, 0.5, 0.75).
/// let mut vectors = Vec::new();
/// for a in 0..4 {
///     for b in 0..4 {
///         vectors.push(vec![a as f64, b as f64]);
///     }
/// }
/// let probs = vec![(0.0, 0.0), (1.0, 0.25), (2.0, 0.5), (3.0, 0.75)];
/// let mep = DiscreteMep::new(RangePowPlus::new(1.0), vectors, vec![probs.clone(), probs]).unwrap();
/// let lstar_order = OrderOptimal::f_ascending(&mep);
/// // The f-ascending order reproduces L*: check unbiasedness on (3, 1).
/// let mean = lstar_order.expected(&[3.0, 1.0]).unwrap();
/// assert!((mean - 2.0).abs() < 1e-12);
/// ```
pub struct OrderOptimal<'a, F> {
    mep: &'a DiscreteMep<F>,
    /// Total order on vector indices (ascending = higher priority).
    rank: Vec<usize>,
    memo: RefCell<HashMap<(usize, Vec<Option<u64>>), f64>>,
    lb_memo: RefCell<HashMap<(usize, usize), f64>>,
}

impl<'a, F: ItemFn> OrderOptimal<'a, F> {
    /// ≺⁺-optimal estimator for the order induced by `key` (ascending),
    /// with lexicographic tie-breaking on the vector for totality.
    pub fn by_key<K: Fn(&[f64]) -> f64>(mep: &'a DiscreteMep<F>, key: K) -> OrderOptimal<'a, F> {
        let mut idx: Vec<usize> = (0..mep.vectors().len()).collect();
        idx.sort_by(|&a, &b| {
            let (va, vb) = (&mep.vectors()[a], &mep.vectors()[b]);
            key(va)
                .partial_cmp(&key(vb))
                .unwrap_or(Ordering::Equal)
                .then_with(|| lex_cmp(va, vb))
        });
        // rank[vector index] = position in ≺ order.
        let mut rank = vec![0usize; idx.len()];
        for (pos, &vi) in idx.iter().enumerate() {
            rank[vi] = pos;
        }
        OrderOptimal {
            mep,
            rank,
            memo: RefCell::new(HashMap::new()),
            lb_memo: RefCell::new(HashMap::new()),
        }
    }

    /// The order prioritizing small `f` — reproduces L\* (Theorem 4.3).
    pub fn f_ascending(mep: &'a DiscreteMep<F>) -> OrderOptimal<'a, F> {
        Self::by_key(mep, |v| mep.f().eval(v))
    }

    /// The order prioritizing large `f` — reproduces U\* (Lemma 6.1).
    pub fn f_descending(mep: &'a DiscreteMep<F>) -> OrderOptimal<'a, F> {
        Self::by_key(mep, |v| -mep.f().eval(v))
    }

    /// The estimate on a canonical outcome.
    pub fn estimate(&self, out: &DiscreteOutcome) -> f64 {
        let key = (
            out.interval,
            out.known
                .iter()
                .map(|k| k.map(f64::to_bits))
                .collect::<Vec<_>>(),
        );
        if let Some(&v) = self.memo.borrow().get(&key) {
            return v;
        }
        let value = self.compute(out);
        self.memo.borrow_mut().insert(key, value);
        value
    }

    fn lb_of(&self, zi: usize, interval: usize) -> f64 {
        if let Some(&v) = self.lb_memo.borrow().get(&(zi, interval)) {
            return v;
        }
        let out = self
            .mep
            .outcome_at_interval(&self.mep.vectors()[zi], interval);
        let v = self.mep.lower_bound(&out);
        self.lb_memo.borrow_mut().insert((zi, interval), v);
        v
    }

    fn compute(&self, out: &DiscreteOutcome) -> f64 {
        let cons = self.mep.consistent(out);
        assert!(!cons.is_empty(), "outcome has no consistent vectors");
        let zmin = cons
            .into_iter()
            .min_by_key(|&zi| self.rank[zi])
            .expect("nonempty");
        let z = &self.mep.vectors()[zmin];
        // Mass committed on less-informative outcomes along zmin's path.
        let mut m = 0.0;
        for l in (out.interval + 1)..self.mep.interval_count() {
            let coarser = self.mep.outcome_at_interval(z, l);
            m += self.mep.interval_len(l) * self.estimate(&coarser);
        }
        // λ(ρ, zmin, M): the optimal slope against zmin's step lower bound,
        // with η candidates at interval left ends (Eq. (17)).
        let rho = self.mep.interval_ends()[out.interval];
        let mut lambda = f64::INFINITY;
        for j in 0..=out.interval {
            let eta = self.mep.interval_left(j);
            let b_j = self.lb_of(zmin, j);
            let slope = (b_j - m) / (rho - eta);
            if slope < lambda {
                lambda = slope;
            }
        }
        debug_assert!(lambda >= -1e-9, "optimal slope went negative: {lambda}");
        lambda.max(0.0)
    }

    /// The estimate for data `v` at seed `u`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid seeds or out-of-domain vectors.
    pub fn estimate_for(&self, v: &[f64], u: f64) -> Result<f64> {
        Ok(self.estimate(&self.mep.outcome(v, u)?))
    }

    /// Exact expectation `Σ_k |I_k| · f̂(I_k, v)` — equals `f(v)` (exact
    /// unbiasedness on discrete domains).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-domain vectors.
    pub fn expected(&self, v: &[f64]) -> Result<f64> {
        self.moments(v).map(|(mean, _)| mean)
    }

    /// Exact `E[f̂²]`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-domain vectors.
    pub fn esq(&self, v: &[f64]) -> Result<f64> {
        self.moments(v).map(|(_, esq)| esq)
    }

    /// Exact variance `E[f̂²] − f(v)²`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-domain vectors.
    pub fn variance(&self, v: &[f64]) -> Result<f64> {
        let (_, esq) = self.moments(v)?;
        let f = self.mep.f().eval(v);
        Ok(esq - f * f)
    }

    fn moments(&self, v: &[f64]) -> Result<(f64, f64)> {
        if v.len() != self.mep.f().arity() {
            return Err(Error::ArityMismatch {
                expected: self.mep.f().arity(),
                got: v.len(),
            });
        }
        let mut mean = 0.0;
        let mut esq = 0.0;
        for k in 0..self.mep.interval_count() {
            let e = self.estimate(&self.mep.outcome_at_interval(v, k));
            let len = self.mep.interval_len(k);
            mean += len * e;
            esq += len * e * e;
        }
        Ok((mean, esq))
    }
}

impl<F> std::fmt::Debug for OrderOptimal<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderOptimal")
            .field("memoized", &self.memo.borrow().len())
            .finish_non_exhaustive()
    }
}

fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y) {
            Some(Ordering::Equal) | None => continue,
            Some(o) => return o,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::RangePowPlus;

    const PI: [f64; 3] = [0.25, 0.5, 0.75];

    fn example5_mep() -> DiscreteMep<RangePowPlus> {
        let mut vectors = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                vectors.push(vec![a as f64, b as f64]);
            }
        }
        let probs = vec![(0.0, 0.0), (1.0, PI[0]), (2.0, PI[1]), (3.0, PI[2])];
        DiscreteMep::new(RangePowPlus::new(1.0), vectors, vec![probs.clone(), probs]).unwrap()
    }

    #[test]
    fn interval_structure() {
        let mep = example5_mep();
        assert_eq!(mep.interval_ends(), &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(mep.interval_of(0.1).unwrap(), 0);
        assert_eq!(mep.interval_of(0.25).unwrap(), 0);
        assert_eq!(mep.interval_of(0.26).unwrap(), 1);
        assert_eq!(mep.interval_of(1.0).unwrap(), 3);
    }

    #[test]
    fn lower_bound_table_matches_example5() {
        // The paper's LB table for RG1+ (rows = intervals, cols = vectors).
        let mep = example5_mep();
        let expect: &[(&[f64; 2], [f64; 4])] = &[
            (&[1.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
            (&[2.0, 1.0], [1.0, 1.0, 0.0, 0.0]),
            (&[2.0, 0.0], [2.0, 1.0, 0.0, 0.0]),
            (&[3.0, 2.0], [1.0, 1.0, 1.0, 0.0]),
            (&[3.0, 1.0], [2.0, 2.0, 1.0, 0.0]),
            (&[3.0, 0.0], [3.0, 2.0, 1.0, 0.0]),
        ];
        for (v, lbs) in expect {
            for k in 0..4 {
                let out = mep.outcome_at_interval(*v, k);
                let got = mep.lower_bound(&out);
                assert_eq!(got, lbs[k], "v={v:?} interval {k}");
            }
        }
    }

    #[test]
    fn vopt_estimates_match_example5_table() {
        // Spot checks of the v-optimal estimate table via the f-ascending
        // order at vectors where L* is v-optimal: (1,0), (2,1), (3,2).
        let mep = example5_mep();
        let est = OrderOptimal::f_ascending(&mep);
        // (1,0): v-optimal estimate 1/π1 on (0, π1].
        let e = est.estimate(&mep.outcome_at_interval(&[1.0, 0.0], 0));
        assert!((e - 1.0 / PI[0]).abs() < 1e-12, "got {e}");
        // (2,1): 1/π2 on both (0,π1] and (π1,π2].
        for k in 0..2 {
            let e = est.estimate(&mep.outcome_at_interval(&[2.0, 1.0], k));
            assert!((e - 1.0 / PI[1]).abs() < 1e-12, "interval {k}: {e}");
        }
        // (3,2): 1/π3 on intervals 0..3.
        for k in 0..3 {
            let e = est.estimate(&mep.outcome_at_interval(&[3.0, 2.0], k));
            assert!((e - 1.0 / PI[2]).abs() < 1e-12, "interval {k}: {e}");
        }
    }

    #[test]
    fn all_orders_unbiased_on_all_vectors() {
        let mep = example5_mep();
        let orders = [
            OrderOptimal::f_ascending(&mep),
            OrderOptimal::f_descending(&mep),
            OrderOptimal::by_key(&mep, |v| ((v[0] - v[1]) - 2.0).abs()),
        ];
        for est in &orders {
            for v in mep.vectors().to_vec() {
                let mean = est.expected(&v).unwrap();
                let f = (v[0] - v[1]).max(0.0);
                assert!(
                    (mean - f).abs() < 1e-10,
                    "order not unbiased at {v:?}: {mean} vs {f}"
                );
            }
        }
    }

    #[test]
    fn f_ascending_equals_lstar() {
        // Theorem 4.3 on the discrete domain: the f-ascending ≺⁺-optimal
        // estimator coincides with the exact interval-sum L*.
        let mep = example5_mep();
        let est = OrderOptimal::f_ascending(&mep);
        for v in mep.vectors().to_vec() {
            for k in 0..mep.interval_count() {
                let out = mep.outcome_at_interval(&v, k);
                let a = est.estimate(&out);
                let b = mep.lstar_estimate(&out);
                assert!(
                    (a - b).abs() < 1e-10,
                    "v={v:?} interval {k}: order-opt {a} vs L* {b}"
                );
            }
        }
    }

    #[test]
    fn custom_order_matches_example5_formulas() {
        // The ≺ prioritizing difference 2: (3,1) ≺ (3,2) ≺ (3,0), (2,0) ≺ (2,1).
        let mep = example5_mep();
        // Key: |d − 2| primary (prioritize difference 2), smaller d on ties —
        // this realizes the example's (3,1) ≺ (3,2) ≺ (3,0) and (2,0) ≺ (2,1).
        let est = OrderOptimal::by_key(&mep, |v| {
            let d = v[0] - v[1];
            (d - 2.0).abs() * 10.0 + d
        });
        let (p1, p2, p3) = (PI[0], PI[1], PI[2]);
        // v-optimal for (2,0): on (π1, π2] the estimate is min{2/π2, 1/(π2−π1)}.
        let e_2le1 = est.estimate(&mep.outcome_at_interval(&[2.0, 0.0], 1));
        let expect_2le1 = (2.0 / p2).min(1.0 / (p2 - p1));
        assert!((e_2le1 - expect_2le1).abs() < 1e-12, "got {e_2le1}");
        // Example 5: RˆG(≺)(2,1) = (1 − (π2−π1)·RˆG(≺)(2,≤1)) / π1.
        let e_21 = est.estimate(&mep.outcome_at_interval(&[2.0, 1.0], 0));
        let expect_21 = (1.0 - (p2 - p1) * e_2le1) / p1;
        assert!(
            (e_21 - expect_21).abs() < 1e-12,
            "got {e_21} vs {expect_21}"
        );
        // v-optimal for (3,1) on (π2, π3] (outcome (3,≤2)): min{2/π3, 1/(π3−π2)}.
        let e_3le2 = est.estimate(&mep.outcome_at_interval(&[3.0, 1.0], 2));
        let expect_3le2 = (2.0 / p3).min(1.0 / (p3 - p2));
        assert!((e_3le2 - expect_3le2).abs() < 1e-12, "got {e_3le2}");
        // (3,1)'s optimal extension at interval 1 (outcome (3,≤1)):
        // λ(π2, (3,1), M) with M = (π3−π2)e(3,≤2) and flat bound 2 gives
        // (2 − M)/π2.
        let e_3le1 = est.estimate(&mep.outcome_at_interval(&[3.0, 1.0], 1));
        let expect_3le1 = (2.0 - (p3 - p2) * e_3le2) / p2;
        assert!(
            (e_3le1 - expect_3le1).abs() < 1e-12,
            "got {e_3le1} vs {expect_3le1}"
        );
        // Example 5's (3,0) formula: value 0 is never sampled, so (3,0)'s
        // most informative outcome spans only (0, π1]:
        // RˆG(≺)(3,0) = (3 − (π3−π2)e(3,≤2) − (π2−π1)e(3,≤1)) / π1.
        let e_30 = est.estimate(&mep.outcome_at_interval(&[3.0, 0.0], 0));
        let expect_30 = (3.0 - (p3 - p2) * e_3le2 - (p2 - p1) * e_3le1) / p1;
        assert!(
            (e_30 - expect_30).abs() < 1e-12,
            "got {e_30} vs {expect_30}"
        );
        // (3,2): value 2 stays sampled through u <= π2, so the both-known
        // outcome spans intervals 0 and 1 with a constant estimate
        // (1 − (π3−π2)e(3,≤2)) / π2, and unbiasedness for (3,2) holds
        // exactly. (The walkthrough in the paper prints `(2 − ...)/π1` for
        // this entry, which is inconsistent with unbiasedness for (3,2);
        // see EXPERIMENTS.md.)
        let e_32_i0 = est.estimate(&mep.outcome_at_interval(&[3.0, 2.0], 0));
        let e_32_i1 = est.estimate(&mep.outcome_at_interval(&[3.0, 2.0], 1));
        let expect_32 = (1.0 - (p3 - p2) * e_3le2) / p2;
        assert!(
            (e_32_i0 - expect_32).abs() < 1e-12,
            "got {e_32_i0} vs {expect_32}"
        );
        assert!(
            (e_32_i1 - expect_32).abs() < 1e-12,
            "got {e_32_i1} vs {expect_32}"
        );
        let mean = p2 * e_32_i0 + (p3 - p2) * e_3le2;
        assert!((mean - 1.0).abs() < 1e-10, "unbiasedness of (3,2): {mean}");
    }

    #[test]
    fn descending_order_prioritizes_large_f() {
        // U*-order variance at the large-difference vector (3,0) must be at
        // most the L*-order's, and vice versa at the small difference (3,2).
        let mep = example5_mep();
        let asc = OrderOptimal::f_ascending(&mep);
        let desc = OrderOptimal::f_descending(&mep);
        let var_desc_30 = desc.variance(&[3.0, 0.0]).unwrap();
        let var_asc_30 = asc.variance(&[3.0, 0.0]).unwrap();
        assert!(
            var_desc_30 <= var_asc_30 + 1e-12,
            "U* {var_desc_30} vs L* {var_asc_30} at (3,0)"
        );
        let var_desc_32 = desc.variance(&[3.0, 2.0]).unwrap();
        let var_asc_32 = asc.variance(&[3.0, 2.0]).unwrap();
        assert!(
            var_asc_32 <= var_desc_32 + 1e-12,
            "L* {var_asc_32} vs U* {var_desc_32} at (3,2)"
        );
    }

    #[test]
    fn rejects_invalid_domains() {
        let f = RangePowPlus::new(1.0);
        assert!(DiscreteMep::new(f, vec![], vec![vec![], vec![]]).is_err());
        // Missing probability for value 2.
        let r = DiscreteMep::new(
            RangePowPlus::new(1.0),
            vec![vec![2.0, 0.0]],
            vec![vec![(0.0, 0.0)], vec![(0.0, 0.0)]],
        );
        assert!(r.is_err());
        // Decreasing probabilities.
        let r = DiscreteMep::new(
            RangePowPlus::new(1.0),
            vec![vec![1.0, 0.0]],
            vec![vec![(0.0, 0.5), (1.0, 0.25)], vec![(0.0, 0.0), (1.0, 0.25)]],
        );
        assert!(r.is_err());
    }
}
