//! Sketch-based closeness similarity (paper, Section 7 and \[9\]).
//!
//! The closeness similarity of nodes `a, b` measures how similarly they
//! relate to the rest of the graph:
//!
//! `sim(a, b) = Σ_i α(max(d_ai, d_bi)) / Σ_i α(min(d_ai, d_bi))`
//!
//! for a non-increasing decay `α`. On the α-value scale the numerator and
//! denominator are sums of `min` / `max` item functions of the coordinated
//! tuples `(α(d_ai), α(d_bi))`, so both are estimated from `ADS(a)` and
//! `ADS(b)` alone by applying the L\* estimator per item under the
//! HIP-induced threshold scheme, and summing.

use monotone_core::estimate::{LStar, MonotoneEstimator};
use monotone_core::func::{TupleMax, TupleMin};
use monotone_core::problem::Mep;
use monotone_core::scheme::{EntryState, Outcome, TupleScheme};

use crate::ads::Ads;
use crate::dijkstra::dijkstra;
use crate::graph::Graph;
use crate::hip::item_threshold;

/// Exact closeness similarity via two Dijkstra runs (ground truth).
///
/// Unreachable nodes contribute `α(∞) = 0`; `alpha` must be non-increasing
/// with `alpha(0) > 0`.
pub fn exact_closeness<A: Fn(f64) -> f64>(g: &Graph, a: u32, b: u32, alpha: &A) -> f64 {
    let (num, den) = exact_closeness_sums(g, a, b, alpha);
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// The exact numerator and denominator sums of [`exact_closeness`].
fn exact_closeness_sums<A: Fn(f64) -> f64>(g: &Graph, a: u32, b: u32, alpha: &A) -> (f64, f64) {
    let da = dijkstra(g, a);
    let db = dijkstra(g, b);
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..g.node_count() {
        let (x, y) = (da[i], db[i]);
        if x.max(y).is_finite() {
            num += alpha(x.max(y));
        }
        if x.min(y).is_finite() {
            den += alpha(x.min(y));
        }
    }
    (num, den)
}

/// Sketch-based closeness estimation: L\* estimates of the numerator and
/// denominator sums from two all-distances sketches.
#[derive(Debug)]
pub struct ClosenessEstimator<'a, A> {
    sketches: &'a [Ads],
    k: usize,
    alpha: A,
    lstar: LStar,
}

impl<'a, A: Fn(f64) -> f64> ClosenessEstimator<'a, A> {
    /// Creates an estimator over prebuilt sketches with parameter `k` and
    /// decay `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or no sketches are supplied.
    pub fn new(sketches: &'a [Ads], k: usize, alpha: A) -> ClosenessEstimator<'a, A> {
        assert!(k > 0, "k must be positive");
        assert!(!sketches.is_empty(), "need at least one sketch");
        ClosenessEstimator {
            sketches,
            k,
            alpha,
            // The per-item lower bounds are step functions with breakpoints
            // already split out; the fast quadrature profile is exact enough
            // and an order of magnitude cheaper.
            lstar: LStar::with_quad(monotone_core::quad::QuadConfig::fast()),
        }
    }

    /// Estimated numerator and denominator sums for the pair `(a, b)`.
    ///
    /// # Errors
    ///
    /// Propagates estimator-construction errors.
    pub fn estimate_sums(&self, a: u32, b: u32) -> monotone_core::Result<(f64, f64)> {
        let ads_a = &self.sketches[a as usize];
        let ads_b = &self.sketches[b as usize];
        // Items with any sampled evidence.
        let mut items: Vec<(u32, f64)> = Vec::new();
        for e in ads_a.entries().iter().chain(ads_b.entries()) {
            items.push((e.node, e.rank));
        }
        items.sort_by_key(|x| x.0);
        items.dedup_by_key(|x| x.0);

        let mut num = 0.0;
        let mut den = 0.0;
        for (node, rank) in items {
            let scheme = TupleScheme::new(vec![
                item_threshold(ads_a, self.k, node, &self.alpha),
                item_threshold(ads_b, self.k, node, &self.alpha),
            ]);
            let outcome = self.item_outcome(node, rank, ads_a, ads_b)?;
            let mep_min = Mep::new(TupleMin::new(2), scheme.clone())?;
            num += self.lstar.estimate(&mep_min, &outcome);
            let mep_max = Mep::new(TupleMax::new(2), scheme)?;
            den += self.lstar.estimate(&mep_max, &outcome);
        }
        Ok((num, den))
    }

    /// The estimated similarity `sim(a, b)` (ratio of the estimated sums,
    /// clamped to `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Propagates estimator-construction errors.
    pub fn estimate(&self, a: u32, b: u32) -> monotone_core::Result<f64> {
        let (num, den) = self.estimate_sums(a, b)?;
        Ok(if den > 0.0 {
            (num / den).clamp(0.0, 1.0)
        } else {
            1.0
        })
    }

    fn item_outcome(
        &self,
        node: u32,
        rank: f64,
        ads_a: &Ads,
        ads_b: &Ads,
    ) -> monotone_core::Result<Outcome> {
        let state = |ads: &Ads| match ads.get(node) {
            Some(e) => EntryState::Known((self.alpha)(e.dist)),
            None => EntryState::Capped,
        };
        Outcome::from_parts(rank, vec![state(ads_a), state(ads_b)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads::build_all_ads;
    use crate::graph::GraphBuilder;
    use monotone_coord::seed::SeedHasher;

    fn random_graph(n: usize, percent: u64, seed: u64) -> Graph {
        let mut b = GraphBuilder::new(n);
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if next() < percent as f64 / 100.0 {
                    b.add_undirected(u, v, 0.1 + next());
                }
            }
        }
        b.build()
    }

    fn alpha(d: f64) -> f64 {
        if d.is_finite() {
            (-d).exp()
        } else {
            0.0
        }
    }

    #[test]
    fn exact_self_similarity_is_one() {
        let g = random_graph(25, 15, 3);
        assert!((exact_closeness(&g, 4, 4, &alpha) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_similarity_symmetric_and_bounded() {
        let g = random_graph(25, 15, 5);
        for (a, b) in [(0u32, 1u32), (2, 7), (3, 19)] {
            let s1 = exact_closeness(&g, a, b, &alpha);
            let s2 = exact_closeness(&g, b, a, &alpha);
            assert!((s1 - s2).abs() < 1e-12);
            assert!((0.0..=1.0).contains(&s1), "sim {s1}");
        }
    }

    #[test]
    fn full_sketches_recover_exact_sums() {
        // With k >= n the sketches contain everything and the estimates are
        // exact (thresholds collapse to "always included").
        let n = 20;
        let g = random_graph(n, 25, 7);
        let seeder = SeedHasher::new(13);
        let sketches = build_all_ads(&g, n, &seeder);
        let est = ClosenessEstimator::new(&sketches, n, alpha);
        for (a, b) in [(0u32, 1u32), (3, 9)] {
            let (num, den) = est.estimate_sums(a, b).unwrap();
            let (tn, td) = exact_closeness_sums(&g, a, b, &alpha);
            assert!((num - tn).abs() < 1e-6, "num {num} vs {tn}");
            assert!((den - td).abs() < 1e-6, "den {den} vs {td}");
        }
    }

    #[test]
    fn sum_estimates_unbiased_over_randomizations() {
        // The L* per-item estimates are unbiased, so averaging the sketch
        // estimates over rank assignments converges to the exact sums.
        let n = 30;
        let g = random_graph(n, 15, 23);
        let k = 4;
        let (a, b) = (0u32, 1u32);
        let (tn, td) = exact_closeness_sums(&g, a, b, &alpha);
        let trials = 150;
        let (mut sn, mut sd) = (0.0, 0.0);
        for salt in 0..trials {
            let seeder = SeedHasher::new(500 + salt);
            let sketches = build_all_ads(&g, k, &seeder);
            let est = ClosenessEstimator::new(&sketches, k, alpha);
            let (num, den) = est.estimate_sums(a, b).unwrap();
            sn += num;
            sd += den;
        }
        let (mn, md) = (sn / trials as f64, sd / trials as f64);
        assert!((mn - tn).abs() < 0.1 * tn.max(0.1), "num mean {mn} vs {tn}");
        assert!((md - td).abs() < 0.1 * td.max(0.1), "den mean {md} vs {td}");
    }

    #[test]
    fn estimate_close_to_truth_at_moderate_k() {
        let n = 40;
        let g = random_graph(n, 18, 31);
        let seeder = SeedHasher::new(77);
        let k = 12;
        let sketches = build_all_ads(&g, k, &seeder);
        let est = ClosenessEstimator::new(&sketches, k, alpha);
        let truth = exact_closeness(&g, 0, 1, &alpha);
        let got = est.estimate(0, 1).unwrap();
        assert!(
            (got - truth).abs() < 0.25,
            "estimate {got} vs truth {truth}"
        );
    }
}
