//! HIP (Historic Inclusion Probability) machinery over ADS entries.
//!
//! Conditioned on the ranks of the nodes closer to the sketch owner, an ADS
//! entry is included iff its rank is below the k-th smallest rank among the
//! closer nodes — a fixed threshold (paper, footnote 1 and \[8\]). This gives
//! per-entry inclusion probabilities for inverse-probability estimators
//! (e.g. neighborhood cardinalities), and, on a value scale, per-item
//! *threshold functions* that turn coordinated ADSs into monotone sampling
//! schemes for pairwise estimation.

use monotone_core::scheme::StepThreshold;

use crate::ads::Ads;

/// The next representable `f64` above `x` (for nonnegative finite `x`).
fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::MIN_POSITIVE
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// The HIP inclusion probability of each sketch entry: the k-th smallest
/// rank among the strictly-closer entries (1 when fewer than `k` exist).
/// Returned as `(node, dist, probability)` sorted by distance.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn hip_probabilities(ads: &Ads, k: usize) -> Vec<(u32, f64, f64)> {
    assert!(k > 0, "HIP needs k >= 1");
    let entries = ads.entries(); // sorted by (dist, rank)
    let mut out = Vec::with_capacity(entries.len());
    // Ranks of entries seen so far (strictly closer in (dist, rank) order),
    // kept sorted ascending.
    let mut closer_ranks: Vec<f64> = Vec::with_capacity(entries.len());
    for e in entries {
        let p = if closer_ranks.len() < k {
            1.0
        } else {
            closer_ranks[k - 1]
        };
        out.push((e.node, e.dist, p));
        let pos = closer_ranks.partition_point(|&r| r < e.rank);
        closer_ranks.insert(pos, e.rank);
    }
    out
}

/// The per-item threshold function induced by a sketch on the α-value scale.
///
/// For an item with seed (rank) `u`, the sketch of `v` includes it iff its
/// distance is below the k-th smallest distance among the sketch entries of
/// rank `< u` — equivalently iff its α-value `x = α(dist)` satisfies
/// `x >= τ(u)` with `τ(u) = α(d^{(k)}(u))`. `exclude` removes the item's own
/// entry (the conditioning is on the *other* nodes).
///
/// `alpha` must be non-increasing with `alpha(∞) = 0`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn item_threshold<A: Fn(f64) -> f64>(
    ads: &Ads,
    k: usize,
    exclude: u32,
    alpha: &A,
) -> StepThreshold {
    assert!(k > 0, "item_threshold needs k >= 1");
    let mut by_rank: Vec<(f64, f64)> = ads
        .entries()
        .iter()
        .filter(|e| e.node != exclude)
        .map(|e| (e.rank, e.dist))
        .collect();
    by_rank.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ranks"));

    // After j entries of lower rank, the inclusion horizon is the k-th
    // smallest distance among them (∞ when j < k → cap 0: always included).
    // Inclusion is *strict* (`d < d^{(k)}`; equal-distance lower-rank nodes
    // count against the item), while the scheme semantics are `x >= cap`,
    // so the cap is nudged one ulp above α(d^{(k)}) to encode strictness —
    // this matters on graphs with exactly tied distances.
    let mut steps: Vec<(f64, f64)> = Vec::with_capacity(by_rank.len());
    let mut dists: Vec<f64> = Vec::with_capacity(by_rank.len());
    let cap_after = |dists: &[f64]| -> f64 {
        if dists.len() < k {
            0.0
        } else {
            next_up(alpha(dists[k - 1]))
        }
    };
    let mut prev_cap = 0.0;
    for &(rank, dist) in &by_rank {
        // Seeds in (prev_rank, rank] see the entries strictly below `rank`.
        let cap = cap_after(&dists);
        prev_cap = cap.max(prev_cap);
        if rank > 0.0 && rank <= 1.0 {
            steps.push((rank, prev_cap));
        }
        let pos = dists.partition_point(|&x| x < dist);
        dists.insert(pos, dist);
    }
    let top_cap = cap_after(&dists).max(prev_cap);
    // Deduplicate equal ranks (measure zero) keeping the later (larger) cap.
    steps.dedup_by(|next, prev| {
        if next.0 == prev.0 {
            prev.1 = prev.1.max(next.1);
            true
        } else {
            false
        }
    });
    StepThreshold::new(steps, top_cap).expect("caps are non-decreasing by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads::build_all_ads;
    use crate::dijkstra::dijkstra;
    use crate::graph::GraphBuilder;
    use monotone_coord::seed::SeedHasher;
    use monotone_core::scheme::ThresholdFn;

    fn random_graph(n: usize, percent: u64, seed: u64) -> crate::graph::Graph {
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

    #[test]
    fn hip_probability_is_conditioned_inclusion_threshold() {
        // For each entry, membership must equal rank < HIP threshold; and
        // non-entries of the same distance horizon must fail it.
        let n = 40;
        let g = random_graph(n, 12, 3);
        let seeder = SeedHasher::new(11);
        let k = 3;
        let sketches = build_all_ads(&g, k, &seeder);
        for v in 0..n {
            for (node, _dist, p) in hip_probabilities(&sketches[v], k) {
                let rank = seeder.seed(node as u64);
                assert!(
                    rank < p + 1e-15,
                    "entry {node} of {v}: rank {rank} >= p {p}"
                );
            }
        }
    }

    #[test]
    fn neighborhood_size_estimate_unbiased() {
        // Average the HIP cardinality estimate of \[8\] — the sum of inverse
        // HIP probabilities over the entries within the horizon — over
        // many rank assignments.
        let n = 50;
        let g = random_graph(n, 10, 17);
        let k = 4;
        let v = 0u32;
        let d_true = dijkstra(&g, v);
        let horizon = 1.0;
        let truth = d_true.iter().filter(|&&d| d <= horizon).count() as f64;
        let trials = 400;
        let mut total = 0.0;
        for salt in 0..trials {
            let seeder = SeedHasher::new(1000 + salt);
            let sketches = build_all_ads(&g, k, &seeder);
            total += hip_probabilities(&sketches[v as usize], k)
                .into_iter()
                .take_while(|&(_, dist, _)| dist <= horizon)
                .map(|(_, _, p)| 1.0 / p)
                .sum::<f64>();
        }
        let mean = total / trials as f64;
        assert!(
            (mean - truth).abs() < 0.1 * truth.max(1.0),
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn item_threshold_consistent_with_membership() {
        // For every node i and sketch owner v: i ∈ ADS(v) iff the item's
        // α-value clears the threshold at its seed.
        let n = 45;
        let g = random_graph(n, 12, 29);
        let seeder = SeedHasher::new(41);
        let k = 3;
        let alpha = |d: f64| if d.is_finite() { (-d).exp() } else { 0.0 };
        let sketches = build_all_ads(&g, k, &seeder);
        for v in 0..n {
            let dist = dijkstra(&g, v as u32);
            for i in 0..n as u32 {
                if dist[i as usize].is_infinite() {
                    continue;
                }
                let t = item_threshold(&sketches[v], k, i, &alpha);
                let u = seeder.seed(i as u64);
                let x = alpha(dist[i as usize]);
                let by_scheme = x >= t.cap(u);
                let member = sketches[v].contains(i);
                assert_eq!(by_scheme, member, "v={v} i={i} x={x} cap={}", t.cap(u));
            }
        }
    }

    #[test]
    fn item_threshold_is_monotone_step() {
        let g = random_graph(30, 15, 7);
        let seeder = SeedHasher::new(19);
        let sketches = build_all_ads(&g, 3, &seeder);
        let alpha = |d: f64| if d.is_finite() { (-d).exp() } else { 0.0 };
        let t = item_threshold(&sketches[0], 3, 5, &alpha);
        let mut prev = -1.0;
        for j in 1..=100 {
            let u = j as f64 / 100.0;
            let c = t.cap(u);
            assert!(c >= prev - 1e-15, "cap decreased at u={u}");
            prev = c;
        }
    }

    #[test]
    fn small_neighborhood_probabilities_are_one() {
        // With fewer than k closer entries, the HIP probability is 1.
        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 1, 1.0);
        b.add_undirected(1, 2, 1.0);
        let g = b.build();
        let sketches = build_all_ads(&g, 5, &SeedHasher::new(2));
        for (_, _, p) in hip_probabilities(&sketches[0], 5) {
            assert_eq!(p, 1.0);
        }
    }
}
