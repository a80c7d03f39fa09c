//! End-to-end pipeline tests: generators → coordinated sampling → per-item
//! monotone estimation → sum aggregates; and sketches → HIP → similarity.

use monotone_sampling::coord::bottomk::BottomK;
use monotone_sampling::coord::instance::{Dataset, Instance};
use monotone_sampling::coord::pps::{scale_for_expected_size, CoordPps};
use monotone_sampling::coord::query::{estimate_sum, exact_sum, weighted_jaccard};
use monotone_sampling::coord::seed::SeedHasher;
use monotone_sampling::core::estimate::{LStar, MonotoneEstimator, RgPlusLStar, RgPlusUStar};
use monotone_sampling::core::func::{ItemFn, RangePowPlus};
use monotone_sampling::core::problem::Mep;
use monotone_sampling::datagen::pairs::{flow_like, stable_like, PairConfig};
use monotone_sampling::datagen::zipf::{lognormal_factor, pareto};
use monotone_sampling::sketches::ads::build_all_ads;
use monotone_sampling::sketches::closeness::ClosenessEstimator;
use monotone_sampling::sketches::dijkstra::dijkstra;
use monotone_sampling::sketches::graph::Graph;
use rand::{Rng, SeedableRng};

/// The exact numerator and denominator sums of the closeness similarity
/// of `a` and `b` (`Σ α(max(d_ai, d_bi))`, `Σ α(min(d_ai, d_bi))`), from
/// two Dijkstra runs: the truth the sketch estimates are checked against.
fn exact_sums<A: Fn(f64) -> f64>(g: &Graph, a: u32, b: u32, alpha: &A) -> (f64, f64) {
    let da = dijkstra(g, a);
    let db = dijkstra(g, b);
    let mut num = 0.0;
    let mut den = 0.0;
    for (&x, &y) in da.iter().zip(&db) {
        if x.max(y).is_finite() {
            num += alpha(x.max(y));
        }
        if x.min(y).is_finite() {
            den += alpha(x.min(y));
        }
    }
    (num, den)
}

/// A panel of `r` instances following a Pareto base instance with
/// per-instance log-normal drift `sigma` (temperature-style repeated
/// measurements), normalized so the largest weight is 1.
fn drifting_panel<R: Rng + ?Sized>(
    keys: usize,
    r: usize,
    tail: f64,
    sigma: f64,
    rng: &mut R,
) -> Dataset {
    let base: Vec<f64> = (0..keys).map(|_| pareto(rng, 1.0, tail)).collect();
    let mut rows: Vec<Vec<(u64, f64)>> = vec![Vec::with_capacity(keys); r];
    let mut max_w: f64 = 0.0;
    for (key, &w) in base.iter().enumerate() {
        for row in rows.iter_mut() {
            let wi = w * lognormal_factor(rng, sigma);
            max_w = max_w.max(wi);
            row.push((key as u64, wi));
        }
    }
    let inv = 1.0 / max_w;
    Dataset::new(
        rows.into_iter()
            .map(|row| Instance::from_pairs(row.into_iter().map(|(k, w)| (k, w * inv))))
            .collect(),
    )
}

/// Unbiasedness of the full PPS pipeline on generated data, for both L*
/// and U* closed forms, averaged over coordinated randomizations.
#[test]
fn pps_pipeline_unbiased_on_generated_data() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut cfg = PairConfig::flow();
    cfg.keys = 300;
    let data = flow_like(&cfg, &mut rng);
    let f = RangePowPlus::new(1.0);
    let truth = exact_sum(&f, &data, None);
    let scale = scale_for_expected_size(data.instance(0), 60.0);

    let mut mean_l = 0.0;
    let mut mean_u = 0.0;
    let trials = 400;
    for salt in 0..trials {
        let sampler = CoordPps::uniform_scale(2, scale, SeedHasher::new(salt));
        let samples = sampler.sample_all(&data);
        mean_l += estimate_sum(f, &RgPlusLStar::new(1, scale), &sampler, &samples, None).unwrap();
        mean_u += estimate_sum(f, &RgPlusUStar::new(1.0, scale), &sampler, &samples, None).unwrap();
    }
    mean_l /= trials as f64;
    mean_u /= trials as f64;
    assert!(
        (mean_l - truth).abs() < 0.08 * truth,
        "L*: {mean_l} vs {truth}"
    );
    assert!(
        (mean_u - truth).abs() < 0.08 * truth,
        "U*: {mean_u} vs {truth}"
    );
}

/// The win/loss pattern of Section 7: measured NRMSE of U* beats L* on
/// flow-like data; L* beats U* on stable-like data.
#[test]
fn customization_pattern_on_generated_families() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut fc = PairConfig::flow();
    fc.keys = 400;
    let mut sc = PairConfig::stable();
    sc.keys = 400;
    let flow = flow_like(&fc, &mut rng);
    let stable = stable_like(&sc, &mut rng);
    assert!(
        weighted_jaccard(flow.instance(0), flow.instance(1))
            < weighted_jaccard(stable.instance(0), stable.instance(1))
    );

    let f = RangePowPlus::new(1.0);
    let run = |data: &Dataset| -> (f64, f64) {
        let truth = exact_sum(&f, data, None);
        let scale = scale_for_expected_size(data.instance(0), 80.0);
        let (mut se_l, mut se_u) = (0.0, 0.0);
        let trials = 150;
        for salt in 0..trials {
            let sampler = CoordPps::uniform_scale(2, scale, SeedHasher::new(1000 + salt));
            let samples = sampler.sample_all(data);
            let el =
                estimate_sum(f, &RgPlusLStar::new(1, scale), &sampler, &samples, None).unwrap();
            let eu =
                estimate_sum(f, &RgPlusUStar::new(1.0, scale), &sampler, &samples, None).unwrap();
            se_l += (el - truth) * (el - truth);
            se_u += (eu - truth) * (eu - truth);
        }
        (
            (se_l / trials as f64).sqrt() / truth,
            (se_u / trials as f64).sqrt() / truth,
        )
    };
    let (l_flow, u_flow) = run(&flow);
    let (l_stable, u_stable) = run(&stable);
    assert!(
        u_flow < l_flow,
        "flow-like: U* {u_flow} should beat L* {l_flow}"
    );
    assert!(
        l_stable < u_stable,
        "stable-like: L* {l_stable} should beat U* {u_stable}"
    );
}

/// Bottom-k with conditioned thresholds (footnote 1): per-item L* estimates
/// under priority ranks sum to an unbiased estimate.
#[test]
fn bottomk_conditioned_estimation_unbiased() {
    let n = 120u64;
    let a = Instance::from_pairs((0..n).map(|k| (k, 0.2 + 0.8 * ((k * 3 % 11) as f64 / 11.0))));
    let b = Instance::from_pairs((0..n).map(|k| (k, 0.2 + 0.8 * ((k * 5 % 11) as f64 / 11.0))));
    let f = RangePowPlus::new(1.0);
    let data = Dataset::new(vec![a.clone(), b.clone()]);
    let truth = exact_sum(&f, &data, None);

    let lstar = LStar::new();
    let trials = 250;
    let mut mean = 0.0;
    for salt in 0..trials {
        let sampler = BottomK::new(30, SeedHasher::new(salt));
        let samples = vec![sampler.sample_instance(&a), sampler.sample_instance(&b)];
        let mut total = 0.0;
        let keys: std::collections::BTreeSet<u64> = samples
            .iter()
            .flat_map(|s| s.iter().map(|(k, _)| k))
            .collect();
        for key in keys {
            let (scheme, outcome) = sampler.priority_item_problem(&samples, key).unwrap();
            let mep = Mep::new(f, scheme).unwrap();
            total += lstar.estimate(&mep, &outcome);
        }
        mean += total;
    }
    mean /= trials as f64;
    assert!(
        (mean - truth).abs() < 0.1 * truth,
        "bottom-k mean {mean} vs truth {truth}"
    );
}

/// The sketch pipeline recovers closeness-similarity sums: unbiased on
/// average and exact when sketches are complete.
#[test]
fn sketch_similarity_pipeline() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let g = monotone_sampling::datagen::graphs::preferential_attachment(80, 2, 0.5, 1.5, &mut rng);
    let alpha = |d: f64| if d.is_finite() { (-d).exp() } else { 0.0 };
    // Complete sketches: exact recovery.
    let full = build_all_ads(&g, 80, &SeedHasher::new(3));
    let est = ClosenessEstimator::new(&full, 80, alpha);
    let (num, den) = est.estimate_sums(2, 3).unwrap();
    let (tn, td) = exact_sums(&g, 2, 3, &alpha);
    assert!((num - tn).abs() < 1e-6 && (den - td).abs() < 1e-6);

    // Partial sketches: unbiased on average.
    let trials = 80;
    let (mut sn, mut sd) = (0.0, 0.0);
    for salt in 0..trials {
        let sketches = build_all_ads(&g, 6, &SeedHasher::new(100 + salt));
        let est = ClosenessEstimator::new(&sketches, 6, alpha);
        let (n1, d1) = est.estimate_sums(2, 3).unwrap();
        sn += n1;
        sd += d1;
    }
    let (mn, md) = (sn / trials as f64, sd / trials as f64);
    assert!((mn - tn).abs() < 0.15 * tn.max(0.05), "num {mn} vs {tn}");
    assert!((md - td).abs() < 0.15 * td.max(0.05), "den {md} vs {td}");
}

/// Three-instance (r = 3) estimation through the generic L* path: the
/// symmetric range RG1 over a drifting panel, estimated from coordinated
/// samples, is unbiased.
#[test]
fn three_instance_generic_pipeline() {
    use monotone_sampling::core::func::RangePow;
    use monotone_sampling::core::quad::QuadConfig;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let data = drifting_panel(80, 3, 1.5, 0.4, &mut rng);
    let f = RangePow::new(1.0, 3);
    let truth = exact_sum(&f, &data, None);
    assert!(truth > 0.0);
    let est = LStar::with_quad(QuadConfig::fast());
    let trials = 120;
    let mut mean = 0.0;
    for salt in 0..trials {
        let sampler = CoordPps::uniform_scale(3, 1.0, SeedHasher::new(salt));
        let samples = sampler.sample_all(&data);
        mean += estimate_sum(f, &est, &sampler, &samples, None).unwrap();
    }
    mean /= trials as f64;
    assert!(
        (mean - truth).abs() < 0.1 * truth,
        "r=3 mean {mean} vs truth {truth}"
    );
}

/// Coordination beats independent sampling at equal marginal design
/// (the paper's Section 1 motivation, cross-crate).
#[test]
fn coordination_more_accurate_than_independent() {
    use monotone_sampling::coord::independent::IndependentPps;
    let a = Instance::from_pairs((0..800u64).map(|k| (k, 0.1 + 0.9 * ((k % 83) as f64 / 83.0))));
    // Second instance shrinks by 10%: every item has a positive increase
    // a_k − b_k, so the truth is positive and product-HT stays unbiased.
    let b = Instance::from_pairs(a.iter().map(|(k, w)| (k, w * 0.9)));
    let data = Dataset::new(vec![a, b]);
    let f = RangePowPlus::new(1.0);
    let truth = exact_sum(&f, &data, None);
    let (mut se_c, mut se_i) = (0.0, 0.0);
    let trials = 100;
    for salt in 0..trials {
        let cs = CoordPps::uniform_scale(2, 2.0, SeedHasher::new(salt));
        let samples = cs.sample_all(&data);
        let ec = estimate_sum(f, &RgPlusLStar::new(1, 2.0), &cs, &samples, None).unwrap();
        se_c += (ec - truth) * (ec - truth);
        let is = IndependentPps::uniform_scale(2, 2.0, SeedHasher::new(salt));
        let ei = is.ht_sum_estimate(&f, &is.sample_all(&data), None);
        se_i += (ei - truth) * (ei - truth);
    }
    assert!(
        se_c < se_i,
        "coordinated MSE {se_c} should beat independent {se_i}"
    );
}

/// Example 1 evaluated through the public API: the dataset, the item
/// functions, and the sum queries all compose.
#[test]
fn example1_queries_through_api() {
    let data = Dataset::example1();
    let pair = Dataset::new(vec![data.instance(0).clone(), data.instance(1).clone()]);
    let f = RangePowPlus::new(2.0);
    // Item-level check: RG2+ on item d = (0.70, 0.80): increase-only is 0.
    assert_eq!(f.eval(&pair.tuple(3)), 0.0);
    // Sum over all items is positive.
    assert!(exact_sum(&f, &pair, None) > 0.0);
}
