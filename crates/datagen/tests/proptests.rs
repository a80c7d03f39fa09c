//! Property-based tests of the workload generators.

use monotone_coord::query::weighted_jaccard;
use monotone_datagen::pairs::{flow_like, stable_like, PairConfig};
use monotone_datagen::zipf::{pareto, Zipf};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x2014_0615_0004))]

    /// Pair generators always produce normalized positive weights and are
    /// deterministic in the RNG seed.
    #[test]
    fn pairs_normalized_and_deterministic(seed in any::<u64>(), keys in 50usize..400) {
        let mut cfg = PairConfig::flow();
        cfg.keys = keys;
        let d1 = flow_like(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let d2 = flow_like(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(&d1, &d2);
        for inst in d1.instances() {
            let max_weight = inst.iter().map(|(_, w)| w).fold(0.0, f64::max);
            prop_assert!(max_weight <= 1.0 + 1e-12);
            prop_assert!(inst.iter().all(|(_, w)| w > 0.0 && w.is_finite()));
        }
    }

    /// The stable family is always more self-similar than the flow family
    /// generated from the same seed.
    #[test]
    fn stable_more_similar_than_flow(seed in any::<u64>()) {
        let mut fc = PairConfig::flow();
        fc.keys = 500;
        let mut sc = PairConfig::stable();
        sc.keys = 500;
        let flow = flow_like(&fc, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let stable = stable_like(&sc, &mut rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(1)));
        let jf = weighted_jaccard(flow.instance(0), flow.instance(1));
        let js = weighted_jaccard(stable.instance(0), stable.instance(1));
        prop_assert!(js > jf, "stable {} should exceed flow {}", js, jf);
    }

    /// Zipf draws follow `P(X = i) ∝ i^{-s}` on `1..=n`: every draw is in
    /// range, and each rank's count is within five standard deviations of
    /// its expectation, plus five draws of slack for the rarest ranks.
    #[test]
    fn zipf_is_distribution(n in 2usize..200, s_pct in 30u32..300, seed in any::<u64>()) {
        const DRAWS: usize = 4000;
        let s = s_pct as f64 / 100.0;
        let z = Zipf::new(n, s);
        let mut counts = vec![0usize; n];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..DRAWS {
            let x = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&x));
            counts[x - 1] += 1;
        }
        let norm: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        for (i, &count) in counts.iter().enumerate() {
            let expect = DRAWS as f64 * ((i + 1) as f64).powf(-s) / norm;
            prop_assert!(
                (count as f64 - expect).abs() <= 5.0 * expect.sqrt() + 5.0,
                "rank {}: {} draws, {} expected", i + 1, count, expect
            );
        }
    }

    /// Pareto draws are at least the scale and heavy-tailed but finite.
    #[test]
    fn pareto_in_range(seed in any::<u64>(), alpha_pct in 50u32..400) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = pareto(&mut rng, 1.0, alpha_pct as f64 / 100.0);
            prop_assert!(x >= 1.0 && x.is_finite());
        }
    }
}
