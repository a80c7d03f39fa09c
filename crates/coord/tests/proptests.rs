//! Property-based tests of the coordinated-sampling substrate.

use monotone_coord::bottomk::BottomK;
use monotone_coord::instance::{Dataset, Instance};
use monotone_coord::pps::{scale_for_expected_size, CoordPps};
use monotone_coord::query::{exact_sum, weighted_jaccard};
use monotone_coord::seed::SeedHasher;
use monotone_core::func::{ItemFn, RangePow};
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0u64..200, 1u32..=100), 1..60).prop_map(|pairs| {
        Instance::from_pairs(pairs.into_iter().map(|(k, w)| (k, w as f64 / 100.0)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x2014_0615_0002))]

    /// Coordinated PPS: membership is exactly the threshold rule, and
    /// smaller scales sample supersets.
    #[test]
    fn pps_membership_and_nesting(inst in instance_strategy(), salt in any::<u64>()) {
        let coarse = CoordPps::uniform_scale(1, 2.0, SeedHasher::new(salt));
        let fine = CoordPps::uniform_scale(1, 1.0, SeedHasher::new(salt));
        let sc = coarse.sample_instance(0, &inst);
        let sf = fine.sample_instance(0, &inst);
        for (k, w) in inst.iter() {
            let u = coarse.seeder().seed(k);
            prop_assert_eq!(sc.contains(k), w >= 2.0 * u);
            prop_assert_eq!(sf.contains(k), w >= u);
            // τ* = 2 threshold is higher: its sample is a subset.
            if sc.contains(k) {
                prop_assert!(sf.contains(k));
            }
        }
    }

    /// Identical instances produce identical coordinated samples under
    /// every scheme (the LSH property).
    #[test]
    fn coordination_lsh_all_schemes(inst in instance_strategy(), salt in any::<u64>()) {
        let pps = CoordPps::uniform_scale(2, 1.5, SeedHasher::new(salt));
        let a = pps.sample_instance(0, &inst);
        let b = pps.sample_instance(1, &inst);
        prop_assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());

        let bk = BottomK::new(8, SeedHasher::new(salt));
        let s1 = bk.sample_instance(&inst);
        let s2 = bk.sample_instance(&inst.clone());
        prop_assert_eq!(
            s1.iter().collect::<Vec<_>>(),
            s2.iter().collect::<Vec<_>>()
        );
    }

    /// Bottom-k membership equals the conditioned-threshold rule (the
    /// footnote-1 reduction).
    #[test]
    fn bottomk_conditioned_threshold(
        inst in instance_strategy(),
        salt in any::<u64>(),
        k in 1usize..20
    ) {
        let bk = BottomK::new(k, SeedHasher::new(salt));
        let s = bk.sample_instance(&inst);
        for (key, w) in inst.iter() {
            let rank = bk.seeder().seed(key) / w;
            let tau = s.conditioned_rank_threshold(key);
            prop_assert_eq!(s.contains(key), rank < tau);
        }
    }

    /// Exact sums respect domain restriction and nonnegativity.
    #[test]
    fn exact_sum_domain_monotone(a in instance_strategy(), b in instance_strategy()) {
        let data = Dataset::new(vec![a, b]);
        let f = RangePow::new(1.0, 2);
        let all = exact_sum(&f, &data, None);
        let keys = data.union_keys();
        let half: Vec<u64> = keys.iter().copied().take(keys.len() / 2).collect();
        let part = exact_sum(&f, &data, Some(&half));
        prop_assert!(part >= 0.0);
        prop_assert!(part <= all + 1e-12);
        // The sum decomposes per item.
        let direct: f64 = keys.iter().map(|&k| f.eval(&data.tuple(k))).sum();
        prop_assert!((all - direct).abs() < 1e-9);
    }

    /// Weighted Jaccard is symmetric, bounded, and 1 exactly on identical
    /// instances.
    #[test]
    fn weighted_jaccard_properties(a in instance_strategy(), b in instance_strategy()) {
        let j_ab = weighted_jaccard(&a, &b);
        let j_ba = weighted_jaccard(&b, &a);
        prop_assert!((j_ab - j_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j_ab));
        prop_assert!((weighted_jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// scale_for_expected_size hits its target within 1%.
    #[test]
    fn scale_targets_expected_size(inst in instance_strategy(), frac in 10u32..=90) {
        let target = inst.len() as f64 * frac as f64 / 100.0;
        prop_assume!(target >= 1.0);
        let scale = scale_for_expected_size(&inst, target);
        let expected: f64 = inst.iter().map(|(_, w)| (w / scale).min(1.0)).sum();
        prop_assert!((expected - target).abs() <= 0.01 * target + 1e-9,
            "target {} expected {} at scale {}", target, expected, scale);
    }
}
