//! Property tests of the kernel layer: the generic kernel architecture
//! (merged item stream, bulk seed hashing, per-slot dispatch) must
//! reproduce the `RgPlusLStar`/`RgPlusUStar` closed forms exactly — the
//! refactor-correctness contract behind the engine's byte-identical-CSV
//! guarantee.

use monotone_coord::instance::{merged_weights, Instance, WeightMerger};
use monotone_coord::seed::SeedHasher;
use monotone_core::estimate::{RgPlusLStar, RgPlusUStar};
use monotone_engine::{Engine, EngineQuery, EstimatorKind, PairJob, SourceJob};
use proptest::prelude::*;

/// Sparse weight maps mixing sub-scale and truncated (above-scale)
/// weights, with disjoint-support holes.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0u64..300, 1u32..=300), 1..70).prop_map(|pairs| {
        Instance::from_pairs(pairs.into_iter().map(|(k, w)| (k, w as f64 / 100.0)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40).with_rng_seed(0x2014_0615_0004))]

    /// Engine batches through the generic kernel path equal a hand-rolled
    /// per-item closed-form loop to <= 1e-12 relative error, across
    /// seeds, weights, scales, and p in {1, 2} — for both the L* and U*
    /// columns, at several worker counts.
    #[test]
    fn kernel_path_matches_closed_forms(
        a in instance_strategy(),
        b in instance_strategy(),
        salt in any::<u64>(),
        p in 1u8..=2,
        scale_idx in 1u32..=4,
    ) {
        let scale = scale_idx as f64 / 2.0; // 0.5, 1.0, 1.5, 2.0
        let closed_l = RgPlusLStar::new(p, scale);
        let closed_u = RgPlusUStar::new(p as f64, scale);
        let seeder = SeedHasher::new(salt);
        let (mut expect_l, mut expect_u) = (0.0f64, 0.0f64);
        for (key, wa, wb) in merged_weights(&a, &b) {
            let u = seeder.seed(key);
            let v1 = (wa > 0.0 && wa >= u * scale).then_some(wa);
            let v2 = (wb > 0.0 && wb >= u * scale).then_some(wb);
            expect_l += closed_l.estimate_values(v1, v2, u);
            expect_u += closed_u.estimate_values(v1, v2, u);
        }

        let jobs = [PairJob::new(&a, &b, salt)];
        let query = EngineQuery::rg_plus(p as f64, scale)
            .with_estimators(&[EstimatorKind::LStar, EstimatorKind::UStar]);
        for threads in [1, 3] {
            let batch = Engine::with_threads(threads).run(&jobs, &query).unwrap();
            let got_l = batch.pairs[0].estimates[0];
            let got_u = batch.pairs[0].estimates[1];
            prop_assert!(
                (got_l - expect_l).abs() <= 1e-12 * expect_l.abs().max(1.0),
                "L*: kernel {} vs closed loop {} (p={}, scale={})",
                got_l, expect_l, p, scale
            );
            prop_assert!(
                (got_u - expect_u).abs() <= 1e-12 * expect_u.abs().max(1.0),
                "U*: kernel {} vs closed loop {} (p={}, scale={})",
                got_u, expect_u, p, scale
            );
        }
    }

    /// An arity-2 source job over a [`WeightMerger`] must reproduce the
    /// corresponding PairJob batch **exactly** (bitwise-equal results and
    /// summaries): the N-way merge cursor and the pair specialization walk
    /// the same item stream through the same kernel arithmetic — across
    /// weights, salts, scales, and worker counts.
    #[test]
    fn arity2_group_job_reproduces_pair_job_exactly(
        a in instance_strategy(),
        b in instance_strategy(),
        salt in any::<u64>(),
        scale_idx in 1u32..=4,
    ) {
        let scale = scale_idx as f64 / 2.0;
        let pair_jobs = [PairJob::new(&a, &b, salt)];
        let group_jobs = [SourceJob::new(WeightMerger::new([&a, &b]), salt)];
        for query in [
            EngineQuery::rg_plus(1.0, scale)
                .with_estimators(&[EstimatorKind::LStar, EstimatorKind::UStar]),
            EngineQuery::distinct(scale),
        ] {
            for threads in [1, 3] {
                let engine = Engine::with_threads(threads);
                let from_pair = engine.run(&pair_jobs, &query).unwrap();
                let from_group = engine.run(&group_jobs, &query).unwrap();
                prop_assert_eq!(
                    &from_pair, &from_group,
                    "pair and group batches diverged (threads={})", threads
                );
            }
        }
    }

    /// Disabling closed forms routes L* through generic quadrature, which
    /// must agree with the closed form to quadrature accuracy — the
    /// dispatch decision changes the route, never the estimand.
    #[test]
    fn generic_fallback_agrees_with_closed_form(
        a in instance_strategy(),
        salt in any::<u64>(),
    ) {
        let b = Instance::from_pairs(a.iter().map(|(k, w)| (k, (w * 0.7).min(1.0))));
        let jobs = [PairJob::new(&a, &b, salt)];
        let closed = Engine::with_threads(1)
            .run(&jobs, &EngineQuery::rg_plus(1.0, 1.0))
            .unwrap();
        let generic = Engine::with_threads(1)
            .run(&jobs, &EngineQuery::rg_plus(1.0, 1.0).without_closed_forms())
            .unwrap();
        let (c, g) = (closed.pairs[0].estimates[0], generic.pairs[0].estimates[0]);
        prop_assert!(
            (c - g).abs() <= 1e-6 * c.abs().max(1.0),
            "closed {} vs generic {}",
            c,
            g
        );
    }
}

proptest! {
    // Fewer cases than the accuracy block above: each case sweeps four
    // kernels over every chunk-boundary length, including the
    // quadrature-backed fallbacks, so a dozen (seed, scale, p, probe)
    // draws already exercise every dispatch route at every boundary.
    #![proptest_config(ProptestConfig::with_cases(12).with_rng_seed(0x2014_0615_0006))]

    /// [`EstimationKernel::evaluate_many`] must equal the per-item
    /// `evaluate` loop **bit for bit** — same estimate bits, same sampled
    /// count — across closed-form (chunk fast path), generic-fallback,
    /// mixed, and arity-3 distinct kernels, on both hashed and fixed
    /// probe seeds, at chunk-boundary lengths 1, 63, 64, 65, 4096. The
    /// closed L* column must also read the same bits on the chunk path
    /// and on the mixed kernel's per-item pass.
    #[test]
    fn evaluate_many_is_bit_identical_to_per_item_evaluate(
        salt in any::<u64>(),
        scale_idx in 1u32..=4,
        p in 1u8..=2,
        probe in 0u32..=20, // 0 = hashed seeds, 1..=20 = fixed probe seed p/20
    ) {
        use monotone_core::func::RangePowPlus;
        use monotone_engine::{EstimationKernel, FuncKernel, KernelScratch};

        let scale = scale_idx as f64 / 2.0;
        let kinds_lu = [EstimatorKind::LStar, EstimatorKind::UStar];
        let rg = EngineQuery::rg_plus(p as f64, scale);
        let closed = rg.clone().with_estimators(&kinds_lu).kernel().unwrap();
        let generic = FuncKernel::new(RangePowPlus::new(p as f64), &[scale, scale], &kinds_lu).unwrap();
        let mixed = rg
            .with_estimators(&[EstimatorKind::LStar, EstimatorKind::HorvitzThompson])
            .kernel()
            .unwrap();
        let distinct3 = EngineQuery::distinct_k(3, 1.0)
            .with_instance_scales(&[scale, 1.0, 2.0])
            .kernel()
            .unwrap();
        // Quadrature-backed kernels get the boundary lengths only; the
        // closed-form chunk path also gets a multi-chunk 4096 sweep.
        let kernels: [(&dyn EstimationKernel, usize, &[usize]); 4] = [
            (closed.as_ref(), 2, &[1, 63, 64, 65, 4096]),
            (&generic, 2, &[1, 63, 64, 65]),
            (mixed.as_ref(), 2, &[1, 63, 64, 65]),
            (distinct3.as_ref(), 3, &[1, 63, 64, 65, 4096]),
        ];
        let wgen = SeedHasher::new(salt ^ 0xabcd_ef01_2345_6789);
        let seeder = SeedHasher::new(salt);
        // (kernel index, n) -> the batch's L* column, for the route check.
        let mut lstar_bits = std::collections::HashMap::new();
        for (index, (kernel, arity, lengths)) in kernels.into_iter().enumerate() {
            let width = kernel.labels().len();
            for &n in lengths {
                let keys: Vec<u64> = (0..n as u64).collect();
                // Weights mix holes (0.0), sub-scale, and truncated values.
                let weights: Vec<f64> = (0..n * arity)
                    .map(|i| {
                        if i % 7 == 0 {
                            0.0
                        } else {
                            (wgen.seed(i as u64) * 300.0 * scale).floor() / 100.0
                        }
                    })
                    .collect();
                let mut seeds = vec![0.0; n];
                if probe == 0 {
                    seeder.seed_many(&keys, &mut seeds);
                } else {
                    seeds.fill(probe as f64 / 20.0); // every item at one probe seed
                }
                let mut scratch = KernelScratch::new();
                let (mut out_many, mut out_item) = (vec![0.0; width], vec![0.0; width]);
                let sampled_many = kernel
                    .evaluate_many(&keys, &weights, arity, &seeds, &mut scratch, &mut out_many)
                    .unwrap();
                let mut sampled_item = 0;
                for (i, (&key, &u)) in keys.iter().zip(&seeds).enumerate() {
                    let ws = &weights[i * arity..(i + 1) * arity];
                    if kernel.evaluate(key, ws, u, &mut scratch, &mut out_item).unwrap() {
                        sampled_item += 1;
                    }
                }
                prop_assert_eq!(sampled_many, sampled_item, "sampled count at n={}", n);
                lstar_bits.insert((index, n), out_many[0].to_bits());
                for (slot, (a, b)) in out_many.iter().zip(&out_item).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "slot {} diverged at n={}: batch {} vs per-item {}",
                        slot, n, a, b
                    );
                }
            }
        }
        for n in [1, 63, 64, 65] {
            prop_assert_eq!(
                lstar_bits[&(0, n)],
                lstar_bits[&(2, n)],
                "closed L* diverged between the chunk path and the per-item pass at n={}",
                n
            );
        }
    }
}
