//! Sketch-backed vs exact agreement: the two contracts that make the
//! store trustworthy.
//!
//! 1. **Lossless sketches are a pure re-route**: with k at least the
//!    union size nothing is evicted, so a [`SketchUnion`] streamed as a
//!    [`SourceJob`] through [`Engine::run`] must reproduce the exact
//!    [`GroupJob`] batch bit for bit — same estimates, same truth, same
//!    sampled counts (pinned-seed proptest).
//! 2. **Lossy sketches converge**: on the E8-family RG1+ workload
//!    ([`workload::rg1_instance_pool`]), the store's inverse-probability
//!    corrected estimates approach the exact aggregate as k grows.

use monotone_coord::bottomk::{BottomK, BottomKSample, RankMethod};
use monotone_coord::instance::Instance;
use monotone_coord::seed::SeedHasher;
use monotone_coord::source::SketchUnion;
use monotone_engine::{workload, Engine, EngineQuery, EstimatorKind, GroupJob, SourceJob};
use monotone_store::SketchStore;
use proptest::prelude::*;

/// Sparse weight maps mixing sub-scale and truncated (above-scale)
/// weights, with disjoint-support holes.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0u64..300, 1u32..=300), 1..70).prop_map(|pairs| {
        Instance::from_pairs(pairs.into_iter().map(|(k, w)| (k, w as f64 / 100.0)))
    })
}

/// A sketch of `inst` big enough to retain every item (k ≥ union size).
fn lossless_sketch(inst: &Instance, k: usize, salt: u64) -> BottomKSample {
    BottomK::new(k, RankMethod::Priority, SeedHasher::new(salt)).sample_instance(inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40).with_rng_seed(0x2014_0615_0007))]

    /// k ≥ union size ⇒ the sketch-union source is the exact source: the
    /// full [`BatchResult`]s must be equal (estimates bit for bit),
    /// across weights, salts, scales, probe seeds, arities 2 and 3,
    /// RG1+ and distinct families, and worker counts.
    #[test]
    fn full_k_sketch_union_is_bit_identical_to_group_jobs(
        a in instance_strategy(),
        b in instance_strategy(),
        c in instance_strategy(),
        salt in any::<u64>(),
        scale_idx in 1u32..=4,
        probe in 0u32..=20, // 0 = hashed seeds, 1..=20 = fixed probe seed p/20
    ) {
        let scale = scale_idx as f64 / 2.0;
        let pair_group = [a.clone(), b.clone()];
        let trio_group = [a.clone(), b.clone(), c.clone()];
        // k at least the union size: every sketch retains its whole
        // instance, so the union is the exact merged stream.
        let k = a.len() + b.len() + c.len() + 1;
        let cases: [(&[Instance], EngineQuery); 3] = [
            (
                &pair_group,
                EngineQuery::rg_plus(1.0, scale)
                    .with_estimators(&[EstimatorKind::LStar, EstimatorKind::UStar]),
            ),
            (&pair_group, EngineQuery::distinct(scale)),
            (&trio_group, EngineQuery::distinct_k(3, scale)),
        ];
        for (group, query) in cases {
            let sketches: Vec<BottomKSample> =
                group.iter().map(|i| lossless_sketch(i, k, salt)).collect();
            let mut group_job = GroupJob::new(group, salt);
            let mut source_job = SourceJob::new(SketchUnion::new(&sketches), salt);
            if probe > 0 {
                let u = probe as f64 / 20.0;
                group_job = group_job.with_seed(u);
                source_job = source_job.with_seed(u);
            }
            for threads in [1, 3] {
                let engine = Engine::with_threads(threads);
                let exact = engine.run(&[group_job], &query).unwrap();
                let sketched = engine.run(&[source_job.clone()], &query).unwrap();
                prop_assert_eq!(
                    &exact, &sketched,
                    "sketch union diverged from the exact group path (threads={})",
                    threads
                );
            }
        }
    }
}

/// On the E8-family RG1+ workload, the store's corrected estimates
/// converge to the exact aggregate as k grows: the mean relative error
/// over a panel of (pair, salt) randomizations shrinks from the smallest
/// to the largest k and never regresses badly between steps.
#[test]
fn rg1_error_shrinks_as_k_grows() {
    const KS: [usize; 5] = [8, 16, 32, 64, 128];
    const ITEMS: u64 = 256;
    const RANDOMIZATIONS: u64 = 24;

    let pool = workload::rg1_instance_pool(8, ITEMS);
    let engine = Engine::with_threads(1);
    let query = EngineQuery::rg_plus(1.0, 1.0);

    let mean_err: Vec<f64> = KS
        .iter()
        .map(|&k| {
            let mut sum_rel = 0.0;
            for r in 0..RANDOMIZATIONS {
                let pa = &pool[(r % 8) as usize];
                let pb = &pool[((r * 7 + 1) % 8) as usize];
                let store = SketchStore::new(k, r);
                store.ingest_all(0, pa.iter()).unwrap();
                store.ingest_all(1, pb.iter()).unwrap();
                let est = store.query_group(&engine, &query, &[0, 1]).unwrap();
                // Exact truth over the pair's union, from the exact path.
                let group = [pa.clone(), pb.clone()];
                let exact = engine
                    .run(&[GroupJob::new(&group, r)], &query)
                    .unwrap()
                    .pairs[0]
                    .truth;
                sum_rel += (est.estimates[0] - exact).abs() / exact;
            }
            sum_rel / RANDOMIZATIONS as f64
        })
        .collect();

    // Convergence in expectation: the panel mean at the largest k beats
    // the smallest by a wide margin, and no step regresses.
    assert!(
        mean_err[KS.len() - 1] < 0.5 * mean_err[0],
        "no convergence: {mean_err:?}"
    );
    for w in mean_err.windows(2) {
        assert!(
            w[1] <= w[0] * 1.10,
            "error regressed along the k sweep: {mean_err:?}"
        );
    }
}
