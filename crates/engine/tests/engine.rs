//! The engine must be a faster route to the *same* numbers: every batch
//! result is checked against the per-call `query::estimate_sum` path, and
//! results must be identical for every worker count.

use monotone_coord::instance::{Dataset, Instance};
use monotone_coord::pps::CoordPps;
use monotone_coord::query::{estimate_sum, exact_sum};
use monotone_coord::seed::SeedHasher;
use monotone_core::estimate::{DyadicJ, HorvitzThompson, LStar, RgPlusLStar, RgPlusUStar};
use monotone_core::func::{DistinctOr, RangePowPlus};
use monotone_core::quad::QuadConfig;
use monotone_engine::{
    DomainSource, Engine, EngineQuery, EstimatorKind, GroupJob, PairJob, SourceJob,
};

fn instance_pair(n: u64) -> (Instance, Instance) {
    let a = Instance::from_pairs((0..n).map(|k| (k, 0.1 + 0.8 * ((k * 13 % 101) as f64 / 101.0))));
    let b = Instance::from_pairs(
        (0..n)
            .filter(|k| k % 5 != 0) // some items absent from b
            .map(|k| (k, 0.1 + 0.8 * ((k * 29 % 101) as f64 / 101.0))),
    );
    (a, b)
}

#[test]
fn matches_per_call_path_closed_form_p1() {
    let (a, b) = instance_pair(300);
    let data = Dataset::new(vec![a.clone(), b.clone()]);
    let f = RangePowPlus::new(1.0);
    let jobs: Vec<PairJob> = (0..8).map(|salt| PairJob::new(&a, &b, salt)).collect();
    let query = EngineQuery::rg_plus(1.0, 1.0).with_estimators(&[
        EstimatorKind::LStar,
        EstimatorKind::UStar,
        EstimatorKind::HorvitzThompson,
        EstimatorKind::DyadicJ,
    ]);
    let batch = Engine::with_threads(2).run(&jobs, &query).unwrap();

    let truth = exact_sum(&f, &data, None);
    for (salt, pair) in batch.pairs.iter().enumerate() {
        assert!((pair.truth - truth).abs() < 1e-9 * truth.max(1.0));
        let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(salt as u64));
        let samples = sampler.sample_all(&data);
        let expect = [
            estimate_sum(f, &RgPlusLStar::new(1, 1.0), &sampler, &samples, None).unwrap(),
            estimate_sum(f, &RgPlusUStar::new(1.0, 1.0), &sampler, &samples, None).unwrap(),
            estimate_sum(f, &HorvitzThompson::new(), &sampler, &samples, None).unwrap(),
            estimate_sum(f, &DyadicJ::new(), &sampler, &samples, None).unwrap(),
        ];
        for (i, &e) in expect.iter().enumerate() {
            assert!(
                (pair.estimates[i] - e).abs() <= 1e-9 * e.abs().max(1.0),
                "salt {salt} estimator {i}: engine {} vs per-call {e}",
                pair.estimates[i]
            );
        }
    }
}

#[test]
fn matches_per_call_path_generic_fallback() {
    // p = 1.5 has no closed-form L*: the engine must dispatch to the same
    // quadrature-backed generic estimator the per-call path uses.
    let (a, b) = instance_pair(80);
    let data = Dataset::new(vec![a.clone(), b.clone()]);
    let f = RangePowPlus::new(1.5);
    let quad = QuadConfig::fast();
    let jobs: Vec<PairJob> = (0..3)
        .map(|salt| PairJob::new(&a, &b, 100 + salt))
        .collect();
    let query = EngineQuery::rg_plus(1.5, 1.0)
        .with_estimators(&[EstimatorKind::LStar])
        .with_quad(quad);
    let batch = Engine::with_threads(3).run(&jobs, &query).unwrap();
    for (i, pair) in batch.pairs.iter().enumerate() {
        let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(100 + i as u64));
        let samples = sampler.sample_all(&data);
        let expect = estimate_sum(f, &LStar::with_quad(quad), &sampler, &samples, None).unwrap();
        assert!(
            (pair.estimates[0] - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "job {i}: engine {} vs per-call {expect}",
            pair.estimates[0]
        );
    }
}

#[test]
fn domain_restriction_matches_per_call_path() {
    let (a, b) = instance_pair(200);
    let data = Dataset::new(vec![a.clone(), b.clone()]);
    let f = RangePowPlus::new(1.0);
    let domain: Vec<u64> = (0..50).collect();
    let jobs: Vec<PairJob> = (0..4)
        .map(|salt| PairJob::new(&a, &b, salt).with_domain(&domain))
        .collect();
    let query = EngineQuery::rg_plus(1.0, 1.0);
    let batch = Engine::with_threads(2).run(&jobs, &query).unwrap();
    let truth = exact_sum(&f, &data, Some(&domain));
    for (salt, pair) in batch.pairs.iter().enumerate() {
        assert!((pair.truth - truth).abs() < 1e-12);
        let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(salt as u64));
        let samples = sampler.sample_all(&data);
        let expect = estimate_sum(
            f,
            &RgPlusLStar::new(1, 1.0),
            &sampler,
            &samples,
            Some(&domain),
        )
        .unwrap();
        assert!((pair.estimates[0] - expect).abs() <= 1e-12 * expect.abs().max(1.0));
    }
}

#[test]
fn deterministic_across_thread_counts() {
    let (a, b) = instance_pair(150);
    let jobs: Vec<PairJob> = (0..13).map(|salt| PairJob::new(&a, &b, salt)).collect();
    let query = EngineQuery::rg_plus(2.0, 2.0)
        .with_estimators(&[EstimatorKind::LStar, EstimatorKind::UStar]);
    let reference = Engine::with_threads(1).run(&jobs, &query).unwrap();
    for threads in [2, 3, 8] {
        let batch = Engine::with_threads(threads).run(&jobs, &query).unwrap();
        assert_eq!(batch, reference, "results differ at {threads} threads");
    }
}

#[test]
fn summaries_track_unbiasedness() {
    // Across many salts the mean L* estimate approaches the exact value and
    // the NRMSE is modest — the engine's summary must reflect that.
    let (a, b) = instance_pair(400);
    let jobs: Vec<PairJob> = (0..64).map(|salt| PairJob::new(&a, &b, salt)).collect();
    let query = EngineQuery::rg_plus(1.0, 1.0);
    let batch = Engine::new().run(&jobs, &query).unwrap();
    let s = &batch.summaries[0];
    assert_eq!(s.label, EstimatorKind::LStar.name());
    assert!(
        (s.mean_estimate - s.mean_truth).abs() < 0.1 * s.mean_truth,
        "mean {} vs truth {}",
        s.mean_estimate,
        s.mean_truth
    );
    assert!(s.nrmse < 0.5, "nrmse {}", s.nrmse);
    assert!(batch.total_sampled_items > 0);
}

#[test]
fn with_estimators_dedups_repeated_kinds() {
    // Regression: a duplicate kind used to keep both copies, double-
    // counting its column in `summaries` (and paying the estimate twice).
    let query = EngineQuery::rg_plus(1.0, 1.0).with_estimators(&[
        EstimatorKind::LStar,
        EstimatorKind::UStar,
        EstimatorKind::LStar,
        EstimatorKind::HorvitzThompson,
        EstimatorKind::UStar,
    ]);
    assert_eq!(
        query.estimators(),
        &[
            EstimatorKind::LStar,
            EstimatorKind::UStar,
            EstimatorKind::HorvitzThompson
        ],
        "first occurrence wins, duplicates dropped"
    );
    let (a, b) = instance_pair(60);
    let jobs = [PairJob::new(&a, &b, 5)];
    let batch = Engine::with_threads(1).run(&jobs, &query).unwrap();
    assert_eq!(batch.summaries.len(), 3);
    assert_eq!(batch.pairs[0].estimates.len(), 3);
    let labels: Vec<&str> = batch.summaries.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["L*", "U*", "HT"]);
}

#[test]
fn fixed_seed_jobs_sample_every_item_at_that_seed() {
    // A with_seed job must behave exactly like hashing if every item's
    // hashed seed were the fixed value: compare against estimate_values
    // at the shared probe seed.
    let (a, b) = instance_pair(80);
    let closed = RgPlusLStar::new(1, 1.0);
    for &u in &[0.05, 0.35, 0.75, 1.0] {
        let jobs = [PairJob::new(&a, &b, 9).with_seed(u)];
        let query = EngineQuery::rg_plus(1.0, 1.0);
        let batch = Engine::with_threads(2).run(&jobs, &query).unwrap();
        let expect: f64 = monotone_coord::instance::merged_weights(&a, &b)
            .map(|(_, wa, wb)| {
                let v1 = (wa > 0.0 && wa >= u).then_some(wa);
                let v2 = (wb > 0.0 && wb >= u).then_some(wb);
                closed.estimate_values(v1, v2, u)
            })
            .sum();
        assert_eq!(batch.pairs[0].estimates[0], expect, "u={u}");
    }
}

#[test]
fn distinct_query_counts_active_union() {
    // Distinct-count queries run through the OR indicator's registered
    // closed form; the truth is the union size and the mean estimate over
    // many randomizations approaches it.
    let (a, b) = instance_pair(300);
    let union = monotone_coord::instance::merged_weights(&a, &b).count() as f64;
    let jobs: Vec<PairJob> = (0..48).map(|salt| PairJob::new(&a, &b, salt)).collect();
    let query = EngineQuery::distinct(2.0);
    let batch = Engine::new().run(&jobs, &query).unwrap();
    let s = &batch.summaries[0];
    assert_eq!(s.mean_truth, union);
    assert!(
        (s.mean_estimate - union).abs() < 0.05 * union,
        "mean {} vs union {union}",
        s.mean_estimate
    );
}

#[test]
fn engine_empty_batch_is_defined() {
    // Regression (verified failing first): an empty job batch used to
    // fabricate per-column summaries whose means were the empty f64 sum
    // (-0.0) over a clamped denominator. A mean over zero jobs is
    // undefined — empty batches return empty summaries instead.
    let query = EngineQuery::rg_plus(1.0, 1.0)
        .with_estimators(&[EstimatorKind::LStar, EstimatorKind::UStar]);
    let batch = Engine::with_threads(4).run::<PairJob>(&[], &query).unwrap();
    assert!(batch.pairs.is_empty());
    assert!(
        batch.summaries.is_empty(),
        "no jobs → no per-column statistics, got {:?}",
        batch.summaries
    );
    assert_eq!(batch.total_sampled_items, 0);
    // Same contract on the group path and for custom-width kernels.
    let batch = Engine::with_threads(4)
        .run::<GroupJob>(&[], &EngineQuery::distinct_k(3, 1.0))
        .unwrap();
    assert!(batch.pairs.is_empty() && batch.summaries.is_empty());
}

#[test]
fn arity2_group_jobs_reproduce_pair_jobs_bitwise() {
    // The GroupJob path (N-way merge cursor) and the PairJob path (pair
    // merge) must produce bit-identical batches at arity 2 — including
    // summaries — for hashed, fixed-seed, and domain-restricted jobs.
    let (a, b) = instance_pair(250);
    let group = [a.clone(), b.clone()];
    let domain: Vec<u64> = (40..160).collect();
    let query = EngineQuery::rg_plus(1.0, 1.0).with_estimators(&[
        EstimatorKind::LStar,
        EstimatorKind::UStar,
        EstimatorKind::HorvitzThompson,
        EstimatorKind::DyadicJ,
    ]);
    let pair_jobs: Vec<PairJob> = (0..9)
        .map(|salt| PairJob::new(&a, &b, salt))
        .chain([PairJob::new(&a, &b, 3).with_seed(0.4)])
        .chain([PairJob::new(&a, &b, 5).with_domain(&domain)])
        .collect();
    let group_jobs: Vec<GroupJob> = (0..9)
        .map(|salt| GroupJob::new(&group, salt))
        .chain([GroupJob::new(&group, 3).with_seed(0.4)])
        .chain([GroupJob::new(&group, 5).with_domain(&domain)])
        .collect();
    for threads in [1, 3] {
        let engine = Engine::with_threads(threads);
        let pair_batch = engine.run(&pair_jobs, &query).unwrap();
        let group_batch = engine.run(&group_jobs, &query).unwrap();
        assert_eq!(pair_batch, group_batch, "threads={threads}");
    }
}

#[test]
fn three_way_distinct_matches_per_call_path() {
    // An arity-3 distinct count through the engine (closed form and
    // generic) must agree with the per-call estimate_sum route over the
    // same coordinated samples.
    let a =
        Instance::from_pairs((0..120u64).map(|k| (k, 0.1 + 0.8 * ((k * 7 % 13) as f64 / 13.0))));
    let b =
        Instance::from_pairs((40..170u64).map(|k| (k, 0.1 + 0.8 * ((k * 3 % 11) as f64 / 11.0))));
    let c = Instance::from_pairs((90..220u64).map(|k| (k, 0.1 + 0.8 * ((k * 5 % 7) as f64 / 7.0))));
    let data = Dataset::new(vec![a, b, c]);
    let scale = 2.0;
    let quad = QuadConfig::fast();
    let jobs: Vec<GroupJob> = (0..6)
        .map(|salt| GroupJob::new(data.instances(), salt))
        .collect();
    let query = EngineQuery::distinct_k(3, scale).with_quad(quad);
    let closed = Engine::with_threads(2).run(&jobs, &query).unwrap();
    let generic = Engine::with_threads(2)
        .run(&jobs, &query.clone().without_closed_forms())
        .unwrap();
    assert_eq!(closed.pairs[0].truth, data.union_keys().len() as f64);
    for (salt, (cp, gp)) in closed.pairs.iter().zip(&generic.pairs).enumerate() {
        let sampler = CoordPps::uniform_scale(3, scale, SeedHasher::new(salt as u64));
        let samples = sampler.sample_all(&data);
        let expect = estimate_sum(
            DistinctOr::new(3),
            &LStar::with_quad(quad),
            &sampler,
            &samples,
            None,
        )
        .unwrap();
        for (label, got) in [("closed", cp.estimates[0]), ("generic", gp.estimates[0])] {
            assert!(
                (got - expect).abs() <= 1e-6 * expect.abs().max(1.0),
                "salt {salt} {label}: engine {got} vs per-call {expect}"
            );
        }
    }
}

#[test]
fn group_fixed_seed_jobs_sample_every_item_at_that_seed() {
    // The fixed-seed (probe-curve) path never hashes: every item of the
    // group samples at exactly the probe seed — pinned bit-identically
    // against a hand-rolled closed-form loop, at several worker counts.
    let a =
        Instance::from_pairs((0..90u64).map(|k| (k, 0.1 + 0.8 * ((k * 13 % 101) as f64 / 101.0))));
    let b = Instance::from_pairs(
        (30..130u64).map(|k| (k, 0.1 + 0.8 * ((k * 29 % 101) as f64 / 101.0))),
    );
    let c = Instance::from_pairs(
        (60..170u64).map(|k| (k, 0.1 + 0.8 * ((k * 31 % 101) as f64 / 101.0))),
    );
    let group = [a, b, c];
    let data = Dataset::new(group.to_vec());
    let scale = 1.5;
    for &u in &[0.05, 0.35, 0.75, 1.0] {
        let jobs = [GroupJob::new(&group, 9).with_seed(u)];
        let query = EngineQuery::distinct_k(3, scale);
        let batch = Engine::with_threads(2).run(&jobs, &query).unwrap();
        let mut tuple = vec![0.0; data.arity()];
        let expect: f64 = data
            .union_keys()
            .iter()
            .map(|&k| {
                data.tuple_into(k, &mut tuple);
                let q = tuple
                    .iter()
                    .filter(|&&w| w > 0.0 && w >= u * scale)
                    .map(|&w| (w / scale).min(1.0))
                    .fold(0.0f64, f64::max);
                if q > 0.0 {
                    1.0 / q
                } else {
                    0.0
                }
            })
            .sum();
        assert_eq!(batch.pairs[0].estimates[0], expect, "u={u}");
    }
}

#[test]
fn group_arity_must_match_query_arity() {
    // A 2-instance group under a 3-way query must fail loudly, not
    // stream truncated weight tuples.
    let (a, b) = instance_pair(20);
    let group = [a, b];
    let jobs = [GroupJob::new(&group, 0)];
    let err = Engine::with_threads(1)
        .run(&jobs, &EngineQuery::distinct_k(3, 1.0))
        .unwrap_err();
    assert!(
        format!("{err}").contains("arity"),
        "expected an arity error, got {err}"
    );
    // Same guard on the pair path: a pair job cannot run a 3-way query.
    let (a, b) = instance_pair(20);
    let jobs = [PairJob::new(&a, &b, 0)];
    assert!(Engine::with_threads(1)
        .run(&jobs, &EngineQuery::distinct_k(3, 1.0))
        .is_err());
    // And on the source path: a 2-instance source under a 3-way query.
    let keys: Vec<u64> = (0..20).collect();
    let jobs = [SourceJob::new(DomainSource::new(&keys, vec![&a, &b]), 0)];
    let err = Engine::with_threads(1)
        .run(&jobs, &EngineQuery::distinct_k(3, 1.0))
        .unwrap_err();
    assert!(
        format!("{err}").contains("arity"),
        "expected an arity error, got {err}"
    );
}

#[test]
fn rejects_invalid_scale() {
    let (a, b) = instance_pair(10);
    let jobs = [PairJob::new(&a, &b, 0)];
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let query = EngineQuery::rg_plus(1.0, bad);
        assert!(
            Engine::new().run(&jobs, &query).is_err(),
            "scale {bad} must be rejected"
        );
    }
}

#[test]
fn negative_raw_weights_are_typed_errors_not_misestimates() {
    // Regression: the explicit-domain path used to skip items whose
    // weights were all <= 0 but *stream* a negative weight into kernels
    // whenever the partner entry was positive — a silent misestimate for
    // raw-ingested (unvalidated) instances. Every route (pair + group,
    // merged union + explicit domain) must instead report the item as a
    // typed InvalidWeight error; so must a source job.
    let mut poisoned = Instance::from_pairs([(0u64, 0.6), (2, 0.4)]);
    poisoned.set_raw(1, -0.3); // raw ingest: negative weight stored verbatim
    let clean = Instance::from_pairs([(0u64, 0.5), (1, 0.9), (2, 0.2)]);
    let query = EngineQuery::rg_plus(1.0, 1.0);
    let expected = monotone_core::Error::InvalidWeight {
        key: 1,
        weight: -0.3,
    };
    let engine = Engine::with_threads(1);

    // Pair path, explicit domain (the originally reported route): the
    // partner weight 0.9 is positive, so the item used to stream through.
    let domain = [0u64, 1, 2];
    let jobs = [PairJob::new(&poisoned, &clean, 7).with_domain(&domain)];
    assert_eq!(engine.run(&jobs, &query).unwrap_err(), expected);

    // Pair path, merged union stream.
    let jobs = [PairJob::new(&poisoned, &clean, 7)];
    assert_eq!(engine.run(&jobs, &query).unwrap_err(), expected);

    // Group path, explicit domain and merged union.
    let group = [poisoned.clone(), clean.clone(), clean.clone()];
    let gquery = EngineQuery::distinct_k(3, 1.0);
    let jobs = [GroupJob::new(&group, 7).with_domain(&domain)];
    assert_eq!(engine.run(&jobs, &gquery).unwrap_err(), expected);
    let jobs = [GroupJob::new(&group, 7)];
    assert_eq!(engine.run(&jobs, &gquery).unwrap_err(), expected);

    // Source path: the same explicit domain as an ItemSource.
    let source = DomainSource::new(&domain, vec![&poisoned, &clean]);
    let jobs = [SourceJob::new(source, 7)];
    assert_eq!(engine.run(&jobs, &query).unwrap_err(), expected);

    // Non-finite raw weights are rejected the same way.
    let mut nan_inst = Instance::from_pairs([(0u64, 0.6)]);
    nan_inst.set_raw(5, f64::NAN);
    let jobs = [PairJob::new(&nan_inst, &clean, 7)];
    match engine.run(&jobs, &query).unwrap_err() {
        monotone_core::Error::InvalidWeight { key: 5, weight } => assert!(weight.is_nan()),
        other => panic!("expected InvalidWeight for the NaN item, got {other:?}"),
    }
}
