//! Adversarial-input property tests: every estimator must return finite,
//! nonnegative values across the full representable weight range
//! (`1e-300..1e300`), hashed seeds including the exact extremes `2⁻⁵³` and
//! `1.0` (injected via `SeedHasher::key_for_raw`), and bottom-k's
//! conditioned problems at those extremes. These inputs previously drove
//! the naive `f̄(ρ)/ρ` head terms to `∞ − ∞ = NaN`.

use monotone_sampling::coord::bottomk::BottomK;
use monotone_sampling::coord::instance::{merged_weights, Instance};
use monotone_sampling::coord::seed::SeedHasher;
use monotone_sampling::core::estimate::{
    DyadicJ, HorvitzThompson, LStar, MonotoneEstimator, RgPlusLStar, RgPlusUStar, UStar,
};
use monotone_sampling::core::func::RangePowPlus;
use monotone_sampling::core::problem::Mep;
use monotone_sampling::core::quad::QuadConfig;
use monotone_sampling::core::scheme::TupleScheme;
use monotone_sampling::engine::{Engine, EngineQuery, EstimatorKind, PairJob};
use proptest::prelude::*;

/// `(key, a-exponent, b-exponent)`: weights `10^e` spanning `1e-300..1e300`;
/// exponent −301 stands for "absent from this instance".
fn adversarial_pairs() -> impl Strategy<Value = Vec<(u64, i32, i32)>> {
    proptest::collection::vec((0u64..1000, -301i32..=300, -301i32..=300), 1..20)
}

fn build_pair(pairs: &[(u64, i32, i32)], seeder: &SeedHasher) -> (Instance, Instance) {
    let w = |e: i32| if e <= -301 { 0.0 } else { 10f64.powi(e) };
    let mut a = Instance::new();
    let mut b = Instance::new();
    for &(k, ea, eb) in pairs {
        a.set(k, w(ea));
        b.set(k, w(eb));
    }
    // Exact seed extremes: a key hashing to seed 1.0 and one hashing to
    // the smallest seed 2⁻⁵³, with extreme weights.
    let top = seeder.key_for_raw(u64::MAX);
    a.set(top, 1e300);
    b.set(top, 1e-300);
    let tiny = seeder.key_for_raw(0);
    a.set(tiny, 1e300);
    (a, b)
}

fn check(label: &str, key: u64, e: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        e.is_finite() && e >= 0.0,
        "{label} returned {e} at key {key}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x2014_0615_0006))]

    /// Coordinated PPS outcomes: L* (closed + generic), U* (closed +
    /// generic), HT and J all stay finite and nonnegative on RG1+ over the
    /// full weight range.
    #[test]
    fn pps_estimators_finite_nonnegative(pairs in adversarial_pairs(), salt in any::<u64>()) {
        let seeder = SeedHasher::new(salt);
        let (a, b) = build_pair(&pairs, &seeder);
        let mep = Mep::new(RangePowPlus::new(1.0), TupleScheme::pps(&[1.0, 1.0]).unwrap()).unwrap();
        let lstar_closed = RgPlusLStar::new(1, 1.0);
        let lstar_generic = LStar::with_quad(QuadConfig::fast());
        let ustar_closed = RgPlusUStar::new(1.0, 1.0);
        let ustar_generic = UStar::with_steps(16);
        let ht = HorvitzThompson::new();
        let j = DyadicJ::new();
        for (key, wa, wb) in merged_weights(&a, &b) {
            let u = seeder.seed(key);
            let out = mep.scheme().sample(&[wa, wb], u).unwrap();
            let closed = lstar_closed.estimate(&mep, &out);
            check("L* closed", key, closed)?;
            let generic = lstar_generic.estimate(&mep, &out);
            check("L* generic", key, generic)?;
            // The two L* paths are the same estimator.
            prop_assert!(
                (closed - generic).abs() <= 1e-6 * closed.max(1.0),
                "L* closed {closed} vs generic {generic} at key {key}"
            );
            check("U* closed", key, ustar_closed.estimate(&mep, &out))?;
            check("U* generic", key, ustar_generic.estimate(&mep, &out))?;
            check("HT", key, ht.estimate(&mep, &out))?;
            check("J", key, j.estimate(&mep, &out))?;
        }
    }

    /// Bottom-k conditioned problems: construction never panics
    /// (subnormal thresholds, overflowing scales) and the generic
    /// estimators stay finite and nonnegative.
    #[test]
    fn bottomk_estimators_finite_nonnegative(
        pairs in adversarial_pairs(),
        salt in any::<u64>(),
        k in 1usize..8,
    ) {
        let seeder = SeedHasher::new(salt);
        let (a, b) = build_pair(&pairs, &seeder);
        let f = RangePowPlus::new(1.0);
        let lstar = LStar::with_quad(QuadConfig::fast());
        let j = DyadicJ::new();
        let sampler = BottomK::new(k, seeder);
        let samples = vec![sampler.sample_instance(&a), sampler.sample_instance(&b)];
        for (key, _, _) in merged_weights(&a, &b) {
            let (scheme, out) = sampler.priority_item_problem(&samples, key).unwrap();
            let mep = Mep::new(f, scheme).unwrap();
            check("bottom-k L*", key, lstar.estimate(&mep, &out))?;
            check("bottom-k J", key, j.estimate(&mep, &out))?;
        }
    }

    /// The batch engine end to end: per-pair estimates and summaries stay
    /// finite and nonnegative on adversarial workloads.
    #[test]
    fn engine_batch_finite_nonnegative(pairs in adversarial_pairs(), salt in any::<u64>()) {
        let seeder = SeedHasher::new(salt);
        let (a, b) = build_pair(&pairs, &seeder);
        let jobs: Vec<PairJob> = (0..4).map(|i| PairJob::new(&a, &b, salt ^ i)).collect();
        let query = EngineQuery::rg_plus(1.0, 1.0).with_estimators(&[
            EstimatorKind::LStar,
            EstimatorKind::UStar,
            EstimatorKind::HorvitzThompson,
            EstimatorKind::DyadicJ,
        ]);
        let batch = Engine::with_threads(2).run(&jobs, &query).unwrap();
        for (i, pair) in batch.pairs.iter().enumerate() {
            prop_assert!(pair.truth.is_finite() && pair.truth >= 0.0);
            for (k, &e) in pair.estimates.iter().enumerate() {
                prop_assert!(
                    e.is_finite() && e >= 0.0,
                    "pair {i} estimator {k} returned {e}"
                );
            }
        }
        for s in &batch.summaries {
            prop_assert!(s.mean_estimate.is_finite() && s.mean_estimate >= 0.0);
            prop_assert!(s.nrmse.is_finite());
        }
    }
}
