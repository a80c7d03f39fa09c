//! Banding contracts: recall in the exact regime and bit-identical
//! candidate generation.
//!
//! 1. **Recall-1 regime superset** (pinned-seed proptest): with k at
//!    least every instance size, sketches retain their whole instances
//!    and banding is plain one-permutation LSH over exact min-hash
//!    signatures. On such small exact-checkable pools, every pair whose
//!    exact support Jaccard clears the band threshold *with margin* must
//!    appear among [`BandIndex::candidate_pairs`]. (LSH recall at the
//!    bare threshold is the S-curve's 50% point — only the
//!    margin-above-threshold regime is a deterministic guarantee worth
//!    pinning; the rng seed is fixed so the test is a byte-stable
//!    regression pin, not a flake.)
//! 2. **Geometry independence**: candidate generation must be
//!    bit-identical whatever the store shard count or sketch insertion
//!    order — the property that lets the `allpairs` scenario promise
//!    byte-identical CSVs at every shard/worker geometry.

use monotone_coord::bottomk::{BottomK, BottomKSample, RankMethod};
use monotone_coord::instance::Instance;
use monotone_coord::seed::SeedHasher;
use monotone_engine::Engine;
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::SketchStore;
use proptest::prelude::*;

/// Exact support Jaccard of two instances.
fn jaccard(a: &Instance, b: &Instance) -> f64 {
    let shared = a.keys().filter(|&k| b.weight(k) > 0.0).count();
    let union = a.len() + b.len() - shared;
    shared as f64 / union as f64
}

/// A pool of instances derived from a common base by per-instance
/// mutations, so exact Jaccards spread from near-duplicate to disjoint.
/// Weights are key-pure (shared keys coordinate across instances).
fn mutated_pool(base_len: u64, mutations: &[Vec<u64>]) -> Vec<Instance> {
    let weight = |k: u64| 0.05 + 0.9 * ((k % 83) as f64 / 83.0);
    mutations
        .iter()
        .enumerate()
        .map(|(i, dropped)| {
            let fresh = (0..dropped.len() as u64).map(|j| 1_000_000 + i as u64 * 1_000 + j);
            Instance::from_pairs(
                (0..base_len)
                    .filter(|k| !dropped.contains(k))
                    .chain(fresh)
                    .map(|k| (k, weight(k))),
            )
        })
        .collect()
}

/// A recall-1 sketch: k is the instance size, so nothing is evicted.
fn exact_sketch(inst: &Instance, salt: u64) -> BottomKSample {
    BottomK::new(inst.len(), RankMethod::Priority, SeedHasher::new(salt)).sample_instance(inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_rng_seed(0x2014_0615_0008))]

    /// Recall-1 regime: candidates ⊇ all pairs with J ≥ 0.5, well above
    /// the 24×2 config's 0.204 threshold.
    #[test]
    fn candidates_cover_every_pair_well_above_the_band_threshold(
        // Each inner vec lists the base keys the instance drops (and
        // replaces with fresh far-away keys): few drops = high Jaccard.
        mutations in proptest::collection::vec(
            proptest::collection::vec(0u64..60, 0..25), 2..8),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
    ) {
        let pool = mutated_pool(60, &mutations);
        let cfg = BandConfig::new(24, 2, band_salt);
        prop_assert!(cfg.threshold() < 0.5);

        let sketches: Vec<BottomKSample> =
            pool.iter().map(|inst| exact_sketch(inst, salt)).collect();
        let mut index = BandIndex::new(cfg);
        for (id, s) in sketches.iter().enumerate() {
            index.insert(id as u64, s);
        }
        let candidates = index.candidate_pairs();

        for a in 0..pool.len() {
            for b in a + 1..pool.len() {
                if jaccard(&pool[a], &pool[b]) >= 0.5 {
                    prop_assert!(
                        candidates.contains(&(a as u64, b as u64)),
                        "pair ({a}, {b}) with J = {} missing from {} candidates",
                        jaccard(&pool[a], &pool[b]),
                        candidates.len(),
                    );
                }
            }
        }
    }

    /// Candidate generation is a pure function of the resident sketches:
    /// store shard count, ingest order, and index insertion order are
    /// all invisible in the output.
    #[test]
    fn candidate_generation_is_bit_identical_across_geometries(
        mutations in proptest::collection::vec(
            proptest::collection::vec(0u64..60, 0..40), 2..10),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        shards in 1usize..9,
    ) {
        let pool = mutated_pool(60, &mutations);
        let cfg = BandConfig::new(16, 2, band_salt);
        let k = 24;

        // Reference: a single-shard store, ingested in id order.
        let reference = SketchStore::with_shards(k, salt, 1);
        for (id, inst) in pool.iter().enumerate() {
            reference.ingest_all(id as u64, inst.iter()).unwrap();
        }
        let ref_index = reference.band_index_with(&cfg, &Engine::with_threads(1)).unwrap();
        let ref_pairs = ref_index.candidate_pairs();

        // Same pool through an n-shard store, ingested in reverse.
        let sharded = SketchStore::with_shards(k, salt, shards);
        for (id, inst) in pool.iter().enumerate().rev() {
            sharded.ingest_all(id as u64, inst.iter()).unwrap();
        }
        let sharded_index = sharded.band_index_with(&cfg, &Engine::with_threads(1)).unwrap();
        prop_assert_eq!(&sharded_index.candidate_pairs(), &ref_pairs);

        // And a hand-built index inserting sketches in reverse order.
        let mut manual = BandIndex::new(cfg);
        for (id, _) in pool.iter().enumerate().rev() {
            manual.insert(id as u64, &reference.sketch(id as u64).unwrap());
        }
        prop_assert_eq!(&manual.candidate_pairs(), &ref_pairs);

        // Per-probe candidate lists agree too, and signatures are a
        // pure function of (sketch, config).
        for (id, _) in pool.iter().enumerate() {
            let sketch = reference.sketch(id as u64).unwrap();
            prop_assert_eq!(
                ref_index.candidates_of(&sketch),
                sharded_index.candidates_of(&sketch)
            );
            prop_assert_eq!(
                cfg.signature(&sketch),
                cfg.signature(&sharded.sketch(id as u64).unwrap())
            );
        }
    }

    /// The parallel blocked build is bit-identical to the sequential
    /// index at 1, 2, and 4 workers: worker count is a pure wall-clock
    /// lever, invisible in buckets, signatures, and every query output.
    #[test]
    fn parallel_blocked_build_is_bit_identical_at_1_2_4_workers(
        mutations in proptest::collection::vec(
            proptest::collection::vec(0u64..60, 0..40), 2..10),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        shards in 1usize..6,
    ) {
        let pool = mutated_pool(60, &mutations);
        let cfg = BandConfig::new(16, 2, band_salt);
        let store = SketchStore::with_shards(24, salt, shards);
        for (id, inst) in pool.iter().enumerate() {
            store.ingest_all(id as u64, inst.iter()).unwrap();
        }
        let sequential = store.band_index_with(&cfg, &Engine::with_threads(1)).unwrap();
        for workers in [1usize, 2, 4] {
            let parallel = store.band_index_with(&cfg, &Engine::with_threads(workers)).unwrap();
            prop_assert_eq!(parallel.len(), sequential.len(), "w={}", workers);
            prop_assert_eq!(
                parallel.candidate_pairs(),
                sequential.candidate_pairs(),
                "w={}", workers
            );
            for (id, _) in pool.iter().enumerate() {
                prop_assert_eq!(
                    parallel.signature(id as u64),
                    sequential.signature(id as u64),
                    "w={} id={}", workers, id
                );
                prop_assert_eq!(
                    parallel.candidates_of_id(id as u64),
                    sequential.candidates_of_id(id as u64),
                    "w={} id={}", workers, id
                );
            }
        }
    }

    /// Streamed candidate blocks concatenate to exactly the sorted
    /// `candidate_pairs` output at every block size — the O(block)
    /// extraction path loses and reorders nothing — and each block is
    /// O(block): every block but the last holds at least `block` pairs,
    /// and none holds `block` plus the longest per-id partner run.
    #[test]
    fn streamed_blocks_concatenate_to_candidate_pairs(
        mutations in proptest::collection::vec(
            proptest::collection::vec(0u64..60, 0..25), 2..10),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        block in 1usize..64,
    ) {
        let pool = mutated_pool(60, &mutations);
        let cfg = BandConfig::new(24, 2, band_salt);
        let mut index = BandIndex::new(cfg);
        for (id, inst) in pool.iter().enumerate() {
            index.insert(id as u64, &exact_sketch(inst, salt));
        }
        let reference = index.candidate_pairs();
        let max_run = reference.chunk_by(|x, y| x.0 == y.0).map(<[_]>::len).max().unwrap_or(0);
        let mut streamed = Vec::new();
        let mut sizes = Vec::new();
        index.for_each_candidate_block(block, |b| {
            streamed.extend_from_slice(b);
            sizes.push(b.len());
        });
        prop_assert!(!sizes.contains(&0), "empty block emitted");
        prop_assert_eq!(streamed, reference);
        if let Some((_, full)) = sizes.split_last() {
            prop_assert!(full.iter().all(|&n| n >= block), "short block: {:?}", sizes);
        }
        prop_assert!(
            sizes.iter().all(|&n| n < block + max_run),
            "oversized block: {:?}",
            sizes
        );
    }
}
