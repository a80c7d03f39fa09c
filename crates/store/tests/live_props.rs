//! Live band-index maintenance contract: a [`SketchStore`] with a live
//! index enabled must be indistinguishable from a from-scratch
//! [`SketchStore::band_index_with`] rebuild after **any** interleaving of
//! ingest and evict operations — the incremental unregister/re-register
//! path drops nothing, leaks nothing, and never diverges.
//!
//! Pinned-seed proptest (the repo convention): the rng seed is fixed so
//! the explored interleavings are a byte-stable regression pin.
//!
//! A second leg replays every interleaving against a store whose shards
//! are **spawned worker processes** ([`ProcessShard`]) and requires the
//! gathered live answers to be bit-identical to the in-process store's
//! — the distribution transport must be invisible to the live contract.
//!
//! Both legs probe every resident id with `live_candidates_of` at each
//! checkpoint, so a shard's live index is probed, mutated by the next
//! operations, and probed again: the bucket table the first probe built
//! must stay current under `insert` and `remove`.

use std::sync::Arc;

use monotone_core::Error;
use monotone_engine::Engine;
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::{ProcessShard, ShardBackend, SketchStore};
use proptest::prelude::*;

/// A store over `procs` child-process shards running this build's
/// `shard_worker` binary.
fn process_store(k: usize, salt: u64, procs: usize) -> SketchStore {
    let backends: Vec<Arc<dyn ShardBackend>> = (0..procs)
        .map(|ordinal| {
            let command = std::process::Command::new(env!("CARGO_BIN_EXE_shard_worker"));
            Arc::new(ProcessShard::spawn(command, ordinal, k, salt).expect("spawn shard worker"))
                as Arc<dyn ShardBackend>
        })
        .collect();
    SketchStore::with_backends(k, salt, backends)
}

/// One randomized store operation.
#[derive(Debug, Clone)]
enum Op {
    /// `ingest(instance, key, weight)` — weight may be inactive (zero)
    /// or invalid (NaN).
    One(u64, u64, f64),
    /// `ingest_all(instance, batch)`.
    Batch(u64, Vec<(u64, f64)>),
    /// `evict(instance)` — may miss.
    Evict(u64),
}

/// Weighted op mix via a mapped discriminant (the shim has no
/// `prop_oneof`): mostly single ingests — a slice of them inactive
/// (`w = 0`, which the sampler must ignore) or invalid (NaN, which the
/// store must refuse) — plus batch ingests and evicts (which may miss).
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u64..10, // discriminant: 0-4 ingest, 5 inactive ingest, 6-7 batch, 8-9 evict
        0u64..12, // instance (two ids above the ingest range: evict can miss)
        0u64..160,
        0.05f64..4.0,
        proptest::collection::vec((0u64..160, 0.05f64..4.0), 1..20),
    )
        .prop_map(|(sel, inst, key, w, batch)| match sel {
            0..=4 => Op::One(inst % 10, key, w),
            5 => Op::One(inst % 10, key, if key % 2 == 0 { 0.0 } else { f64::NAN }),
            6 | 7 => Op::Batch(inst % 10, batch),
            _ => Op::Evict(inst),
        })
}

/// Whether `res`, the result of ingesting weight `w`, is the store's
/// ingest contract: `Ok` for a valid weight, [`Error::InvalidWeight`]
/// (with nothing ingested) for NaN.
fn ingest_contract_holds(res: monotone_core::Result<()>, w: f64) -> bool {
    match res {
        Ok(()) => !w.is_nan(),
        Err(Error::InvalidWeight { weight, .. }) => weight.is_nan() && w.is_nan(),
        Err(_) => false,
    }
}

/// Structural equality of two indexes through their whole public
/// surface: distinct ids, per-id signatures, per-id candidate sets, and
/// the global pair stream.
fn assert_index_eq(live: &BandIndex, rebuilt: &BandIndex) -> Result<(), TestCaseError> {
    prop_assert_eq!(live.len(), rebuilt.len());
    let live_ids: Vec<u64> = live.ids().collect();
    let rebuilt_ids: Vec<u64> = rebuilt.ids().collect();
    prop_assert_eq!(&live_ids, &rebuilt_ids);
    for &id in &live_ids {
        prop_assert_eq!(live.signature(id), rebuilt.signature(id), "id={}", id);
        prop_assert_eq!(
            live.candidates_of_id(id),
            rebuilt.candidates_of_id(id),
            "id={}",
            id
        );
    }
    prop_assert_eq!(live.candidate_pairs(), rebuilt.candidate_pairs());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32).with_rng_seed(0x2014_0615_0009))]

    /// After every prefix checkpoint of a random ingest/evict
    /// interleaving, the incrementally-maintained live index — and every
    /// gathered `live_candidates_of` answer — equals a from-scratch
    /// rebuild of the same store under the same config.
    #[test]
    fn live_index_equals_rebuild_after_any_interleaving(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        shards in 1usize..5,
        k in 4usize..24,
    ) {
        let cfg = BandConfig::new(12, 2, band_salt);
        let mut store = SketchStore::with_shards(k, salt, shards);
        store.enable_live_index(cfg).unwrap();
        // Checkpoint a handful of prefixes (including the full
        // sequence) — divergence mid-stream must not be masked by
        // later operations papering over it.
        let checkpoints: Vec<usize> =
            [ops.len() / 3, 2 * ops.len() / 3, ops.len()].to_vec();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::One(instance, key, w) => {
                    prop_assert!(ingest_contract_holds(store.ingest(*instance, *key, *w), *w));
                }
                Op::Batch(instance, items) => {
                    store.ingest_all(*instance, items.iter().copied()).unwrap()
                }
                Op::Evict(instance) => {
                    store.evict(*instance).unwrap();
                }
            }
            if checkpoints.contains(&(step + 1)) {
                let live = store.live_index().unwrap().expect("live enabled");
                let rebuilt = store.band_index_with(&cfg, &Engine::with_threads(1)).unwrap();
                assert_index_eq(&live, &rebuilt)?;
                for id in rebuilt.ids() {
                    prop_assert_eq!(
                        store.live_candidates_of(id).expect("resident id"),
                        rebuilt.candidates_of_id(id).expect("resident id"),
                        "id={}", id
                    );
                }
            }
        }
    }

    /// The same interleavings through child-process shards: the live
    /// index a distributed store maintains — and every gathered
    /// `live_candidates_of` answer — is bit-identical to the in-process
    /// store's. Shorter op sequences than the local leg (each case
    /// spawns real worker processes) but the same pinned seed, so the
    /// explored interleavings are a stable regression pin.
    #[test]
    fn process_shard_live_index_is_bit_identical_to_local(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        procs in 1usize..4,
        k in 4usize..24,
    ) {
        let cfg = BandConfig::new(12, 2, band_salt);
        let mut local = SketchStore::with_shards(k, salt, procs);
        local.enable_live_index(cfg).unwrap();
        let mut remote = process_store(k, salt, procs);
        remote.enable_live_index(cfg).unwrap();
        let checkpoints: Vec<usize> =
            [ops.len() / 3, 2 * ops.len() / 3, ops.len()].to_vec();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::One(instance, key, w) => {
                    prop_assert!(ingest_contract_holds(local.ingest(*instance, *key, *w), *w));
                    prop_assert!(ingest_contract_holds(remote.ingest(*instance, *key, *w), *w));
                }
                Op::Batch(instance, items) => {
                    local.ingest_all(*instance, items.iter().copied()).unwrap();
                    remote.ingest_all(*instance, items.iter().copied()).unwrap();
                }
                Op::Evict(instance) => {
                    prop_assert_eq!(
                        local.evict(*instance).unwrap(),
                        remote.evict(*instance).unwrap()
                    );
                }
            }
            if checkpoints.contains(&(step + 1)) {
                let local_live = local.live_index().unwrap().expect("live enabled");
                let remote_live = remote.live_index().unwrap().expect("live enabled");
                assert_index_eq(&remote_live, &local_live)?;
                for id in local_live.ids() {
                    prop_assert_eq!(
                        remote.live_candidates_of(id).expect("resident id"),
                        local.live_candidates_of(id).expect("resident id"),
                        "id={}", id
                    );
                }
            }
        }
    }
}
