//! Distribution contract: a [`SketchStore`] over child-process shards
//! ([`ProcessShard`]) is **bit-identical** to one over in-process
//! [`LocalShard`]s — same resident sketches, same group estimates, same
//! merged band indexes at every worker count — and a dead worker
//! surfaces as the typed [`Error::ShardUnavailable`] instead of a hang.
//!
//! Pinned-seed proptests (the repo convention): fixed rng seeds make
//! the explored workloads a byte-stable regression pin.

use std::sync::Arc;

use monotone_core::Error;
use monotone_engine::{Engine, EngineQuery};
use monotone_store::banding::BandConfig;
use monotone_store::{LocalShard, ProcessShard, ShardBackend, SketchStore};
use proptest::prelude::*;

/// This build's `shard_worker` binary as a backend command.
fn worker_command() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_shard_worker"))
}

/// A store over `procs` child-process shards, keeping direct handles to
/// the [`ProcessShard`]s so tests can fault-inject with
/// [`ProcessShard::kill`].
fn process_store_with_handles(
    k: usize,
    salt: u64,
    procs: usize,
) -> (SketchStore, Vec<Arc<ProcessShard>>) {
    let handles: Vec<Arc<ProcessShard>> = (0..procs)
        .map(|ordinal| {
            Arc::new(
                ProcessShard::spawn(worker_command(), ordinal, k, salt)
                    .expect("spawn shard worker"),
            )
        })
        .collect();
    let backends: Vec<Arc<dyn ShardBackend>> = handles
        .iter()
        .map(|h| Arc::clone(h) as Arc<dyn ShardBackend>)
        .collect();
    (SketchStore::with_backends(k, salt, backends), handles)
}

fn process_store(k: usize, salt: u64, procs: usize) -> SketchStore {
    process_store_with_handles(k, salt, procs).0
}

/// A deterministic workload: `instances` instances with overlapping key
/// ranges and key-pure weights, so group unions exercise shared-key
/// coordination.
fn ingest_workload(store: &SketchStore, instances: u64, items_per: u64) {
    for id in 0..instances {
        let items = (0..items_per).map(|j| {
            let key = id * 7 + j * 3;
            (key, 0.25 + (key % 11) as f64 * 0.5)
        });
        store.ingest_all(id, items).unwrap();
    }
}

#[test]
fn process_store_spawns_ingests_and_answers() {
    let store = process_store(32, 0xd157_2014, 2);
    ingest_workload(&store, 10, 50);
    assert_eq!(store.len().unwrap(), 10);
    let engine = Engine::with_threads(1);
    let query = EngineQuery::distinct_k(2, 1.0);
    let est = store.query_group(&engine, &query, &[0, 1]).unwrap();
    assert!(est.estimates[0].is_finite() && est.estimates[0] > 0.0);
    // Unknown ids keep their typed error across the pipe.
    assert!(matches!(
        store.sketch(999),
        Err(Error::UnknownInstance { id: 999 })
    ));
}

/// The store's ingest contract: a batch carrying a negative or
/// non-finite weight is refused whole with [`Error::InvalidWeight`],
/// before routing, so neither the sketches nor the live index move.
/// The router checks, so local and process shards answer alike.
fn assert_bad_batches_change_nothing(mut store: SketchStore) {
    store.enable_live_index(BandConfig::new(8, 2, 5)).unwrap();
    ingest_workload(&store, 6, 40);
    let sketches =
        |store: &SketchStore| -> Vec<_> { (0..6u64).map(|id| store.sketch(id).unwrap()).collect() };
    let live = |store: &SketchStore| {
        let index = store.live_index().unwrap().expect("live enabled");
        let sigs: Vec<Vec<(u32, u64)>> = index
            .ids()
            .map(|id| index.signature(id).unwrap().to_vec())
            .collect();
        (
            index.ids().collect::<Vec<_>>(),
            sigs,
            index.candidate_pairs(),
        )
    };
    let (sketches_before, live_before) = (sketches(&store), live(&store));
    // Heavy good items around the bad one: alone, they enter sketch 2.
    let good = [(1_000_001, 50.0), (1_000_003, 60.0)];
    for bad in [-1.0, -0.5e-300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let batch = [good[0], (1_000_002, bad), good[1]];
        for id in [2, 99] {
            match store.ingest_all(id, batch) {
                Err(Error::InvalidWeight { key, weight }) => {
                    assert_eq!(key, 1_000_002);
                    assert_eq!(weight.to_bits(), bad.to_bits());
                }
                other => panic!("weight {bad}: expected InvalidWeight, got {other:?}"),
            }
        }
        assert!(matches!(
            store.ingest(3, 7, bad),
            Err(Error::InvalidWeight { key: 7, .. })
        ));
    }
    assert_eq!(
        store.len().unwrap(),
        6,
        "a refused batch creates no instance"
    );
    assert!(matches!(
        store.sketch(99),
        Err(Error::UnknownInstance { id: 99 })
    ));
    assert_eq!(sketches(&store), sketches_before);
    assert_eq!(live(&store), live_before);
    // Zero stays a valid inactive weight, and the good items alone do
    // change sketch 2: the refusals above were not vacuous.
    store.ingest_all(2, [(1_000_002, 0.0)]).unwrap();
    assert_eq!(sketches(&store), sketches_before);
    store.ingest_all(2, good).unwrap();
    assert_ne!(store.sketch(2).unwrap(), sketches_before[2]);
}

#[test]
fn bad_weights_are_refused_whole_by_local_shards() {
    assert_bad_batches_change_nothing(SketchStore::with_shards(16, 0xbad_3e1, 3));
}

#[test]
fn bad_weights_are_refused_whole_by_process_shards() {
    assert_bad_batches_change_nothing(process_store(16, 0xbad_3e1, 2));
}

/// A [`ProcessShard`] returns the `Err` values a [`LocalShard`] with the
/// same `k` and salt returns: before `enable_live_index`, each live read
/// is refused with the same typed error on both shards. After the same
/// batch and the same live config, the two give the same answers.
#[test]
fn process_shard_returns_local_shard_errors_and_answers() {
    let (k, salt) = (16, 0xe770_2014);
    let local = LocalShard::new(k, salt);
    let process = ProcessShard::spawn(worker_command(), 0, k, salt).expect("spawn shard worker");
    let sig = [(0u32, 7u64)];
    assert!(matches!(local.live_partial(), Err(Error::NotApplicable(_))));
    assert_eq!(process.live_partial().err(), local.live_partial().err());
    assert_eq!(process.live_signature(3), local.live_signature(3));
    assert_eq!(process.live_candidates(&sig), local.live_candidates(&sig));
    assert!(local.live_signature(3).is_err() && local.live_candidates(&sig).is_err());

    let instances = 6u64;
    for id in 0..instances {
        let items: Vec<(u64, f64)> = (0..40)
            .map(|j| {
                let key = id * 5 + j;
                (key, 0.5 + (key % 7) as f64)
            })
            .collect();
        local.ingest_all(id, &items).unwrap();
        process.ingest_all(id, &items).unwrap();
    }
    let cfg = BandConfig::new(8, 2, 0x5eed);
    local.enable_live_index(&cfg).unwrap();
    process.enable_live_index(&cfg).unwrap();
    // One id past the residents: both shards answer `None`.
    for id in 0..=instances {
        let want = local.live_signature(id).unwrap();
        assert_eq!(process.live_signature(id).unwrap(), want, "id {id}");
        if let Some(sig) = &want {
            assert_eq!(
                process.live_candidates(sig).unwrap(),
                local.live_candidates(sig).unwrap(),
                "id {id}"
            );
        }
    }
    let (want, got) = (
        local.live_partial().unwrap(),
        process.live_partial().unwrap(),
    );
    assert!(!want.candidate_pairs().is_empty());
    assert_eq!(got.len(), want.len());
    assert_eq!(got.candidate_pairs(), want.candidate_pairs());
    for id in 0..instances {
        assert_eq!(got.signature(id), want.signature(id), "id {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x2014_0615_000a))]

    /// Every resident sketch fetched from a process store is
    /// bit-identical to the local store's.
    #[test]
    fn process_sketches_are_bit_identical_to_local(
        salt in any::<u64>(),
        procs in 1usize..5,
        instances in 3u64..20,
        items_per in 1u64..80,
        k in 4usize..40,
    ) {
        let local = SketchStore::with_shards(k, salt, procs);
        let remote = process_store(k, salt, procs);
        ingest_workload(&local, instances, items_per);
        ingest_workload(&remote, instances, items_per);
        prop_assert_eq!(local.len().unwrap(), remote.len().unwrap());
        for id in 0..instances {
            prop_assert_eq!(
                local.sketch(id).unwrap(),
                remote.sketch(id).unwrap(),
                "id={}", id
            );
        }
    }

    /// Group estimates are bit-identical between local and process
    /// stores, a group repeating an id included: the transport is
    /// invisible to the estimation path.
    #[test]
    fn process_group_queries_are_bit_identical_to_local(
        salt in any::<u64>(),
        procs in 1usize..4,
        items_per in 1u64..60,
        k in 4usize..32,
    ) {
        let instances = 8u64;
        let local = SketchStore::with_shards(k, salt, procs);
        let remote = process_store(k, salt, procs);
        ingest_workload(&local, instances, items_per);
        ingest_workload(&remote, instances, items_per);
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let groups: Vec<Vec<u64>> =
            vec![vec![0, 1], vec![2, 3], vec![6, 7], vec![0, 7], vec![3, 3]];
        for group in &groups {
            prop_assert_eq!(
                local.query_group(&engine, &query, group).unwrap(),
                remote.query_group(&engine, &query, group).unwrap(),
                "group {:?}", group
            );
        }
    }

    /// Merged band builds agree across transports and worker counts:
    /// local sequential ≡ local 2w ≡ local 4w ≡ process 1w/2w/4w. Each
    /// process shard hashes its residents worker-side and ships only
    /// the partial index.
    #[test]
    fn process_band_builds_are_bit_identical_at_1_2_4_workers(
        salt in any::<u64>(),
        band_salt in any::<u64>(),
        procs in 1usize..4,
        items_per in 1u64..60,
    ) {
        let instances = 16u64;
        let k = 16usize;
        let cfg = BandConfig::new(12, 2, band_salt);
        let local = SketchStore::with_shards(k, salt, procs);
        let remote = process_store(k, salt, procs);
        ingest_workload(&local, instances, items_per);
        ingest_workload(&remote, instances, items_per);
        let reference = local.band_index_with(&cfg, &Engine::with_threads(1)).unwrap();
        for workers in [1usize, 2, 4] {
            let engine = Engine::with_threads(workers);
            let dist = remote.band_index_with(&cfg, &engine).unwrap();
            prop_assert_eq!(dist.len(), reference.len(), "w={}", workers);
            prop_assert_eq!(
                dist.candidate_pairs(),
                reference.candidate_pairs(),
                "w={}", workers
            );
            for id in 0..instances {
                prop_assert_eq!(
                    dist.signature(id),
                    reference.signature(id),
                    "w={} id={}", workers, id
                );
            }
        }
    }
}

/// A killed worker yields typed [`Error::ShardUnavailable`] — never a
/// hang, never a panic — from every router entry point, while shards
/// still alive keep serving their own single-shard operations.
#[test]
fn killed_shard_is_a_typed_error_not_a_hang() {
    let k = 16;
    let salt = 0xdead_5eed;
    let (store, handles) = process_store_with_handles(k, salt, 3);
    ingest_workload(&store, 12, 30);

    // Find an instance owned by shard 1 (the one we will kill) and one
    // owned by a surviving shard, by probing the router's splitmix.
    let owner = |id: u64| (monotone_coord::seed::splitmix64(id) % 3) as usize;
    let on_dead = (0..12u64)
        .find(|&id| owner(id) == 1)
        .expect("some id on shard 1");
    let on_live = (0..12u64)
        .find(|&id| owner(id) != 1)
        .expect("some id off shard 1");

    handles[1].kill();

    // Single-shard ops routed to the dead worker: typed error naming it.
    match store.sketch(on_dead) {
        Err(Error::ShardUnavailable { shard, .. }) => assert_eq!(shard, 1),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert!(matches!(
        store.ingest(on_dead, 1, 1.0),
        Err(Error::ShardUnavailable { shard: 1, .. })
    ));
    // ...and the error is sticky: later calls fail fast, no hang.
    assert!(matches!(
        store.evict(on_dead),
        Err(Error::ShardUnavailable { shard: 1, .. })
    ));

    // Ops routed to surviving shards still work.
    assert!(store.sketch(on_live).is_ok());
    store.ingest(on_live, 999, 1.0).unwrap();

    // Fan-out ops touch the dead shard and must propagate the typed
    // error instead of hanging or returning partial answers.
    assert!(matches!(store.len(), Err(Error::ShardUnavailable { .. })));
    assert!(matches!(
        store.band_index_with(&BandConfig::new(8, 2, 5), &Engine::with_threads(1)),
        Err(Error::ShardUnavailable { .. })
    ));
    let engine = Engine::with_threads(1);
    let query = EngineQuery::distinct_k(2, 1.0);
    assert!(matches!(
        store.query_group(&engine, &query, &[on_dead, on_live]),
        Err(Error::ShardUnavailable { .. })
    ));
}

/// A stale worker binary (wrong protocol version) fails the handshake
/// loudly. Simulated by pointing the spawn at a program that is not a
/// shard worker at all.
#[test]
fn non_worker_binary_fails_the_handshake() {
    let mut command = std::process::Command::new("true");
    command.arg("ignored");
    match ProcessShard::spawn(command, 0, 8, 1) {
        Err(Error::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
}
