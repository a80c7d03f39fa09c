//! Estimation as a service: a resident sketch store, sharded over
//! pluggable backends, with live group queries and a distributable
//! similarity index.
//!
//! The engine answers queries over *borrowed* instances — somebody has
//! to hold the full weight maps. This crate holds **sketches** instead:
//! one coordinated bottom-k sample per instance (a
//! [`BottomKStream`](monotone_coord::bottomk::BottomKStream) with
//! priority ranks), ingested item by item. A query names an ad-hoc group
//! of instance ids; the store snapshots the group's sketches, merges
//! them into a [`SketchUnion`] item stream, and compiles the caller's
//! [`EngineQuery`] against the per-sketch conditioned inclusion scales —
//! for priority ranks, the retained-item inclusion test `rank(u, w) < τ`
//! *is* a PPS test at scale `1/τ` (τ the sketch's next-rank threshold),
//! so the paper's estimators apply their inverse-probability correction
//! for the items each sketch dropped through the unchanged engine hot
//! loop.
//!
//! # Architecture: a router over [`ShardBackend`]s
//!
//! [`SketchStore`] owns no sketch state itself. It routes every
//! operation to one of N [`ShardBackend`]s by a splitmix of the
//! instance id, and assembles global answers from per-shard parts:
//!
//! * **sketch fetch** — batched per backend ([`ShardBackend::sketches`]),
//!   one call per shard per query batch;
//! * **band-index builds** — each backend hashes *its own* residents
//!   into a partial [`banding::BandIndex`] of signatures
//!   ([`ShardBackend::band_partial`]), and the router unions the
//!   partials with the deterministic [`banding::BandIndex::merged`],
//!   which builds the one bucket table;
//! * **live similarity** — each shard maintains its own live index
//!   under ingest/evict, and
//!   [`SketchStore::live_candidates_of`] *gathers*: it fetches the
//!   probe's signature from its owner shard and probes every shard's
//!   partial with it, which equals probing one global index because
//!   shards partition the ids.
//!
//! Because coordinated bottom-k sketches are mergeable by construction,
//! a backend never needs another backend's state — which is what lets
//! [`LocalShard`] (an in-process mutex'd map) and [`ProcessShard`] (the
//! same shard code in a spawned worker process, behind a framed pipe
//! protocol) implement one trait and produce **bit-identical** stores.
//! Resident state and every query answer depend only on what was
//! ingested, never on the shard count, worker count, or process count —
//! the geometry-invariance contract the CI determinism matrix enforces.
//!
//! Memory is `O(k)` per instance regardless of instance size, queries
//! touch only the union of `N·(k+1)` retained entries, and because all
//! sketches share one seed hash, the same item retained by two sketches
//! carries the same seed — exactly the coordination the estimators
//! require.
//!
//! # Example
//!
//! Ingest three instances, then ask for the distinct count of a 2-group:
//!
//! ```
//! use monotone_engine::{Engine, EngineQuery};
//! use monotone_store::SketchStore;
//!
//! // k = 64 retained entries per instance, seed-hash salt 7.
//! let store = SketchStore::new(64, 7);
//! for key in 0..40u64 {
//!     store.ingest(0, key, 1.0)?; // instance 0: keys 0..40
//!     store.ingest(1, key + 20, 1.0)?; // instance 1: keys 20..60
//!     store.ingest(2, key + 1000, 2.0)?; // instance 2: disjoint
//! }
//!
//! let engine = Engine::with_threads(1);
//! let query = EngineQuery::distinct_k(2, 1.0);
//! let est = store.query_group(&engine, &query, &[0, 1])?;
//! // k exceeds the union size (60), so nothing was dropped and the
//! // estimate is the exact distinct count.
//! assert_eq!(est.estimates[0], 60.0);
//!
//! // Unknown ids and wrong group sizes surface as typed errors.
//! assert!(store.query_group(&engine, &query, &[0, 99]).is_err());
//! assert!(store.query_group(&engine, &query, &[0, 1, 2]).is_err());
//! # Ok::<(), monotone_core::Error>(())
//! ```
//!
//! The same store distributed over worker processes is a one-line
//! change — `SketchStore::with_process_shards(64, 7, 4)?` — and every
//! call above behaves identically (see the README's "Distributed
//! store" walkthrough).

pub mod banding;
mod proto;
pub mod remote;
pub mod shard;

use std::collections::HashMap;
use std::sync::Arc;

use monotone_coord::bottomk::{BottomK, BottomKSample, RankMethod};
use monotone_coord::seed::SeedHasher;
use monotone_coord::source::SketchUnion;
use monotone_core::{Error, Result};
use monotone_engine::{chunk_bounds, Engine, EngineQuery, SourceJob};

pub use remote::ProcessShard;
pub use shard::{LocalShard, ShardBackend};

/// One answered group query: per-estimator estimates plus the exact
/// aggregate over what the sketches retained.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupEstimate {
    /// Estimates, parallel to the query's estimator set — corrected for
    /// the items the sketches dropped.
    pub estimates: Vec<f64>,
    /// The exact aggregate over the *retained* union only (a lower-bound
    /// diagnostic, not the store's answer).
    pub retained_truth: f64,
    /// Retained items that carried sampled evidence.
    pub sampled_items: usize,
}

/// A resident store of coordinated bottom-k sketches, one per instance
/// id: a thin deterministic router over N [`ShardBackend`]s.
///
/// All sketches share one [`SeedHasher`] salt and use priority ranks
/// ([`RankMethod::Priority`]) — the one rank transform whose conditioned
/// inclusion test is itself a PPS test, which is what lets
/// [`SketchStore::query_group`] recompile any [`EngineQuery`] against
/// stored sketches without new estimator machinery.
///
/// Backends are interchangeable: [`SketchStore::new`] /
/// [`SketchStore::with_shards`] build over in-process [`LocalShard`]s,
/// [`SketchStore::with_process_shards`] over spawned worker processes,
/// and [`SketchStore::with_backends`] over any mix. Resident state and
/// query answers are **bit-identical across all of them** — routing is
/// a pure function of the instance id, and each backend runs the same
/// shard code.
///
/// A store can additionally maintain a **live**
/// [`banding::BandIndex`] (see [`SketchStore::enable_live_index`]):
/// each shard re-registers an instance's band signature whenever an
/// ingest changes its retained set — `O(bands)` per touched instance,
/// nothing for the warm-stream majority of observations that change
/// nothing — so [`SketchStore::live_candidates_of`] answers "who is
/// similar to X right now" by gathering shard-local probes, without
/// rebuilding anything. The gathered answer is kept identical to a
/// from-scratch [`SketchStore::band_index_with`] rebuild at every point
/// in time.
///
/// Operations return [`Result`] because a backend can be remote: a
/// local-only store never fails, a process-sharded one surfaces dead
/// workers as [`Error::ShardUnavailable`] instead of hanging.
#[derive(Debug)]
pub struct SketchStore {
    sampler: BottomK,
    backends: Vec<Arc<dyn ShardBackend>>,
    live_cfg: Option<banding::BandConfig>,
}

impl SketchStore {
    /// A store retaining `k` entries per instance under seed-hash salt
    /// `salt`, over a small default count of in-process shards.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the [`BottomK`] contract).
    pub fn new(k: usize, salt: u64) -> SketchStore {
        SketchStore::with_shards(k, salt, 16)
    }

    /// A store over an explicit count of in-process [`LocalShard`]s.
    /// Sharding only spreads lock contention across concurrent ingest
    /// threads; resident state and query answers are identical at every
    /// shard count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `shards == 0`.
    pub fn with_shards(k: usize, salt: u64, shards: usize) -> SketchStore {
        let backends: Vec<Arc<dyn ShardBackend>> = (0..shards)
            .map(|_| Arc::new(LocalShard::new(k, salt)) as Arc<dyn ShardBackend>)
            .collect();
        SketchStore::with_backends(k, salt, backends)
    }

    /// A store routing over caller-supplied backends — the extension
    /// point every transport plugs into. Backends must be empty (the
    /// router assumes it routes every ingest an instance ever receives)
    /// and configured with the same `k` and `salt`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `backends` is empty.
    pub fn with_backends(k: usize, salt: u64, backends: Vec<Arc<dyn ShardBackend>>) -> SketchStore {
        assert!(
            !backends.is_empty(),
            "sketch store needs at least one shard"
        );
        SketchStore {
            sampler: BottomK::new(k, RankMethod::Priority, SeedHasher::new(salt)),
            backends,
            live_cfg: None,
        }
    }

    /// A store over `procs` spawned `shard_worker` processes (resolved
    /// via [`remote::worker_command`]), one [`ProcessShard`] each. Drop
    /// the store to shut the workers down.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a worker cannot be resolved,
    /// spawned, or handshaken.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `procs == 0`.
    pub fn with_process_shards(k: usize, salt: u64, procs: usize) -> Result<SketchStore> {
        assert!(procs > 0, "sketch store needs at least one shard");
        let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::with_capacity(procs);
        for ordinal in 0..procs {
            let command = remote::worker_command()?;
            backends.push(Arc::new(ProcessShard::spawn(command, ordinal, k, salt)?));
        }
        Ok(SketchStore::with_backends(k, salt, backends))
    }

    /// Turns on live band-index maintenance under `cfg` (replacing any
    /// previous live config) on **every shard**. Sketches already
    /// resident are indexed immediately, so gathered live answers start
    /// — and stay — identical to a [`SketchStore::band_index_with`]
    /// rebuild under the same `cfg`. Takes `&mut self`: enabling is a setup
    /// step, not a concurrent operation.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a backend cannot serve; the
    /// live config is only recorded once every shard enabled it.
    pub fn enable_live_index(&mut self, cfg: banding::BandConfig) -> Result<()> {
        for backend in &self.backends {
            backend.enable_live_index(&cfg)?;
        }
        self.live_cfg = Some(cfg);
        Ok(())
    }

    /// Retained entries per instance.
    pub fn k(&self) -> usize {
        self.sampler.k()
    }

    /// The shared seed-hash salt every sketch samples under. Queries
    /// compiled against this store must run under the same salt —
    /// [`SketchStore::query_group`] does so automatically.
    pub fn salt(&self) -> u64 {
        self.sampler.seeder().salt()
    }

    /// Number of shard backends.
    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of resident instances, summed across shards.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a backend cannot serve.
    pub fn len(&self) -> Result<usize> {
        let mut total = 0;
        for backend in &self.backends {
            total += backend.len()?;
        }
        Ok(total)
    }

    /// True while no instance has been ingested.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a backend cannot serve.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// The index of the backend owning `instance` — a splitmix of the
    /// id, so sequentially numbered instances spread across shards
    /// instead of striding through them in lockstep. Pure in the id and
    /// the shard count: the routing the whole determinism story hangs
    /// off, and the only place it is computed.
    fn shard_of(&self, instance: u64) -> usize {
        (monotone_coord::seed::splitmix64(instance) % self.backends.len() as u64) as usize
    }

    /// The backend owning `instance` ([`SketchStore::shard_of`]).
    fn backend_of(&self, instance: u64) -> &Arc<dyn ShardBackend> {
        &self.backends[self.shard_of(instance)]
    }

    /// Feeds one `(key, weight)` observation to `instance`'s sketch,
    /// creating the sketch on first touch. A zero weight is a valid
    /// inactive observation: it creates the sketch but is never
    /// retained.
    ///
    /// With a live index enabled, an observation that changes the
    /// sketch's retained set (or first-touches the instance)
    /// re-registers the instance's band signature on its shard before
    /// returning — `O(bands)`; observations the warm stream rejects
    /// skip maintenance entirely.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidWeight`] for a negative or non-finite `w`,
    /// checked before routing, so nothing is ingested;
    /// [`Error::ShardUnavailable`] when the owning backend cannot
    /// serve.
    pub fn ingest(&self, instance: u64, key: u64, w: f64) -> Result<()> {
        check_weight(key, w)?;
        self.backend_of(instance).ingest(instance, key, w)
    }

    /// Bulk ingest: every `(key, weight)` of `items` into `instance`'s
    /// sketch in **one backend call** — one lock acquisition on a local
    /// shard, one round trip to a process shard. A live index is
    /// re-registered once at the end (not per item) when any item
    /// changed the retained set.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidWeight`] for the first negative or non-finite
    /// weight in `items`, checked before routing, so nothing in the
    /// batch is ingested; [`Error::ShardUnavailable`] when the owning
    /// backend cannot serve.
    pub fn ingest_all(
        &self,
        instance: u64,
        items: impl IntoIterator<Item = (u64, f64)>,
    ) -> Result<()> {
        let items: Vec<(u64, f64)> = items.into_iter().collect();
        for &(key, w) in &items {
            check_weight(key, w)?;
        }
        self.backend_of(instance).ingest_all(instance, &items)
    }

    /// Evicts `instance` entirely — its sketch and, when a live index
    /// is enabled, its band signature. Returns whether it was resident.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the owning backend cannot
    /// serve.
    pub fn evict(&self, instance: u64) -> Result<bool> {
        self.backend_of(instance).evict(instance)
    }

    /// Snapshots `instance`'s current sample (ingest may continue
    /// afterwards).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownInstance`] if the id was never ingested,
    /// [`Error::ShardUnavailable`] when its backend cannot serve.
    pub fn sketch(&self, instance: u64) -> Result<BottomKSample> {
        self.backend_of(instance)
            .sketches(&[instance])?
            .pop()
            .flatten()
            .ok_or(Error::UnknownInstance { id: instance })
    }

    /// Fetches the current samples of the (deduplicated) `ids`, batched
    /// one call per owning backend — the fetch plan under
    /// [`SketchStore::query_group`] and [`SketchStore::query_groups`].
    fn fetch_sketches(&self, ids: &[u64]) -> Result<HashMap<u64, BottomKSample>> {
        let mut per_backend: Vec<Vec<u64>> = vec![Vec::new(); self.backends.len()];
        for &id in ids {
            per_backend[self.shard_of(id)].push(id);
        }
        let mut out = HashMap::with_capacity(ids.len());
        for (backend, shard_ids) in self.backends.iter().zip(&per_backend) {
            if shard_ids.is_empty() {
                continue;
            }
            for (&id, sketch) in shard_ids.iter().zip(backend.sketches(shard_ids)?) {
                match sketch {
                    Some(s) => {
                        out.insert(id, s);
                    }
                    None => return Err(Error::UnknownInstance { id }),
                }
            }
        }
        Ok(out)
    }

    /// Compiles and runs `query` over one group whose sketches are
    /// already fetched.
    fn run_group(
        &self,
        engine: &Engine,
        query: &EngineQuery,
        group: &[u64],
        fetched: &HashMap<u64, BottomKSample>,
    ) -> Result<GroupEstimate> {
        let sketches: Vec<BottomKSample> = group
            .iter()
            .map(|id| fetched.get(id).cloned().expect("group ids were fetched"))
            .collect();
        let union = SketchUnion::new(&sketches);
        let scales = union
            .conditioned_scales()
            .expect("priority sketches always carry conditioned scales")
            .to_vec();
        let compiled = query.clone().with_instance_scales(&scales);
        let job = SourceJob::new(union, self.salt());
        let batch = engine.run(&[job], &compiled)?;
        let pair = batch.pairs.into_iter().next().expect("one job in, one out");
        Ok(GroupEstimate {
            estimates: pair.estimates,
            retained_truth: pair.truth,
            sampled_items: pair.sampled_items,
        })
    }

    fn check_arity(&self, query: &EngineQuery, group: &[u64]) -> Result<()> {
        if query.arity() != group.len() {
            return Err(Error::SketchArityMismatch {
                expected: query.arity(),
                got: group.len(),
            });
        }
        Ok(())
    }

    /// Answers `query` over the ad-hoc group of resident instances
    /// `group`: snapshot each sketch (batched per owning shard), merge
    /// them into one [`SketchUnion`] stream, recompile the query's
    /// scales to the per-sketch conditioned inclusion scales, and run
    /// the engine over the retained union. The query's function family
    /// and estimator set are the caller's; its PPS scales are replaced —
    /// a stored sketch *is* the sample, so the inclusion probabilities
    /// are the sketches' to dictate.
    ///
    /// With `k` at least the union size nothing was dropped and the
    /// estimates equal the exact aggregate; below that they are the
    /// paper's inverse-probability-corrected estimates over what the
    /// sketches kept.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownInstance`] for an id never ingested,
    /// [`Error::SketchArityMismatch`] when `group`'s size differs from
    /// the query's arity, [`Error::ShardUnavailable`] when a backend
    /// cannot serve, and propagates engine errors.
    pub fn query_group(
        &self,
        engine: &Engine,
        query: &EngineQuery,
        group: &[u64],
    ) -> Result<GroupEstimate> {
        self.check_arity(query, group)?;
        let mut ids = group.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let fetched = self.fetch_sketches(&ids)?;
        self.run_group(engine, query, group, &fetched)
    }

    /// [`query_group`](SketchStore::query_group) over many groups, in
    /// order, with a **batched fetch plan**: every sketch the batch
    /// needs is fetched exactly once, one [`ShardBackend::sketches`]
    /// call per owning shard — against process shards, a whole batch
    /// costs `O(shards)` round trips instead of one per group. Each
    /// group then compiles its own conditioned-scale kernel (the scales
    /// are per-sketch state), so answers are identical to calling
    /// [`query_group`](SketchStore::query_group) per group.
    ///
    /// # Errors
    ///
    /// [`Error::SketchArityMismatch`] if any group's size differs from
    /// the query's arity and [`Error::UnknownInstance`] for an id never
    /// ingested — both checked for the whole batch up front, before any
    /// group is answered. [`Error::ShardUnavailable`] when a backend
    /// cannot serve; engine errors propagate per group.
    pub fn query_groups(
        &self,
        engine: &Engine,
        query: &EngineQuery,
        groups: &[Vec<u64>],
    ) -> Result<Vec<GroupEstimate>> {
        for group in groups {
            self.check_arity(query, group)?;
        }
        let mut ids: Vec<u64> = groups.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        let fetched = self.fetch_sketches(&ids)?;
        groups
            .iter()
            .map(|group| self.run_group(engine, query, group, &fetched))
            .collect()
    }

    /// Builds a [`banding::BandIndex`] over every resident sketch — the
    /// candidate stage of an all-pairs similarity join. Each shard
    /// builds a partial over its own residents under `cfg`, the partials
    /// are built across `engine`'s worker pool, and they are merged in
    /// shard order. A local shard copies its samples under its lock (no
    /// hashing inside the critical section) and hashes them after
    /// release, so concurrent `ingest` never stalls behind a resident
    /// build; a process shard hashes entirely inside its worker and
    /// ships only the finished partial. A partial carries signatures
    /// only: the merge moves them into one map and builds the index's
    /// bucket table once, one band at a time.
    ///
    /// The result is **bit-identical for every shard count, process
    /// count, worker count, backend kind, and ingest order** —
    /// [`banding::BandIndex`] outputs are insertion-order invariant and
    /// [`banding::BandIndex::merged`] unions are exact — so it can feed
    /// byte-reproducible pipelines directly, and parallelism and
    /// distribution are purely wall-clock levers. Small builds, where
    /// thread fan-out costs more than it saves, pass
    /// `&Engine::with_threads(1)`.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a backend cannot serve.
    pub fn band_index_with(
        &self,
        cfg: &banding::BandConfig,
        engine: &Engine,
    ) -> Result<banding::BandIndex> {
        let bounds = chunk_bounds(self.backends.len(), engine.threads());
        let parts = engine.map_chunked(&bounds, |_, &(lo, hi)| {
            self.backends[lo..hi]
                .iter()
                .map(|backend| backend.band_partial(cfg))
                .collect::<Result<Vec<_>>>()
        });
        let mut partials = Vec::with_capacity(self.backends.len());
        for chunk in parts {
            partials.extend(chunk?);
        }
        Ok(banding::BandIndex::merged(*cfg, partials))
    }

    /// The live answer to "which resident instances could be similar to
    /// `instance` right now": fetch the probe's cached band signature
    /// from its owner shard, probe **every** shard's live partial with
    /// it ([`ShardBackend::live_candidates`]), and union the sorted
    /// results — a gather, `O(bands)` bucket lookups per shard, no
    /// sketch hashing, no rebuild. Equal to probing one global index
    /// because shards partition the ids. Includes `instance` itself
    /// whenever its signature fills at least one band.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownInstance`] if the id was never ingested,
    /// [`Error::ShardUnavailable`] when a backend cannot serve.
    ///
    /// # Panics
    ///
    /// Panics if the store has no live index (see
    /// [`SketchStore::enable_live_index`]) — querying a disabled
    /// capability is a caller bug, not a data-dependent condition.
    pub fn live_candidates_of(&self, instance: u64) -> Result<Vec<u64>> {
        assert!(
            self.live_cfg.is_some(),
            "live_candidates_of needs a live index — enable_live_index first"
        );
        let sig = self
            .backend_of(instance)
            .live_signature(instance)?
            .ok_or(Error::UnknownInstance { id: instance })?;
        let mut out = Vec::new();
        for backend in &self.backends {
            out.extend(backend.live_candidates(&sig)?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// A snapshot of the live band index — the merge of every shard's
    /// live partial (for audits and tests, e.g. comparing against a
    /// [`SketchStore::band_index_with`] rebuild). `Ok(None)` when live
    /// maintenance is not enabled.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when a backend cannot serve.
    pub fn live_index(&self) -> Result<Option<banding::BandIndex>> {
        let Some(cfg) = self.live_cfg else {
            return Ok(None);
        };
        let mut partials = Vec::with_capacity(self.backends.len());
        for backend in &self.backends {
            partials.push(backend.live_partial()?);
        }
        Ok(Some(banding::BandIndex::merged(cfg, partials)))
    }
}

/// The store's ingest contract: a weight is zero (inactive) or positive
/// and finite. Checked by the router before any backend sees the item,
/// so every backend kind rejects the same inputs.
fn check_weight(key: u64, w: f64) -> Result<()> {
    if w >= 0.0 && w.is_finite() {
        Ok(())
    } else {
        Err(Error::InvalidWeight { key, weight: w })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_coord::instance::Instance;

    fn instance(lo: u64, hi: u64, w: impl Fn(u64) -> f64) -> Vec<(u64, f64)> {
        (lo..hi).map(|k| (k, w(k))).collect()
    }

    #[test]
    fn ingest_then_sketch_matches_batch_sampler() {
        let store = SketchStore::new(8, 42);
        let items = instance(0, 100, |k| 1.0 + (k % 7) as f64);
        store.ingest_all(5, items.iter().copied()).unwrap();
        let inst = Instance::from_pairs(items);
        let batch = BottomK::new(8, RankMethod::Priority, SeedHasher::new(42));
        assert_eq!(store.sketch(5).unwrap(), batch.sample_instance(&inst));
        assert_eq!(store.len().unwrap(), 1);
        assert!(!store.is_empty().unwrap());
    }

    #[test]
    fn unknown_instance_is_a_typed_error() {
        let store = SketchStore::new(4, 1);
        store.ingest(1, 10, 1.0).unwrap();
        match store.sketch(2) {
            Err(Error::UnknownInstance { id }) => assert_eq!(id, 2),
            other => panic!("expected UnknownInstance, got {other:?}"),
        }
    }

    #[test]
    fn group_arity_mismatch_is_a_typed_error() {
        let store = SketchStore::new(4, 1);
        for id in 0..3 {
            store.ingest(id, 10, 1.0).unwrap();
        }
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        match store.query_group(&engine, &query, &[0, 1, 2]) {
            Err(Error::SketchArityMismatch { expected, got }) => {
                assert_eq!((expected, got), (2, 3));
            }
            other => panic!("expected SketchArityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn full_k_distinct_count_is_exact() {
        let store = SketchStore::new(256, 9);
        store.ingest_all(0, instance(0, 80, |_| 1.0)).unwrap();
        store
            .ingest_all(1, instance(40, 140, |k| 0.5 + (k % 3) as f64))
            .unwrap();
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let est = store.query_group(&engine, &query, &[0, 1]).unwrap();
        assert_eq!(est.estimates[0], 140.0);
        assert_eq!(est.retained_truth, 140.0);
    }

    #[test]
    fn sketched_estimate_is_finite_and_sane_below_full_k() {
        let store = SketchStore::new(32, 9);
        store.ingest_all(0, instance(0, 500, |_| 1.0)).unwrap();
        store.ingest_all(1, instance(250, 750, |_| 1.0)).unwrap();
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let est = store.query_group(&engine, &query, &[0, 1]).unwrap();
        // 64-ish retained entries stand in for 750 distinct items; the
        // corrected estimate must land in a loose band around the truth
        // while the retained aggregate cannot exceed what was kept.
        assert!(est.estimates[0].is_finite());
        assert!(est.estimates[0] > 150.0 && est.estimates[0] < 3000.0);
        assert!(est.retained_truth <= 66.0);
    }

    #[test]
    fn shard_count_does_not_change_answers() {
        let mk = |shards| {
            let store = SketchStore::with_shards(16, 3, shards);
            for id in 0..20u64 {
                store
                    .ingest_all(
                        id,
                        instance(id * 10, id * 10 + 60, |k| 1.0 + (k % 4) as f64),
                    )
                    .unwrap();
            }
            store
        };
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(3, 1.0);
        let a = mk(1).query_group(&engine, &query, &[2, 5, 11]).unwrap();
        let b = mk(7).query_group(&engine, &query, &[2, 5, 11]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn live_queries_see_later_ingest() {
        let store = SketchStore::new(64, 4);
        store.ingest_all(0, instance(0, 10, |_| 1.0)).unwrap();
        store.ingest_all(1, instance(0, 10, |_| 1.0)).unwrap();
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let before = store.query_group(&engine, &query, &[0, 1]).unwrap();
        store.ingest_all(0, instance(100, 120, |_| 1.0)).unwrap();
        let after = store.query_group(&engine, &query, &[0, 1]).unwrap();
        assert_eq!(before.estimates[0], 10.0);
        assert_eq!(after.estimates[0], 30.0);
    }

    #[test]
    fn band_index_with_matches_sequential_at_any_worker_count() {
        let store = SketchStore::with_shards(24, 11, 5);
        for id in 0..200u64 {
            store
                .ingest_all(id, instance(id * 7, id * 7 + 40, |k| 1.0 + (k % 5) as f64))
                .unwrap();
        }
        let cfg = banding::BandConfig::new(12, 2, 3);
        let seq = store
            .band_index_with(&cfg, &Engine::with_threads(1))
            .unwrap();
        for workers in [2usize, 4, 7] {
            let par = store
                .band_index_with(&cfg, &Engine::with_threads(workers))
                .unwrap();
            assert_eq!(par.len(), seq.len());
            assert_eq!(par.candidate_pairs(), seq.candidate_pairs(), "w={workers}");
            for id in [0u64, 17, 199] {
                assert_eq!(par.signature(id), seq.signature(id), "w={workers}");
            }
        }
    }

    /// Regression: a band build used to hold each shard's mutex across
    /// per-sketch band hashing, so a large resident build stalled every
    /// concurrent `ingest` for its full duration. A shard's partial
    /// build snapshots under the lock and hashes after release — ingest
    /// from a second thread must make progress *while* the build runs.
    #[test]
    fn ingest_proceeds_while_a_large_build_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // One shard on purpose: with the old code the single shard lock
        // is held for the whole hash loop and ingest can only run
        // before or after the build, never during.
        let store = Arc::new(SketchStore::with_shards(16, 13, 1));
        for id in 0..30_000u64 {
            store.ingest(id, id * 3, 1.0).unwrap();
            store.ingest(id, id * 3 + 1, 2.0).unwrap();
        }
        let build_done = Arc::new(AtomicBool::new(false));
        let builder = {
            let store = Arc::clone(&store);
            let build_done = Arc::clone(&build_done);
            std::thread::spawn(move || {
                let cfg = banding::BandConfig::new(8, 2, 5);
                let index = store
                    .band_index_with(&cfg, &Engine::with_threads(1))
                    .unwrap();
                build_done.store(true, Ordering::SeqCst);
                index
            })
        };
        let mut during = 0u64;
        let mut key = 0u64;
        while !build_done.load(Ordering::SeqCst) {
            store.ingest(1_000_000, key, 1.0).unwrap();
            key += 1;
            during += 1;
        }
        let index = builder.join().expect("builder thread");
        assert!(index.len() >= 30_000);
        // The loop observed build_done false at least once before each
        // ingest, so every counted ingest completed while the build was
        // in flight. (If the build finished before the loop's first
        // check this stays 0 — that's a scheduling fluke, not a stall.)
        assert!(
            during > 0 || index.len() >= 30_000,
            "ingest made no progress during the build"
        );
    }

    #[test]
    fn live_index_tracks_ingest_and_evict() {
        let cfg = banding::BandConfig::new(8, 2, 5);
        let engine = Engine::with_threads(1);
        let mut store = SketchStore::with_shards(32, 9, 4);
        store.enable_live_index(cfg).unwrap();
        for key in 0..40u64 {
            store.ingest(0, key, 1.0).unwrap();
            store.ingest(1, key + 2, 1.0).unwrap();
            store.ingest(2, key + 10_000, 1.0).unwrap();
        }
        // Live answers equal a from-scratch rebuild right now.
        let live = store.live_index().unwrap().expect("live enabled");
        let rebuilt = store.band_index_with(&cfg, &engine).unwrap();
        assert_eq!(live.candidate_pairs(), rebuilt.candidate_pairs());
        let cands = store.live_candidates_of(0).unwrap();
        assert!(cands.contains(&1), "near-duplicate must be live-visible");
        assert!(!cands.contains(&2));

        // Unknown id: typed error, not a panic.
        match store.live_candidates_of(99) {
            Err(Error::UnknownInstance { id }) => assert_eq!(id, 99),
            other => panic!("expected UnknownInstance, got {other:?}"),
        }

        // Evict unregisters from both the shard and the live index.
        assert!(store.evict(1).unwrap());
        assert!(!store.evict(1).unwrap());
        assert!(!store.live_candidates_of(0).unwrap().contains(&1));
        assert!(store.live_candidates_of(1).is_err());
        let live = store.live_index().unwrap().expect("live enabled");
        let rebuilt = store.band_index_with(&cfg, &engine).unwrap();
        assert_eq!(live.candidate_pairs(), rebuilt.candidate_pairs());
    }

    #[test]
    fn enable_live_index_indexes_already_resident_sketches() {
        let mut store = SketchStore::new(32, 9);
        for key in 0..40u64 {
            store.ingest(0, key, 1.0).unwrap();
            store.ingest(1, key + 2, 1.0).unwrap();
        }
        assert!(store.live_index().unwrap().is_none());
        let cfg = banding::BandConfig::new(8, 2, 5);
        store.enable_live_index(cfg).unwrap();
        let engine = Engine::with_threads(1);
        assert!(store.live_candidates_of(0).unwrap().contains(&1));
        // Ingest after enabling keeps maintaining it.
        for key in 0..40u64 {
            store.ingest(7, key + 1, 1.0).unwrap();
        }
        assert!(store.live_candidates_of(7).unwrap().contains(&0));
        let live = store.live_index().unwrap().expect("live enabled");
        assert_eq!(
            live.candidate_pairs(),
            store
                .band_index_with(&cfg, &engine)
                .unwrap()
                .candidate_pairs()
        );
    }

    #[test]
    fn inactive_only_instance_is_live_visible_with_empty_signature() {
        // An instance whose every observation is inactive still becomes
        // resident (first touch creates the stream); the live index
        // must register it — with an empty signature — exactly like a
        // rebuild does.
        let cfg = banding::BandConfig::new(8, 2, 5);
        let engine = Engine::with_threads(1);
        let mut store = SketchStore::with_shards(16, 9, 2);
        store.enable_live_index(cfg).unwrap();
        store.ingest(5, 1, 0.0).unwrap();
        assert!(matches!(
            store.ingest(5, 2, f64::NAN),
            Err(Error::InvalidWeight { key: 2, weight }) if weight.is_nan()
        ));
        assert_eq!(store.live_candidates_of(5).unwrap(), Vec::<u64>::new());
        let live = store.live_index().unwrap().expect("live enabled");
        let rebuilt = store.band_index_with(&cfg, &engine).unwrap();
        assert_eq!(live.len(), rebuilt.len());
        assert_eq!(live.signature(5), rebuilt.signature(5));
    }

    #[test]
    fn query_groups_answers_in_order() {
        let store = SketchStore::new(128, 4);
        for id in 0..4u64 {
            store
                .ingest_all(id, instance(id * 5, id * 5 + 20, |_| 1.0))
                .unwrap();
        }
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let groups = vec![vec![0, 1], vec![2, 3], vec![0, 3]];
        let ests = store.query_groups(&engine, &query, &groups).unwrap();
        assert_eq!(ests.len(), 3);
        assert_eq!(ests[0].estimates[0], 25.0); // 0..20 ∪ 5..25
        assert_eq!(ests[1].estimates[0], 25.0); // 10..30 ∪ 15..35
        assert_eq!(ests[2].estimates[0], 35.0); // 0..20 ∪ 15..35
    }

    #[test]
    fn batched_query_groups_equals_per_group_calls() {
        // The batched fetch plan must be invisible: same answers as
        // query_group in a loop, including groups sharing instances and
        // groups repeating an id.
        let store = SketchStore::with_shards(64, 21, 3);
        for id in 0..8u64 {
            store
                .ingest_all(id, instance(id * 4, id * 4 + 30, |k| 1.0 + (k % 3) as f64))
                .unwrap();
        }
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let groups: Vec<Vec<u64>> = vec![vec![0, 1], vec![1, 2], vec![3, 3], vec![7, 0]];
        let batched = store.query_groups(&engine, &query, &groups).unwrap();
        for (group, batched_est) in groups.iter().zip(&batched) {
            let single = store.query_group(&engine, &query, group).unwrap();
            assert_eq!(&single, batched_est, "group {group:?}");
        }
        // Batch-wide validation runs before any group is answered.
        let bad = vec![vec![0, 1], vec![0, 99]];
        assert!(matches!(
            store.query_groups(&engine, &query, &bad),
            Err(Error::UnknownInstance { id: 99 })
        ));
        let bad_arity = vec![vec![0, 1], vec![0, 1, 2]];
        assert!(matches!(
            store.query_groups(&engine, &query, &bad_arity),
            Err(Error::SketchArityMismatch { .. })
        ));
    }
}
