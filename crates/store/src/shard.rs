//! The shard abstraction a [`SketchStore`](crate::SketchStore) routes
//! over: one [`ShardBackend`] owns one partition of the resident
//! sketches, and the store is nothing but a deterministic router in
//! front of N backends.
//!
//! Two implementations ship today — [`LocalShard`] (this module), a
//! mutex'd in-process map identical to what the store used to own
//! directly, and [`ProcessShard`](crate::remote::ProcessShard), the same
//! shard code running in a spawned worker process behind a framed pipe
//! protocol. Everything a backend serves is **mergeable state**: sketch
//! snapshots ship whole, band-index builds return per-shard partials the
//! router unions with [`BandIndex::merged`], and live-index probes
//! return per-shard candidate lists the router gathers. That is the
//! paper's composability doing architectural work — because coordinated
//! bottom-k sketches merge exactly, a backend never needs to see another
//! backend's state, and new transports (real RPC, replication) slot in
//! as further `ShardBackend` impls with no store-API churn.
//!
//! Every method returns a [`Result`]: a local shard is infallible, but a
//! remote one can die, and the trait surface is where that failure mode
//! becomes typed ([`monotone_core::Error::ShardUnavailable`]) instead of
//! a hang or a panic.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Mutex;

use monotone_coord::bottomk::{BottomK, BottomKSample, BottomKStream};
use monotone_coord::seed::SeedHasher;
use monotone_core::{Error, Result};

use crate::banding::{BandConfig, BandIndex};

/// One partition of a sketch store's resident state.
///
/// The contract every implementation must uphold, because the store's
/// byte-identical-at-any-geometry guarantee rests on it:
///
/// * **Determinism** — resident state is a pure function of the ingest
///   and evict calls the backend received, never of timing, transport,
///   or process boundaries. [`LocalShard`] and
///   [`ProcessShard`](crate::remote::ProcessShard) run literally the
///   same shard code, and sketch bytes cross process boundaries
///   bit-exactly.
/// * **Mergeability** — [`band_partial`](ShardBackend::band_partial) and
///   [`live_partial`](ShardBackend::live_partial) return indexes over
///   *this shard's ids only*, so the router can union partials from
///   disjoint shards with [`BandIndex::merged`].
/// * **Typed failure** — a backend that cannot serve (dead worker,
///   closed pipe) returns [`Error::ShardUnavailable`]; it never blocks
///   indefinitely.
pub trait ShardBackend: std::fmt::Debug + Send + Sync {
    /// [`ingest_all`](ShardBackend::ingest_all) of the one item
    /// `(key, w)`.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn ingest(&self, instance: u64, key: u64, w: f64) -> Result<()> {
        self.ingest_all(instance, &[(key, w)])
    }

    /// Bulk ingest of `items` into `instance`'s sketch, creating the
    /// sketch on first touch — one lock acquisition (and, for a remote
    /// shard, one round trip) for the whole batch, ingested as one
    /// [`BottomK::ingest`] batch. Inactive observations (`w <= 0`,
    /// non-finite) are ignored.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn ingest_all(&self, instance: u64, items: &[(u64, f64)]) -> Result<()>;

    /// Evicts `instance` entirely (sketch and live-index registration).
    /// Returns whether it was resident.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn evict(&self, instance: u64) -> Result<bool>;

    /// Number of resident instances on this shard.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn len(&self) -> Result<usize>;

    /// Whether this shard holds no resident instances.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Snapshots the current samples of `ids`, in order; `None` for ids
    /// not resident on this shard. One call serves a whole query
    /// batch's worth of sketches — the router never fetches one by one.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn sketches(&self, ids: &[u64]) -> Result<Vec<Option<BottomKSample>>>;

    /// Builds a [`BandIndex`] partial over this shard's residents under
    /// `cfg` — hashing runs shard-locally (inside the worker process,
    /// for a remote shard) and only the finished partial ships. The
    /// router merges partials with [`BandIndex::merged`], which moves
    /// their signatures into one index; a partial or a merged index
    /// builds a bucket table only if something probes it.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn band_partial(&self, cfg: &BandConfig) -> Result<BandIndex>;

    /// Turns on shard-local live-index maintenance under `cfg`
    /// (replacing any previous live config), indexing already-resident
    /// sketches immediately.
    ///
    /// # Errors
    ///
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn enable_live_index(&self, cfg: &BandConfig) -> Result<()>;

    /// A snapshot clone of this shard's live index partial.
    ///
    /// # Errors
    ///
    /// [`Error::NotApplicable`] when live maintenance was never enabled,
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn live_partial(&self) -> Result<BandIndex>;

    /// The live band signature of `instance`, `None` when the id is not
    /// resident on this shard. A resident instance whose sketch fills no
    /// band has an empty (but present) signature.
    ///
    /// # Errors
    ///
    /// [`Error::NotApplicable`] when live maintenance was never enabled,
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn live_signature(&self, instance: u64) -> Result<Option<Vec<(u32, u64)>>>;

    /// The sorted ids on *this shard* whose live signature shares at
    /// least one `(band, hash)` with `sig` — one leg of the router's
    /// gathered [`live_candidates_of`](crate::SketchStore::live_candidates_of).
    ///
    /// # Errors
    ///
    /// [`Error::NotApplicable`] when live maintenance was never enabled,
    /// [`Error::ShardUnavailable`] when the backend cannot serve.
    fn live_candidates(&self, sig: &[(u32, u64)]) -> Result<Vec<u64>>;
}

/// Mutable state of one in-process shard: the sketch map plus the
/// optional shard-local live band index, under one lock so a
/// retained-set change and its live re-registration are atomic.
#[derive(Debug, Default)]
struct ShardState {
    sketches: HashMap<u64, BottomKStream>,
    live: Option<BandIndex>,
}

/// The in-process [`ShardBackend`]: a mutex'd sketch map with optional
/// live band-index maintenance — exactly the shard the pre-distribution
/// `SketchStore` owned inline, now behind the trait. It is also the
/// engine room of [`ProcessShard`](crate::remote::ProcessShard): the
/// worker process serves its protocol by calling a `LocalShard`, so the
/// two backends cannot drift apart behaviorally.
#[derive(Debug)]
pub struct LocalShard {
    sampler: BottomK,
    state: Mutex<ShardState>,
}

impl LocalShard {
    /// An empty shard retaining `k` entries per instance under seed-hash
    /// salt `salt`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the [`BottomK`] contract).
    pub fn new(k: usize, salt: u64) -> LocalShard {
        LocalShard {
            sampler: BottomK::new(k, SeedHasher::new(salt)),
            state: Mutex::new(ShardState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().expect("unpoisoned shard state")
    }
}

impl ShardBackend for LocalShard {
    fn ingest_all(&self, instance: u64, items: &[(u64, f64)]) -> Result<()> {
        let mut state = self.lock();
        let state = &mut *state;
        let (created, stream) = match state.sketches.entry(instance) {
            Entry::Occupied(e) => (false, e.into_mut()),
            Entry::Vacant(e) => (true, e.insert(self.sampler.stream())),
        };
        let changed = self.sampler.ingest(stream, items);
        // Live maintenance pays one re-registration per batch, not per
        // item, and nothing at all when every item was rejected. It signs
        // the stream's retained keys directly, no snapshot.
        if created || changed {
            if let Some(live) = &mut state.live {
                live.insert_keys(instance, stream.retained_keys());
            }
        }
        Ok(())
    }

    fn evict(&self, instance: u64) -> Result<bool> {
        let mut state = self.lock();
        let had = state.sketches.remove(&instance).is_some();
        if had {
            if let Some(live) = &mut state.live {
                live.remove(instance);
            }
        }
        Ok(had)
    }

    fn len(&self) -> Result<usize> {
        Ok(self.lock().sketches.len())
    }

    fn sketches(&self, ids: &[u64]) -> Result<Vec<Option<BottomKSample>>> {
        let state = self.lock();
        Ok(ids
            .iter()
            .map(|id| state.sketches.get(id).map(|s| self.sampler.snapshot(s)))
            .collect())
    }

    fn band_partial(&self, cfg: &BandConfig) -> Result<BandIndex> {
        // Copy only the retained keys under the lock, into one flat
        // buffer with each id's end offset (no hashing inside the
        // critical section), then sign them after release, so
        // concurrent ingest never stalls behind a resident build. The
        // partial carries signatures only; whoever probes it builds the
        // bucket table.
        let (ends, keys) = {
            let state = self.lock();
            let mut ends = Vec::with_capacity(state.sketches.len());
            let mut keys = Vec::with_capacity(state.sketches.len() * self.sampler.k());
            for (&id, stream) in &state.sketches {
                keys.extend(stream.retained_keys());
                ends.push((id, keys.len()));
            }
            (ends, keys)
        };
        let mut part = BandIndex::new(*cfg);
        let mut start = 0;
        for (id, end) in ends {
            part.insert_keys(id, keys[start..end].iter().copied());
            start = end;
        }
        Ok(part)
    }

    fn enable_live_index(&self, cfg: &BandConfig) -> Result<()> {
        let mut state = self.lock();
        let state = &mut *state;
        let mut live = BandIndex::new(*cfg);
        for (&id, stream) in &state.sketches {
            live.insert_keys(id, stream.retained_keys());
        }
        state.live = Some(live);
        Ok(())
    }

    fn live_partial(&self) -> Result<BandIndex> {
        self.lock()
            .live
            .as_ref()
            .cloned()
            .ok_or(Error::NotApplicable("live index not enabled on shard"))
    }

    fn live_signature(&self, instance: u64) -> Result<Option<Vec<(u32, u64)>>> {
        let state = self.lock();
        let live = state
            .live
            .as_ref()
            .ok_or(Error::NotApplicable("live index not enabled on shard"))?;
        Ok(live.signature(instance).map(<[(u32, u64)]>::to_vec))
    }

    fn live_candidates(&self, sig: &[(u32, u64)]) -> Result<Vec<u64>> {
        let state = self.lock();
        let live = state
            .live
            .as_ref()
            .ok_or(Error::NotApplicable("live index not enabled on shard"))?;
        Ok(live.candidates_of_signature(sig))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_coord::instance::Instance;

    fn items(lo: u64, hi: u64) -> Vec<(u64, f64)> {
        (lo..hi).map(|k| (k, 1.0 + (k % 5) as f64)).collect()
    }

    #[test]
    fn local_shard_matches_the_batch_sampler() {
        let shard = LocalShard::new(8, 42);
        let obs = items(0, 100);
        shard.ingest_all(5, &obs).unwrap();
        let inst = Instance::from_pairs(obs);
        let batch = BottomK::new(8, SeedHasher::new(42));
        assert_eq!(
            shard.sketches(&[5]).unwrap(),
            vec![Some(batch.sample_instance(&inst))]
        );
        assert_eq!(shard.sketches(&[6]).unwrap(), vec![None]);
        assert_eq!(shard.len().unwrap(), 1);
    }

    #[test]
    fn single_and_batch_ingest_agree() {
        let a = LocalShard::new(16, 7);
        let b = LocalShard::new(16, 7);
        let obs = items(0, 60);
        for &(k, w) in &obs {
            a.ingest(3, k, w).unwrap();
        }
        b.ingest_all(3, &obs).unwrap();
        assert_eq!(a.sketches(&[3]).unwrap(), b.sketches(&[3]).unwrap());
    }

    #[test]
    fn live_ops_require_enablement() {
        let shard = LocalShard::new(8, 1);
        assert!(matches!(shard.live_partial(), Err(Error::NotApplicable(_))));
        assert!(matches!(
            shard.live_signature(1),
            Err(Error::NotApplicable(_))
        ));
        assert!(matches!(
            shard.live_candidates(&[]),
            Err(Error::NotApplicable(_))
        ));
    }

    #[test]
    fn live_partial_tracks_ingest_and_evict() {
        let cfg = BandConfig::new(8, 2, 5);
        let shard = LocalShard::new(32, 9);
        shard.ingest_all(0, &items(0, 40)).unwrap();
        shard.enable_live_index(&cfg).unwrap();
        // Already-resident sketches are indexed on enable; later ingest
        // and evict keep the partial equal to a from-scratch rebuild.
        shard.ingest_all(1, &items(2, 42)).unwrap();
        let live = shard.live_partial().unwrap();
        let rebuilt = shard.band_partial(&cfg).unwrap();
        assert_eq!(live.candidate_pairs(), rebuilt.candidate_pairs());
        assert_eq!(live.signature(0), rebuilt.signature(0));
        assert!(shard.evict(0).unwrap());
        assert!(!shard.evict(0).unwrap());
        let live = shard.live_partial().unwrap();
        assert_eq!(live.signature(0), None);
        assert_eq!(
            live.candidate_pairs(),
            shard.band_partial(&cfg).unwrap().candidate_pairs()
        );
    }

    #[test]
    fn live_signature_distinguishes_absent_from_empty() {
        let cfg = BandConfig::new(8, 2, 5);
        let shard = LocalShard::new(16, 9);
        shard.enable_live_index(&cfg).unwrap();
        // Inactive-only instance: resident with an all-empty signature.
        shard.ingest(5, 1, 0.0).unwrap();
        assert_eq!(shard.live_signature(5).unwrap(), Some(vec![]));
        assert_eq!(shard.live_signature(6).unwrap(), None);
    }
}
