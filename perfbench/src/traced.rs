//! The benchmark's window into the program's layers: a [`ShardBackend`]
//! decorator handed to `SketchStore::with_backends`, and a group query
//! taken apart into the public calls `query_group` makes.

use std::sync::Arc;

use monotone_coord::bottomk::BottomKSample;
use monotone_coord::source::SketchUnion;
use monotone_coord::wire::Enc;
use monotone_core::Result;
use monotone_engine::{Engine, EngineQuery, SourceJob};
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::{GroupEstimate, ShardBackend, SketchStore};

use crate::trace::Tracer;

/// Span names for one kind of shard. Band-index work on either kind is
/// `band.*`.
#[derive(Debug)]
pub struct Layer {
    ingest: &'static str,
    ingest_all: &'static str,
    items: &'static str,
    evict: &'static str,
    len: &'static str,
    sketches: &'static str,
    enable_live: &'static str,
    live_partial: &'static str,
}

/// In-process shards (`LocalShard`).
pub static STORE: Layer = Layer {
    ingest: "store.ingest",
    ingest_all: "store.ingest_all",
    items: "store.ingest_all.items",
    evict: "store.evict",
    len: "store.len",
    sketches: "store.sketches",
    enable_live: "store.enable_live",
    live_partial: "store.live_partial",
};

/// Worker-process shards (`ProcessShard`).
pub static REMOTE: Layer = Layer {
    ingest: "remote.ingest",
    ingest_all: "remote.ingest_all",
    items: "remote.ingest_all.items",
    evict: "remote.evict",
    len: "remote.len",
    sketches: "remote.sketches",
    enable_live: "remote.enable_live",
    live_partial: "remote.live_partial",
};

/// Forwards every call to `inner`, inside a span while tracing is on.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    layer: &'static Layer,
    tracer: Arc<Tracer>,
}

impl<S: ShardBackend> Traced<S> {
    pub fn new(inner: S, layer: &'static Layer, tracer: &Arc<Tracer>) -> Traced<S> {
        Traced {
            inner,
            layer,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<S: ShardBackend> ShardBackend for Traced<S> {
    fn ingest(&self, instance: u64, key: u64, w: f64) -> Result<()> {
        let _span = self.tracer.span(self.layer.ingest);
        self.inner.ingest(instance, key, w)
    }

    fn ingest_all(&self, instance: u64, items: &[(u64, f64)]) -> Result<()> {
        self.tracer.count(self.layer.items, items.len() as f64);
        let _span = self.tracer.span(self.layer.ingest_all);
        self.inner.ingest_all(instance, items)
    }

    fn evict(&self, instance: u64) -> Result<bool> {
        let _span = self.tracer.span(self.layer.evict);
        self.inner.evict(instance)
    }

    fn len(&self) -> Result<usize> {
        let _span = self.tracer.span(self.layer.len);
        self.inner.len()
    }

    fn sketches(&self, ids: &[u64]) -> Result<Vec<Option<BottomKSample>>> {
        let _span = self.tracer.span(self.layer.sketches);
        self.inner.sketches(ids)
    }

    fn band_partial(&self, cfg: &BandConfig) -> Result<BandIndex> {
        let _span = self.tracer.span("band.partial");
        self.inner.band_partial(cfg)
    }

    fn enable_live_index(&self, cfg: &BandConfig) -> Result<()> {
        let _span = self.tracer.span(self.layer.enable_live);
        self.inner.enable_live_index(cfg)
    }

    fn live_partial(&self) -> Result<BandIndex> {
        let _span = self.tracer.span(self.layer.live_partial);
        self.inner.live_partial()
    }

    fn live_signature(&self, instance: u64) -> Result<Option<Vec<(u32, u64)>>> {
        let _span = self.tracer.span("band.live.signature");
        self.inner.live_signature(instance)
    }

    fn live_candidates(&self, sig: &[(u32, u64)]) -> Result<Vec<u64>> {
        let _span = self.tracer.span("band.live.candidates");
        self.inner.live_candidates(sig)
    }
}

/// `store.query_group(engine, query, group)` taken apart into its public
/// pieces, each in a span: fetch every sketch with `SketchStore::sketch`,
/// merge them with `SketchUnion` and read the conditioned scales, compile
/// the rescaled query, and run the one source job. Callers compare the
/// answer with `query_group`'s bit for bit.
pub fn query(
    tracer: &Tracer,
    store: &SketchStore,
    engine: &Engine,
    query: &EngineQuery,
    group: &[u64],
) -> Result<GroupEstimate> {
    let sketches = group
        .iter()
        .map(|&id| store.sketch(id))
        .collect::<Result<Vec<_>>>()?;
    let (union, scales) = {
        let _span = tracer.span("coord.union");
        let union = SketchUnion::new(&sketches);
        let scales = union
            .conditioned_scales()
            .expect("store sketches use priority ranks")
            .to_vec();
        (union, scales)
    };
    let kernel = {
        let _span = tracer.span("engine.compile");
        query.clone().with_instance_scales(&scales).kernel()?
    };
    let batch = {
        let _span = tracer.span("engine.source_kernel");
        engine.run_source_kernel(&[SourceJob::new(union, store.salt())], kernel.as_ref())?
    };
    let pair = batch
        .pairs
        .into_iter()
        .next()
        .expect("one job in, one result out");
    Ok(GroupEstimate {
        estimates: pair.estimates,
        retained_truth: pair.truth,
        sampled_items: pair.sampled_items,
    })
}

/// Bit-for-bit equality of two answers (`==` on floats lets 0.0 match
/// -0.0).
pub fn same_bits(a: &GroupEstimate, b: &GroupEstimate) -> bool {
    a.estimates.len() == b.estimates.len()
        && a.estimates
            .iter()
            .zip(&b.estimates)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.retained_truth.to_bits() == b.retained_truth.to_bits()
        && a.sampled_items == b.sampled_items
}

/// An index's wire bytes: equal bytes mean equal signatures for every id.
pub fn index_bytes(index: &BandIndex) -> Vec<u8> {
    let mut enc = Enc::new();
    index.encode_into(&mut enc);
    enc.into_bytes()
}
