//! `join`: the bulk all-pairs similarity join over a resident store.
//!
//! `planted_pair_pool` at N = 2·10⁵ (48 items, a near-duplicate planted
//! every tenth instance), sketched at k = 32 into 16 in-process shards.
//! A pass builds the 16×2 band index with `band_index_with` on
//! min(2, nproc) engine workers, streams the candidate pairs in
//! 1024-pair blocks, and verifies each block through `Engine::run`'s
//! distinct-count kernel. Pool generation and ingest are set-up. The
//! bulk band build is the store's slowest hot path; no transport or
//! live-index work runs.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use monotone_coord::instance::Instance;
use monotone_core::Result;
use monotone_engine::{chunk_bounds, workload, Engine, EngineQuery, PairJob};
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::{LocalShard, ShardBackend, SketchStore};

use crate::stats;
use crate::trace::{Tracer, PASS};
use crate::traced::{self, Traced, STORE};
use crate::{Ctx, Report};

const N: u64 = 200_000;
const ITEMS: u64 = 48;
const K: usize = 32;
const SHARDS: usize = 16;
const BANDS: usize = 16;
const ROWS: usize = 2;
const PERIOD: u64 = 10;
/// Similarity threshold: planted pairs sit near 0.82, half-overlapping
/// neighbours at ⅓.
const SIM_J: f64 = 0.5;
const VERIFY_SCALE: f64 = 0.25;
/// Recall is checked against the exact join of the first SLICE instances.
const SLICE: u64 = 256;
const BLOCK: usize = 1024;
const AGREE_MIN: f64 = 0.98;
const SETUPS: usize = 3;

/// Support Jaccard of two ITEMS-item instances from their union size.
fn jaccard(union: f64) -> f64 {
    (2.0 * ITEMS as f64 - union) / union
}

struct Join {
    pool: Vec<Instance>,
    store: SketchStore,
    shards: Vec<Arc<dyn ShardBackend>>,
    cfg: BandConfig,
    salt: u64,
    engine: Engine,
    query: EngineQuery,
    tracer: Arc<Tracer>,
}

#[derive(Default)]
struct Log {
    walls: Vec<f64>,
    block_us: Vec<f64>,
    candidates: Vec<u64>,
    agreement: Vec<f64>,
    slice_pairs: Vec<(u64, u64)>,
    peak_block: usize,
    last_index: Option<BandIndex>,
}

impl Join {
    fn setup(ctx: &Ctx) -> Result<Join> {
        let salt = ctx.salt(3);
        let pool = workload::planted_pair_pool(N, ITEMS, PERIOD);
        let shards: Vec<Arc<dyn ShardBackend>> = (0..SHARDS)
            .map(|_| {
                Arc::new(Traced::new(LocalShard::new(K, salt), &STORE, &ctx.tracer))
                    as Arc<dyn ShardBackend>
            })
            .collect();
        let store = SketchStore::with_backends(K, salt, shards.clone());
        for (id, inst) in pool.iter().enumerate() {
            store.ingest_all(id as u64, inst.iter())?;
        }
        Ok(Join {
            pool,
            store,
            shards,
            cfg: BandConfig::new(BANDS, ROWS, ctx.salt(4)),
            salt,
            engine: Engine::with_threads(ctx.width),
            query: EngineQuery::distinct(VERIFY_SCALE),
            tracer: Arc::clone(&ctx.tracer),
        })
    }

    /// `band_index_with` taken apart: every shard's partial across the
    /// engine's workers, split as `band_index_with` splits them, then the
    /// merge.
    fn build_traced(&self, tracer: &Tracer) -> Result<BandIndex> {
        let partials = {
            let fan = tracer.span("band.partials");
            let bounds = chunk_bounds(self.shards.len(), self.engine.threads());
            let parts = tracer.adopting(&fan, || {
                self.engine.map_chunked(&bounds, |_, &(lo, hi)| {
                    self.shards[lo..hi]
                        .iter()
                        .map(|shard| shard.band_partial(&self.cfg))
                        .collect::<Result<Vec<_>>>()
                })
            });
            let mut partials = Vec::with_capacity(self.shards.len());
            for part in parts {
                partials.extend(part?);
            }
            partials
        };
        let _span = tracer.span("band.merge");
        Ok(BandIndex::merged(self.cfg, partials))
    }

    fn pass(&self, report: &mut Report, log: &mut Log) {
        let tracer = &*self.tracer;
        let traced = tracer.is_on();
        let start = Instant::now();
        let pass = tracer.span(PASS);
        let built = if traced {
            self.build_traced(tracer)
        } else {
            self.store.band_index_with(&self.cfg, &self.engine)
        };
        let Some(index) = report.op(built) else {
            return;
        };
        let (mut candidates, mut agree, mut accepted) = (0u64, 0u64, 0u64);
        log.slice_pairs.clear();
        let mut last = Instant::now();
        {
            let _extract = tracer.span("band.extract");
            index.for_each_candidate_block(BLOCK, |block| {
                let _glue = tracer.span("bench.block");
                let jobs: Vec<PairJob<'_>> = block
                    .iter()
                    .map(|&(a, b)| {
                        PairJob::new(&self.pool[a as usize], &self.pool[b as usize], self.salt)
                    })
                    .collect();
                let verified = {
                    let _span = tracer.span("engine.verify");
                    self.engine.run(&jobs, &self.query)
                };
                if let Some(batch) = report.op(verified) {
                    for pair in &batch.pairs {
                        let estimated = jaccard(pair.estimates[0]) >= SIM_J;
                        let exact = jaccard(pair.truth) >= SIM_J;
                        accepted += u64::from(estimated);
                        agree += u64::from(estimated == exact);
                    }
                }
                candidates += block.len() as u64;
                log.peak_block = log.peak_block.max(block.len());
                log.slice_pairs
                    .extend(block.iter().filter(|&&(_, b)| b < SLICE).copied());
                let now = Instant::now();
                log.block_us.push((now - last).as_secs_f64() * 1e6);
                last = now;
            });
        }
        drop(pass);
        log.walls.push(start.elapsed().as_secs_f64());
        tracer.count("band.candidates", candidates as f64);
        tracer.count("engine.verify.pairs", candidates as f64);
        tracer.count("engine.verify.accepted", accepted as f64);
        log.candidates.push(candidates);
        log.agreement.push(agree as f64 / candidates.max(1) as f64);
        if traced {
            log.last_index = Some(index);
        }
    }
}

/// The brute-force exact join over the pool's first SLICE instances:
/// every pair whose support Jaccard clears the threshold.
fn exact_slice_join(pool: &[Instance]) -> Vec<(u64, u64)> {
    let slice = pool.len().min(SLICE as usize);
    let keys: Vec<BTreeSet<u64>> = pool[..slice].iter().map(|i| i.keys().collect()).collect();
    let mut out = Vec::new();
    for a in 0..slice {
        for b in a + 1..slice {
            let shared = keys[a].intersection(&keys[b]).count();
            let union = keys[a].len() + keys[b].len() - shared;
            if shared as f64 / union as f64 >= SIM_J {
                out.push((a as u64, b as u64));
            }
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report {
        threads: ctx.width,
        ..Report::default()
    };
    let (join, setup_s) = crate::repeat_setup(SETUPS, || Join::setup(ctx))?;
    report.set("setup_s", setup_s);
    // One whole pass of warm-up, discarded.
    join.pass(&mut report, &mut Log::default());
    // Memory after set-up and warm-up: the system, not the sample logs
    // the timed loop grows.
    report.set("peak_rss_mb", stats::peak_rss_mb());
    let mut log = Log::default();
    crate::run_for(ctx.untraced_secs(), || join.pass(&mut report, &mut log));
    let mut walls = log.walls.clone();
    let join_s = stats::median(&mut walls);
    report.set("throughput_per_s", N as f64 / join_s);
    let lat = stats::latency(&log.block_us);
    report.set("latency_p50_us", lat.p50);
    report.set("latency_tail_us", lat.tail);
    report.note(format!(
        "throughput: instances joined per second, join_s median {join_s:.4} over {} passes; \
         latency: one {BLOCK}-pair block extracted and verified, {} samples, tail at p{:.1}",
        log.walls.len(),
        lat.samples,
        lat.rank * 100.0
    ));
    if ctx.trace {
        let untraced = std::mem::take(&mut log.walls);
        crate::run_traced(ctx, || join.pass(&mut report, &mut log));
        let summary = ctx.tracer.summary();
        report.layers(&summary);
        report.overhead(&untraced, &log.walls);
        let fanout = summary.get("band.partials").total_s;
        report.set("band.partial.max_s", summary.get("band.partial").max_s);
        report.set("band.partial.wall_s", fanout / summary.passes());
        report.set("band.peak_block", log.peak_block as f64);
        report.set(
            "engine.accept_ratio",
            summary.count("engine.verify.accepted") / summary.count("band.candidates"),
        );
        if ctx.cores < 2 {
            report.note("parallel scaling: unmeasured (available_parallelism 1)".to_owned());
        } else {
            report.note(format!(
                "parallel scaling: band partials ran {:.2}x over {} workers",
                summary.get("band.partial").total_s / fanout,
                ctx.width
            ));
        }
        if let Some(index) = log.last_index.take() {
            let reference = report.op(join.store.band_index_with(&join.cfg, &join.engine));
            let same =
                reference.is_some_and(|r| traced::index_bytes(&r) == traced::index_bytes(&index));
            report.check(
                "band partials + merged == band_index_with",
                same,
                format!("{} ids", index.len()),
            );
        }
    }
    let first = log.candidates.first().copied().unwrap_or(0);
    report.check(
        "same candidates every pass",
        log.candidates.iter().all(|&c| c == first),
        format!("{first} candidate pairs"),
    );
    let min_agree = log.agreement.iter().copied().fold(1.0, f64::min);
    report.check(
        "verifier agreement",
        min_agree >= AGREE_MIN,
        format!("min {min_agree:.4}, bound {AGREE_MIN}"),
    );
    let exact = exact_slice_join(&join.pool);
    let found: BTreeSet<(u64, u64)> = log.slice_pairs.iter().copied().collect();
    let hit = exact.iter().filter(|p| found.contains(p)).count();
    report.check(
        "slice recall",
        !exact.is_empty() && hit == exact.len(),
        format!(
            "{hit}/{} exact similar pairs among the first {SLICE} instances",
            exact.len()
        ),
    );
    Ok(report)
}
