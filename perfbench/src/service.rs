//! `service`: an in-process sketch store answering L* distinct-count
//! group queries while warm ingest keeps landing.
//!
//! 10⁵ resident instances of 80 items at k = 32 over 16 in-process
//! shards, plus 64 small instances whose groups k holds whole. One
//! closed-loop client repeats a pass of one warm ingest batch (64 fresh
//! keys into a random resident instance, which a warm sketch mostly
//! rejects) and one `query_group` call, alternating 2-groups and
//! 4-groups; every 16th query goes to the small instances. Store ingest,
//! `SketchUnion`, kernel compile and the engine's source path do the
//! work; banding, transport and the pair path do none.

use std::sync::Arc;
use std::time::Instant;

use monotone_core::Result;
use monotone_engine::{Engine, EngineQuery};
use monotone_store::{LocalShard, ShardBackend, SketchStore};

use crate::stats::{self, Rng};
use crate::trace::{Tracer, PASS};
use crate::traced::{self, Traced, STORE};
use crate::{Ctx, Report};

const K: usize = 32;
const SHARDS: usize = 16;
const INSTANCES: u64 = 100_000;
const ITEMS: u64 = 80;
/// Key offset between consecutive instances' windows: neighbours overlap.
const STRIDE: u64 = 14;
const SMALL: u64 = 64;
const SMALL_ITEMS: u64 = 8;
const SMALL_STRIDE: u64 = 4;
const SMALL_KEYS: u64 = 1 << 50;
/// Fresh keys of instance `id` are `FRESH_KEYS + id·FRESH_SPAN + n`:
/// disjoint from every window and every other instance, so union sizes
/// stay analytic.
const FRESH_KEYS: u64 = 1 << 40;
const FRESH_SPAN: u64 = 1 << 24;
const BATCH: u64 = 64;
const EXACT_EVERY: u64 = 16;
const OFFSETS: [u64; 4] = [1, 2, 3, 5];
/// Stated bound on the mean relative error of the sketched estimates
/// (the committed E17 sweep reads 0.09 on 2-groups at k = 32).
const MEAN_REL_ERR_BOUND: f64 = 0.2;
const SETUPS: usize = 3;

fn weight(key: u64) -> f64 {
    1.0 + (key % 3) as f64
}

fn window(id: u64) -> impl Iterator<Item = (u64, f64)> {
    let lo = id * STRIDE;
    (lo..lo + ITEMS).map(|k| (k, weight(k)))
}

fn small_window(j: u64) -> impl Iterator<Item = (u64, f64)> {
    let lo = SMALL_KEYS + j * SMALL_STRIDE;
    (lo..lo + SMALL_ITEMS).map(|k| (k, weight(k)))
}

/// Distinct keys in the union of `len`-long windows at ascending `starts`.
fn window_union(starts: &[u64], len: u64) -> u64 {
    let (mut reach, mut total) = (0, 0);
    for &lo in starts {
        total += (lo + len).saturating_sub(lo.max(reach));
        reach = reach.max(lo + len);
    }
    total
}

struct Service {
    store: SketchStore,
    engine: Engine,
    queries: [EngineQuery; 2],
    fresh: Vec<u64>,
    rng: Rng,
    asked: u64,
    tracer: Arc<Tracer>,
}

#[derive(Default)]
struct Log {
    ingest: Vec<(f64, f64)>,
    query_us: Vec<f64>,
    passes: Vec<f64>,
    rel_err: f64,
    sketched: u64,
    exact: u64,
    exact_wrong: u64,
    decomposed: u64,
    decomposed_wrong: u64,
}

impl Service {
    fn setup(ctx: &Ctx) -> Result<Service> {
        let salt = ctx.salt(1);
        let backends = (0..SHARDS)
            .map(|_| {
                Arc::new(Traced::new(LocalShard::new(K, salt), &STORE, &ctx.tracer))
                    as Arc<dyn ShardBackend>
            })
            .collect();
        let store = SketchStore::with_backends(K, salt, backends);
        for id in 0..INSTANCES {
            store.ingest_all(id, window(id))?;
        }
        for j in 0..SMALL {
            store.ingest_all(INSTANCES + j, small_window(j))?;
        }
        Ok(Service {
            store,
            engine: Engine::with_threads(1),
            queries: [
                EngineQuery::distinct_k(2, 1.0),
                EngineQuery::distinct_k(4, 1.0),
            ],
            fresh: vec![0; INSTANCES as usize],
            rng: Rng::new(ctx.seed, 2),
            asked: 0,
            tracer: Arc::clone(&ctx.tracer),
        })
    }

    /// The next query group, its exact distinct count, and whether k
    /// holds its whole union.
    fn next_group(&mut self) -> (Vec<u64>, f64, bool) {
        let q = self.asked;
        self.asked += 1;
        let arity: u64 = if q.is_multiple_of(2) { 2 } else { 4 };
        if q % EXACT_EVERY == EXACT_EVERY - 1 {
            let j = self.rng.below(SMALL - arity + 1);
            let ids = (0..arity).map(|i| INSTANCES + j + i).collect();
            let starts: Vec<u64> = (0..arity).map(|i| (j + i) * SMALL_STRIDE).collect();
            return (ids, window_union(&starts, SMALL_ITEMS) as f64, true);
        }
        let mut ids = vec![self.rng.below(INSTANCES - 16)];
        while (ids.len() as u64) < arity {
            let step = OFFSETS[self.rng.below(OFFSETS.len() as u64) as usize];
            ids.push(ids[ids.len() - 1] + step);
        }
        let starts: Vec<u64> = ids.iter().map(|&id| id * STRIDE).collect();
        let fresh: u64 = ids.iter().map(|&id| self.fresh[id as usize]).sum();
        (ids, (window_union(&starts, ITEMS) + fresh) as f64, false)
    }

    fn pass(&mut self, report: &mut Report, log: &mut Log) {
        let tracer = Arc::clone(&self.tracer);
        let traced = tracer.is_on();
        let id = self.rng.below(INSTANCES);
        let lo = FRESH_KEYS + id * FRESH_SPAN + self.fresh[id as usize];
        let items: Vec<(u64, f64)> = (lo..lo + BATCH).map(|k| (k, weight(k))).collect();

        let start = Instant::now();
        let pass = tracer.span(PASS);
        let t = Instant::now();
        let ingested = report.op(self.store.ingest_all(id, items));
        let ingest_s = t.elapsed().as_secs_f64();
        if ingested.is_some() {
            self.fresh[id as usize] += BATCH;
            log.ingest.push((ingest_s, BATCH as f64));
        }
        let (group, truth, small) = self.next_group();
        let query = &self.queries[usize::from(group.len() == 4)];
        let t = Instant::now();
        let answer = if traced {
            traced::query(&tracer, &self.store, &self.engine, query, &group)
        } else {
            self.store.query_group(&self.engine, query, &group)
        };
        let query_us = t.elapsed().as_secs_f64() * 1e6;
        drop(pass);
        log.passes.push(start.elapsed().as_secs_f64());

        let Some(answer) = report.op(answer) else {
            return;
        };
        log.query_us.push(query_us);
        let estimate = answer.estimates[0];
        if small {
            log.exact += 1;
            log.exact_wrong += u64::from(estimate.to_bits() != truth.to_bits());
        } else {
            log.sketched += 1;
            log.rel_err += (estimate - truth).abs() / truth;
        }
        if traced {
            // The reference answer is not part of the traced pass.
            tracer.set_on(false);
            log.decomposed += 1;
            let reference = report.op(self.store.query_group(&self.engine, query, &group));
            tracer.set_on(true);
            log.decomposed_wrong +=
                u64::from(!reference.is_some_and(|r| traced::same_bits(&r, &answer)));
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report {
        threads: 1,
        ..Report::default()
    };
    let (mut svc, setup_s) = crate::repeat_setup(SETUPS, || Service::setup(ctx))?;
    report.set("setup_s", setup_s);
    let mut log = Log::default();
    crate::run_for(ctx.warmup_secs(), || svc.pass(&mut report, &mut log));
    log.ingest.clear();
    log.query_us.clear();
    log.passes.clear();
    // Memory after set-up and warm-up: the system, not the sample logs
    // the timed loop grows.
    report.set("peak_rss_mb", stats::peak_rss_mb());
    crate::run_for(ctx.untraced_secs(), || svc.pass(&mut report, &mut log));
    let lat = stats::latency(&log.query_us);
    report.set("throughput_per_s", stats::rate(&log.ingest));
    report.set("latency_p50_us", lat.p50);
    report.set("latency_tail_us", lat.tail);
    report.note(format!(
        "throughput: warm ingest items/s over {} batches; latency: query_group over {} samples, tail at p{:.1}",
        log.ingest.len(),
        lat.samples,
        lat.rank * 100.0
    ));
    if ctx.trace {
        let untraced = std::mem::take(&mut log.passes);
        crate::run_traced(ctx, || svc.pass(&mut report, &mut log));
        report.layers(&ctx.tracer.summary());
        report.overhead(&untraced, &log.passes);
        report.wrong(
            "traced query pieces == query_group",
            log.decomposed_wrong,
            log.decomposed,
        );
    }
    report.wrong("exact where k holds the union", log.exact_wrong, log.exact);
    let mean_rel = log.rel_err / log.sketched as f64;
    report.check(
        "mean relative error",
        mean_rel <= MEAN_REL_ERR_BOUND,
        format!(
            "{mean_rel:.4} over {} sketched queries, bound {MEAN_REL_ERR_BOUND}",
            log.sketched
        ),
    );
    Ok(report)
}
