//! `churn`: a process-sharded store with a live band index under a
//! rolling window of instances.
//!
//! min(2, nproc) `ProcessShard` workers hold 2·10⁴ resident instances of
//! 48 items (k = 32, live 16×2 band index). One closed-loop client
//! repeats a cycle: ingest a new instance, evict the oldest, probe one
//! resident with `live_candidates_of`, and answer one gathered 2-group
//! `query_group`. Pipe round trips dominate, and the live index is
//! re-registered on every ingest where `join` builds it in bulk. After
//! timing, every answer is checked against in-process shards fed the
//! same operations.

use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

use monotone_core::{Error, Result};
use monotone_engine::{Engine, EngineQuery};
use monotone_store::banding::BandConfig;
use monotone_store::{GroupEstimate, LocalShard, ProcessShard, ShardBackend, SketchStore};

use crate::stats::{self, Rng};
use crate::trace::{Tracer, PASS};
use crate::traced::{self, Traced, REMOTE};
use crate::{Ctx, Report};

const K: usize = 32;
const RESIDENTS: u64 = 20_000;
const ITEMS: u64 = 48;
const BANDS: usize = 16;
const ROWS: usize = 2;
const SETUPS: usize = 3;

/// Key-pure weights, so instances sharing keys rank them alike and
/// half-overlapping neighbours meet in the live index.
fn weight(key: u64) -> f64 {
    0.05 + 0.9 * ((key.wrapping_mul(13).wrapping_add(7) % 89) as f64 / 89.0)
}

fn items(id: u64) -> Vec<(u64, f64)> {
    let lo = id * (ITEMS / 2);
    (lo..lo + ITEMS).map(|k| (k, weight(k))).collect()
}

/// One cycle's operands: the ingested, evicted, probed and queried ids.
#[derive(Clone, Copy)]
struct Cycle {
    new: u64,
    old: u64,
    probe: u64,
    pair: u64,
}

struct Churn {
    store: SketchStore,
    cfg: BandConfig,
    salt: u64,
    procs: usize,
    engine: Engine,
    query: EngineQuery,
    oldest: u64,
    next: u64,
    rng: Rng,
    tracer: Arc<Tracer>,
}

#[derive(Default)]
struct Log {
    cycles: Vec<Cycle>,
    probes: Vec<Option<Vec<u64>>>,
    answers: Vec<Option<GroupEstimate>>,
    /// Seconds inside the four store calls of each cycle.
    op_s: Vec<f64>,
    ingest: Vec<(f64, f64)>,
    cycle_us: Vec<f64>,
    ingest_us: Vec<f64>,
    evict_us: Vec<f64>,
    probe_us: Vec<f64>,
    query_us: Vec<f64>,
    not_resident: u64,
}

/// This executable as a shard worker. A worker that cannot be resolved
/// or started is a typed error, not a panic.
fn spawn_worker(ordinal: usize, salt: u64) -> Result<ProcessShard> {
    let exe = std::env::current_exe().map_err(|e| Error::ShardUnavailable {
        shard: ordinal,
        reason: format!("cannot resolve the benchmark executable to run as a worker: {e}"),
    })?;
    let mut command = Command::new(exe);
    command.arg(crate::WORKER_FLAG);
    ProcessShard::spawn(command, ordinal, K, salt)
}

impl Churn {
    fn setup(ctx: &Ctx) -> Result<Churn> {
        let salt = ctx.salt(5);
        let cfg = BandConfig::new(BANDS, ROWS, ctx.salt(6));
        let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::with_capacity(ctx.width);
        for ordinal in 0..ctx.width {
            let worker = spawn_worker(ordinal, salt)?;
            backends.push(Arc::new(Traced::new(worker, &REMOTE, &ctx.tracer)));
        }
        let mut store = SketchStore::with_backends(K, salt, backends);
        store.enable_live_index(cfg)?;
        for id in 0..RESIDENTS {
            store.ingest_all(id, items(id))?;
        }
        Ok(Churn {
            store,
            cfg,
            salt,
            procs: ctx.width,
            engine: Engine::with_threads(1),
            query: EngineQuery::distinct_k(2, 1.0),
            oldest: 0,
            next: RESIDENTS,
            rng: Rng::new(ctx.seed, 7),
            tracer: Arc::clone(&ctx.tracer),
        })
    }

    fn cycle(&mut self, report: &mut Report, log: &mut Log) {
        // After this cycle's ingest and evict the residents are
        // oldest + 1 ..= oldest + RESIDENTS.
        let c = Cycle {
            new: self.next,
            old: self.oldest,
            probe: self.oldest + 1 + self.rng.below(RESIDENTS),
            pair: self.oldest + 1 + self.rng.below(RESIDENTS - 1),
        };
        self.next += 1;
        self.oldest += 1;
        let new_items = items(c.new);
        let group = [c.pair, c.pair + 1];
        let tracer = Arc::clone(&self.tracer);
        let traced = tracer.is_on();

        let start = Instant::now();
        let pass = tracer.span(PASS);
        let t0 = Instant::now();
        let ingested = report.op(self.store.ingest_all(c.new, new_items));
        let t1 = Instant::now();
        let evicted = report.op(self.store.evict(c.old));
        let t2 = Instant::now();
        let probe = report.op(self.store.live_candidates_of(c.probe));
        let t3 = Instant::now();
        let answer = report.op(if traced {
            traced::query(&tracer, &self.store, &self.engine, &self.query, &group)
        } else {
            self.store.query_group(&self.engine, &self.query, &group)
        });
        let t4 = Instant::now();
        drop(pass);
        log.cycle_us.push(start.elapsed().as_secs_f64() * 1e6);

        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        if ingested.is_some() {
            log.ingest.push(((t1 - t0).as_secs_f64(), ITEMS as f64));
        }
        log.ingest_us.push(us(t0, t1));
        log.evict_us.push(us(t1, t2));
        log.probe_us.push(us(t2, t3));
        log.query_us.push(us(t3, t4));
        log.op_s.push((t4 - t0).as_secs_f64());
        log.not_resident += u64::from(evicted == Some(false));
        log.cycles.push(c);
        log.probes.push(probe);
        log.answers.push(answer);
    }

    /// Replays every logged cycle against in-process shards (same count,
    /// same live config) and counts cycles whose probe or query answer
    /// differs from the workers' bit for bit. Also returns the reference's
    /// seconds inside the four store calls of each cycle.
    fn replay(&self, log: &Log) -> Result<(u64, Vec<f64>)> {
        let backends = (0..self.procs)
            .map(|_| Arc::new(LocalShard::new(K, self.salt)) as Arc<dyn ShardBackend>)
            .collect();
        let mut reference = SketchStore::with_backends(K, self.salt, backends);
        reference.enable_live_index(self.cfg)?;
        for id in 0..RESIDENTS {
            reference.ingest_all(id, items(id))?;
        }
        let mut wrong = 0;
        let mut secs = Vec::with_capacity(log.cycles.len());
        for (i, c) in log.cycles.iter().enumerate() {
            let new_items = items(c.new);
            let start = Instant::now();
            reference.ingest_all(c.new, new_items)?;
            reference.evict(c.old)?;
            let probe = reference.live_candidates_of(c.probe)?;
            let answer = reference.query_group(&self.engine, &self.query, &[c.pair, c.pair + 1])?;
            secs.push(start.elapsed().as_secs_f64());
            let probe_ok = log.probes[i].as_ref() == Some(&probe);
            let answer_ok = log.answers[i]
                .as_ref()
                .is_some_and(|a| traced::same_bits(a, &answer));
            wrong += u64::from(!(probe_ok && answer_ok));
        }
        Ok((wrong, secs))
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report {
        threads: 1,
        procs: ctx.width,
        ..Report::default()
    };
    let (mut churn, setup_s) = crate::repeat_setup(SETUPS, || Churn::setup(ctx))?;
    report.set("setup_s", setup_s);
    let mut log = Log::default();
    // Memory after set-up: this process holds only the router, so the
    // answer log that warm-up starts for the replay would swamp it.
    report.set("peak_rss_mb", stats::peak_rss_mb());
    crate::run_for(ctx.warmup_secs(), || churn.cycle(&mut report, &mut log));
    let (w, wi) = (log.cycle_us.len(), log.ingest.len());
    crate::run_for(ctx.untraced_secs(), || churn.cycle(&mut report, &mut log));
    let (u, ui) = (log.cycle_us.len(), log.ingest.len());

    let lat = stats::latency(&log.cycle_us[w..u]);
    report.set("throughput_per_s", stats::rate(&log.ingest[wi..ui]));
    report.set("latency_p50_us", lat.p50);
    report.set("latency_tail_us", lat.tail);
    report.note(format!(
        "throughput: remote ingest items/s; latency: one cycle (ingest, evict, probe, query) \
         over {} samples, tail at p{:.1}",
        lat.samples,
        lat.rank * 100.0
    ));
    for (what, samples) in [
        ("ingest_all", &log.ingest_us),
        ("evict", &log.evict_us),
        ("live_candidates_of", &log.probe_us),
        ("query_group", &log.query_us),
    ] {
        let l = stats::latency(&samples[w..u]);
        report.note(format!(
            "{what}: p50 {:.1} us, p{:.1} {:.1} us",
            l.p50,
            l.rank * 100.0,
            l.tail
        ));
    }

    if ctx.trace {
        let before = stats::proc_io();
        crate::run_traced(ctx, || churn.cycle(&mut report, &mut log));
        let after = stats::proc_io();
        let summary = ctx.tracer.summary();
        report.layers(&summary);
        let passes = summary.passes();
        report.set("remote.bytes_out", (after[0] - before[0]) as f64 / passes);
        report.set("remote.bytes_in", (after[1] - before[1]) as f64 / passes);
        report.set("remote.syscalls", (after[2] - before[2]) as f64 / passes);
        let secs = |us: &[f64]| us.iter().map(|u| u * 1e-6).collect::<Vec<_>>();
        report.overhead(&secs(&log.cycle_us[w..u]), &secs(&log.cycle_us[u..]));
    }

    let (wrong, local_s) = churn.replay(&log)?;
    let cycles = log.cycles.len() as u64;
    report.wrong(
        "probe and query answers == in-process reference",
        wrong,
        cycles,
    );
    report.wrong("evict found the oldest resident", log.not_resident, cycles);
    if ctx.trace {
        let remote: f64 = log.op_s[w..u].iter().sum();
        let local: f64 = local_s[w..u].iter().sum();
        report.set("remote.overhead.s", (remote - local) / (u - w) as f64);
    }
    let live = report.op(churn.store.live_index());
    let rebuilt = report.op(churn
        .store
        .band_index_with(&churn.cfg, &Engine::with_threads(ctx.width)));
    let same = matches!((&live, &rebuilt), (Some(Some(l)), Some(r))
        if traced::index_bytes(l) == traced::index_bytes(r));
    report.check(
        "live index == rebuild",
        same,
        format!("{RESIDENTS} residents"),
    );
    Ok(report)
}
