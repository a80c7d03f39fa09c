//! `estimate`: the engine alone, over RG1 pair batches.
//!
//! A pool of 16 384 `rg1_instance_pool` instances of 12 items, paired by
//! `rg1_pair_jobs`' rule (instance g mod n with instance 7g + 1 mod n)
//! over a running job index g, each job under its own seed-derived salt.
//! A pass runs two batches on min(2, nproc) engine workers at a fixed
//! 20:1 pair ratio: 1000 RG1+ pairs with {L*, U*, HT}, which the closed
//! forms serve, and 50 L1-difference pairs `|v1 − v2|` with {L*, HT},
//! which `core`'s generic quadrature serves. No store is involved.

use std::sync::Arc;
use std::time::Instant;

use monotone_coord::instance::Instance;
use monotone_core::Result;
use monotone_engine::{workload, Engine, EngineQuery, EstimatorKind, PairJob};

use crate::stats;
use crate::trace::{Tracer, PASS};
use crate::{Ctx, Report};

const POOL: u64 = 16_384;
const ITEMS: u64 = 12;
const CLOSED: usize = 1000;
const GENERIC: usize = 50;
const SCALE: f64 = 1.0;
/// Stated bound on |Σ estimate ÷ Σ truth − 1| per estimator over a run.
const SUM_BOUND: f64 = 0.05;
const SETUPS: usize = 9;
const COLUMNS: [&str; 5] = ["RG1+ L*", "RG1+ U*", "RG1+ HT", "L1 L*", "L1 HT"];

struct Estimate {
    pool: Vec<Instance>,
    engine: Engine,
    closed: EngineQuery,
    generic: EngineQuery,
    salt: u64,
    next: u64,
    tracer: Arc<Tracer>,
}

#[derive(Default)]
struct Log {
    passes: Vec<f64>,
    work: Vec<(f64, f64)>,
    pairs: u64,
    invalid: u64,
    sums: [f64; 5],
    truth: [f64; 2],
}

impl Estimate {
    fn setup(ctx: &Ctx) -> Result<Estimate> {
        use EstimatorKind::{HorvitzThompson, LStar, UStar};
        let closed =
            EngineQuery::rg_plus(1.0, SCALE).with_estimators(&[LStar, UStar, HorvitzThompson]);
        let generic = EngineQuery::linear_abs(1.0, -1.0, 0.0, 1.0, SCALE)
            .with_estimators(&[LStar, HorvitzThompson]);
        // Compiled once here so that a query the engine rejects fails the
        // set-up rather than every pass.
        closed.kernel()?;
        generic.kernel()?;
        Ok(Estimate {
            pool: workload::rg1_instance_pool(POOL, ITEMS),
            engine: Engine::with_threads(ctx.width),
            closed,
            generic,
            salt: ctx.salt(8),
            next: 0,
            tracer: Arc::clone(&ctx.tracer),
        })
    }

    fn jobs(&self, from: u64, count: usize) -> Vec<PairJob<'_>> {
        let n = self.pool.len() as u64;
        (from..from + count as u64)
            .map(|g| {
                let (a, b) = (g % n, g.wrapping_mul(7).wrapping_add(1) % n);
                PairJob::new(
                    &self.pool[a as usize],
                    &self.pool[b as usize],
                    self.salt.wrapping_add(g),
                )
            })
            .collect()
    }

    fn pass(&mut self, report: &mut Report, log: &mut Log) {
        let from = self.next;
        self.next += (CLOSED + GENERIC) as u64;
        let closed_jobs = self.jobs(from, CLOSED);
        let generic_jobs = self.jobs(from + CLOSED as u64, GENERIC);
        let tracer = &*self.tracer;

        let start = Instant::now();
        let pass = tracer.span(PASS);
        let closed = {
            let _span = tracer.span("engine.closed");
            self.engine.run(&closed_jobs, &self.closed)
        };
        let generic = {
            let _span = tracer.span("engine.generic");
            self.engine.run(&generic_jobs, &self.generic)
        };
        drop(pass);
        let secs = start.elapsed().as_secs_f64();
        log.passes.push(secs);
        log.work.push((secs, (CLOSED + GENERIC) as f64));
        tracer.count("engine.closed.pairs", CLOSED as f64);
        tracer.count("engine.generic.pairs", GENERIC as f64);

        for (batch, column, family) in [(closed, 0, 0), (generic, 3, 1)] {
            let Some(batch) = report.op(batch) else {
                continue;
            };
            for pair in &batch.pairs {
                log.pairs += 1;
                log.invalid +=
                    u64::from(!pair.estimates.iter().all(|e| e.is_finite() && *e >= 0.0));
                for (i, e) in pair.estimates.iter().enumerate() {
                    log.sums[column + i] += e;
                }
                log.truth[family] += pair.truth;
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report {
        threads: ctx.width,
        ..Report::default()
    };
    let (mut est, setup_s) = crate::repeat_setup(SETUPS, || Estimate::setup(ctx))?;
    report.set("setup_s", setup_s);
    let mut log = Log::default();
    crate::run_for(ctx.warmup_secs(), || est.pass(&mut report, &mut log));
    // Memory after set-up and warm-up: the system, not the sample logs
    // the timed loop grows.
    report.set("peak_rss_mb", stats::peak_rss_mb());
    let w = log.passes.len();
    crate::run_for(ctx.untraced_secs(), || est.pass(&mut report, &mut log));
    let u = log.passes.len();
    let pass_us: Vec<f64> = log.passes[w..u].iter().map(|s| s * 1e6).collect();
    let lat = stats::latency(&pass_us);
    report.set("throughput_per_s", stats::rate(&log.work[w..u]));
    report.set("latency_p50_us", lat.p50);
    report.set("latency_tail_us", lat.tail);
    report.note(format!(
        "throughput: estimated pairs/s; latency: one pass ({CLOSED} closed-form + {GENERIC} \
         generic pairs) over {} samples, tail at p{:.1}",
        lat.samples,
        lat.rank * 100.0
    ));
    if ctx.trace {
        crate::run_traced(ctx, || est.pass(&mut report, &mut log));
        report.layers(&ctx.tracer.summary());
        report.overhead(&log.passes[w..u], &log.passes[u..]);
    }
    report.wrong("finite nonnegative estimates", log.invalid, log.pairs);
    for (i, label) in COLUMNS.iter().enumerate() {
        let truth = log.truth[usize::from(i >= 3)];
        let gap = (log.sums[i] / truth - 1.0).abs();
        report.check(
            &format!("{label} summed estimate tracks summed truth"),
            gap <= SUM_BOUND,
            format!("relative gap {gap:.5}, bound {SUM_BOUND}"),
        );
    }
    Ok(report)
}
