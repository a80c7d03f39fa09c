//! The repository benchmark: one command, four workloads, every
//! end-to-end metric by name with its unit, and correctness checks on
//! the answers.
//!
//! ```text
//! perfbench --workload <service|join|churn|estimate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it runs the workload untraced for half the time
//! and traced for the other half, and reports per-layer metrics from
//! spans the benchmark records around its own calls into each layer's
//! public functions; the spans are written to `out/` beside this
//! package's manifest. Lines before the last start with `#` and carry
//! the machine record and the checks; the last line of standard output
//! is the JSON result.

mod churn;
mod estimate;
mod join;
mod service;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use monotone_coord::seed::{splitmix64, SeedHasher};
use monotone_core::Result;

use trace::{Summary, Tracer, PASS};

/// Argument that turns this executable into a process-shard worker: the
/// `churn` workload spawns itself with it, so the workers are the same
/// build as the benchmark.
pub const WORKER_FLAG: &str = "--shard-worker";

/// End-to-end metrics (tracing off), in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), per workload pass unless the unit is
/// a ratio. A workload that never calls a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("store.ingest_all.s", "s"),
    ("store.ingest_all.calls", "count"),
    ("store.ingest_all.items", "count"),
    ("store.sketches.s", "s"),
    ("store.sketches.calls", "count"),
    ("coord.union.s", "s"),
    ("engine.compile.s", "s"),
    ("engine.source_kernel.s", "s"),
    ("band.partial.s", "s"),
    ("band.partial.max_s", "s"),
    ("band.partial.wall_s", "s"),
    ("band.merge.s", "s"),
    ("band.extract.s", "s"),
    ("band.candidates", "count"),
    ("band.peak_block", "count"),
    ("engine.verify.s", "s"),
    ("engine.verify.pairs", "count"),
    ("engine.accept_ratio", "ratio"),
    ("band.live.signature.s", "s"),
    ("band.live.candidates.s", "s"),
    ("remote.ingest_all.s", "s"),
    ("remote.ingest_all.calls", "count"),
    ("remote.ingest_all.items", "count"),
    ("remote.evict.s", "s"),
    ("remote.evict.calls", "count"),
    ("remote.sketches.s", "s"),
    ("remote.sketches.calls", "count"),
    ("remote.bytes_out", "B"),
    ("remote.bytes_in", "B"),
    ("remote.syscalls", "count"),
    ("remote.overhead.s", "s"),
    ("engine.closed.s", "s"),
    ("engine.closed.pairs", "count"),
    ("engine.generic.s", "s"),
    ("engine.generic.pairs", "count"),
    ("trace.pass.s", "s"),
    ("trace.glue.s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

const WORKLOADS: [&str; 4] = ["service", "join", "churn", "estimate"];

/// Spans a traced phase may record: enough passes for stable per-pass
/// means, few enough to hold in memory and write out quickly.
const SPAN_BUDGET: usize = 250_000;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Arc<Tracer>,
    /// Engine workers and worker processes: two, clamped to the machine.
    pub width: usize,
    /// `available_parallelism`.
    pub cores: usize,
}

impl Ctx {
    /// Untimed warm-up slice before each timed loop.
    pub fn warmup_secs(&self) -> f64 {
        (self.seconds * 0.1).clamp(0.2, 1.0)
    }

    /// The untraced phase: the whole run, or half of a traced one.
    pub fn untraced_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// A seed-derived salt, one per `stream`.
    pub fn salt(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    /// Engine workers and worker processes the workload used.
    pub threads: usize,
    pub procs: usize,
}

impl Report {
    /// Counts one operation and passes its value on; a failure is
    /// counted and reported, never a panic.
    pub fn op<T>(&mut self, result: Result<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("perfbench: operation failed: {e}");
                }
                self.failed += 1;
                None
            }
        }
    }

    /// Counts `wrong` answers among `of` operations already attempted.
    pub fn wrong(&mut self, what: &str, wrong: u64, of: u64) {
        self.failed += wrong;
        self.notes
            .push(format!("check {what}: {wrong} wrong of {of}"));
    }

    /// One check over the run as a whole.
    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        let verdict = if ok { "ok" } else { "FAILED" };
        self.notes
            .push(format!("check {what}: {verdict} ({detail})"));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Per-layer metrics read off a traced phase: `<span>.s` is the
    /// span's self time per pass, `<span>.calls` its calls per pass, and
    /// any other name a counter per pass.
    pub fn layers(&mut self, summary: &Summary) {
        let passes = summary.passes();
        for &(name, _) in PER_LAYER {
            let value = if let Some(span) = name.strip_suffix(".s") {
                summary.stats.get(span).map(|s| s.self_s)
            } else if let Some(span) = name.strip_suffix(".calls") {
                summary.stats.get(span).map(|s| s.calls)
            } else {
                summary.counts.get(name).copied()
            };
            if let Some(value) = value {
                self.set(name, value / passes);
            }
        }
        self.set("trace.pass.s", summary.get(PASS).total_s / passes);
        self.set("trace.glue.s", summary.glue_s() / passes);
        self.set("trace.coverage_frac", summary.coverage());
    }

    /// Mean traced pass wall time over the untraced one, minus one.
    pub fn overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        self.set(
            "trace.overhead_frac",
            stats::mean(traced) / stats::mean(untraced) - 1.0,
        );
    }
}

/// Calls `pass` in a closed loop until `secs` have elapsed, at least once.
pub fn run_for(secs: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
}

/// The traced phase: tracing on until half the run's seconds or the span
/// budget is spent.
pub fn run_traced(ctx: &Ctx, mut pass: impl FnMut()) {
    ctx.tracer.set_on(true);
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed().as_secs_f64() >= ctx.seconds / 2.0
            || ctx.tracer.span_count() >= SPAN_BUDGET
        {
            break;
        }
    }
    ctx.tracer.set_on(false);
}

/// Sets the system up `times` times and keeps the last one, returning it
/// with the median set-up time. Each earlier system is dropped before the
/// next set-up starts, so memory peaks at one system.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), stats::median(&mut secs)))
}

fn parse(args: &[String]) -> std::result::Result<(String, Ctx), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        tracer: Arc::new(Tracer::new()),
        width: cores.min(2),
        cores,
    };
    Ok((workload, ctx))
}

fn machine(workload: &str, ctx: &Ctx, report: &Report) -> String {
    format!(
        "machine {{\"available_parallelism\": {}, \"seed_many_lanes\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"engine_threads\": {}, \"worker_processes\": {}}}",
        ctx.cores,
        SeedHasher::seed_many_lanes(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        report.threads,
        report.procs,
    )
}

fn emit(workload: &str, ctx: &Ctx, report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    println!("# {}", machine(workload, ctx, report));
    let table: &[(&str, &str)] = if ctx.trace { PER_LAYER } else { &END_TO_END };
    let mut failed = report.failed;
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = match report.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if ctx.trace => 0.0,
                _ => {
                    eprintln!("perfbench: {workload} measured no finite {name}");
                    failed += 1;
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted.max(1),
        metrics.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(WORKER_FLAG) {
        if let Err(e) = monotone_store::remote::serve_stdio() {
            eprintln!("perfbench shard worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> \
                 --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match workload.as_str() {
        "service" => service::run(&ctx),
        "join" => join::run(&ctx),
        "churn" => churn::run(&ctx),
        _ => estimate::run(&ctx),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload} could not run: {e}");
            std::process::exit(1);
        }
    };
    if ctx.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-seed{}.tsv", ctx.seed));
        if let Err(e) = ctx.tracer.write(&path, &machine(&workload, &ctx, &report)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    emit(&workload, &ctx, &report);
}
