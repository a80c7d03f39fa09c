//! Batched engine vs naive per-call estimation on a 10k-pair RG1+ workload.
//!
//! Two naive baselines, both the per-pair pattern the experiment binaries
//! used before the engine existed (sampler + MEP + `query::estimate_sum`
//! per pair, datasets pre-built outside the timer):
//!
//! * **closed-form** — `RgPlusLStar` per call, exactly the estimator the
//!   pre-engine `exp_error_scaling`/`exp_coordination_gain` loops used;
//!   this is the honest baseline the ≥ 2× acceptance gate runs against;
//! * **generic** — the quadrature-backed `LStar`, what a caller who does
//!   not know the closed form pays (and what the engine's automatic
//!   dispatch saves them from).
//!
//! The batched path runs the same workload through `Engine::run` pinned to
//! ONE worker, so the recorded speedups are batching gains only (per-batch
//! setup, single seed hash per item, no per-pair BTreeMap sample
//! materialization, no per-item outcome allocation) — thread count never
//! inflates them; the machine-parallel rate is reported separately.
//!
//! Besides the criterion report, the main measurement writes
//! `results/BENCH_engine.json` (pairs/sec for every path + speedups) so CI
//! accumulates a machine-readable perf trajectory, and
//! `results/BENCH_kernels.json` pricing the kernel layer itself: the
//! closed-form kernel vs the generic quadrature kernel on the same
//! workload (what closed-form registration saves), plus the bulk
//! seed-hashing rate ([`SeedHasher::seed_many`]) vs per-key hashing.

use criterion::{black_box, Criterion};
use monotone_bench::{machine_fields, results_dir};
use monotone_coord::instance::{Dataset, Instance};
use monotone_coord::pps::CoordPps;
use monotone_coord::query::estimate_sum;
use monotone_coord::seed::SeedHasher;
use monotone_core::estimate::{LStar, RgPlusLStar};
use monotone_core::func::RangePowPlus;
use monotone_core::quad::QuadConfig;
use monotone_engine::{workload, Engine, EngineQuery, PairJob};
use std::io::Write as _;
use std::time::Instant;

const ITEMS_PER_INSTANCE: u64 = 12;
const INSTANCE_POOL: u64 = 32;

/// The canonical RG1+ workload now lives in `engine::workload`, shared
/// with the scenario smoke tests — the bench measures exactly what the
/// subsystem tests.
fn instance_pool() -> Vec<Instance> {
    workload::rg1_instance_pool(INSTANCE_POOL, ITEMS_PER_INSTANCE)
}

fn jobs_of(pool: &[Instance], pairs: usize) -> Vec<PairJob<'_>> {
    workload::rg1_pair_jobs(pool, pairs)
}

/// `Dataset`s for the naive loops, prepared outside the timed region
/// (exactly as the pre-engine experiment loops built them once and
/// re-sampled per salt), so the comparison measures estimation cost only.
fn naive_datasets(jobs: &[PairJob<'_>]) -> Vec<Dataset> {
    jobs.iter()
        .map(|job| Dataset::new(vec![job.a.clone(), job.b.clone()]))
        .collect()
}

/// The pre-engine hot path exactly: per pair, one sampler, materialized
/// samples, and the closed-form `RgPlusLStar` through `estimate_sum`.
fn naive_closed_form(jobs: &[PairJob<'_>], datasets: &[Dataset]) -> f64 {
    let f = RangePowPlus::new(1.0);
    let est = RgPlusLStar::new(1, 1.0);
    let mut total = 0.0;
    for (job, data) in jobs.iter().zip(datasets) {
        let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(job.salt));
        let samples = sampler.sample_all(data);
        total += estimate_sum(f, &est, &sampler, &samples, None).expect("estimate");
    }
    total
}

/// The same loop with the quadrature-backed generic L\* — the cost of not
/// knowing the closed form.
fn naive_generic(jobs: &[PairJob<'_>], datasets: &[Dataset]) -> f64 {
    let f = RangePowPlus::new(1.0);
    let est = LStar::with_quad(QuadConfig::fast());
    let mut total = 0.0;
    for (job, data) in jobs.iter().zip(datasets) {
        let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(job.salt));
        let samples = sampler.sample_all(data);
        total += estimate_sum(f, &est, &sampler, &samples, None).expect("estimate");
    }
    total
}

fn batched(engine: &Engine, jobs: &[PairJob<'_>], query: &EngineQuery) -> f64 {
    let batch = engine.run(jobs, query).expect("engine batch");
    batch.pairs.iter().map(|p| p.estimates[0]).sum()
}

/// Median-of-3 wall-clock timing of `f`, returning `(median secs, value)`.
fn timed<F: FnMut() -> f64>(mut f: F) -> (f64, f64) {
    let mut secs = Vec::with_capacity(3);
    let mut value = 0.0;
    for _ in 0..3 {
        let start = Instant::now();
        value = f();
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (secs[1], value)
}

fn main() {
    let pool = instance_pool();
    // The gating comparison runs the engine on ONE worker so the recorded
    // speedup is purely batching + closed-form dispatch + allocation
    // avoidance, not thread count; the machine-parallel rate is reported
    // separately.
    let engine_1t = Engine::with_threads(1);
    let engine_par = Engine::new();
    let query = EngineQuery::rg_plus(1.0, 1.0);

    // Criterion micro-comparison on a small batch.
    let small = jobs_of(&pool, 200);
    let small_data = naive_datasets(&small);
    let mut c = Criterion::default();
    c.bench_function("engine/batched_200_pairs_1thread", |b| {
        b.iter(|| black_box(batched(&engine_1t, &small, &query)))
    });
    c.bench_function("engine/naive_closed_200_pairs", |b| {
        b.iter(|| black_box(naive_closed_form(&small, &small_data)))
    });
    c.bench_function("engine/naive_generic_200_pairs", |b| {
        b.iter(|| black_box(naive_generic(&small, &small_data)))
    });

    // Bulk seed hashing: the kernel evaluate loop hashes the merged key
    // stream in chunks via seed_many instead of one seed() call per item.
    // Both variants materialize every seed (what the engine consumes); a
    // per-iteration black_box of the buffer keeps the stores observable.
    const SEED_KEYS: usize = 4096;
    let seed_keys: Vec<u64> = (0..SEED_KEYS as u64)
        .map(|k| k.wrapping_mul(0x9e37))
        .collect();
    let seeder = SeedHasher::new(42);
    let mut seed_buf = vec![0.0f64; SEED_KEYS];
    c.bench_function("seed/per_key_4096", |b| {
        b.iter(|| {
            for (slot, &k) in seed_buf.iter_mut().zip(&seed_keys) {
                *slot = seeder.seed(k);
            }
            black_box(&mut seed_buf);
        })
    });
    c.bench_function("seed/seed_many_4096", |b| {
        b.iter(|| {
            seeder.seed_many(&seed_keys, &mut seed_buf);
            black_box(&mut seed_buf);
        })
    });

    // The acceptance workload: 10k pairs, median-of-3 timed passes each
    // (a single pass is hostage to scheduler noise on shared CI runners;
    // the median stabilizes the recorded speedups and the 0.8x
    // regression gate built on them), with a cross-check that all paths
    // compute the same numbers.
    let pairs: usize = std::env::var("BENCH_ENGINE_PAIRS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let jobs = jobs_of(&pool, pairs);
    let datasets = naive_datasets(&jobs);

    let (batched_secs, total_batched) = timed(|| batched(&engine_1t, &jobs, &query));
    let (parallel_secs, total_parallel) = timed(|| batched(&engine_par, &jobs, &query));
    let (closed_secs, total_closed) = timed(|| naive_closed_form(&jobs, &datasets));
    let (generic_secs, total_generic) = timed(|| naive_generic(&jobs, &datasets));
    // The same batched workload with closed forms deregistered: every L*
    // goes through the generic quadrature kernel — what the kernel
    // layer's closed-form registration saves.
    let generic_query = EngineQuery::rg_plus(1.0, 1.0).without_closed_forms();
    let (kernel_generic_secs, total_kernel_generic) =
        timed(|| batched(&engine_1t, &jobs, &generic_query));

    for total in [
        total_batched,
        total_parallel,
        total_generic,
        total_kernel_generic,
    ] {
        let rel = (total - total_closed).abs() / total_closed.abs().max(1e-12);
        assert!(
            rel < 1e-6,
            "paths diverged: {total} vs closed-form {total_closed}"
        );
    }

    // Bulk vs per-key seed hashing, wall-clock (repeated to a stable
    // measurement window; both variants materialize every seed, with a
    // per-rep black_box keeping the stores observable).
    let hash_keys: Vec<u64> = (0..65_536u64).map(|k| k.wrapping_mul(0x9e37)).collect();
    let hasher = SeedHasher::new(7);
    let mut hash_buf = vec![0.0f64; hash_keys.len()];
    const HASH_REPS: usize = 50;
    let (per_key_secs, _) = timed(|| {
        for _ in 0..HASH_REPS {
            for (slot, &k) in hash_buf.iter_mut().zip(&hash_keys) {
                *slot = hasher.seed(k);
            }
            black_box(&mut hash_buf);
        }
        hash_buf[hash_buf.len() - 1]
    });
    let (seed_many_secs, _) = timed(|| {
        for _ in 0..HASH_REPS {
            hasher.seed_many(&hash_keys, &mut hash_buf);
            black_box(&mut hash_buf);
        }
        hash_buf[hash_buf.len() - 1]
    });
    let hashes = (HASH_REPS * hash_keys.len()) as f64;
    let per_key_rate = hashes / per_key_secs;
    let seed_many_rate = hashes / seed_many_secs;
    // Which lane implementation the rates priced. Both records carry it
    // as `seed_many_lanes` (with `available_parallelism`, from
    // `machine_fields`), so perf gates compare like with like instead of
    // flagging a hardware difference (e.g. a runner without AVX-512) as a
    // regression.
    let seed_many_lanes = SeedHasher::seed_many_lanes();

    let closed_rate = pairs as f64 / closed_secs;
    let generic_rate = pairs as f64 / generic_secs;
    let batched_rate = pairs as f64 / batched_secs;
    let parallel_rate = pairs as f64 / parallel_secs;
    let speedup = closed_secs / batched_secs;
    let speedup_generic = generic_secs / batched_secs;
    println!("\nengine 10k-pair RG1+ workload:");
    println!("  naive closed-form     {closed_secs:>10.4}s  ({closed_rate:>12.0} pairs/s)");
    println!("  naive generic quad    {generic_secs:>10.4}s  ({generic_rate:>12.0} pairs/s)");
    println!("  batched, 1 thread     {batched_secs:>10.4}s  ({batched_rate:>12.0} pairs/s)");
    println!(
        "  batched, {} thread(s)  {parallel_secs:>10.4}s  ({parallel_rate:>12.0} pairs/s)",
        engine_par.threads()
    );
    println!("  speedup vs closed     {speedup:>10.2}x  (the acceptance gate)");
    println!("  speedup vs generic    {speedup_generic:>10.2}x");

    let kernel_generic_rate = pairs as f64 / kernel_generic_secs;
    let closed_over_generic = kernel_generic_secs / batched_secs;
    println!("\nkernel layer (same 10k-pair workload, 1 thread):");
    println!("  closed-form kernel    {batched_secs:>10.4}s  ({batched_rate:>12.0} pairs/s)");
    println!(
        "  generic quad kernel   {kernel_generic_secs:>10.4}s  ({kernel_generic_rate:>12.0} pairs/s)"
    );
    println!("  closed-form dispatch saves {closed_over_generic:>6.2}x");
    println!(
        "  seed hashing: per-key {per_key_rate:>12.0} keys/s, seed_many {seed_many_rate:>12.0} keys/s ({:.2}x, {seed_many_lanes} lanes)",
        seed_many_rate / per_key_rate
    );

    let kernels_path = results_dir().join("BENCH_kernels.json");
    let mut kout = std::fs::File::create(&kernels_path).expect("create BENCH_kernels.json");
    writeln!(
        kout,
        "{{\n  \"bench\": \"engine_kernel_layer\",\n  \"workload\": \"rg1plus_sum\",\n{}  \"pairs\": {pairs},\n  \"items_per_pair\": {ITEMS_PER_INSTANCE},\n  \"closed_kernel_secs\": {batched_secs:.6},\n  \"closed_kernel_pairs_per_sec\": {batched_rate:.1},\n  \"generic_kernel_secs\": {kernel_generic_secs:.6},\n  \"generic_kernel_pairs_per_sec\": {kernel_generic_rate:.1},\n  \"closed_over_generic\": {closed_over_generic:.2},\n  \"seed_per_key_keys_per_sec\": {per_key_rate:.0},\n  \"seed_many_keys_per_sec\": {seed_many_rate:.0},\n  \"seed_many_speedup\": {:.2}\n}}",
        machine_fields(),
        seed_many_rate / per_key_rate
    )
    .expect("write BENCH_kernels.json");
    println!("wrote {}", kernels_path.display());

    let path = results_dir().join("BENCH_engine.json");
    let mut out = std::fs::File::create(&path).expect("create BENCH_engine.json");
    writeln!(
        out,
        "{{\n  \"bench\": \"engine_batched_vs_per_call\",\n  \"workload\": \"rg1plus_sum\",\n{}  \"pairs\": {pairs},\n  \"items_per_pair\": {ITEMS_PER_INSTANCE},\n  \"naive_closed_secs\": {closed_secs:.6},\n  \"naive_closed_pairs_per_sec\": {closed_rate:.1},\n  \"naive_generic_secs\": {generic_secs:.6},\n  \"naive_generic_pairs_per_sec\": {generic_rate:.1},\n  \"batched_1thread_secs\": {batched_secs:.6},\n  \"batched_1thread_pairs_per_sec\": {batched_rate:.1},\n  \"parallel_threads\": {},\n  \"parallel_secs\": {parallel_secs:.6},\n  \"parallel_pairs_per_sec\": {parallel_rate:.1},\n  \"speedup_1thread_vs_closed\": {speedup:.2},\n  \"speedup_1thread_vs_generic\": {speedup_generic:.2}\n}}",
        machine_fields(),
        engine_par.threads()
    )
    .expect("write BENCH_engine.json");
    println!("wrote {}", path.display());
    // The acceptance floor is a hard gate: fail the smoke run (after the
    // JSON artifact is written) so CI catches hot-path regressions.
    if speedup < 2.0 {
        eprintln!("FAIL: batched speedup {speedup:.2}x below the 2x floor");
        std::process::exit(1);
    }
}
