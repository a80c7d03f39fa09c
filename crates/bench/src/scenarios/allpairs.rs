//! E18 — all-pairs similarity join over coordinated sketches, at 10⁶
//! instances.
//!
//! The paper's coordinated samples exist so that *any* pair of instances
//! can be compared after the fact; this scenario runs the production
//! shape of that promise — *find all similar pairs among N instances* —
//! as a pipeline sharing one prepared pool per sweep unit:
//!
//! 1. **Parallel blocked index build** (sub-quadratic candidates):
//!    ingest the pool into a [`SketchStore`] (one bottom-k sketch per
//!    instance, shared salt) and build a banded LSH index over the
//!    resident sketches with [`SketchStore::band_index_with`] —
//!    snapshot-under-lock / hash-outside-lock, fanned over the engine's
//!    worker pool in contiguous blocks, per-worker partial indexes
//!    merged deterministically (output bit-identical at every worker
//!    count). Band signatures derive from the shared-seed coordinated
//!    ranks, so identical items hash identically across instances with
//!    no extra data passes.
//! 2. **Streaming extraction + bucket-batched verification** (O(block)
//!    memory): candidate pairs are never materialized as one global
//!    set. [`BandIndex::for_each_candidate_block`] streams them in
//!    fixed-size sorted blocks, and each block is re-estimated through
//!    the engine's pair path with the distinct-count (union) kernel;
//!    pairs whose support Jaccard `(|A| + |B| − U)/U` clears the
//!    similarity threshold are accepted. Peak resident candidate state
//!    is one block — the knob that lets N = 10⁶ (≈ 5·10¹¹ potential
//!    pairs) run in bounded memory.
//! 3. **Live incremental maintenance** (the service path): a fresh
//!    store with its live index enabled
//!    ([`SketchStore::enable_live_index`]) ingests a capped prefix of
//!    the pool, re-registering each instance's band signature on every
//!    retained-set change; the leg records the sustained observation
//!    rate with maintenance on, and checks the live index equals a
//!    from-scratch rebuild.
//!
//! The pool is [`workload::planted_pair_pool`] — `distinct_group_pool`
//! generalized to pool scale, N swept across 10⁴–10⁶ with a
//! near-duplicate pair planted every ten instances (J ≈ 0.82) amid
//! half-overlapping neighbors (J = ⅓, below threshold: realistic
//! candidates the verifier must reject). Recall is measured against the
//! brute-force exact join on a fixed 256-instance slice.
//!
//! A **distributed leg** rides the first unit (n = 10⁴): the same
//! live-enabled store stood up over
//! [`SketchStore::with_process_shards`] — `distributed_procs()` child
//! `shard_worker` processes — re-ingests the pool over the pipe
//! transport, builds the merged band index from worker-side partials,
//! and answers a panel of gathered `live_candidates_of` probes, all
//! asserted bit-identical to the in-process store. Its CSV
//! (`e18_allpairs_dist.csv`) is byte-identical at every process count.
//!
//! The CSVs carry only the deterministic join outcome (byte-identical
//! at every shard × worker geometry). `BENCH_allpairs.json` gets four
//! fields via [`FinishOut::bench_fields`], each gated by CI against the
//! committed record: the minimum slice `recall`, the
//! `peak_candidate_block` ceiling, and the two rates no workload of the
//! repository benchmark (`perfbench/`) covers — the live leg's
//! `updates_per_sec` (in-process re-registration alone) and the
//! distributed build's `dist_build_instances_per_sec` (partials shipped
//! over the pipe). The benchmark's `join` workload times the build,
//! extraction and verification; its `churn` workload the gathered live
//! probes.

use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;

use monotone_coord::instance::Instance;
use monotone_core::Result;
use monotone_engine::{
    workload, CsvSpec, Engine, EngineQuery, FinishOut, PairJob, Scenario, UnitOut,
};
use monotone_store::banding::{BandConfig, BandIndex};
use monotone_store::SketchStore;

use crate::{fnum, table::Table};

/// Pool sizes swept, one unit each: the full 10⁴–10⁶ range of the
/// generator.
const NS: [u64; 7] = [10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000];
/// Items per instance.
const ITEMS: u64 = 48;
/// Retained sketch entries per instance.
const K: usize = 32;
/// Band shape: 16 bands × 2 rows = 32 slots, S-curve midpoint 0.25.
const BANDS: usize = 16;
const ROWS: usize = 2;
/// A near-duplicate pair is planted every PERIOD instances.
const PERIOD: u64 = 10;
/// Similarity threshold of the join (planted ≈ 0.82, neighbors = ⅓).
const SIM_J: f64 = 0.5;
/// PPS scale τ* of the verification query: p = min(1, w/τ*), so most of
/// the weight lattice is sampled outright and union estimates are tight
/// enough to separate planted pairs from half-overlap neighbors.
const VERIFY_SCALE: f64 = 0.25;
/// Exact-join slice: recall is measured over all C(SLICE, 2) pairs.
const SLICE: u64 = 256;
/// Base salt; each unit offsets it for an independent randomization.
const SALT: u64 = 0x5eed_0018;
/// Candidate pairs per streamed verification block: the peak resident
/// candidate state, whatever N is.
const BLOCK: usize = 8_192;
/// The live-maintenance leg ingests at most this many instances (its
/// rate is per-observation; capping keeps the 10⁶ units affordable).
const LIVE_CAP: u64 = 100_000;
/// The unit (by pool size) that carries the distributed leg.
const DIST_N: u64 = 10_000;
/// Gathered `live_candidates_of` probes answered by the distributed
/// store and checked against the in-process index.
const DIST_PROBES: usize = 200;

/// Per-unit prepared state shared by all stages.
struct Prepared {
    pool: Vec<Instance>,
    salt: u64,
}

fn prepare(unit: usize) -> Prepared {
    Prepared {
        pool: workload::planted_pair_pool(NS[unit], ITEMS, PERIOD),
        salt: SALT + unit as u64,
    }
}

fn band_config(p: &Prepared) -> BandConfig {
    BandConfig::new(BANDS, ROWS, p.salt)
}

/// Stage 1: sketch the pool, then the parallel blocked index build over
/// the resident sketches.
fn stage_build(p: &Prepared, engine: &Engine) -> Result<BandIndex> {
    let store = SketchStore::new(K, p.salt);
    for (id, inst) in p.pool.iter().enumerate() {
        store.ingest_all(id as u64, inst.iter())?;
    }
    store.band_index_with(&band_config(p), engine)
}

/// Outcome of the streamed extract-and-verify pass over one unit.
#[derive(Default)]
struct Verified {
    /// Total candidate pairs streamed.
    candidates: usize,
    /// Largest single block handed to verification (the memory peak).
    peak_block: usize,
    /// Candidates whose *estimated* Jaccard clears the threshold.
    accepted: usize,
    /// Candidates whose *exact* Jaccard clears it (from the engine's
    /// exact union truth — the reference the estimates are judged by).
    exact: usize,
    /// Candidates where the two verdicts agree.
    agree: usize,
    /// Candidate pairs with both endpoints inside the recall slice.
    slice_pairs: Vec<(u64, u64)>,
}

impl Verified {
    fn agreement(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.agree as f64 / self.candidates as f64
        }
    }
}

/// Stage 2: stream the index's candidate pairs in [`BLOCK`]-sized
/// sorted blocks and verify each block through the engine's
/// distinct-count kernel, thresholding the implied support Jaccard.
/// Every pool instance holds exactly `ITEMS` items, so
/// `J = (2·ITEMS − U)/U` both for the estimate and for the exact truth.
/// No global candidate set is ever materialized.
fn stage_verify_streamed(p: &Prepared, index: &BandIndex, engine: &Engine) -> Result<Verified> {
    let query = EngineQuery::distinct(VERIFY_SCALE);
    let jaccard = |union: f64| (2.0 * ITEMS as f64 - union) / union;
    let mut v = Verified::default();
    let mut err: Option<monotone_core::Error> = None;
    index.for_each_candidate_block(BLOCK, |block| {
        if err.is_some() {
            return;
        }
        v.candidates += block.len();
        v.peak_block = v.peak_block.max(block.len());
        v.slice_pairs
            .extend(block.iter().filter(|&&(_, b)| b < SLICE).copied());
        let jobs: Vec<PairJob<'_>> = block
            .iter()
            .map(|&(a, b)| PairJob::new(&p.pool[a as usize], &p.pool[b as usize], p.salt))
            .collect();
        match engine.run(&jobs, &query) {
            Err(e) => err = Some(e),
            Ok(batch) => {
                for pair in &batch.pairs {
                    let est_similar = jaccard(pair.estimates[0]) >= SIM_J;
                    let exact_similar = jaccard(pair.truth) >= SIM_J;
                    v.accepted += usize::from(est_similar);
                    v.exact += usize::from(exact_similar);
                    v.agree += usize::from(est_similar == exact_similar);
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(v),
    }
}

/// Stage 3: the live-maintenance leg. A fresh live-enabled store
/// ingests the pool's first `min(n, LIVE_CAP)` instances — every
/// retained-set change re-registers that instance's band signature in
/// place — then the live index is checked against a from-scratch
/// rebuild. Returns `(observations, secs, live_ok)`.
fn stage_live(p: &Prepared) -> Result<(u64, f64, bool)> {
    let live_n = (p.pool.len() as u64).min(LIVE_CAP) as usize;
    let cfg = band_config(p);
    let mut store = SketchStore::new(K, p.salt);
    store.enable_live_index(cfg)?;
    let start = Instant::now();
    for (id, inst) in p.pool[..live_n].iter().enumerate() {
        store.ingest_all(id as u64, inst.iter())?;
    }
    let secs = start.elapsed().as_secs_f64();
    let live = store.live_index()?.expect("live enabled");
    let rebuilt = store.band_index_with(&cfg, &Engine::with_threads(1))?;
    let live_ok =
        live.len() == rebuilt.len() && live.candidate_pairs() == rebuilt.candidate_pairs();
    Ok((live_n as u64 * ITEMS, secs, live_ok))
}

/// Outcome of the distributed leg.
struct DistOut {
    /// Wall seconds of the distributed (worker-side partials + merge)
    /// band build.
    build_secs: f64,
    /// Distributed index and every gathered probe were bit-identical to
    /// the in-process store's.
    matches_local: bool,
    /// Deterministic CSV row for `e18_allpairs_dist.csv`.
    row: Vec<String>,
}

/// Stage 4 (first unit only): the distributed leg. The pool goes
/// through a live-enabled process-sharded store; the merged band build
/// (each worker hashes its residents and ships a partial) and a panel
/// of gathered `live_candidates_of` probes are checked bit-identical
/// against an in-process store fed the same stream.
fn stage_dist(p: &Prepared, engine: &Engine) -> Result<DistOut> {
    let procs = crate::distributed_procs();
    let cfg = band_config(p);
    let mut remote = SketchStore::with_process_shards(K, p.salt, procs)?;
    remote.enable_live_index(cfg)?;
    let mut local = SketchStore::new(K, p.salt);
    local.enable_live_index(cfg)?;
    for (id, inst) in p.pool.iter().enumerate() {
        remote.ingest_all(id as u64, inst.iter())?;
        local.ingest_all(id as u64, inst.iter())?;
    }

    let build_start = Instant::now();
    let dist_index = remote.band_index_with(&cfg, engine)?;
    let build_secs = build_start.elapsed().as_secs_f64();
    let reference = local.band_index_with(&cfg, &Engine::with_threads(1))?;
    let mut matches_local = dist_index.len() == reference.len()
        && dist_index.candidate_pairs() == reference.candidate_pairs();

    let n = p.pool.len() as u64;
    for j in 0..DIST_PROBES {
        let id = (j as u64 * 131) % n;
        matches_local &= remote.live_candidates_of(id)? == local.live_candidates_of(id)?;
    }

    Ok(DistOut {
        build_secs,
        matches_local,
        row: vec![
            format!("{n}"),
            format!("{}", dist_index.candidate_pairs().len()),
            format!("{DIST_PROBES}"),
            format!("{}", u8::from(matches_local)),
        ],
    })
}

/// The brute-force exact join over the pool's first [`SLICE`] instances:
/// every pair whose exact support Jaccard clears the threshold.
fn exact_slice_join(pool: &[Instance]) -> Vec<(u64, u64)> {
    let slice = pool.len().min(SLICE as usize);
    let keys: Vec<Vec<u64>> = pool[..slice].iter().map(|i| i.keys().collect()).collect();
    let mut out = Vec::new();
    for a in 0..slice {
        for b in a + 1..slice {
            let mut shared = 0usize;
            let (mut i, mut j) = (0usize, 0usize);
            while i < keys[a].len() && j < keys[b].len() {
                match keys[a][i].cmp(&keys[b][j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            let union = keys[a].len() + keys[b].len() - shared;
            if shared as f64 / union as f64 >= SIM_J {
                out.push((a as u64, b as u64));
            }
        }
    }
    out
}

pub struct AllPairs;

impl Scenario for AllPairs {
    fn name(&self) -> &'static str {
        "allpairs"
    }

    fn description(&self) -> &'static str {
        "E18: all-pairs similarity join, banded LSH candidates + engine verification"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![
            CsvSpec::new(
                "e18_allpairs.csv",
                &[
                    "n",
                    "candidate_pairs",
                    "candidate_frac",
                    "verified_similar",
                    "exact_similar",
                    "verify_agreement",
                    "slice_similar",
                    "slice_found",
                    "recall",
                ],
            ),
            CsvSpec::new(
                "e18_allpairs_dist.csv",
                &["n", "candidate_pairs", "gathered_probes", "matches_local"],
            ),
        ]
    }

    fn units(&self) -> usize {
        NS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        units
            .map(|unit| {
                let n = NS[unit];
                let prepared = prepare(unit);
                let index = stage_build(&prepared, engine)?;
                let verified = stage_verify_streamed(&prepared, &index, engine)?;
                let (live_updates, live_secs, live_ok) = stage_live(&prepared)?;

                // Recall against the brute-force slice join, off the
                // streamed slice-local candidates (both endpoints are
                // below SLICE, so the slice subset is complete).
                let similar = exact_slice_join(&prepared.pool);
                let cand_set: BTreeSet<(u64, u64)> = verified.slice_pairs.iter().copied().collect();
                let found = similar.iter().filter(|p| cand_set.contains(p)).count();
                let recall = found as f64 / similar.len() as f64;
                let frac = verified.candidates as f64 / (n as f64 * (n as f64 - 1.0) / 2.0);

                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        format!("{n}"),
                        format!("{}", verified.candidates),
                        format!("{frac}"),
                        format!("{}", verified.accepted),
                        format!("{}", verified.exact),
                        format!("{}", verified.agreement()),
                        format!("{}", similar.len()),
                        format!("{found}"),
                        format!("{recall}"),
                    ],
                );
                out.show(
                    0,
                    vec![
                        format!("{n}"),
                        format!("{}", verified.candidates),
                        fnum(frac),
                        format!("{}", verified.accepted),
                        format!("{}", verified.exact),
                        fnum(verified.agreement()),
                        format!("{found}/{}", similar.len()),
                        fnum(recall),
                    ],
                );
                // The distributed leg rides exactly one unit of the
                // sweep; other units contribute neutral metrics.
                let dist = if n == DIST_N {
                    Some(stage_dist(&prepared, engine)?)
                } else {
                    None
                };
                if let Some(d) = &dist {
                    out.row(1, d.row.clone());
                }

                // Metrics layout consumed by finish: the deterministic
                // join shape, then the two measured legs (the
                // distributed one zero off its unit).
                out.metric(recall) // 0
                    .metric(verified.agreement()) // 1
                    .metric(frac) // 2
                    .metric(verified.peak_block as f64) // 3
                    .metric(if live_ok { 1.0 } else { 0.0 }) // 4
                    .metric(live_updates as f64) // 5
                    .metric(live_secs) // 6
                    .metric(if dist.is_some() { n as f64 } else { 0.0 }) // 7
                    .metric(dist.as_ref().map_or(0.0, |d| d.build_secs)) // 8
                    .metric(
                        dist.as_ref()
                            .map_or(1.0, |d| f64::from(u8::from(d.matches_local))),
                    ); // 9
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            &format!(
                "E18: all-pairs similarity join, {BANDS}×{ROWS} bands over k={K} sketches, \
                 J ≥ {SIM_J} (planted pair every {PERIOD} instances)"
            ),
            &[
                "n",
                "candidates",
                "cand frac",
                "verified",
                "exact",
                "agreement",
                "slice recall",
                "recall",
            ],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }

        // Deterministic paper-shape checks: the slice recall floor the
        // acceptance criteria pin, near-perfect verifier agreement with
        // the exact join, sub-quadratic candidate volume at scale, and
        // the live index never diverging from a rebuild.
        let recall_min = outs
            .iter()
            .map(|o| o.metrics[0])
            .fold(f64::INFINITY, f64::min);
        let recall_ok = recall_min >= 0.9;
        let agree_ok = outs.iter().all(|o| o.metrics[1] >= 0.98);
        let subquad_ok = outs.iter().all(|o| o.metrics[2] < 1e-3);
        let peak_block: f64 = outs.iter().map(|o| o.metrics[3]).fold(0.0, f64::max);
        let live_ok = outs.iter().all(|o| o.metrics[4] == 1.0);
        let dist_ok = outs.iter().all(|o| o.metrics[9] == 1.0);

        // The two measured legs, for the timing record.
        let sum = |m: usize| -> f64 { outs.iter().map(|o| o.metrics[m]).sum() };
        let update_rate = sum(5) / sum(6).max(1e-9);
        let dist_build_rate = sum(7) / sum(8).max(1e-9);

        FinishOut::new(
            vec![
                t.render(),
                format!(
                    "\nextraction streamed in ≤{BLOCK}-pair blocks (peak {}); live \
                     maintenance {:.2}M observations/s over {} observations, live ≡ \
                     rebuild at every unit ({live_ok})",
                    peak_block as u64,
                    update_rate / 1e6,
                    sum(5) as u64,
                ),
                format!(
                    "distributed leg (n = {DIST_N}, {} process shards): merged band build \
                     {:.2}M instances/s from worker-side partials; index and {DIST_PROBES} \
                     gathered live probes bit-identical to the in-process store ({dist_ok})",
                    crate::distributed_procs(),
                    dist_build_rate / 1e6,
                ),
                format!(
                    "paper-shape checks: slice recall ≥ 0.9 at every n (min {}: {recall_ok}), \
                     verifier agrees with the exact join ≥ 98% ({agree_ok}), \
                     candidates stay under 0.1% of all pairs ({subquad_ok})",
                    fnum(recall_min),
                ),
            ],
            recall_ok && agree_ok && subquad_ok && live_ok && dist_ok,
        )
        .with_bench_field("recall", recall_min)
        .with_bench_field("peak_candidate_block", peak_block)
        .with_bench_field("updates_per_sec", update_rate)
        .with_bench_field("dist_build_instances_per_sec", dist_build_rate)
    }
}
