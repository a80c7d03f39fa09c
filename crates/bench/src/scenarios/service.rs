//! E17 — estimation as a service: resident sketch store under a k sweep.
//!
//! The paper's estimators are built for exactly this deployment: a store
//! keeps one coordinated bottom-k sketch per instance (memory `O(k)`
//! regardless of instance size), ingest streams items through the online
//! insert/evict path, and a live query names an ad-hoc group of instance
//! ids whose union the engine estimates from the sketches alone —
//! inverse-probability corrected through the conditioned inclusion
//! scales. This scenario stands the whole service up end to end: for each
//! k it ingests 100 000 instances into a [`SketchStore`], answers a fixed
//! panel of 2-group distinct-count queries, and records the estimate
//! error against the analytically known union sizes. One sweep unit
//! per k.
//!
//! The CSV carries only the deterministic error sweep (byte-identical at
//! every shard × worker geometry).
//!
//! A **distributed leg** rides the k = 32 unit: the same service stood
//! up over [`SketchStore::with_process_shards`] — `distributed_procs()`
//! spawned `shard_worker` child processes — re-ingests a smaller
//! resident set over the pipe transport and answers a gathered query
//! panel, asserting every estimate is bit-identical to an in-process
//! reference store. Its CSV (`e17_service_dist.csv`) is therefore
//! byte-identical at every process count.
//!
//! This scenario measures no speed. The repository benchmark
//! (`perfbench/`) times the same paths: its `service` workload the
//! in-process ingest and group queries, its `churn` workload the ingest
//! and gathered queries over process shards.

use std::ops::Range;

use monotone_core::Result;
use monotone_engine::{CsvSpec, Engine, EngineQuery, FinishOut, Scenario, UnitOut};
use monotone_store::SketchStore;

use crate::{fnum, table::Table};

/// Sketch sizes swept, one unit each.
const KS: [usize; 4] = [8, 16, 32, 64];
/// Resident instances per unit (the acceptance floor is 10⁵).
const INSTANCES: u64 = 100_000;
/// Items per instance — more than every swept k, so every unit really
/// estimates (no sketch retains its whole instance).
const ITEMS: u64 = 80;
/// Key stride between consecutive instances' support windows.
const STRIDE: u64 = 14;
/// Seed-hash salt every sketch samples under.
const SALT: u64 = 0x5eed_0017;
/// Query panel size per unit.
const QUERIES: usize = 200;
/// Partner distances of the 2-groups, cycled across the panel.
const DISTANCES: [u64; 4] = [1, 2, 3, 5];
/// The unit whose k carries the distributed leg.
const DIST_K: usize = 32;
/// Resident instances of the distributed leg (smaller than the main
/// sweep: every item crosses a process boundary).
const DIST_INSTANCES: u64 = 20_000;
/// Gathered queries answered against the process-sharded store.
const DIST_QUERIES: usize = 64;

/// The support window of instance `id`: keys `[id·S, id·S + ITEMS)`,
/// weight `1 + (key mod 3)`.
fn window(id: u64) -> impl Iterator<Item = (u64, f64)> {
    let base = id * STRIDE;
    (base..base + ITEMS).map(|key| (key, 1.0 + (key % 3) as f64))
}

/// Exact distinct count of the union of instances `id` and `id + d`:
/// two length-`ITEMS` windows offset by `d·STRIDE` keys.
fn union_truth(d: u64) -> f64 {
    (ITEMS + (d * STRIDE).min(ITEMS)) as f64
}

/// The query panel: `(left instance id, partner distance)` pairs spread
/// deterministically across the resident id range.
fn panel() -> Vec<(u64, u64)> {
    (0..QUERIES)
        .map(|j| {
            let d = DISTANCES[j % DISTANCES.len()];
            let a = (j as u64 * 487) % (INSTANCES - DISTANCES[DISTANCES.len() - 1] - 1);
            (a, d)
        })
        .collect()
}

/// The distributed leg: stand the same service up over
/// `distributed_procs()` child-process shards, ingest
/// [`DIST_INSTANCES`] instances over the pipe, answer a gathered query
/// panel, and verify every estimate against an in-process reference
/// store built from the same stream. Estimates are required to be
/// bit-identical — the transport must be invisible — which is what
/// keeps the dist CSV byte-identical at every process count. Returns
/// whether they were, and the row for `e17_service_dist.csv`.
fn dist_leg(engine: &Engine, query: &EngineQuery) -> Result<(bool, Vec<String>)> {
    let procs = crate::distributed_procs();
    let remote = SketchStore::with_process_shards(DIST_K, SALT, procs)?;
    let local = SketchStore::new(DIST_K, SALT);
    for id in 0..DIST_INSTANCES {
        remote.ingest_all(id, window(id))?;
        local.ingest_all(id, window(id))?;
    }

    let mut matches_local = true;
    let mut sum_truth = 0.0;
    let mut sum_est = 0.0;
    for j in 0..DIST_QUERIES {
        let d = DISTANCES[j % DISTANCES.len()];
        let a = (j as u64 * 487) % (DIST_INSTANCES - DISTANCES[DISTANCES.len() - 1] - 1);
        let group = [a, a + d];
        let est = remote.query_group(engine, query, &group)?;
        matches_local &= est == local.query_group(engine, query, &group)?;
        sum_truth += union_truth(d);
        sum_est += est.estimates[0];
    }
    let n = DIST_QUERIES as f64;
    let row = vec![
        format!("{DIST_K}"),
        format!("{DIST_INSTANCES}"),
        format!("{DIST_QUERIES}"),
        format!("{}", sum_truth / n),
        format!("{}", sum_est / n),
        format!("{}", u8::from(matches_local)),
    ];
    Ok((matches_local, row))
}

pub struct Service;

impl Scenario for Service {
    fn name(&self) -> &'static str {
        "service"
    }

    fn description(&self) -> &'static str {
        "E17: resident sketch store, k vs estimate error, local and over process shards"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![
            CsvSpec::new(
                "e17_service.csv",
                &[
                    "k",
                    "resident_instances",
                    "queries",
                    "mean_truth",
                    "mean_estimate",
                    "mean_rel_error",
                    "nrmse",
                ],
            ),
            CsvSpec::new(
                "e17_service_dist.csv",
                &[
                    "k",
                    "resident_instances",
                    "gathered_queries",
                    "mean_truth",
                    "mean_estimate",
                    "matches_local",
                ],
            ),
        ]
    }

    fn units(&self) -> usize {
        KS.len()
    }

    fn run_shard(&self, units: Range<usize>, _engine: &Engine) -> Result<Vec<UnitOut>> {
        // Store queries run single-threaded: each query is one tiny
        // union, too small to fan out over a pool.
        let engine = Engine::with_threads(1);
        let query = EngineQuery::distinct_k(2, 1.0);
        let panel = panel();
        units
            .map(|unit| {
                let k = KS[unit];
                let store = SketchStore::new(k, SALT);
                for id in 0..INSTANCES {
                    store.ingest_all(id, window(id))?;
                }

                let mut sum_truth = 0.0;
                let mut sum_est = 0.0;
                let mut sum_rel = 0.0;
                let mut sum_sq = 0.0;
                for &(a, d) in &panel {
                    let truth = union_truth(d);
                    let e = store.query_group(&engine, &query, &[a, a + d])?.estimates[0];
                    sum_truth += truth;
                    sum_est += e;
                    sum_rel += (e - truth).abs() / truth;
                    sum_sq += (e - truth) * (e - truth);
                }
                let n = panel.len() as f64;
                let mean_truth = sum_truth / n;
                let mean_est = sum_est / n;
                let mean_rel = sum_rel / n;
                let nrmse = (sum_sq / n).sqrt() / mean_truth;

                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        format!("{k}"),
                        format!("{INSTANCES}"),
                        format!("{QUERIES}"),
                        format!("{mean_truth}"),
                        format!("{mean_est}"),
                        format!("{mean_rel}"),
                        format!("{nrmse}"),
                    ],
                );
                out.show(
                    0,
                    vec![
                        format!("{k}"),
                        fnum(mean_truth),
                        fnum(mean_est),
                        fnum(mean_rel),
                        fnum(nrmse),
                    ],
                );
                // The distributed leg rides exactly one unit of the
                // sweep; other units report a match.
                let mut dist_ok = true;
                if k == DIST_K {
                    let (matches_local, row) = dist_leg(&engine, &query)?;
                    dist_ok = matches_local;
                    out.row(1, row);
                }

                // Metrics layout consumed by finish.
                out.metric(mean_rel) // 0
                    .metric(nrmse) // 1
                    .metric(f64::from(u8::from(dist_ok))); // 2
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            &format!(
                "E17: sketch-store service, {INSTANCES} resident instances, \
                 {QUERIES} distinct-count queries per k"
            ),
            &["k", "mean truth", "mean estimate", "mean rel err", "nrmse"],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }

        // Deterministic paper-shape checks: every estimate panel is
        // finite, and the error at the largest k improves on the
        // smallest (the bottom-k convergence the paper promises).
        let finite = outs
            .iter()
            .all(|o| o.metrics[0].is_finite() && o.metrics[1].is_finite());
        let first = outs.first().map_or(f64::NAN, |o| o.metrics[1]);
        let last = outs.last().map_or(f64::NAN, |o| o.metrics[1]);
        let converges = last < first;

        let dist_ok = outs.iter().all(|o| o.metrics[2] == 1.0);

        FinishOut::new(
            vec![
                t.render(),
                format!(
                    "\ndistributed leg (k = {DIST_K}, {} process shards): {DIST_INSTANCES} \
                     instances ingested over the pipe, {DIST_QUERIES} gathered queries, \
                     every estimate bit-identical to the in-process reference ({dist_ok})",
                    crate::distributed_procs(),
                ),
                format!(
                    "paper-shape checks: errors finite at every k ({finite}), \
                     nrmse shrinks from k={} to k={} ({converges})",
                    KS[0],
                    KS[KS.len() - 1],
                ),
            ],
            finite && converges && dist_ok,
        )
    }
}
