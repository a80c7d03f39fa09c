//! The sharded scenario runner.
//!
//! A [`Runner`] executes a [`Scenario`] by splitting its sweep units into
//! deterministic contiguous shards ([`chunk_bounds`]) and letting the
//! engine's workers claim shards one at a time from a shared counter, so
//! skewed shards never serialize the sweep behind a static split. Each
//! shard's output lands in the slot of its index, so every CSV artifact
//! is byte-identical for every shard and worker count.
//!
//! Each run also produces a [`ScenarioTiming`] record, serialized by the
//! driver as `results/BENCH_<scenario>.json` — the same machine-readable
//! perf-record convention as `results/BENCH_engine.json`, extending the
//! CI perf trajectory over the whole experiment suite.
//!
//! # Examples
//!
//! ```
//! use monotone_bench::{CsvSpec, Runner, Scenario, UnitOut};
//! use monotone_engine::Engine;
//!
//! struct Doubles;
//! impl Scenario for Doubles {
//!     fn name(&self) -> &'static str {
//!         "doubles"
//!     }
//!     fn description(&self) -> &'static str {
//!         "2x over a tiny sweep"
//!     }
//!     fn artifacts(&self) -> Vec<CsvSpec> {
//!         vec![CsvSpec::new("doubles.csv", &["x", "two_x"])]
//!     }
//!     fn units(&self) -> usize {
//!         5
//!     }
//!     fn run_shard(
//!         &self,
//!         units: std::ops::Range<usize>,
//!         _engine: &Engine,
//!     ) -> monotone_core::Result<Vec<UnitOut>> {
//!         Ok(units
//!             .map(|x| {
//!                 let mut out = UnitOut::default();
//!                 out.row(0, vec![format!("{x}"), format!("{}", 2 * x)]);
//!                 out
//!             })
//!             .collect())
//!     }
//! }
//!
//! let reference = Runner::new(Engine::with_threads(1))
//!     .with_shards(1)
//!     .run(&Doubles)
//!     .unwrap();
//! for shards in [2, 3, 5] {
//!     let run = Runner::new(Engine::with_threads(2))
//!         .with_shards(shards)
//!         .run(&Doubles)
//!         .unwrap();
//!     assert_eq!(run.artifacts[0].rows, reference.artifacts[0].rows);
//!     assert!(run.timing.units_per_sec > 0.0);
//! }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use monotone_core::Result;
use monotone_engine::{chunk_bounds, Engine};

use crate::scenario::{CsvSpec, Scenario, UnitOut};

/// A fully assembled CSV artifact: its spec plus the rows concatenated in
/// unit order.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvArtifact {
    /// File name and headers.
    pub spec: CsvSpec,
    /// Data rows, in sweep-unit order.
    pub rows: Vec<Vec<String>>,
}

/// Machine-readable timing of one scenario run — the per-scenario entry
/// of the CI perf trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioTiming {
    /// Number of sweep units executed.
    pub units: usize,
    /// Number of shards the sweep was split into.
    pub shards: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Wall-clock seconds for the sweep plus aggregation.
    pub elapsed_secs: f64,
    /// Sweep units per second (always positive: the elapsed time is
    /// clamped away from zero).
    pub units_per_sec: f64,
}

/// A completed scenario run: assembled artifacts, the aggregated report,
/// and the timing record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Scenario name (the `BENCH_<name>.json` stem).
    pub name: String,
    /// CSV artifacts in declaration order.
    pub artifacts: Vec<CsvArtifact>,
    /// Report lines from [`Scenario::finish`].
    pub lines: Vec<String>,
    /// Whether the scenario's paper-shape checks passed.
    pub ok: bool,
    /// Scenario-contributed numeric fields for the timing record
    /// ([`FinishOut::bench_fields`](crate::FinishOut)).
    pub bench_fields: Vec<(String, f64)>,
    /// Timing record.
    pub timing: ScenarioTiming,
}

impl ScenarioRun {
    /// The timing record as JSON, following the `BENCH_engine.json`
    /// schema convention (a flat object of `bench`/`workload` identifiers,
    /// the [machine fields](crate::machine_fields), and numeric rate
    /// fields). Scenario-contributed
    /// [`bench_fields`](ScenarioRun::bench_fields) are spliced in after
    /// the fixed runner fields.
    pub fn timing_json(&self) -> String {
        let extra: String = self
            .bench_fields
            .iter()
            .map(|(key, value)| format!("  \"{key}\": {value:.3},\n"))
            .collect();
        format!(
            "{{\n  \"bench\": \"scenario_{name}\",\n  \"workload\": \"{name}\",\n{machine}  \"units\": {units},\n  \"shards\": {shards},\n  \"workers\": {workers},\n  \"elapsed_secs\": {elapsed:.6},\n  \"units_per_sec\": {rate:.3},\n{extra}  \"checks_ok\": {ok}\n}}\n",
            name = self.name,
            machine = crate::machine_fields(),
            units = self.timing.units,
            shards = self.timing.shards,
            workers = self.timing.workers,
            elapsed = self.timing.elapsed_secs,
            rate = self.timing.units_per_sec,
            ok = self.ok,
        )
    }
}

/// Executes scenarios over the engine's worker count with deterministic
/// sharding.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    engine: Engine,
    shards: Option<usize>,
}

impl Runner {
    /// A runner over `engine` with automatic shard sizing (two shards per
    /// worker, capped at the unit count — enough slack for the claiming
    /// workers to absorb moderately skewed shards).
    pub fn new(engine: Engine) -> Runner {
        Runner {
            engine,
            shards: None,
        }
    }

    /// Fixes the shard count (clamped to the unit count at run time).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: usize) -> Runner {
        assert!(shards > 0, "runner needs at least one shard");
        self.shards = Some(shards);
        self
    }

    /// Runs the scenario: shard the sweep, let the workers claim the
    /// shards, reassemble unit outputs in unit order, aggregate.
    ///
    /// # Errors
    ///
    /// Returns the first error any shard reports.
    ///
    /// # Panics
    ///
    /// Panics if the scenario misdeclares itself: a shard returns the
    /// wrong number of unit outputs, or a unit row references an artifact
    /// index out of range.
    pub fn run(&self, scenario: &dyn Scenario) -> Result<ScenarioRun> {
        let units = scenario.units();
        let threads = self.engine.threads();
        let shards = self.shards.unwrap_or(threads.saturating_mul(2));
        let ranges: Vec<std::ops::Range<usize>> =
            chunk_bounds(units, shards.clamp(1, units.max(1)))
                .into_iter()
                .map(|(lo, hi)| lo..hi)
                .collect();

        // The engine handed to run_shard: when several shards run
        // concurrently, divide the worker budget between the shard level
        // and the per-shard engine batches so nested pools never
        // oversubscribe the machine (results are thread-count invariant,
        // so this only affects scheduling, never output).
        let outer = ranges.len().clamp(1, threads);
        let inner = Engine::with_threads((threads / outer).max(1));

        let start = Instant::now();
        let shard_outs = map_claimed(outer, &ranges, |r| scenario.run_shard(r.clone(), &inner));

        let mut outs: Vec<UnitOut> = Vec::with_capacity(units);
        for (range, shard) in ranges.iter().zip(shard_outs) {
            let shard = shard?;
            assert_eq!(
                shard.len(),
                range.len(),
                "scenario {:?} returned {} outputs for shard {range:?}",
                scenario.name(),
                shard.len(),
            );
            outs.extend(shard);
        }

        let specs = scenario.artifacts();
        let mut artifacts: Vec<CsvArtifact> = specs
            .into_iter()
            .map(|spec| CsvArtifact {
                spec,
                rows: Vec::new(),
            })
            .collect();
        for out in &outs {
            for (ai, row) in &out.rows {
                artifacts
                    .get_mut(*ai)
                    .unwrap_or_else(|| {
                        panic!(
                            "scenario {:?}: artifact index {ai} out of range",
                            scenario.name()
                        )
                    })
                    .rows
                    .push(row.clone());
            }
        }

        let fin = scenario.finish(&outs);
        let elapsed_secs = start.elapsed().as_secs_f64();
        let timing = ScenarioTiming {
            units,
            shards: ranges.len(),
            workers: threads,
            elapsed_secs,
            units_per_sec: units.max(1) as f64 / elapsed_secs.max(1e-9),
        };
        Ok(ScenarioRun {
            name: scenario.name().to_owned(),
            artifacts,
            lines: fin.lines,
            ok: fin.ok,
            bench_fields: fin.bench_fields,
            timing,
        })
    }
}

/// Applies `f` to every item on `workers` scoped threads that claim item
/// indices from a shared counter, returning the results in input order.
/// Claiming instead of a static split keeps skewed item costs from
/// serializing behind the slowest chunk; each result is put back at its
/// index, so the output never depends on the schedule. One worker (or
/// one item) runs inline.
fn map_claimed<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut claimed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // results come back through the joined threads.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return got;
                        };
                        got.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("runner worker panicked"))
            .collect()
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    claimed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FinishOut;

    /// Skewed synthetic scenario: unit cost grows with index, output is a
    /// pure function of the index.
    struct Skewed {
        units: usize,
    }

    impl Scenario for Skewed {
        fn name(&self) -> &'static str {
            "skewed"
        }
        fn description(&self) -> &'static str {
            "skewed unit costs"
        }
        fn artifacts(&self) -> Vec<CsvSpec> {
            vec![
                CsvSpec::new("a.csv", &["i", "v"]),
                CsvSpec::new("b.csv", &["i"]),
            ]
        }
        fn units(&self) -> usize {
            self.units
        }
        fn run_shard(
            &self,
            units: std::ops::Range<usize>,
            _engine: &Engine,
        ) -> Result<Vec<UnitOut>> {
            Ok(units
                .map(|i| {
                    // Skew: quadratic busy work in the unit index.
                    let mut acc = 0u64;
                    for j in 0..(i * i) as u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(j);
                    }
                    let mut out = UnitOut::default();
                    out.row(0, vec![format!("{i}"), format!("{}", acc % 97)]);
                    if i % 2 == 0 {
                        out.row(1, vec![format!("{i}")]);
                    }
                    out.metric(i as f64);
                    out
                })
                .collect())
        }
        fn finish(&self, outs: &[UnitOut]) -> FinishOut {
            let sum: f64 = outs.iter().flat_map(|o| o.metrics.iter()).sum();
            FinishOut::new(vec![format!("sum {sum}")], true).with_bench_field("metric_sum", sum)
        }
    }

    #[test]
    fn identical_across_shard_and_worker_counts() {
        let scenario = Skewed { units: 23 };
        let reference = Runner::new(Engine::with_threads(1))
            .with_shards(1)
            .run(&scenario)
            .unwrap();
        assert_eq!(reference.artifacts[0].rows.len(), 23);
        assert_eq!(reference.artifacts[1].rows.len(), 12);
        for workers in [1, 2, 4] {
            for shards in [1, 2, 3, 7, 23, 40] {
                let run = Runner::new(Engine::with_threads(workers))
                    .with_shards(shards)
                    .run(&scenario)
                    .unwrap();
                assert_eq!(
                    run.artifacts, reference.artifacts,
                    "workers={workers} shards={shards}"
                );
                assert_eq!(run.lines, reference.lines);
                assert_eq!(run.timing.shards, shards.min(23));
                assert!(run.timing.units_per_sec > 0.0);
            }
        }
    }

    #[test]
    fn empty_scenario_runs() {
        let scenario = Skewed { units: 0 };
        let run = Runner::new(Engine::with_threads(4)).run(&scenario).unwrap();
        assert!(run.artifacts[0].rows.is_empty());
        assert_eq!(run.timing.units, 0);
        assert!(run.timing.units_per_sec > 0.0);
    }

    #[test]
    fn timing_json_is_schema_shaped() {
        let scenario = Skewed { units: 3 };
        let run = Runner::new(Engine::with_threads(2)).run(&scenario).unwrap();
        let json = run.timing_json();
        for key in [
            "\"bench\": \"scenario_skewed\"",
            "\"workload\": \"skewed\"",
            "\"units\": 3",
            "\"elapsed_secs\"",
            "\"units_per_sec\"",
            "\"metric_sum\": 3.000",
            "\"checks_ok\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Scenario fields sit between the fixed fields and the verdict.
        assert!(json.find("\"units_per_sec\"").unwrap() < json.find("\"metric_sum\"").unwrap());
        assert!(json.find("\"metric_sum\"").unwrap() < json.find("\"checks_ok\"").unwrap());
    }

    #[test]
    fn map_claimed_keeps_input_order() {
        let items: Vec<u64> = (0..317).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                map_claimed(workers, &items, |&x| x * 3 + 1),
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn map_claimed_skewed_costs_stay_ordered() {
        // Quadratic cost in the index: late items dominate. The claiming
        // workers must still return results in input order.
        let items: Vec<usize> = (0..64).collect();
        let out = map_claimed(4, &items, |&n| {
            let mut acc = 0u64;
            for j in 0..(n * n * 100) as u64 {
                acc = acc.wrapping_add(j ^ (acc >> 3));
            }
            (n, acc)
        });
        for (i, (n, _)) in out.iter().enumerate() {
            assert_eq!(i, *n);
        }
    }

    #[test]
    fn map_claimed_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_claimed(4, &empty, |&x| x).is_empty());
        assert_eq!(map_claimed(4, &[5u32], |&x| x + 1), vec![6]);
    }
}
