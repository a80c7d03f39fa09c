//! E10 — sketch-based closeness similarity in social networks (paper,
//! Section 7 / companion \[9\]).
//!
//! Builds all-distances sketches over a preferential-attachment graph (the
//! social-network stand-in), estimates closeness similarity
//! `sim(a,b) = Σ α(max d) / Σ α(min d)` with per-item L\* estimates under
//! HIP thresholds, and reports the error against exact Dijkstra truth as
//! the sketch parameter k grows. One sweep unit per (graph, k) cell; the
//! graphs and exact truths are scenario state prepared once. Within a
//! unit, the (randomization, node-pair) similarity estimates are
//! evaluated over the engine's worker pool.

use std::ops::Range;

use monotone_coord::seed::SeedHasher;
use monotone_core::Result;
use monotone_datagen::graphs::{grid, preferential_attachment};
use monotone_engine::Engine;
use monotone_sketches::ads::{build_all_ads, Ads};
use monotone_sketches::closeness::{exact_closeness, ClosenessEstimator};
use monotone_sketches::graph::Graph;
use rand::SeedableRng;

use crate::{fnum, stats::mean, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const KS: [usize; 5] = [4, 8, 16, 32, 64];
const SALTS: u64 = 3;

fn alpha(d: f64) -> f64 {
    if d.is_finite() {
        (-d).exp()
    } else {
        0.0
    }
}

struct GraphCase {
    name: &'static str,
    graph: Graph,
    pairs: Vec<(u32, u32)>,
    truths: Vec<f64>,
}

/// Scenario state built lazily on first use (registry construction and
/// `--list` stay free): both graphs and their exact closeness-similarity
/// truths.
#[derive(Default)]
pub struct Similarity {
    cases: std::sync::OnceLock<Vec<GraphCase>>,
}

/// Number of graph cases (fixed; `units()` must not force construction).
const CASES: usize = 2;

impl Similarity {
    pub fn new() -> Similarity {
        Similarity::default()
    }

    fn cases(&self) -> &[GraphCase] {
        self.cases.get_or_init(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            // Both graphs draw from one seeded stream, in this order.
            let pa = preferential_attachment(600, 3, 0.5, 1.5, &mut rng);
            let gr = grid(20, 20, 0.5, 1.5, &mut rng);
            // Pairs at varying similarity: neighbors, 2-hop-ish, random.
            let pairs_pa: Vec<(u32, u32)> =
                vec![(0, 1), (0, 5), (10, 11), (17, 300), (250, 251), (40, 520)];
            let pairs_grid: Vec<(u32, u32)> =
                vec![(0, 1), (0, 21), (105, 106), (0, 399), (190, 210), (45, 267)];
            vec![
                GraphCase::new("preferential-attachment", pa, pairs_pa),
                GraphCase::new("grid 20x20", gr, pairs_grid),
            ]
        })
    }
}

impl GraphCase {
    fn new(name: &'static str, graph: Graph, pairs: Vec<(u32, u32)>) -> GraphCase {
        let truths = pairs
            .iter()
            .map(|&(a, b)| exact_closeness(&graph, a, b, &alpha))
            .collect();
        GraphCase {
            name,
            graph,
            pairs,
            truths,
        }
    }
}

impl Scenario for Similarity {
    fn name(&self) -> &'static str {
        "similarity"
    }

    fn description(&self) -> &'static str {
        "E10: sketch-based closeness similarity error vs sketch parameter k"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e10_similarity.csv",
            &["graph", "k", "mean_abs_error", "mean_sketch_size"],
        )]
    }

    fn units(&self) -> usize {
        CASES * KS.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        units
            .map(|unit| {
                let case = &self.cases()[unit / KS.len()];
                let k = KS[unit % KS.len()];
                // Sampling stays with the scenario: one sketch set per
                // randomization, sizes recorded as they are built.
                let mut sizes = Vec::new();
                let sketch_sets: Vec<Vec<Ads>> = (0..SALTS)
                    .map(|salt| {
                        let seeder = SeedHasher::new(97 + salt);
                        let sketches = build_all_ads(&case.graph, k, &seeder);
                        sizes.push(
                            sketches.iter().map(|s| s.len() as f64).sum::<f64>()
                                / sketches.len() as f64,
                        );
                        sketches
                    })
                    .collect();

                // One estimator per randomization; every (randomization,
                // node pair) estimate is differenced against the truth.
                let ests: Vec<_> = sketch_sets
                    .iter()
                    .map(|sketches| ClosenessEstimator::new(sketches, k, alpha as fn(f64) -> f64))
                    .collect();
                let cells: Vec<(usize, usize)> = (0..ests.len())
                    .flat_map(|salt| (0..case.pairs.len()).map(move |pi| (salt, pi)))
                    .collect();
                let errs = engine
                    .map_chunked(&cells, |_, &(salt, pi)| {
                        let (a, b) = case.pairs[pi];
                        Ok((ests[salt].estimate(a, b)? - case.truths[pi]).abs())
                    })
                    .into_iter()
                    .collect::<Result<Vec<f64>>>()?;

                let (e, sz) = (mean(&errs), mean(&sizes));
                let mut out = UnitOut::default();
                out.row(
                    0,
                    vec![
                        case.name.to_owned(),
                        format!("{k}"),
                        format!("{e}"),
                        format!("{sz}"),
                    ],
                );
                out.show(unit / KS.len(), vec![format!("{k}"), fnum(e), fnum(sz)]);
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut lines = Vec::new();
        for (ci, case) in self.cases().iter().enumerate() {
            lines.push(format!(
                "\n### graph: {} (n = {}, arcs = {})",
                case.name,
                case.graph.node_count(),
                case.graph.arc_count()
            ));
            let mut t = Table::new(
                &format!(
                    "E10 {}: mean |sim estimate − truth| over {} pairs",
                    case.name,
                    case.pairs.len()
                ),
                &["k", "mean abs error", "mean sketch size"],
            );
            for out in &outs[ci * KS.len()..(ci + 1) * KS.len()] {
                for row in out.table_rows(ci) {
                    t.row(row.clone());
                }
            }
            lines.push(t.render());
        }
        lines.push(
            "\npaper-shape check: error decreases with k; sketch sizes grow ~ k·ln n.".to_owned(),
        );
        FinishOut::new(lines, true)
    }
}
