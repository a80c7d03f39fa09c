//! E13 — relative error of sum aggregates scales as 1/√|D| (paper,
//! Section 1: unbiasedness + pairwise independence make the relative error
//! of domain queries shrink with the domain size).
//!
//! Fixes a per-item sampling scheme and sweeps the query-domain size,
//! reporting the NRMSE of the L\* sum estimate and the fitted scaling
//! exponent (expected ≈ −0.5). One sweep unit per domain size; each unit
//! runs its 64 randomizations as one engine batch of
//! [`DomainSource`] jobs (closed-form L\* dispatch, one seed hash per
//! item).

use std::ops::Range;

use monotone_coord::instance::Instance;
use monotone_core::Result;
use monotone_engine::{DomainSource, Engine, EngineQuery, SourceJob};

use crate::{fnum, table::Table, CsvSpec, FinishOut, Scenario, UnitOut};

const SIZES: [u64; 5] = [64, 256, 1024, 4096, 16384];
const ITEMS: u64 = 16_384;
const TRIALS: u64 = 64;

/// Scenario state built lazily on first use (registry construction and
/// `--list` stay free): the fixed instance pair under study.
#[derive(Default)]
pub struct ErrorScaling {
    pair: std::sync::OnceLock<(Instance, Instance)>,
}

impl ErrorScaling {
    pub fn new() -> ErrorScaling {
        ErrorScaling::default()
    }

    fn pair(&self) -> &(Instance, Instance) {
        self.pair.get_or_init(|| {
            (
                Instance::from_pairs(
                    (0..ITEMS).map(|k| (k, 0.1 + 0.8 * ((k * 13 % 101) as f64 / 101.0))),
                ),
                Instance::from_pairs(
                    (0..ITEMS).map(|k| (k, 0.1 + 0.8 * ((k * 29 % 101) as f64 / 101.0))),
                ),
            )
        })
    }
}

impl Scenario for ErrorScaling {
    fn name(&self) -> &'static str {
        "error_scaling"
    }

    fn description(&self) -> &'static str {
        "E13: NRMSE of the L* sum estimate vs domain size (engine batches)"
    }

    fn artifacts(&self) -> Vec<CsvSpec> {
        vec![CsvSpec::new(
            "e13_error_scaling.csv",
            &["domain_size", "nrmse"],
        )]
    }

    fn units(&self) -> usize {
        SIZES.len()
    }

    fn run_shard(&self, units: Range<usize>, engine: &Engine) -> Result<Vec<UnitOut>> {
        // Per-shard prepared state: the query (the instances are scenario
        // state, shared by reference).
        let query = EngineQuery::rg_plus(1.0, 1.0);
        let (a, b) = self.pair();
        units
            .map(|unit| {
                let size = SIZES[unit];
                let domain: Vec<u64> = (0..size).collect();
                let jobs: Vec<_> = (0..TRIALS)
                    .map(|salt| SourceJob::new(DomainSource::new(&domain, vec![a, b]), salt))
                    .collect();
                let batch = engine.run(&jobs, &query)?;
                let e = batch.summaries[0].nrmse;
                let mut out = UnitOut::default();
                out.row(0, vec![format!("{size}"), format!("{e}")]);
                out.show(
                    0,
                    vec![format!("{size}"), fnum(e), fnum(e * (size as f64).sqrt())],
                );
                out.metric((size as f64).ln()).metric(e.max(1e-12).ln());
                Ok(out)
            })
            .collect()
    }

    fn finish(&self, outs: &[UnitOut]) -> FinishOut {
        let mut t = Table::new(
            "E13: NRMSE of the L* sum estimate vs domain size |D|",
            &["|D|", "NRMSE", "NRMSE × sqrt|D|"],
        );
        for out in outs {
            for row in out.table_rows(0) {
                t.row(row.clone());
            }
        }
        // Least-squares slope of log error vs log size.
        let points: Vec<(f64, f64)> = outs.iter().map(|o| (o.metrics[0], o.metrics[1])).collect();
        let n = points.len() as f64;
        let (sx, sy): (f64, f64) = points
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
        let (sxx, sxy): (f64, f64) = points
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        FinishOut::new(
            vec![
                t.render(),
                format!(
                    "\nfitted scaling exponent: {} (paper shape: −0.5)",
                    fnum(slope)
                ),
            ],
            (slope - (-0.5)).abs() < 0.2,
        )
    }
}
