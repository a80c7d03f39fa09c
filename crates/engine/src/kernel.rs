//! Pluggable estimation kernels: the prepare-once / evaluate-per-item
//! layer behind [`Engine::run`](crate::Engine::run).
//!
//! A *kernel* is everything a query derives exactly once — the MEP and
//! the per-estimator dispatch (closed form where one is registered,
//! generic fallback otherwise) — packaged behind the
//! [`EstimationKernel`] trait so the engine's batch loop is the same for
//! every function family, scheme, estimator set, **and arity**: the item
//! stream hands each kernel one shared seed plus the item's weights in
//! *every* instance of the job's group (a 2-slice for
//! [`PairJob`](crate::PairJob)s, an N-slice for a
//! [`SourceJob`](crate::SourceJob) over N instances). Workers share the
//! kernel read-only and thread a [`KernelScratch`] through the item loop,
//! so the hot path stays allocation-free.
//!
//! Three layers of customization:
//!
//! * **queries** ([`EngineQuery`](crate::EngineQuery)) cover the built-in
//!   function families over per-instance PPS scales, with the closed
//!   forms those families have — most callers stop here;
//! * **[`FuncKernel::new`]** accepts *any* [`ItemFn`] and runs every
//!   estimator on its generic path, for function families the query
//!   builder does not know about (`min`/`max` sums among them);
//! * **custom [`EstimationKernel`] impls** interpret the per-item
//!   `(key, weights, seed)` stream however they like — one can count
//!   sample overlaps over a group's item union. A computation over known data vectors needs no kernel: it
//!   runs directly over [`Engine::map_chunked`](crate::Engine::map_chunked).
//!
//! Closed forms are registered in one place, the query builder: `RGp+`
//! under a common scale registers [`RgPlusLStar`]/[`RgPlusUStar`] (pair
//! schemes only), the distinct-count indicator registers its
//! inverse-probability form for **any arity and scale vector**, and every
//! other estimator slot runs the generic quadrature/integration
//! estimators. Each closed form is one sweep over staged items: a kernel
//! whose slots are all closed forms sweeps whole chunks, and a kernel
//! with a generic slot sweeps each item's one-row slice inside its
//! per-item pass.
//!
//! # Examples
//!
//! A minimal custom kernel: it "estimates" each item's `RG1+`
//! contribution with the exact value, so every job's estimate equals its
//! truth:
//!
//! ```
//! use monotone_coord::instance::Instance;
//! use monotone_engine::{Engine, EstimationKernel, KernelScratch, PairJob};
//!
//! struct ExactOracle;
//! impl EstimationKernel for ExactOracle {
//!     fn labels(&self) -> Vec<String> {
//!         vec!["exact".to_owned()]
//!     }
//!     fn truth(&self, weights: &[f64]) -> f64 {
//!         (weights[0] - weights[1]).max(0.0)
//!     }
//!     fn evaluate(
//!         &self,
//!         _key: u64,
//!         weights: &[f64],
//!         _u: f64,
//!         _scratch: &mut KernelScratch,
//!         out: &mut [f64],
//!     ) -> monotone_core::Result<bool> {
//!         out[0] += (weights[0] - weights[1]).max(0.0);
//!         Ok(true)
//!     }
//! }
//!
//! let a = Instance::from_pairs([(1u64, 0.9), (2, 0.4)]);
//! let b = Instance::from_pairs([(1u64, 0.2)]);
//! let jobs = [PairJob::new(&a, &b, 0)];
//! let batch = Engine::with_threads(1).run_kernel(&jobs, &ExactOracle).unwrap();
//! assert_eq!(batch.pairs[0].estimates[0], batch.pairs[0].truth);
//! assert_eq!(batch.summaries[0].label, "exact");
//! ```
//!
//! # Writing a batch-aware kernel
//!
//! The engine's hot loop hands kernels one staged **chunk** at a time —
//! up to 64 items, weights row-major `[item][instance]`, seeds already
//! hashed — through
//! [`evaluate_many`](EstimationKernel::evaluate_many). The default
//! forwards to `evaluate` per item; overriding it hoists dispatch and
//! per-item setup out of the inner loop (the built-in [`FuncKernel`]
//! sweeps whole chunks through its closed forms this way). An override
//! must stay **bit-identical** to the per-item path: accumulate into
//! each `out` slot in item order, and skip items with no sampled
//! evidence instead of adding an explicit zero.
//!
//! ```
//! use monotone_coord::instance::Instance;
//! use monotone_engine::{Engine, EstimationKernel, KernelScratch, PairJob};
//!
//! /// Inverse-probability count of items sampled in the first instance
//! /// under PPS at scale 1 — item arithmetic so cheap that per-item
//! /// virtual dispatch is the dominant cost, the case worth batching.
//! struct SampledCount;
//!
//! fn eval_one(w: f64, u: f64, out: &mut [f64]) -> bool {
//!     let sampled = w > 0.0 && w >= u; // PPS threshold at scale 1
//!     if sampled {
//!         out[0] += 1.0 / w.min(1.0); // inverse inclusion probability
//!     }
//!     sampled
//! }
//!
//! impl EstimationKernel for SampledCount {
//!     fn labels(&self) -> Vec<String> {
//!         vec!["count".to_owned()]
//!     }
//!     fn truth(&self, weights: &[f64]) -> f64 {
//!         (weights[0] > 0.0) as u64 as f64
//!     }
//!     fn evaluate(
//!         &self,
//!         _key: u64,
//!         weights: &[f64],
//!         u: f64,
//!         _scratch: &mut KernelScratch,
//!         out: &mut [f64],
//!     ) -> monotone_core::Result<bool> {
//!         Ok(eval_one(weights[0], u, out))
//!     }
//!     // The batch entry point the engine actually calls — once per
//!     // chunk. One monomorphic sweep, no per-item virtual calls.
//!     fn evaluate_many(
//!         &self,
//!         _keys: &[u64],
//!         weights: &[f64],
//!         arity: usize,
//!         seeds: &[f64],
//!         _scratch: &mut KernelScratch,
//!         out: &mut [f64],
//!     ) -> monotone_core::Result<usize> {
//!         let mut sampled = 0;
//!         for (row, &u) in weights.chunks_exact(arity).zip(seeds) {
//!             sampled += eval_one(row[0], u, out) as usize;
//!         }
//!         Ok(sampled)
//!     }
//! }
//!
//! /// The same estimator without the override: the trait default runs
//! /// `evaluate` item by item.
//! struct PerItemCount;
//! impl EstimationKernel for PerItemCount {
//!     fn labels(&self) -> Vec<String> {
//!         vec!["count".to_owned()]
//!     }
//!     fn truth(&self, weights: &[f64]) -> f64 {
//!         (weights[0] > 0.0) as u64 as f64
//!     }
//!     fn evaluate(
//!         &self,
//!         _key: u64,
//!         weights: &[f64],
//!         u: f64,
//!         _scratch: &mut KernelScratch,
//!         out: &mut [f64],
//!     ) -> monotone_core::Result<bool> {
//!         Ok(eval_one(weights[0], u, out))
//!     }
//! }
//!
//! let a = Instance::from_pairs((0..200u64).map(|k| (k, 0.2 + (k % 7) as f64 / 10.0)));
//! let b = Instance::from_pairs((0..200u64).map(|k| (k, 0.4)));
//! let jobs: Vec<PairJob> = (0..8).map(|salt| PairJob::new(&a, &b, salt)).collect();
//! let engine = Engine::with_threads(1);
//! let batched = engine.run_kernel(&jobs, &SampledCount).unwrap();
//! let per_item = engine.run_kernel(&jobs, &PerItemCount).unwrap();
//! // The override is a pure execution-route change: bit-identical batch.
//! assert_eq!(batched, per_item);
//! // And unbiased: the mean count tracks the 200-item truth.
//! assert!((batched.summaries[0].mean_estimate - 200.0).abs() < 40.0);
//! ```
//!
//! [`RgPlusLStar`]: monotone_core::estimate::RgPlusLStar
//! [`RgPlusUStar`]: monotone_core::estimate::RgPlusUStar

use monotone_core::estimate::{
    DyadicJ, HorvitzThompson, LStar, MonotoneEstimator, RgPlusLStar, RgPlusUStar, UStar,
};
use monotone_core::func::ItemFn;
use monotone_core::problem::{LbScratch, Mep};
use monotone_core::quad::QuadConfig;
use monotone_core::scheme::{EntryState, LinearThreshold, Outcome, TupleScheme};
use monotone_core::{Error, Result};

use super::EstimatorKind;

/// Reusable per-worker buffers threaded through a kernel's item loop: a
/// recycled [`Outcome`] entry vector and the lower-bound work vectors of
/// the generic estimators. One scratch lives per in-flight job, so batch
/// loops pay zero allocations per sampled item.
#[derive(Debug, Default)]
pub struct KernelScratch {
    entries: Vec<EntryState>,
    lb: LbScratch,
}

impl KernelScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }
}

/// Prepare-once per-query state with a per-item evaluation hot path —
/// what [`Engine::run_kernel`](crate::Engine::run_kernel) executes over a
/// batch of pair, group or source jobs.
///
/// The engine walks each job's item stream (the merged key union of the
/// job's instance group, or the job's domain), hashes the shared seeds in
/// bulk, and calls [`evaluate`](EstimationKernel::evaluate) once per
/// active item with the item's weights in every instance. How the
/// `(key, weights, seed)` tuple is interpreted is the kernel's business:
/// the built-in [`FuncKernel`] treats the weights as a sampled data
/// tuple, while a counting kernel may re-derive sample membership per
/// randomization from `key` and ignore the shared seed.
///
/// # Contract
///
/// * Implementations must be deterministic functions of their inputs —
///   results land in index-preassigned slots, and the batch output must
///   be identical for every worker count.
/// * `evaluate` **adds** into `out` (one slot per label) and reports
///   whether the item carried sampled evidence.
/// * A kernel serves jobs of one arity: `weights.len()` is the job
///   group's instance count, the same for every item of a batch.
pub trait EstimationKernel: Sync {
    /// Estimator column labels, in result order — fixes the width of
    /// [`PairResult::estimates`](crate::PairResult::estimates) and names
    /// the batch summaries.
    fn labels(&self) -> Vec<String>;

    /// The group arity this kernel requires, when it requires one: the
    /// engine rejects jobs whose instance count differs (as
    /// [`Error::ArityMismatch`]) instead of streaming truncated weight
    /// tuples. The default, `None`, accepts any arity.
    fn arity(&self) -> Option<usize> {
        None
    }

    /// The exact contribution of one item (its weight in every instance
    /// of the group) to the job's target value (accumulated into
    /// [`PairResult::truth`](crate::PairResult::truth)).
    fn truth(&self, weights: &[f64]) -> f64;

    /// Evaluates every estimator column on one item at shared seed `u`,
    /// adding into `out`. Returns `Ok(true)` when the item carried
    /// sampled evidence (counted in `sampled_items`), `Ok(false)` when
    /// every estimator is an exact zero for it.
    ///
    /// # Errors
    ///
    /// Implementations propagate outcome-assembly or estimator errors;
    /// the engine aborts the batch on the first error.
    fn evaluate(
        &self,
        key: u64,
        weights: &[f64],
        u: f64,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<bool>;

    /// Evaluates every estimator column on a whole staged chunk of items
    /// at once, adding into `out` and returning how many items carried
    /// sampled evidence. `weights` is row-major `[item][instance]`
    /// (`keys.len() * arity` entries) and `seeds[i]` is item `i`'s shared
    /// seed — exactly the layout the engine stages, so its flush calls
    /// this once per chunk instead of once per item.
    ///
    /// The default forwards to [`evaluate`](EstimationKernel::evaluate)
    /// item by item, so existing kernels keep working unchanged.
    /// Batch-aware kernels override this to hoist dispatch and per-item
    /// setup out of the inner loop; overrides must stay **bit-identical**
    /// to the per-item path — accumulate into `out` slot by slot in item
    /// order, and skip items with no sampled evidence rather than adding
    /// an explicit zero.
    ///
    /// # Errors
    ///
    /// Propagates the first [`evaluate`](EstimationKernel::evaluate)
    /// error; the engine aborts the batch on it.
    fn evaluate_many(
        &self,
        keys: &[u64],
        weights: &[f64],
        arity: usize,
        seeds: &[f64],
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<usize> {
        let mut sampled = 0;
        for (i, (&key, &u)) in keys.iter().zip(seeds).enumerate() {
            let row = &weights[i * arity..(i + 1) * arity];
            sampled += usize::from(self.evaluate(key, row, u, scratch, out)?);
        }
        Ok(sampled)
    }
}

/// A closed-form estimator registered for a query's function family and
/// scales (`EngineQuery::registered_closed_forms`): it reads raw weights
/// and seeds, so it needs no materialized [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ClosedForm {
    /// [`RgPlusLStar`]: L\* for `RGp+`, `p ∈ {1, 2}`, common PPS scale
    /// (pair schemes).
    RgPlusL(RgPlusLStar),
    /// [`RgPlusUStar`]: U\* for `RGp+`, any `p > 0`, common PPS scale
    /// (pair schemes).
    RgPlusU(RgPlusUStar),
    /// L\* for the distinct-count OR indicator under per-instance PPS
    /// scales of **any arity**: the lower bound is a 0/1 step, so
    /// Eq. (31) collapses to the inverse of the largest inclusion
    /// probability among sampled entries (and coincides with
    /// Horvitz-Thompson).
    DistinctL,
}

impl ClosedForm {
    /// Sweeps staged items — row-major `[item][instance]` `weights`, one
    /// row per seed and one column per PPS scale — adding each sampled
    /// item's estimate into `acc` in item order, and returns how many
    /// items carried sampled evidence (any instance's weight cleared its
    /// threshold `w ≥ u·scale`). The threshold tests are fused into the
    /// sweep and the variant match happens once per sweep. Estimates are
    /// added in item order and items with no sampled entry are skipped
    /// (not added as an explicit zero), so one sweep over a chunk is
    /// bit-identical to one sweep per row.
    fn sweep(&self, weights: &[f64], scales: &[f64], seeds: &[f64], acc: &mut f64) -> usize {
        match self {
            ClosedForm::RgPlusL(c) => pair_sweep(weights, scales, seeds, acc, |v1, v2, u| {
                c.estimate_values(v1, v2, u)
            }),
            ClosedForm::RgPlusU(c) => pair_sweep(weights, scales, seeds, acc, |v1, v2, u| {
                c.estimate_values(v1, v2, u)
            }),
            ClosedForm::DistinctL => {
                let mut sampled = 0;
                for (row, &u) in weights.chunks_exact(scales.len()).zip(seeds) {
                    let mut q = 0.0f64;
                    for (&w, &s) in row.iter().zip(scales) {
                        if w > 0.0 && w >= u * s {
                            q = q.max((w / s).min(1.0));
                        }
                    }
                    // q > 0 iff any instance sampled (scales are finite
                    // and positive, so a sampled w > 0 gives w/s > 0).
                    if q > 0.0 {
                        sampled += 1;
                        *acc += 1.0 / q;
                    }
                }
                sampled
            }
        }
    }
}

/// The sweep both `RGp+` forms share: over pair rows, the sampled value
/// of each entry (`None` = capped) and the seed go to `estimate`.
fn pair_sweep(
    weights: &[f64],
    scales: &[f64],
    seeds: &[f64],
    acc: &mut f64,
    estimate: impl Fn(Option<f64>, Option<f64>, f64) -> f64,
) -> usize {
    debug_assert_eq!(scales.len(), 2, "RGp+ closed forms are pair forms");
    let (s0, s1) = (scales[0], scales[1]);
    let mut sampled = 0;
    for (row, &u) in weights.chunks_exact(2).zip(seeds) {
        let (w0, w1) = (row[0], row[1]);
        let v1 = (w0 > 0.0 && w0 >= u * s0).then_some(w0);
        let v2 = (w1 > 0.0 && w1 >= u * s1).then_some(w1);
        if v1.is_some() || v2.is_some() {
            sampled += 1;
            *acc += estimate(v1, v2, u);
        }
    }
    sampled
}

/// Resolved dispatch for one requested estimator slot.
#[derive(Debug)]
enum KindEval {
    /// A registered closed form (no outcome materialization needed).
    Closed(ClosedForm),
    /// Generic quadrature-backed L\* (Eq. (31)).
    GenericL(LStar),
    /// Generic backward-integration U\* (Eq. (48)).
    GenericU(UStar),
    /// Horvitz-Thompson reveal detection.
    Ht(HorvitzThompson),
    /// The dyadic J baseline.
    J(DyadicJ),
}

/// The engine's standard kernel: any [`ItemFn`] over a coordinated
/// scheme with per-instance PPS scales — one scale per instance of the
/// job group, at any arity — evaluating a set of [`EstimatorKind`]s.
/// Kernels an [`EngineQuery`](crate::EngineQuery) compiles use the
/// closed forms its families register; [`FuncKernel::new`] runs every
/// estimator on its generic path.
///
/// # Examples
///
/// ```
/// use monotone_core::func::TupleMax;
/// use monotone_coord::instance::Instance;
/// use monotone_engine::{Engine, EstimatorKind, FuncKernel, PairJob};
///
/// // max(v1, v2) aggregates under asymmetric PPS scales: L* runs
/// // through the generic quadrature path.
/// let kernel = FuncKernel::new(TupleMax::new(2), &[1.0, 2.0], &[EstimatorKind::LStar]).unwrap();
/// let a = Instance::from_pairs((0..40u64).map(|k| (k, 0.3 + (k % 5) as f64 / 10.0)));
/// let b = Instance::from_pairs((0..40u64).map(|k| (k, 0.2 + (k % 7) as f64 / 10.0)));
/// let jobs: Vec<PairJob> = (0..8).map(|salt| PairJob::new(&a, &b, salt)).collect();
/// let batch = Engine::with_threads(2).run_kernel(&jobs, &kernel).unwrap();
/// assert!(batch.summaries[0].mean_truth > 0.0);
/// ```
#[derive(Debug)]
pub struct FuncKernel<F: ItemFn> {
    mep: Mep<F, LinearThreshold>,
    scales: Vec<f64>,
    kinds: Vec<EstimatorKind>,
    evals: Vec<KindEval>,
    /// Whether there are slots and every one is a closed form: then
    /// whole chunks sweep through them, with no outcome per item.
    all_closed: bool,
}

impl<F: ItemFn + Sync> FuncKernel<F> {
    /// Builds a kernel from a function, per-instance scales (the arity of
    /// `f` fixes the group arity) and an estimator set, with every
    /// estimator on its generic path.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScale`] for non-finite or non-positive
    /// scales and [`Error::ArityMismatch`] when `f`'s arity differs from
    /// the scale count.
    pub fn new(f: F, scales: &[f64], kinds: &[EstimatorKind]) -> Result<FuncKernel<F>> {
        FuncKernel::with_closed_forms(f, scales, kinds, [None, None])
    }

    /// [`FuncKernel::new`] with registered closed forms `[L*, U*]` in
    /// place of those slots' generic estimators.
    pub(crate) fn with_closed_forms(
        f: F,
        scales: &[f64],
        kinds: &[EstimatorKind],
        [lstar, ustar]: [Option<ClosedForm>; 2],
    ) -> Result<FuncKernel<F>> {
        for &s in scales {
            if !(s.is_finite() && s > 0.0) {
                return Err(Error::InvalidScale(s));
            }
        }
        let mep = Mep::new(f, TupleScheme::pps(scales)?)?;
        let evals: Vec<KindEval> = kinds
            .iter()
            .map(|kind| match kind {
                EstimatorKind::LStar => lstar.clone().map_or_else(
                    || KindEval::GenericL(LStar::with_quad(QuadConfig::fast())),
                    KindEval::Closed,
                ),
                EstimatorKind::UStar => ustar
                    .clone()
                    .map_or_else(|| KindEval::GenericU(UStar::new()), KindEval::Closed),
                EstimatorKind::HorvitzThompson => KindEval::Ht(HorvitzThompson::new()),
                EstimatorKind::DyadicJ => KindEval::J(DyadicJ::new()),
            })
            .collect();
        let all_closed =
            !evals.is_empty() && evals.iter().all(|e| matches!(e, KindEval::Closed(_)));
        Ok(FuncKernel {
            mep,
            scales: scales.to_vec(),
            kinds: kinds.to_vec(),
            evals,
            all_closed,
        })
    }

    /// One item of the per-item pass: its outcome at seed `u` (known
    /// iff the weight clears the instance's threshold) through every
    /// slot, closed forms sweeping the item's one row.
    fn evaluate_row(
        &self,
        row: &[f64],
        u: f64,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<bool> {
        // Recycle the entry buffer across items: from_parts consumes a
        // Vec, into_parts below hands it back.
        let mut entries = std::mem::take(&mut scratch.entries);
        entries.clear();
        let mut any = false;
        for (&w, &s) in row.iter().zip(&self.scales) {
            let known = w > 0.0 && w >= u * s;
            any |= known;
            entries.push(if known {
                EntryState::Known(w)
            } else {
                EntryState::Capped
            });
        }
        if !any {
            // No sampled evidence: every estimator here yields 0 (all-capped
            // outcomes have zero lower bound), exactly as the per-call query
            // path skips items absent from all samples.
            scratch.entries = entries;
            return Ok(false);
        }
        let outcome = Outcome::from_parts(u, entries)?;
        for (slot, eval) in self.evals.iter().enumerate() {
            let acc = &mut out[slot];
            match eval {
                KindEval::Closed(form) => {
                    form.sweep(row, &self.scales, &[u], acc);
                }
                KindEval::GenericL(l) => {
                    *acc += l.estimate_with(&self.mep, &outcome, &mut scratch.lb)
                }
                KindEval::GenericU(us) => *acc += us.estimate(&self.mep, &outcome),
                KindEval::Ht(ht) => *acc += ht.estimate(&self.mep, &outcome),
                KindEval::J(j) => *acc += j.estimate(&self.mep, &outcome),
            }
        }
        scratch.entries = outcome.into_parts().1;
        Ok(true)
    }
}

impl<F: ItemFn + Sync> EstimationKernel for FuncKernel<F> {
    fn labels(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name().to_owned()).collect()
    }

    fn arity(&self) -> Option<usize> {
        Some(self.scales.len())
    }

    fn truth(&self, weights: &[f64]) -> f64 {
        self.mep.f().eval(weights)
    }

    /// [`evaluate_many`](EstimationKernel::evaluate_many) over the one row.
    fn evaluate(
        &self,
        key: u64,
        weights: &[f64],
        u: f64,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<bool> {
        let sampled = self.evaluate_many(&[key], weights, weights.len(), &[u], scratch, out)?;
        Ok(sampled > 0)
    }

    /// When every slot is a registered closed form, each form sweeps the
    /// whole staged chunk: the threshold tests run fused inside the sweep
    /// over the row-major weight staging, and virtual dispatch plus the
    /// estimator `match` leave the inner loop. A generic slot needs a
    /// materialized [`Outcome`] per item, so a kernel with one runs a
    /// single per-item pass instead.
    fn evaluate_many(
        &self,
        _keys: &[u64],
        weights: &[f64],
        arity: usize,
        seeds: &[f64],
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<usize> {
        debug_assert_eq!(arity, self.scales.len());
        let mut sampled = 0;
        if !self.all_closed {
            for (row, &u) in weights.chunks_exact(arity).zip(seeds) {
                sampled += usize::from(self.evaluate_row(row, u, scratch, out)?);
            }
            return Ok(sampled);
        }
        // Every form's sweep observes the same sampled-evidence count
        // (any instance's weight cleared its threshold at the item's
        // seed), so any sweep's count is the chunk's count.
        for (slot, eval) in self.evals.iter().enumerate() {
            let KindEval::Closed(form) = eval else {
                unreachable!("generic slot on the closed-form chunk path")
            };
            let n = form.sweep(weights, &self.scales, seeds, &mut out[slot]);
            debug_assert!(slot == 0 || n == sampled);
            sampled = n;
        }
        Ok(sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineQuery;
    use monotone_core::func::{DistinctOr, RangePowPlus};

    /// One closed-form sweep over one row: `(sampled, estimate)`.
    fn sweep_row(form: &ClosedForm, scales: &[f64], row: &[f64], u: f64) -> (usize, f64) {
        let mut acc = 0.0;
        let sampled = form.sweep(row, scales, &[u], &mut acc);
        (sampled, acc)
    }

    #[test]
    fn rg_plus_registers_closed_forms_under_common_scale() {
        let forms = EngineQuery::rg_plus(1.0, 2.0).registered_closed_forms();
        assert!(matches!(forms[0], Some(ClosedForm::RgPlusL(_))));
        assert!(matches!(forms[1], Some(ClosedForm::RgPlusU(_))));
        // No L* closed form away from p in {1, 2}; U* covers every p.
        let forms = EngineQuery::rg_plus(1.5, 1.0).registered_closed_forms();
        assert!(forms[0].is_none());
        assert!(forms[1].is_some());
        // Per-instance scales: the Example 4 derivations do not apply.
        let query = EngineQuery::rg_plus(1.0, 1.0).with_instance_scales(&[1.0, 2.0]);
        assert_eq!(query.registered_closed_forms(), [None, None]);
        // The lossless-sketch scale: `v / scale` would overflow.
        for p in [1.0, 2.0] {
            let query = EngineQuery::rg_plus(p, f64::MIN_POSITIVE);
            assert_eq!(query.registered_closed_forms(), [None, None]);
        }
        // At p = 2 the factor `scale^p` underflows to 0 while `(v/scale)^p`
        // overflows: the forms would answer 0 · ∞ = NaN.
        for scale in [1e-200, 1e-300, 1e-307] {
            let query = EngineQuery::rg_plus(2.0, scale);
            assert_eq!(query.registered_closed_forms(), [None, None]);
        }
        // Linear forms register nothing.
        let query = EngineQuery::linear_abs(1.0, -1.0, 0.0, 1.0, 1.0);
        assert_eq!(query.registered_closed_forms(), [None, None]);
    }

    #[test]
    fn distinct_closed_form_is_inverse_inclusion_probability() {
        let query = EngineQuery::distinct(1.0).with_instance_scales(&[1.0, 2.0]);
        let [lstar, ustar] = query.registered_closed_forms();
        let lstar = lstar.expect("registered");
        assert!(ustar.is_none());
        let scales = [1.0, 2.0];
        // Sampled entries 0.4 (prob 0.4) and 0.7 (prob 0.35): q = 0.4.
        let (n, e) = sweep_row(&lstar, &scales, &[0.4, 0.7], 0.1);
        assert_eq!(n, 1);
        assert!((e - 1.0 / 0.4).abs() < 1e-15, "got {e}");
        // Single sampled entry above its scale: prob 1, estimate 1.
        assert_eq!(sweep_row(&lstar, &scales, &[0.0, 2.5], 0.9), (1, 1.0));
        // Nothing sampled: skipped, not added as an explicit zero.
        assert_eq!(sweep_row(&lstar, &scales, &[0.3, 0.8], 0.5), (0, 0.0));
    }

    #[test]
    fn distinct_closed_form_generalizes_to_any_arity() {
        let scales = [1.0, 2.0, 4.0, 8.0];
        let query = EngineQuery::distinct_k(4, 1.0).with_instance_scales(&scales);
        let lstar = query.registered_closed_forms()[0]
            .clone()
            .expect("registered");
        // Probabilities 0.4, 0.35, capped, 0.05: q = 0.4.
        let (n, e) = sweep_row(&lstar, &scales, &[0.4, 0.7, 0.1, 0.4], 0.04);
        assert_eq!(n, 1);
        assert!((e - 1.0 / 0.4).abs() < 1e-15, "got {e}");
        assert_eq!(sweep_row(&lstar, &scales, &[0.0; 4], 0.5), (0, 0.0));
    }

    #[test]
    fn distinct_closed_form_matches_generic_lstar() {
        let scales = [1.0, 2.0];
        let mep = Mep::new(DistinctOr::new(2), TupleScheme::pps(&scales).unwrap()).unwrap();
        let generic = LStar::new();
        for v in [[0.4, 0.7], [0.4, 0.0], [0.0, 1.9], [2.0, 3.0]] {
            for k in 1..=20 {
                let u = k as f64 / 20.0;
                let out = mep.scheme().sample(&v, u).unwrap();
                let (_, a) = sweep_row(&ClosedForm::DistinctL, &scales, &v, u);
                let b = generic.estimate(&mep, &out);
                assert!((a - b).abs() < 1e-9, "v={v:?} u={u}: closed {a} vs {b}");
            }
        }
    }

    #[test]
    fn distinct_closed_form_matches_generic_lstar_at_arity_three() {
        let scales = [1.0, 2.0, 0.5];
        let mep = Mep::new(DistinctOr::new(3), TupleScheme::pps(&scales).unwrap()).unwrap();
        let generic = LStar::new();
        for v in [[0.4, 0.7, 0.0], [0.0, 0.0, 0.3], [2.0, 3.0, 1.0]] {
            for k in 1..=20 {
                let u = k as f64 / 20.0;
                let out = mep.scheme().sample(&v, u).unwrap();
                let (_, a) = sweep_row(&ClosedForm::DistinctL, &scales, &v, u);
                let b = generic.estimate(&mep, &out);
                assert!((a - b).abs() < 1e-9, "v={v:?} u={u}: closed {a} vs {b}");
            }
        }
    }

    #[test]
    fn func_kernel_rejects_bad_scales() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                FuncKernel::new(RangePowPlus::new(1.0), &[1.0, bad], &[EstimatorKind::LStar])
                    .is_err()
            );
        }
        // Arity mismatch between function and scale vector is typed too.
        assert!(FuncKernel::new(DistinctOr::new(3), &[1.0, 1.0], &[EstimatorKind::LStar]).is_err());
    }
}
