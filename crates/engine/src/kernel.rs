//! Pluggable estimation kernels: the prepare-once / evaluate-per-item
//! layer behind [`Engine::run`](crate::Engine::run).
//!
//! A *kernel* is everything a query derives exactly once — the MEP, the
//! per-estimator dispatch (closed form where one is registered, generic
//! fallback otherwise), quadrature configuration — packaged behind the
//! [`EstimationKernel`] trait so the engine's batch loop is the same for
//! every function family, scheme, estimator set, **and arity**: the item
//! stream hands each kernel one shared seed plus the item's weights in
//! *every* instance of the job's group (a 2-slice for
//! [`PairJob`](crate::PairJob)s, an N-slice for
//! [`GroupJob`](crate::GroupJob)s). Workers share the kernel read-only
//! and thread a [`KernelScratch`] through the item loop, so the hot path
//! stays allocation-free.
//!
//! Three layers of customization:
//!
//! * **queries** ([`EngineQuery`](crate::EngineQuery)) cover the built-in
//!   function families over per-instance PPS scales — most callers stop
//!   here;
//! * **[`FuncKernel`]** accepts *any* [`ItemFn`] plus an explicit
//!   [`ClosedForms`] registration, for function families the query
//!   builder does not know about;
//! * **custom [`EstimationKernel`] impls** interpret the per-item
//!   `(key, weights, seed)` stream however they like — the scenario
//!   registry uses this for variance sweeps, estimate curves at probe
//!   seeds, sample-overlap counting, and sketch-pair workloads.
//!
//! Closed forms are not special-cased in the engine: each function family
//! *registers* the fast paths it has for a given scheme via
//! [`KernelFunc::closed_forms`], and [`FuncKernel`] resolves every
//! requested [`EstimatorKind`] against that registration when the kernel
//! is built — `RGp+` under a common scale registers
//! [`RgPlusLStar`]/[`RgPlusUStar`] (pair schemes only), the distinct-count
//! indicator registers its inverse-probability form for **any arity and
//! scale vector**, and everything else falls back to the generic
//! quadrature/integration estimators.
//!
//! # Examples
//!
//! A custom kernel that treats each item's weights as a full data vector
//! and "estimates" with the exact value — the oracle pattern the variance
//! and ratio scenarios build on:
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
use monotone_core::func::{DistinctOr, ItemFn, LinearAbsPow, RangePowPlus, TupleMax, TupleMin};
use monotone_core::problem::{LbScratch, Mep};
use monotone_core::quad::QuadConfig;
use monotone_core::scheme::{EntryState, LinearThreshold, Outcome, TupleScheme};
use monotone_core::{Error, Result};

use super::EstimatorKind;

/// Reusable per-worker buffers threaded through a kernel's item loop:
/// a recycled [`Outcome`] entry vector, a sampled-values buffer, and the
/// lower-bound work vectors of the generic estimators. One scratch lives
/// per in-flight job, so batch loops pay zero allocations per sampled
/// item.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Recycled outcome entry buffer (take with [`std::mem::take`], hand
    /// back via [`Outcome::into_parts`]).
    pub entries: Vec<EntryState>,
    /// Recycled per-instance sampled-value buffer (`Some(w)` where the
    /// item cleared its instance's threshold at the shared seed).
    pub values: Vec<Option<f64>>,
    /// Recycled lower-bound buffers for quadrature-backed estimators.
    pub lb: LbScratch,
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
/// tuple, while oracle kernels (variance, ratio, curve scenarios) treat
/// them as fully known data and ignore the seed, and payload kernels
/// index kernel-held state by `key`.
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
    /// tuples. The default, `None`, accepts any arity — payload and
    /// oracle kernels often ignore the weights entirely.
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
        evaluate_each(self, keys, weights, arity, seeds, scratch, out)
    }
}

/// The per-item chunk loop: [`EstimationKernel::evaluate`] on every
/// staged item in item order, counting those with sampled evidence.
/// Shared by the trait's default `evaluate_many` and by [`FuncKernel`]'s
/// whenever a slot needs a materialized outcome.
fn evaluate_each<K: EstimationKernel + ?Sized>(
    kernel: &K,
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
        sampled += usize::from(kernel.evaluate(key, row, u, scratch, out)?);
    }
    Ok(sampled)
}

/// A closed-form per-item evaluator from raw sampled values (`None` =
/// capped entry) and the shared seed — the allocation-free fast path a
/// function family can register for a scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum ClosedForm {
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
    DistinctL {
        /// The per-instance PPS scales.
        scales: Vec<f64>,
    },
}

impl ClosedForm {
    /// The estimate from the raw sampled values of every instance
    /// (`known[i] = Some(w)` iff instance `i` sampled the item) plus the
    /// shared seed.
    ///
    /// # Panics
    ///
    /// The `RGp+` forms are pair forms: they panic unless
    /// `known.len() == 2`.
    pub fn eval(&self, known: &[Option<f64>], u: f64) -> f64 {
        match self {
            ClosedForm::RgPlusL(c) => {
                assert_eq!(known.len(), 2, "RGp+ closed forms are pair forms");
                c.estimate_values(known[0], known[1], u)
            }
            ClosedForm::RgPlusU(c) => {
                assert_eq!(known.len(), 2, "RGp+ closed forms are pair forms");
                c.estimate_values(known[0], known[1], u)
            }
            ClosedForm::DistinctL { scales } => {
                let q = known
                    .iter()
                    .zip(scales)
                    .map(|(v, &s)| v.map_or(0.0, |w| (w / s).min(1.0)))
                    .fold(0.0f64, f64::max);
                if q > 0.0 {
                    1.0 / q
                } else {
                    0.0
                }
            }
        }
    }

    /// Chunk-wide evaluation over a row-major `[item][instance]` staged
    /// weight buffer plus the chunk's seeds, accumulating into `acc` one
    /// item at a time in item order and returning how many items carried
    /// sampled evidence (any instance's weight cleared its threshold —
    /// the same count every form observes, letting the caller take it
    /// from the first sweep for free). The threshold tests (`w ≥
    /// u·scale`) are fused into each form's sweep, and the variant match
    /// happens once per chunk instead of once per item, so the inner
    /// loops are monomorphic, allocation-free, and branch-predictable —
    /// bit-identical to the per-item path of
    /// [`FuncKernel::evaluate`](EstimationKernel::evaluate), because each
    /// item's sampled values come from the same comparisons, each
    /// estimate is added to the running accumulator in the same order,
    /// and items with no sampled entry are skipped (not added as an
    /// explicit zero).
    fn eval_chunk(
        &self,
        weights: &[f64],
        scales: &[f64],
        arity: usize,
        seeds: &[f64],
        acc: &mut f64,
    ) -> usize {
        let mut sampled = 0;
        match self {
            ClosedForm::RgPlusL(c) => {
                debug_assert_eq!(arity, 2, "RGp+ closed forms are pair forms");
                let (s0, s1) = (scales[0], scales[1]);
                for (row, &u) in weights.chunks_exact(2).zip(seeds) {
                    let (w0, w1) = (row[0], row[1]);
                    let v1 = (w0 > 0.0 && w0 >= u * s0).then_some(w0);
                    let v2 = (w1 > 0.0 && w1 >= u * s1).then_some(w1);
                    if v1.is_some() || v2.is_some() {
                        sampled += 1;
                        *acc += c.estimate_values(v1, v2, u);
                    }
                }
            }
            ClosedForm::RgPlusU(c) => {
                debug_assert_eq!(arity, 2, "RGp+ closed forms are pair forms");
                let (s0, s1) = (scales[0], scales[1]);
                for (row, &u) in weights.chunks_exact(2).zip(seeds) {
                    let (w0, w1) = (row[0], row[1]);
                    let v1 = (w0 > 0.0 && w0 >= u * s0).then_some(w0);
                    let v2 = (w1 > 0.0 && w1 >= u * s1).then_some(w1);
                    if v1.is_some() || v2.is_some() {
                        sampled += 1;
                        *acc += c.estimate_values(v1, v2, u);
                    }
                }
            }
            ClosedForm::DistinctL { scales } => {
                for (row, &u) in weights.chunks_exact(arity).zip(seeds) {
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
            }
        }
        sampled
    }
}

/// The closed forms a function family registers for a scheme: the fast
/// paths [`FuncKernel`] dispatches to instead of the generic
/// quadrature/integration estimators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosedForms {
    /// Closed-form L\*, when the family has one for the scheme.
    pub lstar: Option<ClosedForm>,
    /// Closed-form U\*.
    pub ustar: Option<ClosedForm>,
}

impl ClosedForms {
    /// No closed forms: every estimator uses its generic fallback.
    pub fn none() -> ClosedForms {
        ClosedForms::default()
    }
}

/// Closed-form registration hook: a function family inspects the
/// scheme's per-instance PPS scales (one per instance of the group) and
/// registers whatever fast paths it has. The default registers nothing —
/// generic fallbacks handle any [`ItemFn`] — so families only implement
/// this when they have something to say.
pub trait KernelFunc: ItemFn {
    /// The closed forms this family offers under per-instance PPS scales.
    fn closed_forms(&self, scales: &[f64]) -> ClosedForms {
        let _ = scales;
        ClosedForms::none()
    }
}

impl KernelFunc for RangePowPlus {
    /// `RGp+` registers its L\* closed form for `p ∈ {1, 2}` and its U\*
    /// closed form for every `p > 0` — but only for pair schemes under a
    /// *common* scale, where the Example 4 derivations hold.
    fn closed_forms(&self, scales: &[f64]) -> ClosedForms {
        // Degenerate scales register nothing — kernel construction reports
        // them as typed errors rather than closed-form constructor panics.
        if scales.len() != 2
            || scales[0] != scales[1]
            || !(scales[0].is_finite() && scales[0] > 0.0)
        {
            return ClosedForms::none();
        }
        let (p, scale) = (self.p(), scales[0]);
        let lstar = if p == 1.0 {
            Some(ClosedForm::RgPlusL(RgPlusLStar::new(1, scale)))
        } else if p == 2.0 {
            Some(ClosedForm::RgPlusL(RgPlusLStar::new(2, scale)))
        } else {
            None
        };
        ClosedForms {
            lstar,
            ustar: Some(ClosedForm::RgPlusU(RgPlusUStar::new(p, scale))),
        }
    }
}

impl KernelFunc for DistinctOr {
    /// The OR indicator's L\* collapses to inverse inclusion probability
    /// under any per-instance scale vector, at any arity.
    fn closed_forms(&self, scales: &[f64]) -> ClosedForms {
        ClosedForms {
            lstar: Some(ClosedForm::DistinctL {
                scales: scales.to_vec(),
            }),
            ustar: None,
        }
    }
}

impl KernelFunc for TupleMin {}
impl KernelFunc for TupleMax {}
impl KernelFunc for LinearAbsPow {}

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
/// job group, at any arity — evaluating a set of [`EstimatorKind`]s with
/// closed-form fast paths where the family registered them.
///
/// # Examples
///
/// ```
/// use monotone_core::func::TupleMax;
/// use monotone_core::quad::QuadConfig;
/// use monotone_coord::instance::Instance;
/// use monotone_engine::{Engine, EstimatorKind, FuncKernel, PairJob};
///
/// // max(v1, v2) aggregates under asymmetric PPS scales — no closed
/// // form registered, so L* runs through the generic quadrature path.
/// let kernel = FuncKernel::auto(
///     TupleMax::new(2),
///     &[1.0, 2.0],
///     &[EstimatorKind::LStar],
///     QuadConfig::fast(),
/// )
/// .unwrap();
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
    /// Whether any slot needs a materialized [`Outcome`] (closed forms
    /// work from raw values).
    needs_outcome: bool,
}

impl<F: ItemFn + Sync> FuncKernel<F> {
    /// Builds a kernel from a function, per-instance scales (the arity of
    /// `f` fixes the group arity), an estimator set, the quadrature
    /// configuration for generic fallbacks, and an explicit closed-form
    /// registration (use [`FuncKernel::auto`] to let the family register
    /// its own).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScale`] for non-finite or non-positive
    /// scales and [`Error::ArityMismatch`] when `f`'s arity differs from
    /// the scale count.
    pub fn new(
        f: F,
        scales: &[f64],
        kinds: &[EstimatorKind],
        quad: QuadConfig,
        closed: ClosedForms,
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
                EstimatorKind::LStar => closed
                    .lstar
                    .clone()
                    .map(KindEval::Closed)
                    .unwrap_or_else(|| KindEval::GenericL(LStar::with_quad(quad))),
                EstimatorKind::UStar => closed
                    .ustar
                    .clone()
                    .map(KindEval::Closed)
                    .unwrap_or_else(|| KindEval::GenericU(UStar::new())),
                EstimatorKind::HorvitzThompson => KindEval::Ht(HorvitzThompson::new()),
                EstimatorKind::DyadicJ => KindEval::J(DyadicJ::new()),
            })
            .collect();
        let needs_outcome = evals.iter().any(|e| !matches!(e, KindEval::Closed(_)));
        Ok(FuncKernel {
            mep,
            scales: scales.to_vec(),
            kinds: kinds.to_vec(),
            evals,
            needs_outcome,
        })
    }

    /// [`FuncKernel::new`] with the closed forms the function family
    /// registers for these scales ([`KernelFunc::closed_forms`]).
    ///
    /// # Errors
    ///
    /// See [`FuncKernel::new`].
    pub fn auto(
        f: F,
        scales: &[f64],
        kinds: &[EstimatorKind],
        quad: QuadConfig,
    ) -> Result<FuncKernel<F>>
    where
        F: KernelFunc,
    {
        let closed = f.closed_forms(scales);
        FuncKernel::new(f, scales, kinds, quad, closed)
    }

    /// The estimator kinds, in result order.
    pub fn kinds(&self) -> &[EstimatorKind] {
        &self.kinds
    }

    /// Which slots resolved to a registered closed form.
    pub fn closed_slots(&self) -> Vec<bool> {
        self.evals
            .iter()
            .map(|e| matches!(e, KindEval::Closed(_)))
            .collect()
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

    fn evaluate(
        &self,
        _key: u64,
        weights: &[f64],
        u: f64,
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<bool> {
        // Sampled values per instance: known iff the weight clears the
        // instance's threshold at the shared seed.
        scratch.values.resize(weights.len(), None);
        let mut any = false;
        for ((&w, &s), slot) in weights.iter().zip(&self.scales).zip(&mut scratch.values) {
            let v = (w > 0.0 && w >= u * s).then_some(w);
            any |= v.is_some();
            *slot = v;
        }
        if !any {
            // No sampled evidence: every estimator here yields 0 (all-capped
            // outcomes have zero lower bound), exactly as the per-call query
            // path skips items absent from all samples.
            return Ok(false);
        }
        let outcome = if self.needs_outcome {
            // Recycle the entry buffer across items: from_parts consumes a
            // Vec, into_parts below hands it back.
            let mut entries = std::mem::take(&mut scratch.entries);
            entries.clear();
            entries.extend(
                scratch
                    .values
                    .iter()
                    .map(|v| v.map_or(EntryState::Capped, EntryState::Known)),
            );
            Some(Outcome::from_parts(u, entries)?)
        } else {
            None
        };
        {
            let outcome = outcome.as_ref();
            for (slot, eval) in self.evals.iter().enumerate() {
                out[slot] += match eval {
                    KindEval::Closed(form) => form.eval(&scratch.values, u),
                    KindEval::GenericL(l) => l.estimate_with(
                        &self.mep,
                        outcome.expect("outcome prepared"),
                        &mut scratch.lb,
                    ),
                    KindEval::GenericU(us) => {
                        us.estimate(&self.mep, outcome.expect("outcome prepared"))
                    }
                    KindEval::Ht(ht) => ht.estimate(&self.mep, outcome.expect("outcome prepared")),
                    KindEval::J(j) => j.estimate(&self.mep, outcome.expect("outcome prepared")),
                };
            }
        }
        if let Some(outcome) = outcome {
            scratch.entries = outcome.into_parts().1;
        }
        Ok(true)
    }

    /// Batch fast path: when every requested estimator resolved to a
    /// registered closed form, each form sweeps the whole staged chunk
    /// through its own chunk-wide `eval_chunk` — the threshold tests run
    /// fused inside the sweep over the row-major weight staging, and
    /// virtual dispatch plus the estimator `match` leave the inner loop
    /// entirely. Any generic slot needs a materialized [`Outcome`] per
    /// item, so the kernel falls back to the per-item default in that
    /// case.
    fn evaluate_many(
        &self,
        keys: &[u64],
        weights: &[f64],
        arity: usize,
        seeds: &[f64],
        scratch: &mut KernelScratch,
        out: &mut [f64],
    ) -> Result<usize> {
        if self.needs_outcome {
            // Generic estimators materialize per-item outcomes: the trait
            // default's per-item loop.
            return evaluate_each(self, keys, weights, arity, seeds, scratch, out);
        }
        debug_assert_eq!(arity, self.scales.len());
        // Every form's sweep observes the same sampled-evidence count
        // (any instance's weight cleared its threshold at the item's
        // seed), so the first sweep's count is the chunk's count — no
        // separate counting pass.
        let mut sampled = None;
        for (slot, eval) in self.evals.iter().enumerate() {
            match eval {
                KindEval::Closed(form) => {
                    let n = form.eval_chunk(weights, &self.scales, arity, seeds, &mut out[slot]);
                    debug_assert!(sampled.is_none_or(|s| s == n));
                    sampled.get_or_insert(n);
                }
                // Unreachable: needs_outcome is false only when every
                // slot is closed-form.
                _ => unreachable!("generic slot on the closed-form batch path"),
            }
        }
        let sampled = sampled.unwrap_or_else(|| {
            // A kernel with zero estimator slots still counts sampled
            // items, exactly as the per-item path's threshold loop does.
            weights
                .chunks_exact(arity)
                .zip(seeds)
                .filter(|(row, &u)| {
                    row.iter()
                        .zip(&self.scales)
                        .any(|(&w, &s)| w > 0.0 && w >= u * s)
                })
                .count()
        });
        Ok(sampled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rg_plus_registers_closed_forms_under_common_scale() {
        let forms = RangePowPlus::new(1.0).closed_forms(&[2.0, 2.0]);
        assert!(matches!(forms.lstar, Some(ClosedForm::RgPlusL(_))));
        assert!(matches!(forms.ustar, Some(ClosedForm::RgPlusU(_))));
        // No L* closed form away from p in {1, 2}; U* covers every p.
        let forms = RangePowPlus::new(1.5).closed_forms(&[1.0, 1.0]);
        assert!(forms.lstar.is_none());
        assert!(forms.ustar.is_some());
        // Per-instance scales: the Example 4 derivations do not apply.
        let forms = RangePowPlus::new(1.0).closed_forms(&[1.0, 2.0]);
        assert_eq!(forms, ClosedForms::none());
    }

    #[test]
    fn distinct_closed_form_is_inverse_inclusion_probability() {
        let forms = DistinctOr::new(2).closed_forms(&[1.0, 2.0]);
        let lstar = forms.lstar.expect("registered");
        assert!(forms.ustar.is_none());
        // Known entries 0.4 (prob 0.4) and 0.7 (prob 0.35): q = 0.4.
        let e = lstar.eval(&[Some(0.4), Some(0.7)], 0.1);
        assert!((e - 1.0 / 0.4).abs() < 1e-15, "got {e}");
        // Single known entry above its scale: prob 1, estimate 1.
        assert_eq!(lstar.eval(&[None, Some(2.5)], 0.9), 1.0);
        assert_eq!(lstar.eval(&[None, None], 0.5), 0.0);
    }

    #[test]
    fn distinct_closed_form_generalizes_to_any_arity() {
        let forms = DistinctOr::new(4).closed_forms(&[1.0, 2.0, 4.0, 8.0]);
        let lstar = forms.lstar.expect("registered");
        // Probabilities 0.4, 0.35, capped, 0.05: q = 0.4.
        let e = lstar.eval(&[Some(0.4), Some(0.7), None, Some(0.4)], 0.1);
        assert!((e - 1.0 / 0.4).abs() < 1e-15, "got {e}");
        assert_eq!(lstar.eval(&[None, None, None, None], 0.5), 0.0);
    }

    #[test]
    fn distinct_closed_form_matches_generic_lstar() {
        use monotone_core::estimate::{LStar, MonotoneEstimator};
        let scales = [1.0, 2.0];
        let f = DistinctOr::new(2);
        let closed = f.closed_forms(&scales).lstar.unwrap();
        let mep = Mep::new(f, TupleScheme::pps(&scales).unwrap()).unwrap();
        let generic = LStar::new();
        for &v in &[[0.4, 0.7], [0.4, 0.0], [0.0, 1.9], [2.0, 3.0]] {
            for k in 1..=20 {
                let u = k as f64 / 20.0;
                let out = mep.scheme().sample(&v, u).unwrap();
                let a = closed.eval(&[out.known(0), out.known(1)], u);
                let b = generic.estimate(&mep, &out);
                assert!((a - b).abs() < 1e-9, "v={v:?} u={u}: closed {a} vs {b}");
            }
        }
    }

    #[test]
    fn distinct_closed_form_matches_generic_lstar_at_arity_three() {
        use monotone_core::estimate::{LStar, MonotoneEstimator};
        let scales = [1.0, 2.0, 0.5];
        let f = DistinctOr::new(3);
        let closed = f.closed_forms(&scales).lstar.unwrap();
        let mep = Mep::new(f, TupleScheme::pps(&scales).unwrap()).unwrap();
        let generic = LStar::new();
        for &v in &[[0.4, 0.7, 0.0], [0.0, 0.0, 0.3], [2.0, 3.0, 1.0]] {
            for k in 1..=20 {
                let u = k as f64 / 20.0;
                let out = mep.scheme().sample(&v, u).unwrap();
                let a = closed.eval(&[out.known(0), out.known(1), out.known(2)], u);
                let b = generic.estimate(&mep, &out);
                assert!((a - b).abs() < 1e-9, "v={v:?} u={u}: closed {a} vs {b}");
            }
        }
    }

    #[test]
    fn func_kernel_rejects_bad_scales() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(FuncKernel::auto(
                RangePowPlus::new(1.0),
                &[1.0, bad],
                &[EstimatorKind::LStar],
                QuadConfig::fast(),
            )
            .is_err());
        }
        // Arity mismatch between function and scale vector is typed too.
        assert!(FuncKernel::auto(
            DistinctOr::new(3),
            &[1.0, 1.0],
            &[EstimatorKind::LStar],
            QuadConfig::fast(),
        )
        .is_err());
    }

    #[test]
    fn closed_slots_reflect_registration() {
        let kernel = FuncKernel::auto(
            RangePowPlus::new(1.0),
            &[1.0, 1.0],
            &[
                EstimatorKind::LStar,
                EstimatorKind::UStar,
                EstimatorKind::HorvitzThompson,
            ],
            QuadConfig::fast(),
        )
        .unwrap();
        assert_eq!(kernel.closed_slots(), vec![true, true, false]);
        let generic = FuncKernel::new(
            RangePowPlus::new(1.0),
            &[1.0, 1.0],
            &[EstimatorKind::LStar],
            QuadConfig::fast(),
            ClosedForms::none(),
        )
        .unwrap();
        assert_eq!(generic.closed_slots(), vec![false]);
    }
}
