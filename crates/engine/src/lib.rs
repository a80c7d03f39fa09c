//! # monotone-engine
//!
//! Batched, thread-parallel estimation over coordinated samples of many
//! instance groups — the workspace's designated hot path.
//!
//! The paper's prime application is estimating functions (`RGp+`, distinct
//! counts, Jaccard, Lp) over coordinated samples of *many* instances; the
//! follow-up customization work (arXiv:1212.0243, arXiv:1406.6490) is
//! motivated precisely by running customized estimators over massive sketch
//! collections. Coordination itself is arity-free — one shared hash seed
//! per item drives the sampling of that item in *every* instance — so the
//! engine's unit of work is an **item stream under one salt**, whatever
//! its arity. There are two job shapes: [`SourceJob`] runs any
//! [`ItemSource`] (an N-instance group, an explicit key domain, a sketch
//! union), and [`PairJob`] is the arity-2 specialization the pair
//! workloads keep using. The naive pattern — one [`Mep`] construction,
//! one quadrature-backed estimate, one group at a time — re-derives the
//! same per-MEP state for every outcome. The [`Engine`] amortizes that
//! setup once per batch through a pluggable **kernel** layer:
//!
//! * **kernels** — an [`EngineQuery`] builder selects a function family
//!   ([`RGp+`](monotone_core::func::RangePowPlus), distinct-count OR at
//!   any arity, linear forms) over per-instance PPS scales and compiles
//!   it into an [`EstimationKernel`]: prepare-once state, per-item
//!   `evaluate` over the item's weights in every instance of the group,
//!   with reusable scratch. Custom kernels plug straight into
//!   [`Engine::run_kernel`] and run through the same batch loop;
//! * **closed forms** — the query builder registers each family's
//!   closed forms in one place: `RGp+` under a common scale runs
//!   [`RgPlusLStar`] (`p ∈ {1, 2}`) and [`RgPlusUStar`], the
//!   distinct-count OR its inverse-probability form at **any arity**, and
//!   only genuinely generic problems pay for quadrature;
//! * **item sources** — every job streams its items through the same
//!   stream protocol: a cursor yielding keys with one weight per instance
//!   of the group, abstracted as [`ItemSource`]. [`WeightMerger`] is the
//!   exact full-map source for arity-N groups (a [`PairJob`] takes
//!   [`merged_weights`], the tuple-yielding specialization that keeps
//!   both weights in registers — the CI-gated hot path),
//!   [`DomainSource`] walks an explicit key domain, and [`SketchUnion`]
//!   streams the retained union of N coordinated bottom-k sketches, whose
//!   [`conditioned_scales`](SketchUnion::conditioned_scales) a query
//!   compiles with ([`EngineQuery::with_instance_scales`]) so the kernels
//!   apply the paper's inverse-probability correction for items the
//!   sketches dropped, through the very same hot loop;
//! * **chunked hot loop** — whatever the source, its item stream is
//!   staged into row-major `[item][instance]` chunks of 64 items, and
//!   each chunk is processed by exactly two batch calls: one
//!   [`SeedHasher::seed_many`] (the SplitMix64 stages run as wide
//!   lanes — AVX-512 where the CPU has it, interleaved scalar
//!   elsewhere, bit-identical either way), then one
//!   [`evaluate_many`](EstimationKernel::evaluate_many). Kernel dispatch
//!   is per **chunk**, not per item: when every estimator slot resolved
//!   to a registered closed form, the threshold tests and estimates run
//!   as one monomorphic sweep per form over the staged chunk, and a
//!   kernel with a generic slot, which needs a materialized outcome per
//!   item, makes one pass over the chunk's items instead;
//! * **deterministic parallelism** — jobs are split into contiguous chunks
//!   over a [`std::thread::scope`] worker pool; results land in
//!   preassigned slots, so the output is identical for every thread count.
//!
//! ```
//! use monotone_coord::instance::{Instance, WeightMerger};
//! use monotone_engine::{Engine, EngineQuery, EstimatorKind, PairJob, SourceJob};
//!
//! let a = Instance::from_pairs((0..100u64).map(|k| (k, 0.2 + (k % 7) as f64 / 10.0)));
//! let b = Instance::from_pairs((0..100u64).map(|k| (k, 0.2 + (k % 5) as f64 / 10.0)));
//! let jobs: Vec<PairJob> = (0..16).map(|salt| PairJob::new(&a, &b, salt)).collect();
//! let query = EngineQuery::rg_plus(1.0, 1.0)
//!     .with_estimators(&[EstimatorKind::LStar, EstimatorKind::HorvitzThompson]);
//! let batch = Engine::new().run(&jobs, &query).unwrap();
//! assert_eq!(batch.pairs.len(), 16);
//! let lstar = &batch.summaries[0];
//! assert_eq!(lstar.label, "L*");
//! assert!(lstar.nrmse < 1.0);
//!
//! // Source jobs reach past pairs: a 3-instance distinct count (how many
//! // items are active somewhere?) over the group's merged key union,
//! // through the OR indicator's N-way inverse-probability closed form.
//! let c = Instance::from_pairs((50..160u64).map(|k| (k, 0.3 + (k % 3) as f64 / 10.0)));
//! let group = [a, b, c];
//! let jobs: Vec<_> = (0..16)
//!     .map(|salt| SourceJob::new(WeightMerger::new(&group), salt))
//!     .collect();
//! let distinct = EngineQuery::distinct_k(3, 2.0);
//! let batch = Engine::new().run(&jobs, &distinct).unwrap();
//! assert_eq!(batch.pairs[0].truth, 160.0); // keys 0..160 active somewhere
//! assert!((batch.summaries[0].mean_estimate - 160.0).abs() < 16.0);
//! ```
//!
//! [`Mep`]: monotone_core::problem::Mep
//! [`RgPlusLStar`]: monotone_core::estimate::RgPlusLStar
//! [`RgPlusUStar`]: monotone_core::estimate::RgPlusUStar
//! [`SeedHasher::seed_many`]: monotone_coord::seed::SeedHasher::seed_many
//! [`WeightMerger`]: monotone_coord::instance::WeightMerger

pub mod kernel;
mod pool;
pub mod workload;

pub use kernel::{EstimationKernel, FuncKernel, KernelScratch};
pub use pool::chunk_bounds;

pub use monotone_coord::source::{DomainSource, ItemSource, SketchUnion};

use kernel::ClosedForm;
use monotone_coord::instance::{merged_weights, Instance};
use monotone_coord::seed::SeedHasher;
use monotone_core::estimate::{RgPlusLStar, RgPlusUStar};
use monotone_core::func::{DistinctOr, ItemFn, LinearAbsPow, RangePowPlus};
use monotone_core::Result;

/// Which estimator to run for each item of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// The paper's L\* (Section 4): closed form where the function family
    /// registered one, breakpoint-aware quadrature otherwise.
    LStar,
    /// The upper-extreme U\* (Section 6): closed form where registered,
    /// backward integration of Eq. (48) otherwise.
    UStar,
    /// Horvitz-Thompson, the inverse-probability baseline.
    HorvitzThompson,
    /// The dyadic J estimator, the O(1)-competitive baseline.
    DyadicJ,
}

impl EstimatorKind {
    /// Display name for tables and summaries.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::LStar => "L*",
            EstimatorKind::UStar => "U*",
            EstimatorKind::HorvitzThompson => "HT",
            EstimatorKind::DyadicJ => "J",
        }
    }
}

/// The function family a query estimates over each job — the sum
/// aggregate is `Σ_k f(v_k)` over the job's item domain, `v_k` the item's
/// weight tuple across the group's instances.
#[derive(Debug, Clone, PartialEq)]
enum FuncSpec {
    /// `max(0, v1 − v2)^p` (pairs).
    RgPlus { p: f64 },
    /// The OR indicator (distinct count) over `arity` instances.
    Distinct { arity: usize },
    /// `|a·v1 + b·v2 + offset|^p` (pairs).
    LinearAbs { a: f64, b: f64, offset: f64, p: f64 },
}

impl FuncSpec {
    fn arity(&self) -> usize {
        match self {
            FuncSpec::Distinct { arity } => *arity,
            _ => 2,
        }
    }
}

/// What to estimate over each job: a function-family sum aggregate under
/// coordinated PPS with per-instance scales, for a set of estimators.
///
/// A query is a *builder* for an [`EstimationKernel`]: constructors pick
/// the function family (`RGp+`, distinct count, linear forms; and, for
/// the arity-generic distinct count, the group arity),
/// [`with_instance_scales`](EngineQuery::with_instance_scales) sets
/// per-instance sampling scales,
/// [`with_estimators`](EngineQuery::with_estimators) the estimator set,
/// and [`kernel`](EngineQuery::kernel) compiles the prepared state
/// [`Engine::run`] executes. Closed forms registered by the family are
/// used automatically;
/// [`without_closed_forms`](EngineQuery::without_closed_forms) forces the
/// generic paths (agreement checks, baseline measurements). Other
/// families, `min`/`max` sums among them, compile through
/// [`FuncKernel::new`] on the generic paths and run with
/// [`Engine::run_kernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineQuery {
    func: FuncSpec,
    scales: Vec<f64>,
    estimators: Vec<EstimatorKind>,
    closed_forms: bool,
}

impl EngineQuery {
    fn with_func(func: FuncSpec, scale: f64) -> EngineQuery {
        let scales = vec![scale; func.arity()];
        EngineQuery {
            func,
            scales,
            estimators: vec![EstimatorKind::LStar],
            closed_forms: true,
        }
    }

    /// An `RGp+` query with exponent `p` and common PPS scale `τ*`,
    /// estimated with L\* only (customize via
    /// [`with_estimators`](EngineQuery::with_estimators)).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not finite positive (scales are validated at
    /// kernel-build time, where they can be reported as typed errors).
    pub fn rg_plus(p: f64, scale: f64) -> EngineQuery {
        assert!(p.is_finite() && p > 0.0, "RGp+ exponent must be positive");
        EngineQuery::with_func(FuncSpec::RgPlus { p }, scale)
    }

    /// A pair distinct-count (OR indicator) query: the sum aggregate
    /// counts items active in at least one of the two instances.
    pub fn distinct(scale: f64) -> EngineQuery {
        EngineQuery::distinct_k(2, scale)
    }

    /// A `k`-way distinct-count query over arity-`k` group jobs: the sum
    /// aggregate counts items active in at least one of the group's `k`
    /// instances. The OR family registers its inverse-probability L\*
    /// closed form at every arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity == 0` (the underlying [`DistinctOr`]
    /// constructor's contract).
    pub fn distinct_k(arity: usize, scale: f64) -> EngineQuery {
        let _ = DistinctOr::new(arity); // validate eagerly
        EngineQuery::with_func(FuncSpec::Distinct { arity }, scale)
    }

    /// An `|a·v1 + b·v2 + offset|^p` query (Example 1's `G`-style forms).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not finite positive or a coefficient is
    /// non-finite (the underlying [`LinearAbsPow`] constructor's
    /// contract).
    pub fn linear_abs(a: f64, b: f64, offset: f64, p: f64, scale: f64) -> EngineQuery {
        let _ = LinearAbsPow::new(vec![a, b], offset, p); // validate eagerly
        EngineQuery::with_func(FuncSpec::LinearAbs { a, b, offset, p }, scale)
    }

    /// Replaces the per-instance scale vector (one scale per instance of
    /// the job group; constructors start from a common scale). The length
    /// must match the query's arity — a mismatch surfaces as a typed error
    /// at kernel-build time. Closed forms that require a common scale
    /// are not registered under unequal scales.
    pub fn with_instance_scales(mut self, scales: &[f64]) -> EngineQuery {
        self.scales = scales.to_vec();
        self
    }

    /// Replaces the estimator set (order is preserved in the results).
    /// Duplicate kinds are dropped after their first occurrence — a
    /// repeated kind would evaluate identically and double-count in
    /// [`BatchResult::summaries`].
    pub fn with_estimators(mut self, kinds: &[EstimatorKind]) -> EngineQuery {
        let mut deduped: Vec<EstimatorKind> = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            if !deduped.contains(&kind) {
                deduped.push(kind);
            }
        }
        self.estimators = deduped;
        self
    }

    /// Disables registered closed forms: every estimator runs its generic
    /// path. Used by agreement checks and by the benchmark that prices
    /// what closed-form registration saves.
    pub fn without_closed_forms(mut self) -> EngineQuery {
        self.closed_forms = false;
        self
    }

    /// The group arity this query's function family expects.
    pub fn arity(&self) -> usize {
        self.func.arity()
    }

    /// The estimators run per job, in result order.
    pub fn estimators(&self) -> &[EstimatorKind] {
        &self.estimators
    }

    /// Compiles the query into its prepared kernel: function family plus
    /// scheme resolved, closed forms registered (unless disabled), one
    /// dispatch decision per estimator slot.
    ///
    /// # Errors
    ///
    /// Returns an error if a scale is invalid (zero, negative, infinite,
    /// or NaN) or the scale vector's length differs from the query arity.
    pub fn kernel(&self) -> Result<Box<dyn EstimationKernel>> {
        fn build<F: ItemFn + Sync + 'static>(
            f: F,
            q: &EngineQuery,
        ) -> Result<Box<dyn EstimationKernel>> {
            let closed = if q.closed_forms {
                q.registered_closed_forms()
            } else {
                [None, None]
            };
            let kernel = FuncKernel::with_closed_forms(f, &q.scales, &q.estimators, closed)?;
            Ok(Box::new(kernel))
        }
        match &self.func {
            FuncSpec::RgPlus { p } => build(RangePowPlus::new(*p), self),
            FuncSpec::Distinct { arity } => build(DistinctOr::new(*arity), self),
            FuncSpec::LinearAbs { a, b, offset, p } => {
                build(LinearAbsPow::new(vec![*a, *b], *offset, *p), self)
            }
        }
    }

    /// The closed forms the query's family registers under its scales,
    /// `[L*, U*]` — the one place closed forms are chosen; every other
    /// slot runs its generic estimator.
    ///
    /// * `RGp+` registers L\* for `p ∈ {1, 2}` and U\* for any `p`, only
    ///   for a pair with one common scale, where the Example 4
    ///   derivations hold.
    /// * The distinct count registers its inverse-probability L\* at any
    ///   arity and under any scales.
    /// * Linear forms register nothing.
    fn registered_closed_forms(&self) -> [Option<ClosedForm>; 2] {
        match self.func {
            // Degenerate scales register nothing — kernel construction
            // reports them as typed errors rather than closed-form
            // constructor panics. Neither do scales the forms' arithmetic
            // cannot take: they compute in units of `v / scale`, which
            // overflows at or below `f64::MIN_POSITIVE` (the scale a
            // lossless sketch reports), and multiply back by `scale^p`,
            // which underflows to 0 below about 1.5e-154 at p = 2 (an
            // answer of 0 · ∞). The generic estimators stay exact there.
            FuncSpec::RgPlus { p } => match self.scales[..] {
                [s, t]
                    if s == t
                        && s.is_finite()
                        && s > f64::MIN_POSITIVE
                        && s.powf(p) >= f64::MIN_POSITIVE =>
                {
                    [
                        (p == 1.0 || p == 2.0)
                            .then(|| ClosedForm::RgPlusL(RgPlusLStar::new(p as u8, s))),
                        Some(ClosedForm::RgPlusU(RgPlusUStar::new(p, s))),
                    ]
                }
                _ => [None, None],
            },
            FuncSpec::Distinct { .. } => [Some(ClosedForm::DistinctL), None],
            FuncSpec::LinearAbs { .. } => [None, None],
        }
    }
}

/// One unit of work at arity 2: an instance pair and the randomization
/// that seeds its coordinated sample.
///
/// This is the pair specialization of a [`SourceJob`] over a
/// [`WeightMerger`]: it streams the pair's merged key union through
/// [`merged_weights`], which keeps both weights in registers, and
/// reproduces the generic job bit for bit (regression-tested). Pair
/// workloads keep this shape so instances can be borrowed from anywhere
/// (pools, registries) without materializing contiguous groups.
///
/// [`WeightMerger`]: monotone_coord::instance::WeightMerger
#[derive(Debug, Clone, Copy)]
pub struct PairJob<'a> {
    /// First instance (entry 1 of every item tuple).
    pub a: &'a Instance,
    /// Second instance (entry 2).
    pub b: &'a Instance,
    /// Salt of the shared seed hash — one coordinated sampling run.
    pub salt: u64,
}

impl<'a> PairJob<'a> {
    /// A job over the pair's merged key union with hashed per-item seeds.
    pub fn new(a: &'a Instance, b: &'a Instance, salt: u64) -> PairJob<'a> {
        PairJob { a, b, salt }
    }
}

/// One unit of work over an explicit [`ItemSource`]: an un-advanced
/// stream cursor plus the randomization its coordinated sample was (or
/// is to be) drawn under.
///
/// Every input besides a plain pair enters the batch engine this way: an
/// arity-N group is `SourceJob::new(WeightMerger::new(group), salt)`, a
/// key domain is `SourceJob::new(DomainSource::new(keys, instances),
/// salt)`, and a sketch-backed stream is a [`SketchUnion`]. Workers clone
/// the cursor, so one prepared source fans out to any number of jobs. For
/// a sketch-backed source the salt **must** be the salt the sketches were
/// built with — a sketch stores items selected by one concrete
/// randomization, and evaluating it under another would decouple the
/// seeds from the retention decisions.
#[derive(Debug, Clone)]
pub struct SourceJob<S> {
    /// The un-advanced item stream (cloned per execution).
    pub source: S,
    /// Salt of the shared seed hash the stream's sampling used.
    pub salt: u64,
}

impl<S: ItemSource> SourceJob<S> {
    /// A job over `source` under the seed-hash salt `salt`.
    pub fn new(source: S, salt: u64) -> SourceJob<S> {
        SourceJob { source, salt }
    }

    /// Number of instances in the source's group.
    pub fn arity(&self) -> usize {
        self.source.arity()
    }
}

/// A job [`Engine::run`] and [`Engine::run_kernel`] accept: a
/// [`PairJob`] or a [`SourceJob`]. The trait is sealed — those two are
/// its only implementations — so it names the engine's job shapes rather
/// than opening an extension point; new inputs enter as [`ItemSource`]s
/// inside a `SourceJob`.
pub trait Job: Sync + sealed::Sealed {
    /// Runs this one job through `kernel`, whose label count is `width`
    /// (what each worker of a batch does per job).
    #[doc(hidden)]
    fn execute(&self, kernel: &dyn EstimationKernel, width: usize) -> Result<PairResult>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::PairJob<'_> {}
    impl<S> Sealed for super::SourceJob<S> {}
}

impl Job for PairJob<'_> {
    fn execute(&self, kernel: &dyn EstimationKernel, width: usize) -> Result<PairResult> {
        run_job(kernel, width, 2, self.salt, |run| {
            stream_pairs_into_run(run, merged_weights(self.a, self.b))
        })
    }
}

impl<S: ItemSource + Clone + Sync> Job for SourceJob<S> {
    fn execute(&self, kernel: &dyn EstimationKernel, width: usize) -> Result<PairResult> {
        let mut source = self.source.clone();
        run_job(kernel, width, source.arity(), self.salt, |run| {
            stream_into_run(run, &mut source)
        })
    }
}

/// Per-job output: one estimate per kernel column, plus the exact value
/// (cheap to carry along — the engine already visits every item).
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// Estimates, parallel to the kernel's
    /// [`labels`](EstimationKernel::labels) (for query-built kernels:
    /// [`EngineQuery::estimators`]).
    pub estimates: Vec<f64>,
    /// The exact sum aggregate over the job's domain.
    pub truth: f64,
    /// Number of items with sampled evidence (estimation work done).
    pub sampled_items: usize,
}

/// Accuracy summary of one estimator column over a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSummary {
    /// Kernel column label (for query-built kernels:
    /// [`EstimatorKind::name`]).
    pub label: String,
    /// Mean estimate across jobs.
    pub mean_estimate: f64,
    /// Mean exact value across jobs.
    pub mean_truth: f64,
    /// `sqrt(mean((est − truth)²)) / mean(truth)` (raw RMSE when the mean
    /// truth is zero) — the paper-style accuracy measure.
    pub nrmse: f64,
    /// Largest absolute per-job error.
    pub max_abs_error: f64,
}

/// A completed batch: per-job results in job order plus per-column
/// summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One entry per job, in input order regardless of thread count.
    pub pairs: Vec<PairResult>,
    /// One entry per kernel column, in label order — **empty for an
    /// empty batch**: a mean over zero jobs is undefined, so no
    /// per-column statistics are fabricated.
    pub summaries: Vec<EstimatorSummary>,
    /// Total items with sampled evidence across the batch.
    pub total_sampled_items: usize,
}

/// The batched estimation engine: a prepared kernel plus a scoped worker
/// pool with deterministic chunked work-splitting.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine sized to the machine (`available_parallelism`).
    pub fn new() -> Engine {
        Engine {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// An engine with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Engine {
        assert!(threads > 0, "engine needs at least one worker");
        Engine { threads }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of [`PairJob`]s or [`SourceJob`]s:
    /// every job through every estimator of the query, with the query
    /// compiled into its kernel once ([`EngineQuery::kernel`]) and shared
    /// read-only by the workers.
    ///
    /// # Errors
    ///
    /// Returns an error if a query scale is invalid, the query arity
    /// differs from a job's group arity, a streamed weight is invalid, or
    /// outcome assembly fails (corrupted instance data).
    pub fn run<J: Job>(&self, jobs: &[J], query: &EngineQuery) -> Result<BatchResult> {
        let kernel = query.kernel()?;
        self.run_kernel(jobs, kernel.as_ref())
    }

    /// Runs a batch through an explicit [`EstimationKernel`] — the entry
    /// point for custom kernels; [`Engine::run`] is this with the query's
    /// own kernel. The kernel's `evaluate` receives each item's weights in
    /// every instance of the job's group.
    ///
    /// A [`SourceJob`]'s reported `truth` is the exact aggregate **over
    /// the stream**: for exact sources that is the true value; for
    /// sketch-backed sources it is the aggregate of the retained union
    /// (the estimates, not the stream truth, are the store's answer —
    /// they correct for what the sketches dropped).
    ///
    /// # Errors
    ///
    /// Propagates the first error any job's evaluation reports.
    pub fn run_kernel<J: Job>(
        &self,
        jobs: &[J],
        kernel: &dyn EstimationKernel,
    ) -> Result<BatchResult> {
        let labels = kernel.labels();
        let width = labels.len();
        let results = self.map_chunked(jobs, |_, job| job.execute(kernel, width));
        let pairs = results.into_iter().collect::<Result<Vec<PairResult>>>()?;
        Ok(summarize(labels, pairs))
    }

    /// [`Engine::run_kernel`] over [`SourceJob`]s. It stays only because
    /// the repository benchmark (`perfbench/src/traced.rs`) calls it; new
    /// code calls `run_kernel`.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_kernel`].
    pub fn run_source_kernel<S>(
        &self,
        jobs: &[SourceJob<S>],
        kernel: &dyn EstimationKernel,
    ) -> Result<BatchResult>
    where
        S: ItemSource + Clone + Sync,
    {
        self.run_kernel(jobs, kernel)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Chunk size of the bulk seed-hashing loop: big enough to amortize the
/// per-chunk dispatch, small enough to stay in registers/L1.
const SEED_CHUNK: usize = 64;

/// Item staging buffers for one job: keys and per-instance weights stream
/// in, seeds are hashed in bulk ([`SeedHasher::seed_many`]), and the
/// kernel evaluates the chunk. Keys and seeds are stack arrays; the
/// weight staging is one arity-sized flat buffer allocated once per job.
struct ChunkBufs {
    keys: [u64; SEED_CHUNK],
    seeds: [f64; SEED_CHUNK],
    /// Row-major `[item][instance]` staging, `arity * SEED_CHUNK` wide.
    weights: Vec<f64>,
    arity: usize,
    len: usize,
}

impl ChunkBufs {
    fn new(arity: usize) -> ChunkBufs {
        ChunkBufs {
            keys: [0; SEED_CHUNK],
            seeds: [0.0; SEED_CHUNK],
            weights: vec![0.0; arity * SEED_CHUNK],
            arity,
            len: 0,
        }
    }

    fn push(&mut self, key: u64, ws: &[f64]) {
        debug_assert_eq!(
            ws.len(),
            self.arity,
            "ChunkBufs::push arity mismatch: item {key} carries {} weights, \
             chunk is staged for arity {}",
            ws.len(),
            self.arity
        );
        self.keys[self.len] = key;
        self.weights[self.len * self.arity..(self.len + 1) * self.arity].copy_from_slice(ws);
        self.len += 1;
    }

    fn push_pair(&mut self, key: u64, wa: f64, wb: f64) {
        self.keys[self.len] = key;
        self.weights[self.len * 2] = wa;
        self.weights[self.len * 2 + 1] = wb;
        self.len += 1;
    }

    fn is_full(&self) -> bool {
        self.len == SEED_CHUNK
    }
}

/// Per-job execution state every job shape shares: staging buffers,
/// scratch, accumulators, and the chunk flush.
struct JobRun<'k> {
    kernel: &'k dyn EstimationKernel,
    seeder: SeedHasher,
    bufs: ChunkBufs,
    scratch: KernelScratch,
    estimates: Vec<f64>,
    truth: f64,
    sampled_items: usize,
}

impl JobRun<'_> {
    /// Flushes the staged chunk: one bulk seed hash
    /// ([`SeedHasher::seed_many`]), then ONE
    /// [`evaluate_many`](EstimationKernel::evaluate_many) call, so virtual
    /// kernel dispatch happens once per chunk rather than once per item.
    fn flush(&mut self) -> Result<()> {
        let n = self.bufs.len;
        if n == 0 {
            return Ok(());
        }
        self.seeder
            .seed_many(&self.bufs.keys[..n], &mut self.bufs.seeds[..n]);
        self.sampled_items += self.kernel.evaluate_many(
            &self.bufs.keys[..n],
            &self.bufs.weights[..n * self.bufs.arity],
            self.bufs.arity,
            &self.bufs.seeds[..n],
            &mut self.scratch,
            &mut self.estimates,
        )?;
        self.bufs.len = 0;
        Ok(())
    }
}

/// The one per-job prologue and epilogue every job shape runs: reject a
/// group whose arity differs from the kernel's requirement (streaming a
/// truncated weight tuple would silently misestimate), stage a fresh
/// [`JobRun`], let `stream` drain the job's items into it, and flush the
/// last chunk.
fn run_job<'k>(
    kernel: &'k dyn EstimationKernel,
    width: usize,
    arity: usize,
    salt: u64,
    stream: impl FnOnce(&mut JobRun<'k>) -> Result<()>,
) -> Result<PairResult> {
    if let Some(expected) = kernel.arity().filter(|&expected| expected != arity) {
        let got = arity;
        return Err(monotone_core::Error::ArityMismatch { expected, got });
    }
    let mut run = JobRun {
        kernel,
        seeder: SeedHasher::new(salt),
        bufs: ChunkBufs::new(arity),
        scratch: KernelScratch::new(),
        estimates: vec![0.0; width],
        truth: 0.0,
        sampled_items: 0,
    };
    stream(&mut run)?;
    run.flush()?;
    Ok(PairResult {
        estimates: run.estimates,
        truth: run.truth,
        sampled_items: run.sampled_items,
    })
}

/// Rejects negative or non-finite item weights as typed errors.
/// Validated instance constructors never store such weights, but raw
/// ingest paths ([`Instance::set_raw`]) defer validation to the engine —
/// which must report the item, never skip it or stream it into kernels
/// (the explicit-domain path used to do the latter whenever a partner
/// entry was positive, a silent misestimate).
///
/// [`Instance::set_raw`]: monotone_coord::instance::Instance::set_raw
#[inline]
fn check_weight(key: u64, w: f64) -> Result<()> {
    if w.is_finite() && w >= 0.0 {
        Ok(())
    } else {
        Err(monotone_core::Error::InvalidWeight { key, weight: w })
    }
}

/// The streaming loop of a [`SourceJob`]: drain its [`ItemSource`]
/// into the job's staging buffers, validating weights, accumulating the
/// stream truth, and flushing full chunks through the two batch calls.
/// Items with no active weight anywhere (all entries `<= 0`, as an
/// explicit domain or a raw-ingested map can stream) contribute nothing
/// to any registered family and are skipped after validation — invalid
/// weights still surface as typed errors, never silently.
///
/// Generic (monomorphized per concrete source) so the exact full-map
/// merge stays as statically dispatched as the hand-rolled loops it
/// replaced.
fn stream_into_run<S: ItemSource + ?Sized>(run: &mut JobRun<'_>, source: &mut S) -> Result<()> {
    let mut ws = vec![0.0; source.arity()];
    while let Some(key) = source.next_into(&mut ws) {
        ws.iter().try_for_each(|&w| check_weight(key, w))?;
        if ws.iter().all(|&w| w <= 0.0) {
            continue;
        }
        run.truth += run.kernel.truth(&ws);
        run.bufs.push(key, &ws);
        if run.bufs.is_full() {
            run.flush()?;
        }
    }
    Ok(())
}

/// The [`PairJob`] specialization of [`stream_into_run`]: the identical
/// protocol (validate, skip inactive, accumulate truth, stage, flush),
/// but over a tuple-yielding merged stream ([`merged_weights`]) instead
/// of a buffer-filling [`ItemSource`]. Yielding `(key, wa, wb)` by value
/// keeps both weights in registers through the whole sequence — routing
/// pairs through a weight *buffer* costs ~20% of the batched hot loop's
/// throughput, which the CI perf gate would refuse.
fn stream_pairs_into_run(
    run: &mut JobRun<'_>,
    items: impl Iterator<Item = (u64, f64, f64)>,
) -> Result<()> {
    for (key, wa, wb) in items {
        check_weight(key, wa)?;
        check_weight(key, wb)?;
        if wa <= 0.0 && wb <= 0.0 {
            continue;
        }
        run.truth += run.kernel.truth(&[wa, wb]);
        run.bufs.push_pair(key, wa, wb);
        if run.bufs.is_full() {
            run.flush()?;
        }
    }
    Ok(())
}

fn summarize(labels: Vec<String>, pairs: Vec<PairResult>) -> BatchResult {
    // A mean over zero jobs is undefined: an empty batch gets empty
    // summaries instead of fabricated per-column statistics.
    if pairs.is_empty() {
        return BatchResult {
            pairs,
            summaries: Vec::new(),
            total_sampled_items: 0,
        };
    }
    let n = pairs.len() as f64;
    let mean_truth = pairs.iter().map(|p| p.truth).sum::<f64>() / n;
    let summaries = labels
        .into_iter()
        .enumerate()
        .map(|(i, label)| {
            let mean_estimate = pairs.iter().map(|p| p.estimates[i]).sum::<f64>() / n;
            let mse = pairs
                .iter()
                .map(|p| {
                    let e = p.estimates[i] - p.truth;
                    e * e
                })
                .sum::<f64>()
                / n;
            let max_abs_error = pairs
                .iter()
                .map(|p| (p.estimates[i] - p.truth).abs())
                .fold(0.0, f64::max);
            let rmse = mse.sqrt();
            EstimatorSummary {
                label,
                mean_estimate,
                mean_truth,
                nrmse: if mean_truth.abs() > 0.0 {
                    rmse / mean_truth.abs()
                } else {
                    rmse
                },
                max_abs_error,
            }
        })
        .collect();
    let total_sampled_items = pairs.iter().map(|p| p.sampled_items).sum();
    BatchResult {
        pairs,
        summaries,
        total_sampled_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong-length weight slice used to panic deep inside
    /// `copy_from_slice` with a length message that named neither the
    /// item nor the staged arity; the debug assertion must name both.
    #[test]
    #[cfg(debug_assertions)]
    fn chunk_bufs_push_names_the_arity_mismatch() {
        let panic = std::panic::catch_unwind(|| {
            let mut bufs = ChunkBufs::new(3);
            bufs.push(42, &[1.0, 2.0]);
        })
        .expect_err("wrong-length weight slice must panic in debug builds");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            msg.contains("ChunkBufs::push arity mismatch")
                && msg.contains("item 42")
                && msg.contains("2 weights")
                && msg.contains("arity 3"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn chunk_bufs_push_accepts_matching_arity() {
        let mut bufs = ChunkBufs::new(3);
        bufs.push(7, &[1.0, 2.0, 3.0]);
        assert_eq!(bufs.len, 1);
        assert_eq!(bufs.keys[0], 7);
        assert_eq!(&bufs.weights[..3], &[1.0, 2.0, 3.0]);
    }
}
