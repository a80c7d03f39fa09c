//! Coordinated bottom-k sampling (priority / successive-weighted /
//! reservoir) with per-item conditioned thresholds.
//!
//! Bottom-k schemes rank items by a weight-scaled transform of the shared
//! seed and keep the `k` smallest ranks. The paper (footnote 1) reduces
//! bottom-k to monotone sampling per item by conditioning on the seeds of
//! the other items: the item is included iff its rank is below the k-th
//! smallest rank among the *others*, which is a fixed threshold once the
//! others are fixed — yielding a per-item threshold scheme the estimators
//! can consume.
//!
//! Rank transforms:
//!
//! * [`RankMethod::Priority`] — `rank = u/w` (priority / sequential Poisson
//!   sampling); the conditioned scheme is PPS-like with a linear threshold;
//! * [`RankMethod::Exponential`] — `rank = −ln(1−u)/w` (successive weighted
//!   sampling without replacement); the conditioned scheme has the concave
//!   threshold `τ(u) = −ln(1−u)/τ_rank`;
//! * [`RankMethod::Uniform`] — `rank = u` (reservoir sampling; weights
//!   ignored), conditioning to an all-or-nothing threshold.

use monotone_core::scheme::{EntryState, LinearThreshold, Outcome, ThresholdFn, TupleScheme};

use crate::instance::Instance;
use crate::seed::SeedHasher;
use crate::wire::{Dec, Enc};

/// The rank transform of a bottom-k scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankMethod {
    /// `rank = u/w` — priority (sequential Poisson) sampling.
    Priority,
    /// `rank = −ln(1−u)/w` — successive weighted sampling without
    /// replacement (exponential ranks).
    Exponential,
    /// `rank = u` — uniform reservoir sampling.
    Uniform,
}

impl RankMethod {
    /// The rank of an item with shared seed `u ∈ (0, 1]` and weight `w`.
    ///
    /// The rank may be `+∞`: exponential ranks map a seed of exactly `1.0`
    /// (which [`SeedHasher::seed`] emits with probability `2⁻⁵³`) to an
    /// infinite rank, meaning the item sorts after every finite rank and is
    /// never retained. Callers holding weights from an [`Instance`] (always
    /// positive and finite) can rely on ranks never being NaN.
    ///
    /// # Errors
    ///
    /// Returns [`monotone_core::Error::InvalidValue`] when `w` is zero,
    /// negative, or non-finite and the method divides by the weight
    /// ([`Priority`](RankMethod::Priority) /
    /// [`Exponential`](RankMethod::Exponential)) — such weights would
    /// silently produce `inf`/`NaN` ranks and poison threshold selection —
    /// and [`monotone_core::Error::InvalidSeed`] when `u` is outside
    /// `(0, 1]`. [`Uniform`](RankMethod::Uniform) ignores the weight
    /// entirely and accepts any.
    pub fn rank(&self, u: f64, w: f64) -> monotone_core::Result<f64> {
        if !(u > 0.0 && u <= 1.0) {
            return Err(monotone_core::Error::InvalidSeed(u));
        }
        if *self != RankMethod::Uniform && !(w > 0.0 && w.is_finite()) {
            return Err(monotone_core::Error::InvalidValue(w));
        }
        Ok(self.rank_unchecked(u, w))
    }

    /// [`rank`](RankMethod::rank) without validation, for inputs already
    /// guaranteed valid (instance weights, hashed seeds).
    fn rank_unchecked(&self, u: f64, w: f64) -> f64 {
        match self {
            RankMethod::Priority => u / w,
            RankMethod::Exponential => -(-u).ln_1p() / w, // −ln(1−u)/w
            RankMethod::Uniform => u,
        }
    }
}

/// Version byte leading every [`BottomKSample`] wire payload. Bump on any
/// layout change; decoders reject versions they do not know.
const WIRE_VERSION: u8 = 1;

/// A bottom-k sample of one instance: the `k` lowest-rank items plus the
/// rank threshold needed for conditioned estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct BottomKSample {
    k: usize,
    method: RankMethod,
    /// `(rank, key, weight)` of retained items, ascending by rank.
    entries: Vec<(f64, u64, f64)>,
    /// The (k+1)-th smallest rank overall, when more than `k` items exist.
    next_rank: Option<f64>,
}

impl BottomKSample {
    /// The sample-size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The rank transform used.
    pub fn method(&self) -> RankMethod {
        self.method
    }

    /// The sampled weight of `key`, if included.
    pub fn get(&self, key: u64) -> Option<f64> {
        self.entries
            .iter()
            .find(|&&(_, k, _)| k == key)
            .map(|&(_, _, w)| w)
    }

    /// Whether `key` is in the sample.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Number of retained items: at most `min(k, instance size)`, and
    /// strictly fewer when items carried an infinite rank (exponential
    /// ranks at a shared seed of exactly `1.0` are never retained).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(key, weight)` of retained items by ascending rank.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().map(|&(_, k, w)| (k, w))
    }

    /// The conditioned rank threshold for `key`: the k-th smallest rank
    /// among the *other* items (`+∞` when fewer than `k` others exist).
    /// An item is included iff its own rank is strictly below this.
    pub fn conditioned_rank_threshold(&self, key: u64) -> f64 {
        if self.contains(key) {
            // Others' k-th smallest = the (k+1)-th overall.
            self.next_rank.unwrap_or(f64::INFINITY)
        } else if self.entries.len() < self.k {
            // Fewer than k items in total: everything is always included.
            f64::INFINITY
        } else {
            // k-th smallest overall = largest retained rank.
            self.entries
                .last()
                .map(|&(r, _, _)| r)
                .unwrap_or(f64::INFINITY)
        }
    }

    /// The `(k+1)`-th smallest rank seen while sampling, when more than
    /// `k` finite-rank items existed.
    pub fn next_rank(&self) -> Option<f64> {
        self.next_rank
    }

    /// The conditioned rank threshold shared by **every retained item**:
    /// the k-th smallest rank among the others of a retained item is the
    /// `(k+1)`-th smallest overall — one constant per sketch (`+∞` when
    /// the whole instance fit in the sample). This is the threshold
    /// bookkeeping sketch-backed query layers build on: one number per
    /// sketch turns the conditioned per-item schemes of all retained
    /// items into a single per-instance sampling scale.
    pub fn retained_rank_threshold(&self) -> f64 {
        self.next_rank.unwrap_or(f64::INFINITY)
    }

    /// The PPS scale of the conditioned scheme shared by every retained
    /// item under **priority ranks**: a retained item of weight `w` was
    /// included iff `u/w < τ` (`τ` = [`retained_rank_threshold`]), i.e.
    /// `w >= u · (1/τ)` — exactly a coordinated-PPS threshold with scale
    /// `1/τ`. An infinite `τ` maps to [`f64::MIN_POSITIVE`] ("always
    /// included"), matching [`BottomK::priority_item_problem`].
    ///
    /// [`retained_rank_threshold`]: BottomKSample::retained_rank_threshold
    ///
    /// # Panics
    ///
    /// Panics when the sample's method is not [`RankMethod::Priority`]
    /// (the other rank transforms condition to non-linear thresholds that
    /// no single PPS scale expresses).
    pub fn priority_conditioned_scale(&self) -> f64 {
        assert_eq!(
            self.method,
            RankMethod::Priority,
            "conditioned PPS scales require priority ranks"
        );
        let tau = self.retained_rank_threshold();
        if tau.is_finite() {
            1.0 / tau
        } else {
            f64::MIN_POSITIVE
        }
    }

    /// The retained `(key, weight)` entries sorted by **key** (the
    /// [`iter`](BottomKSample::iter) order is by rank) — the layout
    /// sketch-union merge cursors consume.
    pub fn entries_by_key(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.entries.iter().map(|&(_, k, w)| (k, w)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Appends this sample's stable, versioned wire form to `out` — the
    /// snapshot format a remote shard ships to the store router. Floats
    /// travel as raw IEEE-754 bits, so [`decode`](BottomKSample::decode)
    /// reproduces the sample **bit for bit** (ranks, thresholds, and
    /// weights included), which is what keeps a process-sharded store's
    /// estimates byte-identical to an in-process one.
    pub fn encode_into(&self, out: &mut Enc) {
        out.put_u8(WIRE_VERSION);
        out.put_u8(match self.method {
            RankMethod::Priority => 0,
            RankMethod::Exponential => 1,
            RankMethod::Uniform => 2,
        });
        out.put_len(self.k);
        match self.next_rank {
            Some(r) => {
                out.put_u8(1);
                out.put_f64(r);
            }
            None => out.put_u8(0),
        }
        out.put_len(self.entries.len());
        for &(rank, key, weight) in &self.entries {
            out.put_f64(rank);
            out.put_u64(key);
            out.put_f64(weight);
        }
    }

    /// Decodes one sample from `dec`, validating the version byte, the
    /// rank-method tag, and the `(rank, key)`-ascending entry order the
    /// sampler guarantees — corruption surfaces as a typed error, never
    /// as a structurally invalid sample.
    ///
    /// # Errors
    ///
    /// [`monotone_core::Error::Encoding`] on truncation, an unknown
    /// version or tag, or out-of-order entries.
    pub fn decode(dec: &mut Dec<'_>) -> monotone_core::Result<BottomKSample> {
        let version = dec.take_u8()?;
        if version != WIRE_VERSION {
            return Err(monotone_core::Error::Encoding(format!(
                "unknown BottomKSample wire version {version}"
            )));
        }
        let method = match dec.take_u8()? {
            0 => RankMethod::Priority,
            1 => RankMethod::Exponential,
            2 => RankMethod::Uniform,
            t => {
                return Err(monotone_core::Error::Encoding(format!(
                    "unknown rank-method tag {t}"
                )))
            }
        };
        let k = dec.take_len()?;
        let next_rank = match dec.take_u8()? {
            0 => None,
            1 => Some(dec.take_f64()?),
            t => {
                return Err(monotone_core::Error::Encoding(format!(
                    "bad next-rank flag {t}"
                )))
            }
        };
        let n = dec.take_len()?;
        if n > k {
            return Err(monotone_core::Error::Encoding(format!(
                "sample claims {n} entries for k = {k}"
            )));
        }
        // An entry is 24 wire bytes: reserve no more than the payload can
        // still hold, so a corrupt count fails as truncation below.
        let mut entries = Vec::with_capacity(n.min(dec.remaining() / 24));
        for _ in 0..n {
            let rank = dec.take_f64()?;
            let key = dec.take_u64()?;
            let weight = dec.take_f64()?;
            if let Some(&(pr, pk, _)) = entries.last() {
                let ord = rank.total_cmp(&pr).then(key.cmp(&pk));
                if ord != std::cmp::Ordering::Greater {
                    return Err(monotone_core::Error::Encoding(
                        "sample entries out of (rank, key) order".to_owned(),
                    ));
                }
            }
            entries.push((rank, key, weight));
        }
        Ok(BottomKSample {
            k,
            method,
            entries,
            next_rank,
        })
    }
}

/// One retained candidate of a [`BottomKStream`], ordered by
/// `(rank, key)` so rank ties break exactly like the stable sort over
/// key-ascending input the batch sampler used to run.
#[derive(Debug, Clone, Copy)]
struct RankedEntry {
    rank: f64,
    key: u64,
    weight: f64,
}

impl PartialEq for RankedEntry {
    fn eq(&self, other: &RankedEntry) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for RankedEntry {}

impl PartialOrd for RankedEntry {
    fn partial_cmp(&self, other: &RankedEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankedEntry {
    fn cmp(&self, other: &RankedEntry) -> std::cmp::Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then(self.key.cmp(&other.key))
    }
}

/// The online insert/evict path of bottom-k sampling: a resident sampler
/// that consumes one `(key, weight)` observation at a time and maintains
/// the `k` smallest finite ranks plus the `(k+1)`-th (the conditioned
/// threshold of every retained item) in a bounded max-heap — `O(log k)`
/// per insert, `O(k)` memory, no access to the full instance ever.
///
/// [`BottomK::sample_instance`] is this stream fed from an [`Instance`]:
/// the two paths are bit-identical by construction (regression-tested),
/// so a sketch built incrementally by a long-running store serves the
/// same estimates as one sampled from the full weight map.
///
/// Observations with non-positive or non-finite weight are inactive and
/// ignored (the contract of [`Instance::from_pairs`]); keys are assumed
/// distinct — re-inserting a key streams a second independent observation
/// of it, so callers with update semantics must deduplicate upstream.
///
/// # Examples
///
/// ```
/// use monotone_coord::bottomk::{BottomK, RankMethod};
/// use monotone_coord::instance::Instance;
/// use monotone_coord::seed::SeedHasher;
///
/// let inst = Instance::from_pairs((0..100u64).map(|k| (k, 1.0 + (k % 5) as f64)));
/// let sampler = BottomK::new(10, RankMethod::Priority, SeedHasher::new(3));
/// // Stream the items one at a time — identical to sampling in batch.
/// let mut stream = sampler.stream();
/// for (key, w) in inst.iter() {
///     stream.insert(key, w);
/// }
/// assert_eq!(stream.into_sample(), sampler.sample_instance(&inst));
/// ```
#[derive(Debug, Clone)]
pub struct BottomKStream {
    k: usize,
    method: RankMethod,
    seeder: SeedHasher,
    /// Max-heap of the `k + 1` smallest finite `(rank, key)` entries.
    heap: std::collections::BinaryHeap<RankedEntry>,
}

impl BottomKStream {
    /// Feeds one observation to the sampler: rank it, keep it while it is
    /// among the `k + 1` smallest finite ranks, evict the largest
    /// otherwise. Inactive observations (`w <= 0`, non-finite `w`) and
    /// infinite ranks (exponential ranks at a hash seed of exactly `1.0`)
    /// never enter the heap.
    ///
    /// Returns whether the retained state changed — `true` exactly when
    /// the observation entered the heap (so a subsequent
    /// [`sample`](BottomKStream::sample) snapshot differs from the one
    /// before the insert), `false` when it was rejected. In a warm
    /// stream almost every observation ranks above the resident
    /// `(k+1)`-th and is rejected in `O(1)`, which is what lets callers
    /// maintaining derived state (a live band index, say) pay the
    /// re-derivation cost only on the `O(k log n)` accepted inserts.
    pub fn insert(&mut self, key: u64, w: f64) -> bool {
        if !(w > 0.0 && w.is_finite()) {
            return false;
        }
        let rank = self.method.rank_unchecked(self.seeder.seed(key), w);
        if !rank.is_finite() {
            return false;
        }
        let entry = RankedEntry {
            rank,
            key,
            weight: w,
        };
        if self.heap.len() <= self.k {
            self.heap.push(entry);
            true
        } else if entry < *self.heap.peek().expect("non-empty heap") {
            self.heap.pop();
            self.heap.push(entry);
            true
        } else {
            false
        }
    }

    /// Number of ranked entries currently resident (at most `k + 1`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True before any active observation arrived.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshots the current sample without consuming the stream (live
    /// queries over a store that keeps ingesting).
    pub fn sample(&self) -> BottomKSample {
        self.clone().into_sample()
    }

    /// Finalizes the stream into its sample: the `k` smallest ranks
    /// ascending, plus the `(k+1)`-th as the retained-item threshold when
    /// the heap saw more than `k` finite ranks.
    pub fn into_sample(self) -> BottomKSample {
        let mut entries: Vec<(f64, u64, f64)> = self
            .heap
            .into_iter()
            .map(|e| (e.rank, e.key, e.weight))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let next_rank = if entries.len() > self.k {
            entries.pop().map(|(r, _, _)| r)
        } else {
            None
        };
        BottomKSample {
            k: self.k,
            method: self.method,
            entries,
            next_rank,
        }
    }
}

/// Coordinated bottom-k sampler.
///
/// # Examples
///
/// ```
/// use monotone_coord::bottomk::{BottomK, RankMethod};
/// use monotone_coord::instance::Instance;
/// use monotone_coord::seed::SeedHasher;
///
/// let inst = Instance::from_pairs((0..100u64).map(|k| (k, 1.0 + (k % 5) as f64)));
/// let sampler = BottomK::new(10, RankMethod::Priority, SeedHasher::new(3));
/// let sample = sampler.sample_instance(&inst);
/// assert_eq!(sample.len(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottomK {
    k: usize,
    method: RankMethod,
    seeder: SeedHasher,
}

impl BottomK {
    /// Creates a bottom-k sampler.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, method: RankMethod, seeder: SeedHasher) -> BottomK {
        assert!(k > 0, "bottom-k needs k >= 1");
        BottomK { k, method, seeder }
    }

    /// The sample size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The rank transform.
    pub fn method(&self) -> RankMethod {
        self.method
    }

    /// The shared seed hasher.
    pub fn seeder(&self) -> &SeedHasher {
        &self.seeder
    }

    /// An empty online sampler sharing this sampler's `k`, rank method,
    /// and seed hash — the streaming insert/evict path resident stores
    /// ingest through ([`BottomKStream`]).
    pub fn stream(&self) -> BottomKStream {
        BottomKStream {
            k: self.k,
            method: self.method,
            seeder: self.seeder,
            heap: std::collections::BinaryHeap::with_capacity(self.k + 2),
        }
    }

    /// Samples one instance: the `k` smallest-rank items.
    ///
    /// This is [`BottomK::stream`] fed with the instance's items — the
    /// batch path **is** the online path, so incrementally built sketches
    /// and full-map samples are identical by construction.
    ///
    /// Items with an infinite rank (exponential ranks at a shared seed of
    /// exactly `1.0`) are never retained, even when the instance has fewer
    /// than `k` items: an infinite rank is below no threshold, so retaining
    /// such an item would break the membership rule
    /// `contains(key) ⟺ rank < conditioned_rank_threshold(key)` and hand
    /// estimators an outcome claiming a sample the scheme says is
    /// impossible. An infinite `(k+1)`-th rank likewise never becomes a
    /// conditioned threshold value (it is equivalent to "fewer than `k`
    /// others exist").
    pub fn sample_instance(&self, inst: &Instance) -> BottomKSample {
        let mut stream = self.stream();
        for (key, w) in inst.iter() {
            stream.insert(key, w);
        }
        stream.into_sample()
    }

    /// The conditioned per-item monotone problem for priority ranks: a PPS
    /// scheme (`τ_i(u) = u / τ_rank,i`) plus the item's outcome.
    ///
    /// # Panics
    ///
    /// Panics when the sampler's method is not [`RankMethod::Priority`].
    ///
    /// # Errors
    ///
    /// Propagates outcome validation errors.
    pub fn priority_item_problem(
        &self,
        samples: &[BottomKSample],
        key: u64,
    ) -> monotone_core::Result<(TupleScheme<LinearThreshold>, Outcome)> {
        assert_eq!(self.method, RankMethod::Priority, "priority ranks required");
        let u = self.seeder.seed(key);
        let mut thresholds = Vec::with_capacity(samples.len());
        let mut entries = Vec::with_capacity(samples.len());
        for s in samples {
            let tau = s.conditioned_rank_threshold(key);
            // Included iff u/w < tau ⟺ w > u/tau: linear threshold with
            // scale 1/tau (≈0 when tau = ∞: always included). A subnormal
            // tau yields scale = ∞, the "never included" threshold.
            let scale = if tau.is_finite() {
                1.0 / tau
            } else {
                f64::MIN_POSITIVE
            };
            thresholds.push(LinearThreshold::new(scale)?);
            entries.push(match s.get(key) {
                Some(w) => EntryState::Known(w),
                None => EntryState::Capped,
            });
        }
        Ok((
            TupleScheme::new(thresholds),
            Outcome::from_parts(u, entries)?,
        ))
    }

    /// The conditioned per-item monotone problem for exponential ranks.
    ///
    /// # Panics
    ///
    /// Panics when the sampler's method is not [`RankMethod::Exponential`].
    ///
    /// # Errors
    ///
    /// Propagates outcome validation errors.
    pub fn exponential_item_problem(
        &self,
        samples: &[BottomKSample],
        key: u64,
    ) -> monotone_core::Result<(TupleScheme<ExpThreshold>, Outcome)> {
        assert_eq!(
            self.method,
            RankMethod::Exponential,
            "exponential ranks required"
        );
        let u = self.seeder.seed(key);
        let mut thresholds = Vec::with_capacity(samples.len());
        let mut entries = Vec::with_capacity(samples.len());
        for s in samples {
            let tau = s.conditioned_rank_threshold(key);
            thresholds.push(ExpThreshold::new(tau));
            entries.push(match s.get(key) {
                Some(w) => EntryState::Known(w),
                None => EntryState::Capped,
            });
        }
        Ok((
            TupleScheme::new(thresholds),
            Outcome::from_parts(u, entries)?,
        ))
    }
}

/// The conditioned threshold of exponential-rank bottom-k sampling:
/// an item of weight `w` is included at seed `u` iff
/// `−ln(1−u)/w < τ_rank`, i.e. `w > τ(u) = −ln(1−u)/τ_rank`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpThreshold {
    tau_rank: f64,
}

impl ExpThreshold {
    /// Creates the threshold for a conditioned rank bound `τ_rank > 0`
    /// (`+∞` = always included).
    ///
    /// # Panics
    ///
    /// Panics if `τ_rank <= 0` or is NaN.
    pub fn new(tau_rank: f64) -> ExpThreshold {
        assert!(
            tau_rank > 0.0 && !tau_rank.is_nan(),
            "rank threshold must be positive"
        );
        ExpThreshold { tau_rank }
    }

    /// The conditioned rank bound.
    pub fn tau_rank(&self) -> f64 {
        self.tau_rank
    }
}

impl ThresholdFn for ExpThreshold {
    fn cap(&self, u: f64) -> f64 {
        if self.tau_rank.is_infinite() {
            // "Always included" — except at u = 1.0 exactly, where the
            // exponential rank is +∞ for every weight and the strict rule
            // `rank < τ_rank` excludes the item (∞ < ∞ is false). The naive
            // −ln(1−u)/τ_rank would be ∞/∞ = NaN here.
            return if u >= 1.0 { f64::INFINITY } else { 0.0 };
        }
        -(-u).ln_1p() / self.tau_rank
    }

    fn inclusion_prob(&self, w: f64) -> f64 {
        if self.tau_rank.is_infinite() {
            return 1.0;
        }
        // u such that −ln(1−u)/w = τ: u = 1 − exp(−w τ).
        -(-w * self.tau_rank).exp_m1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_instance(n: u64) -> Instance {
        Instance::from_pairs((0..n).map(|k| (k, 0.5 + (k % 9) as f64 / 3.0)))
    }

    #[test]
    fn sample_has_k_smallest_ranks() {
        let inst = test_instance(200);
        let sampler = BottomK::new(20, RankMethod::Priority, SeedHasher::new(5));
        let s = sampler.sample_instance(&inst);
        assert_eq!(s.len(), 20);
        // Every non-sampled item must have rank >= every sampled rank.
        let max_in = s.entries.last().unwrap().0;
        for (key, w) in inst.iter() {
            if !s.contains(key) {
                let r = RankMethod::Priority
                    .rank(sampler.seeder().seed(key), w)
                    .unwrap();
                assert!(r >= max_in, "missed a smaller rank: {r} < {max_in}");
            }
        }
    }

    #[test]
    fn membership_iff_rank_below_conditioned_threshold() {
        // The defining property of the conditioned reduction (footnote 1).
        for method in [
            RankMethod::Priority,
            RankMethod::Exponential,
            RankMethod::Uniform,
        ] {
            let inst = test_instance(100);
            let sampler = BottomK::new(10, method, SeedHasher::new(7));
            let s = sampler.sample_instance(&inst);
            for (key, w) in inst.iter() {
                let r = method.rank(sampler.seeder().seed(key), w).unwrap();
                let tau = s.conditioned_rank_threshold(key);
                assert_eq!(
                    s.contains(key),
                    r < tau,
                    "method {method:?} key {key}: rank {r} vs tau {tau}"
                );
            }
        }
    }

    #[test]
    fn small_instance_keeps_everything() {
        let inst = test_instance(5);
        let sampler = BottomK::new(10, RankMethod::Exponential, SeedHasher::new(2));
        let s = sampler.sample_instance(&inst);
        assert_eq!(s.len(), 5);
        assert_eq!(s.conditioned_rank_threshold(3), f64::INFINITY);
    }

    #[test]
    fn coordinated_bottomk_is_lsh() {
        let inst = test_instance(300);
        let sampler = BottomK::new(30, RankMethod::Exponential, SeedHasher::new(13));
        let a = sampler.sample_instance(&inst);
        let b = sampler.sample_instance(&inst.clone());
        let ka: Vec<u64> = a.iter().map(|(k, _)| k).collect();
        let kb: Vec<u64> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn priority_item_problem_consistent() {
        // The conditioned scheme must agree with actual membership: entry i
        // known iff the item's weight clears the threshold at its seed.
        let inst_a = test_instance(80);
        let inst_b = Instance::from_pairs(inst_a.iter().map(|(k, w)| (k, w * 1.3)));
        let sampler = BottomK::new(12, RankMethod::Priority, SeedHasher::new(21));
        let samples = vec![
            sampler.sample_instance(&inst_a),
            sampler.sample_instance(&inst_b),
        ];
        for (key, _) in inst_a.iter() {
            let (scheme, outcome) = sampler.priority_item_problem(&samples, key).unwrap();
            let u = sampler.seeder().seed(key);
            for i in 0..2 {
                let w = [inst_a.weight(key), inst_b.weight(key)][i];
                let sampled_by_scheme = w >= scheme.thresholds()[i].cap(u);
                assert_eq!(
                    outcome.known(i).is_some(),
                    sampled_by_scheme,
                    "key {key} instance {i}"
                );
            }
        }
    }

    #[test]
    fn exp_threshold_consistency() {
        let t = ExpThreshold::new(2.5);
        for wi in 1..=20 {
            let w = wi as f64 / 10.0;
            for ui in 1..=99 {
                let u = ui as f64 / 100.0;
                let sampled = w >= t.cap(u);
                let by_prob = u <= t.inclusion_prob(w);
                assert_eq!(sampled, by_prob, "w={w} u={u}");
            }
        }
    }

    #[test]
    fn exp_threshold_infinite_rank_always_samples() {
        let t = ExpThreshold::new(f64::INFINITY);
        assert_eq!(t.cap(0.99), 0.0);
        assert_eq!(t.inclusion_prob(0.0), 1.0);
    }

    #[test]
    fn rank_rejects_degenerate_weights() {
        // Zero/negative/non-finite weights would silently become inf/NaN
        // ranks; the checked entry point turns them into typed errors.
        for method in [RankMethod::Priority, RankMethod::Exponential] {
            for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                assert!(
                    matches!(
                        method.rank(0.5, bad),
                        Err(monotone_core::Error::InvalidValue(_))
                    ),
                    "{method:?} accepted weight {bad}"
                );
            }
        }
        // Uniform reservoir ranks ignore the weight: any weight is fine,
        // but seeds are still validated.
        assert_eq!(RankMethod::Uniform.rank(0.5, 0.0).unwrap(), 0.5);
        for method in [
            RankMethod::Priority,
            RankMethod::Exponential,
            RankMethod::Uniform,
        ] {
            assert!(matches!(
                method.rank(0.0, 1.0),
                Err(monotone_core::Error::InvalidSeed(_))
            ));
        }
    }

    /// Regression (seed == 1.0): the hash seed can be exactly 1.0, which
    /// exponential ranks map to +∞. End to end, such an item must never be
    /// retained, the membership rule must stay consistent, and the
    /// conditioned item problem must agree with the sample.
    #[test]
    fn exponential_seed_one_item_is_never_sampled() {
        let seeder = SeedHasher::new(77);
        let poisoned = seeder.key_for_raw(u64::MAX);
        assert_eq!(seeder.seed(poisoned), 1.0);

        // Fewer items than k: pre-fix the infinite-rank item was retained.
        let mut inst = Instance::from_pairs([(1u64, 0.8), (2, 1.4)]);
        inst.set(poisoned, 2.5);
        let sampler = BottomK::new(4, RankMethod::Exponential, seeder);
        let s = sampler.sample_instance(&inst);
        assert!(
            !s.contains(poisoned),
            "infinite-rank item must not be in the sample"
        );
        assert_eq!(s.len(), 2);
        for (key, w) in inst.iter() {
            let rank = RankMethod::Exponential.rank_unchecked(seeder.seed(key), w);
            let tau = s.conditioned_rank_threshold(key);
            assert_eq!(s.contains(key), rank < tau, "membership rule at key {key}");
        }

        // The conditioned monotone problem for the poisoned item: capped in
        // every instance (cap(1.0) = ∞), with finite, zero estimates.
        let samples = vec![s.clone(), sampler.sample_instance(&inst)];
        let (scheme, outcome) = sampler
            .exponential_item_problem(&samples, poisoned)
            .unwrap();
        assert_eq!(outcome.seed(), 1.0);
        for i in 0..2 {
            assert_eq!(outcome.known(i), None, "instance {i} must be capped");
            assert!(scheme.thresholds()[i].cap(1.0).is_infinite());
        }
        let mep =
            monotone_core::problem::Mep::new(monotone_core::func::RangePowPlus::new(1.0), scheme)
                .unwrap();
        let est = monotone_core::estimate::LStar::new();
        let e = monotone_core::estimate::MonotoneEstimator::estimate(&est, &mep, &outcome);
        assert_eq!(e, 0.0, "all-capped outcome must estimate 0, got {e}");
    }

    /// Regression (seed == 1.0): when the infinite rank is the (k+1)-th, it
    /// must not become a finite-looking conditioned threshold, and sorting
    /// must not panic.
    #[test]
    fn infinite_next_rank_does_not_poison_thresholds() {
        let seeder = SeedHasher::new(5);
        let poisoned = seeder.key_for_raw(u64::MAX);
        // k items with finite ranks plus the infinite-rank item.
        let mut inst = Instance::from_pairs((0..3u64).map(|k| (k, 1.0 + k as f64)));
        inst.set(poisoned, 9.0);
        let sampler = BottomK::new(3, RankMethod::Exponential, seeder);
        let s = sampler.sample_instance(&inst);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(poisoned));
        // Retained items condition on the others' k-th smallest rank, which
        // is infinite here — "always included", never a poisoned finite
        // value; and the threshold for the poisoned item stays consistent.
        for (key, w) in inst.iter() {
            let rank = RankMethod::Exponential.rank_unchecked(seeder.seed(key), w);
            let tau = s.conditioned_rank_threshold(key);
            assert!(tau > 0.0);
            assert_eq!(s.contains(key), rank < tau, "membership rule at key {key}");
        }
    }

    /// The pre-stream batch algorithm (collect, stable-sort by rank,
    /// truncate), kept as the reference the online insert/evict path must
    /// reproduce bit for bit.
    fn sort_based_sample(sampler: &BottomK, inst: &Instance) -> BottomKSample {
        let mut ranked: Vec<(f64, u64, f64)> = inst
            .iter()
            .map(|(key, w)| {
                (
                    sampler
                        .method()
                        .rank_unchecked(sampler.seeder().seed(key), w),
                    key,
                    w,
                )
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let next_rank = ranked
            .get(sampler.k())
            .map(|&(r, _, _)| r)
            .filter(|r| r.is_finite());
        ranked.truncate(sampler.k());
        ranked.retain(|&(r, _, _)| r.is_finite());
        BottomKSample {
            k: sampler.k(),
            method: sampler.method(),
            entries: ranked,
            next_rank,
        }
    }

    #[test]
    fn streamed_sample_is_bit_identical_to_sort_based() {
        for method in [
            RankMethod::Priority,
            RankMethod::Exponential,
            RankMethod::Uniform,
        ] {
            for (n, k) in [(0u64, 3), (3, 8), (50, 7), (200, 20), (64, 64), (65, 64)] {
                let inst = test_instance(n);
                let sampler = BottomK::new(k, method, SeedHasher::new(n + k as u64));
                let streamed = sampler.sample_instance(&inst);
                let sorted = sort_based_sample(&sampler, &inst);
                assert_eq!(streamed, sorted, "method {method:?} n={n} k={k}");
                // Insertion order must not matter: reverse the stream.
                let mut rev = sampler.stream();
                let mut items: Vec<(u64, f64)> = inst.iter().collect();
                items.reverse();
                for (key, w) in items {
                    rev.insert(key, w);
                }
                assert_eq!(rev.into_sample(), sorted, "reversed {method:?} n={n} k={k}");
            }
        }
    }

    #[test]
    fn stream_matches_sort_based_with_poisoned_seed() {
        // The seed==1.0 item has an infinite exponential rank; the online
        // path must drop it exactly like the batch path did.
        let seeder = SeedHasher::new(77);
        let poisoned = seeder.key_for_raw(u64::MAX);
        let mut inst = test_instance(10);
        inst.set(poisoned, 2.5);
        for k in [2, 10, 11, 12] {
            let sampler = BottomK::new(k, RankMethod::Exponential, seeder);
            assert_eq!(
                sampler.sample_instance(&inst),
                sort_based_sample(&sampler, &inst),
                "k={k}"
            );
        }
    }

    #[test]
    fn insert_reports_exactly_the_retained_state_changes() {
        // The live-index maintenance contract: insert returns true iff
        // the heap content changed, i.e. iff sample() snapshots taken
        // before and after the insert differ.
        let sampler = BottomK::new(3, RankMethod::Priority, SeedHasher::new(11));
        let mut stream = sampler.stream();
        // Inactive observations never change anything.
        assert!(!stream.insert(1, 0.0));
        assert!(!stream.insert(2, f64::NAN));
        // Filling the k+1 slots always changes state.
        let mut accepted = Vec::new();
        for key in 0..200u64 {
            let before = stream.sample();
            let changed = stream.insert(key, 1.0 + (key % 5) as f64);
            let after = stream.sample();
            assert_eq!(changed, before != after, "key {key}");
            if changed {
                accepted.push(key);
            }
        }
        // The first k+1 active observations are always accepted, later
        // ones only when they beat the resident (k+1)-th rank: rare.
        assert!(accepted.len() >= 4);
        assert!(accepted.len() < 40, "almost all warm inserts are rejected");
        // An infinite exponential rank is rejected without state change.
        let seeder = SeedHasher::new(77);
        let mut exp = BottomK::new(2, RankMethod::Exponential, seeder).stream();
        assert!(!exp.insert(seeder.key_for_raw(u64::MAX), 2.0));
        assert!(exp.is_empty());
    }

    #[test]
    fn stream_ignores_inactive_observations() {
        let sampler = BottomK::new(4, RankMethod::Priority, SeedHasher::new(9));
        let mut stream = sampler.stream();
        stream.insert(1, 0.0);
        stream.insert(2, -1.0);
        stream.insert(3, f64::NAN);
        stream.insert(4, f64::INFINITY);
        assert!(stream.is_empty());
        stream.insert(5, 1.25);
        assert_eq!(stream.len(), 1);
        // A live snapshot and the finalized sample agree.
        assert_eq!(stream.sample(), stream.clone().into_sample());
        let s = stream.into_sample();
        assert_eq!(s.get(5), Some(1.25));
        assert_eq!(s.next_rank(), None);
        assert_eq!(s.retained_rank_threshold(), f64::INFINITY);
    }

    #[test]
    fn retained_threshold_and_conditioned_scale() {
        let inst = test_instance(100);
        let sampler = BottomK::new(10, RankMethod::Priority, SeedHasher::new(5));
        let s = sampler.sample_instance(&inst);
        // The per-sketch constant equals the conditioned threshold of
        // every retained item.
        for (key, _) in s.iter() {
            assert_eq!(
                s.conditioned_rank_threshold(key),
                s.retained_rank_threshold()
            );
        }
        assert_eq!(s.retained_rank_threshold(), s.next_rank().unwrap());
        // The PPS reduction: scale = 1/τ agrees with priority_item_problem.
        let (scheme, _) = sampler
            .priority_item_problem(std::slice::from_ref(&s), s.iter().next().unwrap().0)
            .unwrap();
        assert_eq!(
            scheme.thresholds()[0].scale(),
            s.priority_conditioned_scale()
        );
        // Small instance: τ = ∞ maps to the "always included" scale.
        let tiny = sampler.sample_instance(&test_instance(3));
        assert_eq!(tiny.priority_conditioned_scale(), f64::MIN_POSITIVE);
    }

    #[test]
    fn entries_by_key_is_key_sorted() {
        let inst = test_instance(150);
        let sampler = BottomK::new(25, RankMethod::Priority, SeedHasher::new(31));
        let s = sampler.sample_instance(&inst);
        let by_key = s.entries_by_key();
        assert_eq!(by_key.len(), s.len());
        assert!(by_key.windows(2).all(|w| w[0].0 < w[1].0));
        for &(k, w) in &by_key {
            assert_eq!(s.get(k), Some(w));
        }
    }

    #[test]
    fn wire_round_trip_is_bit_identical() {
        for method in [
            RankMethod::Priority,
            RankMethod::Exponential,
            RankMethod::Uniform,
        ] {
            for n in [0u64, 3, 50, 200] {
                let inst = test_instance(n);
                let sampler = BottomK::new(10, method, SeedHasher::new(n + 1));
                let s = sampler.sample_instance(&inst);
                let mut enc = Enc::new();
                s.encode_into(&mut enc);
                let bytes = enc.into_bytes();
                let mut dec = Dec::new(&bytes);
                let back = BottomKSample::decode(&mut dec).unwrap();
                dec.finish().unwrap();
                // PartialEq on f64 fields is bit-blind for -0.0 vs 0.0, so
                // also compare the re-encoded bytes.
                assert_eq!(back, s, "{method:?} n={n}");
                let mut re = Enc::new();
                back.encode_into(&mut re);
                assert_eq!(re.into_bytes(), bytes, "{method:?} n={n}");
            }
        }
    }

    #[test]
    fn wire_decode_rejects_corruption() {
        let s = BottomK::new(4, RankMethod::Priority, SeedHasher::new(9))
            .sample_instance(&test_instance(30));
        let mut enc = Enc::new();
        s.encode_into(&mut enc);
        let good = enc.into_bytes();

        // Unknown version byte.
        let mut bad = good.clone();
        bad[0] = 0xff;
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&bad)),
            Err(monotone_core::Error::Encoding(_))
        ));
        // Unknown method tag.
        let mut bad = good.clone();
        bad[1] = 9;
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&bad)),
            Err(monotone_core::Error::Encoding(_))
        ));
        // Truncation anywhere must error, never panic.
        for cut in 0..good.len() {
            assert!(
                BottomKSample::decode(&mut Dec::new(&good[..cut])).is_err(),
                "truncation at {cut} slipped through"
            );
        }
        // An entry count the payload cannot hold is truncation too; it
        // must not size an allocation first.
        let mut huge = Enc::new();
        huge.put_u8(good[0]); // version
        huge.put_u8(0); // priority ranks
        huge.put_len(1 << 40); // k
        huge.put_u8(0); // no next rank
        huge.put_len(1 << 40); // entries
        assert!(matches!(
            BottomKSample::decode(&mut Dec::new(&huge.into_bytes())),
            Err(monotone_core::Error::Encoding(_))
        ));
    }

    #[test]
    fn uniform_reservoir_ignores_weights() {
        let heavy = Instance::from_pairs((0..100u64).map(|k| (k, if k < 5 { 100.0 } else { 0.1 })));
        let sampler = BottomK::new(10, RankMethod::Uniform, SeedHasher::new(1));
        let s = sampler.sample_instance(&heavy);
        // Uniform ranks: membership determined by seed order, not weight.
        let mut keys: Vec<u64> = heavy.keys().collect();
        keys.sort_by(|&a, &b| {
            sampler
                .seeder()
                .seed(a)
                .partial_cmp(&sampler.seeder().seed(b))
                .unwrap()
        });
        for k in &keys[..10] {
            assert!(s.contains(*k));
        }
    }
}
