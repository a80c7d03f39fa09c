//! Item sources: the generic item stream estimation engines consume.
//!
//! Every estimation pass in this workspace walks the same shape of
//! stream: items, each carrying one weight per instance of the group.
//! [`ItemSource`] abstracts that stream so the consumer (the batch
//! engine's chunked kernel loop) is agnostic about *where* the weights
//! come from:
//!
//! * [`WeightMerger`] — the exact/full-map source: an N-way merge cursor
//!   over complete [`Instance`] weight maps. No inclusion correction is
//!   needed; the kernel's query scales apply unchanged. (Pair jobs run
//!   the same stream protocol over the tuple-yielding
//!   [`merged_weights`](crate::instance::merged_weights) cursor, which
//!   keeps both weights in registers — the engines' CI-gated hot path.)
//! * [`SketchUnion`] — the sketch-backed source: an N-way merge over the
//!   *retained entries* of N coordinated [`BottomKSample`]s. Items a
//!   sketch evicted stream as weight `0.0` (unsampled evidence), and the
//!   per-sketch conditioned rank thresholds are exposed as per-instance
//!   PPS scales ([`SketchUnion::conditioned_scales`]) so kernels apply
//!   the paper's inverse-probability correction (footnote 1's
//!   conditioned reduction) for what the sketch dropped.
//! * [`DomainSource`] — an explicit key domain over a group of
//!   instances, walked in the caller's order.
//!
//! Sources stream weights only. A query over a [`SketchUnion`] compiles
//! its kernel with the union's conditioned scales (e.g.
//! `EngineQuery::with_instance_scales`): under priority ranks each
//! sketch's threshold is one constant, so the correction lives entirely
//! in kernel compilation and the hot loop stays unchanged.
//!
//! # Examples
//!
//! ```
//! use monotone_coord::bottomk::{BottomK, RankMethod};
//! use monotone_coord::instance::{Instance, WeightMerger};
//! use monotone_coord::seed::SeedHasher;
//! use monotone_coord::source::{ItemSource, SketchUnion};
//!
//! let a = Instance::from_pairs((0..40u64).map(|k| (k, 0.2 + (k % 7) as f64 / 10.0)));
//! let b = Instance::from_pairs((20..60u64).map(|k| (k, 0.3 + (k % 5) as f64 / 10.0)));
//!
//! // With k at least the union size, the sketch union streams exactly
//! // what the exact merger streams.
//! let sampler = BottomK::new(64, RankMethod::Priority, SeedHasher::new(1));
//! let sketches = [sampler.sample_instance(&a), sampler.sample_instance(&b)];
//! let mut exact = WeightMerger::new([&a, &b]);
//! let mut union = SketchUnion::new(&sketches);
//! let (mut we, mut wu) = ([0.0; 2], [0.0; 2]);
//! while let Some(key) = ItemSource::next_into(&mut exact, &mut we) {
//!     assert_eq!(union.next_into(&mut wu), Some(key));
//!     assert_eq!(we, wu);
//! }
//! assert_eq!(union.next_into(&mut wu), None);
//! // Nothing was evicted, so every conditioned scale is the
//! // "always included" floor.
//! assert_eq!(union.conditioned_scales(), Some(&[f64::MIN_POSITIVE; 2][..]));
//! ```

use crate::bottomk::{BottomKSample, RankMethod};
use crate::instance::{Instance, WeightMerger};

/// A stream of items, each carrying one weight per instance of a group —
/// the engine's generic item stream.
///
/// Contract: [`next_into`](ItemSource::next_into) yields one key per
/// call, writing the item's weight in instance `i` to `weights[i]`
/// (`0.0` where the source has no evidence for the item); the buffer
/// length must equal [`arity`](ItemSource::arity). The merging sources
/// ([`WeightMerger`], [`SketchUnion`]) yield strictly ascending keys;
/// [`DomainSource`] yields the caller's domain verbatim, in its order and
/// with its duplicates.
pub trait ItemSource {
    /// Number of instances in the group (the required buffer length).
    fn arity(&self) -> usize;

    /// Advances to the next key of the stream, filling `weights`.
    /// Returns `None` when the stream is exhausted.
    fn next_into(&mut self, weights: &mut [f64]) -> Option<u64>;
}

impl ItemSource for WeightMerger<'_> {
    fn arity(&self) -> usize {
        WeightMerger::arity(self)
    }

    fn next_into(&mut self, weights: &mut [f64]) -> Option<u64> {
        WeightMerger::next_into(self, weights)
    }
}

/// A sketch-backed [`ItemSource`]: the key-ascending union of the
/// retained entries of N coordinated [`BottomKSample`]s, with the
/// per-sketch conditioned thresholds as PPS scales.
///
/// Under priority ranks the conditioned threshold of every retained item
/// of sketch `i` is the one constant `τᵢ`
/// ([`BottomKSample::retained_rank_threshold`]), so the whole union
/// behaves as a coordinated-PPS sample with per-instance scales
/// `sᵢ = 1/τᵢ` ([`BottomKSample::priority_conditioned_scale`]) — a query
/// front end compiles its kernel with those scales and the existing
/// closed forms apply the inverse-probability correction for evicted
/// items unchanged. With `k` at least the union size nothing is evicted
/// and the stream is bit-identical to [`WeightMerger`] over the source
/// instances (regression-tested through the engine).
///
/// The cursor owns key-sorted copies of the retained entries (sketches
/// store entries in rank order), so cloning a `SketchUnion` yields an
/// independent un-advanced stream — the per-job reset batch engines
/// need.
///
/// # Examples
///
/// ```
/// use monotone_coord::bottomk::{BottomK, RankMethod};
/// use monotone_coord::instance::Instance;
/// use monotone_coord::seed::SeedHasher;
/// use monotone_coord::source::{ItemSource, SketchUnion};
///
/// let inst = Instance::from_pairs((0..200u64).map(|k| (k, 0.2 + (k % 9) as f64 / 10.0)));
/// let sampler = BottomK::new(8, RankMethod::Priority, SeedHasher::new(4));
/// let sketch = sampler.sample_instance(&inst);
/// let mut union = SketchUnion::new(std::slice::from_ref(&sketch));
/// let mut count = 0;
/// let mut w = [0.0];
/// while let Some(key) = union.next_into(&mut w) {
///     assert_eq!(sketch.get(key), Some(w[0]));
///     count += 1;
/// }
/// assert_eq!(count, 8); // exactly the retained entries stream
/// // The conditioned scale is the PPS scale retained items cleared.
/// assert_eq!(
///     union.conditioned_scales().unwrap()[0],
///     sketch.priority_conditioned_scale()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SketchUnion {
    /// Per-sketch retained entries, key-ascending.
    columns: Vec<Vec<(u64, f64)>>,
    /// Per-column cursor into `columns`.
    pos: Vec<usize>,
    /// Per-sketch conditioned PPS scales (priority ranks only).
    scales: Option<Vec<f64>>,
}

impl SketchUnion {
    /// A union cursor over `sketches` (instance `i` of every streamed
    /// weight tuple is sketch `i`). Conditioned scales are computed when
    /// every sketch uses [`RankMethod::Priority`] — the only rank
    /// transform whose conditioned thresholds are PPS-shaped — and
    /// reported as [`None`] otherwise.
    pub fn new(sketches: &[BottomKSample]) -> SketchUnion {
        let columns: Vec<Vec<(u64, f64)>> = sketches.iter().map(|s| s.entries_by_key()).collect();
        let scales = sketches
            .iter()
            .all(|s| s.method() == RankMethod::Priority)
            .then(|| {
                sketches
                    .iter()
                    .map(|s| s.priority_conditioned_scale())
                    .collect()
            });
        SketchUnion {
            pos: vec![0; columns.len()],
            columns,
            scales,
        }
    }

    /// The per-sketch conditioned PPS scales (`None` unless every sketch
    /// was sampled under priority ranks): an item of weight `w` was
    /// retained in sketch `i` iff `w >= u · sᵢ` at its shared seed `u`.
    /// A query over the union compiles its kernel with these scales.
    pub fn conditioned_scales(&self) -> Option<&[f64]> {
        self.scales.as_deref()
    }
}

impl ItemSource for SketchUnion {
    fn arity(&self) -> usize {
        self.columns.len()
    }

    fn next_into(&mut self, weights: &mut [f64]) -> Option<u64> {
        assert_eq!(
            weights.len(),
            self.columns.len(),
            "weight buffer length must equal the union arity"
        );
        let key = self
            .columns
            .iter()
            .zip(&self.pos)
            .filter_map(|(col, &p)| col.get(p).map(|&(k, _)| k))
            .min()?;
        for ((col, p), slot) in self
            .columns
            .iter()
            .zip(&mut self.pos)
            .zip(weights.iter_mut())
        {
            *slot = match col.get(*p) {
                Some(&(k, w)) if k == key => {
                    *p += 1;
                    w
                }
                _ => 0.0,
            };
        }
        Some(key)
    }
}

/// An explicit-domain [`ItemSource`]: walks a caller-chosen key list (in
/// the caller's order) over a group of instances, streaming each key's
/// full weight tuple — including all-zero tuples for keys no instance
/// activates, which consumers may skip. This is the engine's
/// domain-restricted query path expressed as a source.
///
/// # Examples
///
/// ```
/// use monotone_coord::instance::Instance;
/// use monotone_coord::source::{DomainSource, ItemSource};
///
/// let a = Instance::from_pairs([(1u64, 0.9), (3, 0.4)]);
/// let b = Instance::from_pairs([(1u64, 0.7), (2, 0.5)]);
/// let domain = [3u64, 9];
/// let mut src = DomainSource::new(&domain, vec![&a, &b]);
/// let mut w = [0.0; 2];
/// assert_eq!(src.next_into(&mut w), Some(3));
/// assert_eq!(w, [0.4, 0.0]);
/// assert_eq!(src.next_into(&mut w), Some(9)); // inactive everywhere
/// assert_eq!(w, [0.0, 0.0]);
/// assert_eq!(src.next_into(&mut w), None);
/// ```
#[derive(Debug, Clone)]
pub struct DomainSource<'a> {
    domain: std::slice::Iter<'a, u64>,
    instances: Vec<&'a Instance>,
}

impl<'a> DomainSource<'a> {
    /// A source over `domain` keys and the given instance group.
    pub fn new(domain: &'a [u64], instances: Vec<&'a Instance>) -> DomainSource<'a> {
        DomainSource {
            domain: domain.iter(),
            instances,
        }
    }
}

impl ItemSource for DomainSource<'_> {
    fn arity(&self) -> usize {
        self.instances.len()
    }

    fn next_into(&mut self, weights: &mut [f64]) -> Option<u64> {
        assert_eq!(
            weights.len(),
            self.instances.len(),
            "weight buffer length must equal the group arity"
        );
        let &key = self.domain.next()?;
        for (slot, inst) in weights.iter_mut().zip(&self.instances) {
            *slot = inst.weight(key);
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottomk::BottomK;
    use crate::seed::SeedHasher;

    fn windowed(i: u64, n: u64) -> Instance {
        let lo = i * n / 2;
        Instance::from_pairs((lo..lo + n).map(|k| (k, 0.1 + ((k * 7 + i) % 13) as f64 / 13.0)))
    }

    #[test]
    fn sketch_union_streams_retained_union_in_key_order() {
        let group: Vec<Instance> = (0..3).map(|i| windowed(i, 40)).collect();
        let sampler = BottomK::new(12, RankMethod::Priority, SeedHasher::new(6));
        let sketches: Vec<BottomKSample> =
            group.iter().map(|i| sampler.sample_instance(i)).collect();
        let mut union = SketchUnion::new(&sketches);
        assert_eq!(ItemSource::arity(&union), 3);
        let mut w = [0.0; 3];
        let mut last = None;
        let mut seen = std::collections::BTreeSet::new();
        while let Some(key) = union.next_into(&mut w) {
            assert!(last.is_none_or(|l| key > l), "keys must ascend");
            last = Some(key);
            seen.insert(key);
            for (i, s) in sketches.iter().enumerate() {
                assert_eq!(s.get(key).unwrap_or(0.0), w[i], "key {key} sketch {i}");
            }
        }
        // Exactly the union of retained keys streamed.
        let expect: std::collections::BTreeSet<u64> = sketches
            .iter()
            .flat_map(|s| s.iter().map(|(k, _)| k))
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn sketch_union_full_k_matches_weight_merger() {
        let group: Vec<Instance> = (0..3).map(|i| windowed(i, 30)).collect();
        let sampler = BottomK::new(128, RankMethod::Priority, SeedHasher::new(2));
        let sketches: Vec<BottomKSample> =
            group.iter().map(|i| sampler.sample_instance(i)).collect();
        let mut union = SketchUnion::new(&sketches);
        let mut merger = WeightMerger::new(&group);
        let (mut wu, mut wm) = ([0.0; 3], [0.0; 3]);
        while let Some(key) = ItemSource::next_into(&mut merger, &mut wm) {
            assert_eq!(union.next_into(&mut wu), Some(key));
            assert_eq!(wu, wm, "key {key}");
        }
        assert_eq!(union.next_into(&mut wu), None);
    }

    #[test]
    fn sketch_union_clone_restarts_the_stream() {
        let inst = windowed(0, 50);
        let sampler = BottomK::new(10, RankMethod::Priority, SeedHasher::new(8));
        let sketch = sampler.sample_instance(&inst);
        let mut union = SketchUnion::new(std::slice::from_ref(&sketch));
        let fresh = union.clone();
        let mut w = [0.0];
        let first = union.next_into(&mut w);
        let mut cloned = fresh.clone();
        assert_eq!(cloned.next_into(&mut w), first);
    }

    #[test]
    fn non_priority_union_has_no_scales() {
        let inst = windowed(1, 30);
        let sampler = BottomK::new(5, RankMethod::Exponential, SeedHasher::new(3));
        let sketch = sampler.sample_instance(&inst);
        let union = SketchUnion::new(std::slice::from_ref(&sketch));
        assert_eq!(union.conditioned_scales(), None);
    }

    #[test]
    fn weight_merger_is_an_exact_source() {
        let a = windowed(0, 20);
        let b = windowed(1, 20);
        let mut merger = WeightMerger::new([&a, &b]);
        assert_eq!(ItemSource::arity(&merger), 2);
        let mut w = [0.0; 2];
        let mut items = 0;
        while ItemSource::next_into(&mut merger, &mut w).is_some() {
            items += 1;
        }
        let mut union: Vec<u64> = a.keys().chain(b.keys()).collect();
        union.sort_unstable();
        union.dedup();
        assert_eq!(items, union.len());
    }

    #[test]
    fn domain_source_walks_the_domain_verbatim() {
        let a = windowed(0, 10);
        let b = windowed(1, 10);
        let domain = [2u64, 2, 999, 7];
        let mut src = DomainSource::new(&domain, vec![&a, &b]);
        let mut w = [0.0; 2];
        for &key in &domain {
            assert_eq!(src.next_into(&mut w), Some(key));
            assert_eq!(w, [a.weight(key), b.weight(key)]);
        }
        assert_eq!(src.next_into(&mut w), None);
    }

    #[test]
    fn empty_union_is_exhausted() {
        let mut union = SketchUnion::new(&[]);
        assert_eq!(ItemSource::arity(&union), 0);
        assert_eq!(union.next_into(&mut []), None);
        assert_eq!(union.conditioned_scales(), Some(&[][..]));
    }
}
