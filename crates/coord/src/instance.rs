//! Multi-instance datasets: weight assignments over a shared item universe.
//!
//! The paper's data model (Section 1, Example 1): `r` instances (rows) —
//! snapshots, activity logs, measurements — each assigning nonnegative
//! weights to the same set of items (columns). Queries span instances and a
//! selected item domain.

use std::collections::BTreeMap;

/// One instance: a sparse nonnegative weight assignment to items.
///
/// # Examples
///
/// ```
/// use monotone_coord::instance::Instance;
///
/// let inst = Instance::from_pairs([(1, 0.95), (3, 0.23)]);
/// assert_eq!(inst.weight(1), 0.95);
/// assert_eq!(inst.weight(2), 0.0); // absent items weigh 0
/// assert_eq!(inst.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Instance {
    weights: BTreeMap<u64, f64>,
}

impl Instance {
    /// An empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from `(key, weight)` pairs; zero and negative
    /// weights are dropped (inactive items).
    pub fn from_pairs<I: IntoIterator<Item = (u64, f64)>>(pairs: I) -> Instance {
        let mut weights = BTreeMap::new();
        for (k, w) in pairs {
            if w > 0.0 && w.is_finite() {
                weights.insert(k, w);
            }
        }
        Instance { weights }
    }

    /// Sets an item's weight (removing it when `w <= 0`).
    pub fn set(&mut self, key: u64, w: f64) {
        if w > 0.0 && w.is_finite() {
            self.weights.insert(key, w);
        } else {
            self.weights.remove(&key);
        }
    }

    /// Stores an item's weight **verbatim**, without the validation
    /// [`set`](Instance::set) applies — the low-level hook for ingest
    /// paths (streaming services, deserializers) that defer validation.
    ///
    /// A raw weight that is negative or non-finite is reported by the
    /// estimation engine as a typed `InvalidWeight` error when the
    /// instance is queried; it is never silently skipped or streamed
    /// into estimators.
    pub fn set_raw(&mut self, key: u64, w: f64) {
        self.weights.insert(key, w);
    }

    /// The weight of an item (0 when inactive).
    pub fn weight(&self, key: u64) -> f64 {
        self.weights.get(&key).copied().unwrap_or(0.0)
    }

    /// Number of active items.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no item is active.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates `(key, weight)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.weights.iter().map(|(&k, &w)| (k, w))
    }

    /// Active item keys in order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.weights.keys().copied()
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.values().sum()
    }
}

/// Iterates the union of two instances' keys in ascending order, yielding
/// `(key, w_a, w_b)` with weight `0.0` where an item is inactive.
///
/// A single merge pass over the two sorted maps, replacing the
/// collect-sort-dedup-then-lookup pattern in per-pair query loops — the
/// batch engine's way of visiting every item of an instance pair exactly
/// once.
///
/// # Examples
///
/// ```
/// use monotone_coord::instance::{merged_weights, Instance};
///
/// let a = Instance::from_pairs([(1u64, 0.9), (3, 0.4)]);
/// let b = Instance::from_pairs([(1u64, 0.7), (2, 0.5)]);
/// let merged: Vec<_> = merged_weights(&a, &b).collect();
/// assert_eq!(
///     merged,
///     vec![(1, 0.9, 0.7), (2, 0.0, 0.5), (3, 0.4, 0.0)]
/// );
/// ```
pub fn merged_weights<'a>(
    a: &'a Instance,
    b: &'a Instance,
) -> impl Iterator<Item = (u64, f64, f64)> + 'a {
    let mut ia = a.iter().peekable();
    let mut ib = b.iter().peekable();
    std::iter::from_fn(move || match (ia.peek().copied(), ib.peek().copied()) {
        (Some((ka, wa)), Some((kb, wb))) => {
            if ka < kb {
                ia.next();
                Some((ka, wa, 0.0))
            } else if kb < ka {
                ib.next();
                Some((kb, 0.0, wb))
            } else {
                ia.next();
                ib.next();
                Some((ka, wa, wb))
            }
        }
        (Some((ka, wa)), None) => {
            ia.next();
            Some((ka, wa, 0.0))
        }
        (None, Some((kb, wb))) => {
            ib.next();
            Some((kb, 0.0, wb))
        }
        (None, None) => None,
    })
}

/// Streaming N-way generalization of [`merged_weights`]: a cursor over
/// the union of any number of instances' keys in ascending order, filling
/// a caller-provided per-instance weight buffer for each item (`0.0`
/// where an item is inactive).
///
/// This is the engine's item stream for arity-N group jobs: one merge
/// pass over the sorted maps, no per-item allocation — the caller owns
/// the weight buffer and reuses it across items.
///
/// # Examples
///
/// ```
/// use monotone_coord::instance::{Instance, WeightMerger};
///
/// let a = Instance::from_pairs([(1u64, 0.9), (3, 0.4)]);
/// let b = Instance::from_pairs([(1u64, 0.7), (2, 0.5)]);
/// let c = Instance::from_pairs([(3u64, 0.1)]);
/// let mut merger = WeightMerger::new([&a, &b, &c]);
/// let mut w = [0.0; 3];
/// assert_eq!(merger.next_into(&mut w), Some(1));
/// assert_eq!(w, [0.9, 0.7, 0.0]);
/// assert_eq!(merger.next_into(&mut w), Some(2));
/// assert_eq!(w, [0.0, 0.5, 0.0]);
/// assert_eq!(merger.next_into(&mut w), Some(3));
/// assert_eq!(w, [0.4, 0.0, 0.1]);
/// assert_eq!(merger.next_into(&mut w), None);
/// ```
#[derive(Debug, Clone)]
pub struct WeightMerger<'a> {
    iters: Vec<std::iter::Peekable<std::collections::btree_map::Iter<'a, u64, f64>>>,
}

impl<'a> WeightMerger<'a> {
    /// A cursor over the key union of `instances` (any iterator of
    /// instance references — a [`Dataset`]'s slice, a job's group, an
    /// ad-hoc array).
    pub fn new<I>(instances: I) -> WeightMerger<'a>
    where
        I: IntoIterator<Item = &'a Instance>,
    {
        WeightMerger {
            iters: instances
                .into_iter()
                .map(|inst| inst.weights.iter().peekable())
                .collect(),
        }
    }

    /// Number of instances being merged (the required buffer length).
    pub fn arity(&self) -> usize {
        self.iters.len()
    }

    /// Advances to the next key of the union, writing each instance's
    /// weight of that item into `weights` (`0.0` where inactive). Returns
    /// `None` when every instance is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.arity()`.
    pub fn next_into(&mut self, weights: &mut [f64]) -> Option<u64> {
        assert_eq!(
            weights.len(),
            self.arity(),
            "weight buffer length must equal the merge arity"
        );
        let mut min_key: Option<u64> = None;
        for it in &mut self.iters {
            if let Some(&(&k, _)) = it.peek() {
                min_key = Some(min_key.map_or(k, |m| m.min(k)));
            }
        }
        let key = min_key?;
        for (slot, it) in weights.iter_mut().zip(&mut self.iters) {
            *slot = match it.peek() {
                Some(&(&k, &w)) if k == key => {
                    it.next();
                    w
                }
                _ => 0.0,
            };
        }
        Some(key)
    }
}

impl FromIterator<(u64, f64)> for Instance {
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Instance {
        Instance::from_pairs(iter)
    }
}

impl Extend<(u64, f64)> for Instance {
    fn extend<I: IntoIterator<Item = (u64, f64)>>(&mut self, iter: I) {
        for (k, w) in iter {
            self.set(k, w);
        }
    }
}

/// A dataset of `r` instances over a shared item universe.
///
/// # Examples
///
/// ```
/// use monotone_coord::instance::{Dataset, Instance};
///
/// let d = Dataset::new(vec![
///     Instance::from_pairs([(0, 0.95), (3, 0.70)]),
///     Instance::from_pairs([(0, 0.15), (3, 0.80)]),
/// ]);
/// assert_eq!(d.arity(), 2);
/// assert_eq!(d.tuple(3), vec![0.70, 0.80]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    instances: Vec<Instance>,
}

impl Dataset {
    /// Bundles instances into a dataset.
    pub fn new(instances: Vec<Instance>) -> Dataset {
        Dataset { instances }
    }

    /// Number of instances `r`.
    pub fn arity(&self) -> usize {
        self.instances.len()
    }

    /// The instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Instance `i`.
    pub fn instance(&self, i: usize) -> &Instance {
        &self.instances[i]
    }

    /// The tuple of weights of one item across instances (a matrix
    /// column), allocated fresh. Per-key loops should prefer
    /// [`tuple_into`](Dataset::tuple_into) with a reused buffer.
    pub fn tuple(&self, key: u64) -> Vec<f64> {
        let mut out = vec![0.0; self.arity()];
        self.tuple_into(key, &mut out);
        out
    }

    /// Writes the tuple of weights of one item across instances into a
    /// caller-provided buffer — the allocation-free form of
    /// [`tuple`](Dataset::tuple) for loops that visit many keys.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.arity()`.
    pub fn tuple_into(&self, key: u64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.arity(),
            "tuple buffer length must equal the dataset arity"
        );
        for (slot, inst) in out.iter_mut().zip(&self.instances) {
            *slot = inst.weight(key);
        }
    }

    /// All keys active in at least one instance, deduplicated and sorted.
    pub fn union_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.instances.iter().flat_map(|i| i.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The paper's Example 1 dataset: 3 instances over items a–h
    /// (keys 0–7).
    pub fn example1() -> Dataset {
        let v1 = [0.95, 0.0, 0.23, 0.70, 0.10, 0.42, 0.0, 0.32];
        let v2 = [0.15, 0.44, 0.0, 0.80, 0.05, 0.50, 0.20, 0.0];
        let v3 = [0.25, 0.0, 0.0, 0.10, 0.0, 0.22, 0.0, 0.0];
        Dataset::new(
            [v1, v2, v3]
                .iter()
                .map(|row| {
                    Instance::from_pairs(row.iter().enumerate().map(|(k, &w)| (k as u64, w)))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_weights_are_inactive() {
        let inst = Instance::from_pairs([(0, 0.5), (1, 0.0), (2, -3.0)]);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.weight(1), 0.0);
    }

    #[test]
    fn set_and_remove() {
        let mut inst = Instance::new();
        inst.set(5, 1.5);
        assert_eq!(inst.weight(5), 1.5);
        inst.set(5, 0.0);
        assert!(inst.is_empty());
    }

    #[test]
    fn example1_tuples_match_paper() {
        let d = Dataset::example1();
        assert_eq!(d.tuple(0), vec![0.95, 0.15, 0.25]); // item a
        assert_eq!(d.tuple(3), vec![0.70, 0.80, 0.10]); // item d
        assert_eq!(d.tuple(7), vec![0.32, 0.0, 0.0]); // item h
        assert_eq!(d.union_keys().len(), 8);
    }

    #[test]
    fn tuple_into_matches_tuple() {
        let d = Dataset::example1();
        let mut buf = vec![0.0; d.arity()];
        for key in 0..10u64 {
            d.tuple_into(key, &mut buf);
            assert_eq!(buf, d.tuple(key), "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn tuple_into_rejects_wrong_buffer() {
        Dataset::example1().tuple_into(0, &mut [0.0; 2]);
    }

    #[test]
    fn union_keys_dedup() {
        let d = Dataset::new(vec![
            Instance::from_pairs([(1, 1.0), (2, 1.0)]),
            Instance::from_pairs([(2, 1.0), (3, 1.0)]),
        ]);
        assert_eq!(d.union_keys(), vec![1, 2, 3]);
    }

    #[test]
    fn merged_weights_covers_union() {
        let a = Instance::from_pairs(
            (0..50u64)
                .filter(|k| k % 2 == 0)
                .map(|k| (k, 1.0 + k as f64)),
        );
        let b = Instance::from_pairs(
            (0..50u64)
                .filter(|k| k % 3 == 0)
                .map(|k| (k, 2.0 + k as f64)),
        );
        let merged: Vec<_> = merged_weights(&a, &b).collect();
        let d = Dataset::new(vec![a.clone(), b.clone()]);
        let keys = d.union_keys();
        assert_eq!(merged.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(merged[i], (k, a.weight(k), b.weight(k)));
        }
    }

    #[test]
    fn weight_merger_matches_pair_merge_and_union_keys() {
        let a = Instance::from_pairs(
            (0..60u64)
                .filter(|k| k % 2 == 0)
                .map(|k| (k, 1.0 + k as f64)),
        );
        let b = Instance::from_pairs(
            (0..60u64)
                .filter(|k| k % 3 == 0)
                .map(|k| (k, 2.0 + k as f64)),
        );
        let c = Instance::from_pairs(
            (0..60u64)
                .filter(|k| k % 5 == 0)
                .map(|k| (k, 3.0 + k as f64)),
        );
        // Arity 2: identical stream to merged_weights.
        let mut merger = WeightMerger::new([&a, &b]);
        let mut w = [0.0; 2];
        for (key, wa, wb) in merged_weights(&a, &b) {
            assert_eq!(merger.next_into(&mut w), Some(key));
            assert_eq!(w, [wa, wb]);
        }
        assert_eq!(merger.next_into(&mut w), None);
        // Arity 3: visits exactly the dataset's union keys with the
        // per-instance weights.
        let d = Dataset::new(vec![a.clone(), b.clone(), c.clone()]);
        let mut merger = WeightMerger::new(d.instances());
        let mut w = [0.0; 3];
        for key in d.union_keys() {
            assert_eq!(merger.next_into(&mut w), Some(key));
            assert_eq!(w.to_vec(), d.tuple(key));
        }
        assert_eq!(merger.next_into(&mut w), None);
    }

    #[test]
    fn weight_merger_handles_empty_and_single() {
        let mut empty = WeightMerger::new(std::iter::empty());
        assert_eq!(empty.arity(), 0);
        assert_eq!(empty.next_into(&mut []), None);
        let a = Instance::from_pairs([(7u64, 0.5)]);
        let mut one = WeightMerger::new([&a]);
        let mut w = [0.0];
        assert_eq!(one.next_into(&mut w), Some(7));
        assert_eq!(w, [0.5]);
        assert_eq!(one.next_into(&mut w), None);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn weight_merger_rejects_wrong_buffer() {
        let a = Instance::from_pairs([(1u64, 1.0)]);
        WeightMerger::new([&a]).next_into(&mut [0.0, 0.0]);
    }

    #[test]
    fn totals() {
        let inst = Instance::from_pairs([(0, 0.5), (1, 1.5)]);
        assert_eq!(inst.total_weight(), 2.0);
    }
}
