//! Canonical synthetic workloads shared by the engine benchmark and the
//! scenario smoke tests.
//!
//! `benches/engine.rs` and the scenario subsystem both need the same
//! reproducible `RG1+` pair workload (a pool of small instances, paired
//! with a stride so every batch mixes similar and dissimilar pairs);
//! keeping the construction here keeps the measured workload and the
//! tested workload identical by definition.
//!
//! # Examples
//!
//! ```
//! use monotone_engine::workload;
//!
//! let pool = workload::rg1_instance_pool(8, 12);
//! let jobs = workload::rg1_pair_jobs(&pool, 100);
//! assert_eq!(jobs.len(), 100);
//! // Deterministic: same pool, same pairing, same salts every call.
//! assert_eq!(jobs[3].salt, 3);
//! assert!(std::ptr::eq(jobs[0].a, &pool[0]));
//! ```

use monotone_coord::instance::{Instance, WeightMerger};

use super::{PairJob, SourceJob};

/// A pool of `instances` reproducible instances of `items_per_instance`
/// items each, with weights laid out on a fixed mod-97 lattice (the same
/// construction `benches/engine.rs` has always measured).
pub fn rg1_instance_pool(instances: u64, items_per_instance: u64) -> Vec<Instance> {
    (0..instances)
        .map(|v| {
            Instance::from_pairs(
                (0..items_per_instance)
                    .map(move |k| (k, 0.05 + 0.9 * (((k * 17 + v * 29 + 3) % 97) as f64 / 97.0))),
            )
        })
        .collect()
}

/// `pairs` jobs over the pool: job `i` pairs instance `i mod n` with
/// instance `(7i + 1) mod n` under salt `i`, cycling through every
/// instance combination and randomization.
///
/// # Panics
///
/// Panics if the pool is empty.
pub fn rg1_pair_jobs(pool: &[Instance], pairs: usize) -> Vec<PairJob<'_>> {
    assert!(!pool.is_empty(), "workload needs a non-empty instance pool");
    let n = pool.len();
    (0..pairs)
        .map(|i| PairJob::new(&pool[i % n], &pool[(i * 7 + 1) % n], i as u64))
        .collect()
}

/// An arity-`k` instance group with half-overlapping item windows:
/// instance `i` covers keys `[i·n/2, i·n/2 + n)` with weights on a fixed
/// mod-89 lattice, so consecutive instances share half their support and
/// the union grows linearly with `k` — the canonical workload of the
/// `multiway` k-way distinct-count scenario and the group-job tests.
pub fn distinct_group_pool(arity: usize, items_per_instance: u64) -> Vec<Instance> {
    assert!(arity >= 1, "group workload needs at least one instance");
    (0..arity as u64)
        .map(|i| {
            let lo = i * items_per_instance / 2;
            Instance::from_pairs(
                (lo..lo + items_per_instance)
                    .map(move |k| (k, 0.05 + 0.9 * (((k * 13 + i * 31 + 7) % 89) as f64 / 89.0))),
            )
        })
        .collect()
}

/// Key-pure weight of the planted-pair pool: a mod-89 lattice like
/// [`distinct_group_pool`]'s, but a function of the key *alone* — shared
/// keys carry identical weights in every instance, so their priority
/// ranks coincide and coordinated sketches of overlapping instances
/// agree item for item (the property banded signatures rely on).
fn planted_weight(key: u64) -> f64 {
    0.05 + 0.9 * (((key.wrapping_mul(13) + 7) % 89) as f64 / 89.0)
}

/// Key range where a planted instance's mutated-away items live: far
/// outside every base window, so mutations never alias pool keys.
const PLANTED_FRESH_BASE: u64 = 1 << 40;

/// The planted near-duplicate partner of instance `id`, if it has one:
/// [`planted_pair_pool`] replaces every instance with `id % period == 1`
/// by a mutated copy of instance `id - 1`.
pub fn planted_partner(id: u64, period: u64) -> Option<u64> {
    assert!(period >= 2, "planting needs a period of at least 2");
    if id % period == 1 {
        Some(id - 1)
    } else {
        None
    }
}

/// [`distinct_group_pool`] generalized to pool scale: `instances`
/// instances (any N up to the 10⁴–10⁶ all-pairs range) of
/// `items_per_instance` items each, with planted similar pairs.
///
/// Base instance `i` covers the half-overlapping window
/// `[i·n/2, i·n/2 + n)` — consecutive instances share half their support
/// (Jaccard ⅓), non-consecutive instances are disjoint. Every instance
/// with `i % period == 1` is replaced by a *planted near-duplicate* of
/// instance `i − 1`: the first 90% of the partner's window plus `n/10`
/// fresh far-away keys, a pair of support Jaccard
/// `(n − m)/(n + m) ≈ 0.85` (`m = n/10`). Weights are key-pure
/// (`planted_weight`'s lattice) so shared items sample identically
/// under any common salt.
///
/// Everything is a pure function of `(i, items_per_instance, period)`:
/// the pool prefix for a smaller N is a prefix of the pool for a larger
/// N, and regeneration is byte-identical everywhere.
///
/// # Panics
///
/// Panics if `items_per_instance < 10` (the 10% mutation would be empty)
/// or `period < 2`.
pub fn planted_pair_pool(instances: u64, items_per_instance: u64, period: u64) -> Vec<Instance> {
    assert!(
        items_per_instance >= 10,
        "planted pool needs at least 10 items per instance"
    );
    assert!(period >= 2, "planting needs a period of at least 2");
    let n = items_per_instance;
    let mutated = n / 10;
    (0..instances)
        .map(|i| {
            let base = planted_partner(i, period).unwrap_or(i);
            let lo = base * n / 2;
            let window = (lo..lo + n).map(|k| (k, planted_weight(k)));
            if base == i {
                Instance::from_pairs(window)
            } else {
                let fresh_lo = PLANTED_FRESH_BASE + i * n;
                Instance::from_pairs(
                    window
                        .take((n - mutated) as usize)
                        .chain((fresh_lo..fresh_lo + mutated).map(|k| (k, planted_weight(k)))),
                )
            }
        })
        .collect()
}

/// `randomizations` jobs over one instance group's merged key union,
/// salted `salt_base..salt_base + randomizations` — one coordinated
/// sampling run per job.
pub fn group_jobs(
    group: &[Instance],
    randomizations: u64,
    salt_base: u64,
) -> Vec<SourceJob<WeightMerger<'_>>> {
    (0..randomizations)
        .map(|r| SourceJob::new(WeightMerger::new(group), salt_base + r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_and_sized() {
        let a = rg1_instance_pool(32, 12);
        let b = rg1_instance_pool(32, 12);
        assert_eq!(a.len(), 32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), 12);
            assert!(x.iter().zip(y.iter()).all(|(p, q)| p == q));
        }
        // Weights stay inside the PPS(1) sampling range.
        assert!(a
            .iter()
            .flat_map(|i| i.iter())
            .all(|(_, w)| w > 0.0 && w < 1.0));
    }

    #[test]
    fn group_pool_overlaps_and_jobs_are_salted() {
        let group = distinct_group_pool(4, 12);
        assert_eq!(group.len(), 4);
        for inst in &group {
            assert_eq!(inst.len(), 12);
            assert!(inst.iter().all(|(_, w)| w > 0.0 && w < 1.0));
        }
        // Consecutive windows share half their keys.
        let shared = group[0]
            .keys()
            .filter(|&k| group[1].weight(k) > 0.0)
            .count();
        assert_eq!(shared, 6);
        let jobs = group_jobs(&group, 5, 100);
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[3].salt, 103);
        assert_eq!(jobs[0].arity(), 4);
        // Every job streams the whole group's key union from the start.
        let mut w = [0.0; 4];
        let mut source = jobs[4].source.clone();
        assert_eq!(source.next_into(&mut w), Some(0));
        assert_eq!(w, [group[0].weight(0), 0.0, 0.0, 0.0]);
        assert_eq!(std::iter::from_fn(|| source.next_into(&mut w)).count(), 29);
    }

    #[test]
    fn planted_pool_shapes_and_weights() {
        let pool = planted_pair_pool(25, 40, 10);
        assert_eq!(pool.len(), 25);
        for inst in &pool {
            // Planted instances swap 4 window keys for 4 fresh keys, so
            // every instance keeps exactly 40 items in (0, 1) weights.
            assert_eq!(inst.len(), 40);
            assert!(inst.iter().all(|(_, w)| w > 0.0 && w < 1.0));
        }
        // Weights are key-pure: any shared key agrees across instances.
        for (k, w) in pool[0].iter() {
            let w1 = pool[1].weight(k);
            assert!(w1 == 0.0 || w1 == w, "key {k}: {w} vs {w1}");
        }
        // Determinism and prefix stability.
        let again = planted_pair_pool(25, 40, 10);
        let small = planted_pair_pool(5, 40, 10);
        for (i, inst) in pool.iter().enumerate() {
            assert!(inst.iter().zip(again[i].iter()).all(|(p, q)| p == q));
            if i < 5 {
                assert!(inst.iter().zip(small[i].iter()).all(|(p, q)| p == q));
            }
        }
    }

    #[test]
    fn planted_pairs_are_near_duplicates_and_others_overlap_by_half() {
        let pool = planted_pair_pool(30, 40, 10);
        let shared = |a: &Instance, b: &Instance| a.keys().filter(|&k| b.weight(k) > 0.0).count();
        for id in 0..30u64 {
            match planted_partner(id, 10) {
                Some(p) => {
                    assert_eq!(p, id - 1);
                    // 36 of 40 keys shared: support Jaccard 36/44 ≈ 0.82.
                    assert_eq!(shared(&pool[id as usize], &pool[p as usize]), 36);
                }
                None => assert!(id % 10 != 1),
            }
        }
        // Consecutive base windows share half their keys; a planted
        // instance is adjacent-disjoint from its successor.
        assert_eq!(shared(&pool[2], &pool[3]), 20);
        assert_eq!(shared(&pool[11], &pool[12]), 0);
        // Non-consecutive base windows are disjoint.
        assert_eq!(shared(&pool[2], &pool[4]), 0);
    }

    #[test]
    fn jobs_cycle_the_pool() {
        let pool = rg1_instance_pool(4, 3);
        let jobs = rg1_pair_jobs(&pool, 10);
        assert_eq!(jobs.len(), 10);
        assert_eq!(jobs[9].salt, 9);
        assert!(std::ptr::eq(jobs[5].a, &pool[1]));
        assert!(std::ptr::eq(jobs[5].b, &pool[0]));
    }
}
