//! Scoped worker pool with deterministic chunked work-splitting.
//!
//! Work is divided into contiguous index ranges assigned statically to
//! workers — no work-stealing, no shared queues — so a batch's results are
//! byte-identical for every thread count, and each worker touches a single
//! contiguous slice of the output (no false sharing on hot loops).

use super::Engine;

/// The contiguous `[lo, hi)` index ranges splitting `n` items over at most
/// `workers` workers: the first `n % workers` chunks take one extra item.
/// Returns fewer chunks than workers when `n < workers`; empty for `n = 0`.
///
/// # Examples
///
/// ```
/// use monotone_engine::chunk_bounds;
///
/// assert_eq!(chunk_bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
/// assert_eq!(chunk_bounds(2, 8), vec![(0, 1), (1, 2)]);
/// assert_eq!(chunk_bounds(0, 4), vec![]);
/// ```
pub fn chunk_bounds(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(n);
    if workers == 0 {
        return Vec::new();
    }
    let base = n / workers;
    let extra = n % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0;
    for i in 0..workers {
        let hi = lo + base + usize::from(i < extra);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

impl Engine {
    /// Applies `f(index, item)` to every item across the worker pool,
    /// returning results in input order. Single-threaded engines (and
    /// single-item inputs) run inline without spawning.
    ///
    /// This is the engine's generic parallel driver; [`Engine::run`] is
    /// built on it, and experiment binaries use it directly for workloads
    /// that are not instance pairs (e.g. sweeps over known data vectors
    /// and sketch-based similarity).
    pub fn map_chunked<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let bounds = chunk_bounds(items.len(), self.threads());
        if bounds.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
        results.resize_with(items.len(), || None);
        std::thread::scope(|s| {
            let mut rest: &mut [Option<R>] = &mut results;
            for &(lo, hi) in &bounds {
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let f = &f;
                s.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(lo + j, &items[lo + j]));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every slot is filled by exactly one worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_exactly() {
        for n in 0..50 {
            for workers in 1..10 {
                let bounds = chunk_bounds(n, workers);
                let mut expect_lo = 0;
                for &(lo, hi) in &bounds {
                    assert_eq!(lo, expect_lo);
                    assert!(hi > lo, "empty chunk");
                    expect_lo = hi;
                }
                assert_eq!(expect_lo, n, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn map_chunked_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 7] {
            let engine = Engine::with_threads(threads);
            let out = engine.map_chunked(&items, |i, &x| x * 2 + i as u64);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, items[i] * 2 + i as u64);
            }
        }
    }

    #[test]
    fn map_chunked_empty_and_tiny() {
        let engine = Engine::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(engine.map_chunked(&empty, |_, &x| x).is_empty());
        assert_eq!(engine.map_chunked(&[5u32], |_, &x| x + 1), vec![6]);
    }
}
