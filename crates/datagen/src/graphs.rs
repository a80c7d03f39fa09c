//! Random-graph generators for the similarity experiments (standing in for
//! the social networks of the paper's companion study \[9\]).

use monotone_sketches::graph::{Graph, GraphBuilder};
use rand::{Rng, RngExt};

/// Preferential-attachment (Barabási–Albert) graph: each new node attaches
/// to `m` existing nodes chosen proportionally to degree, with weights
/// uniform in `[lo, hi]`. Degree skew mimics social networks.
///
/// # Panics
///
/// Panics if `m == 0`, `n <= m`, or the weight range is invalid.
pub fn preferential_attachment<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    assert!(0.0 < lo && lo <= hi, "invalid weight range");
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoints list: sampling an element uniformly is sampling a
    // node proportionally to its degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 nodes.
    for u in 0..=(m as u32) {
        for v in (u + 1)..=(m as u32) {
            let w = lo + (hi - lo) * rng.random::<f64>();
            b.add_undirected(u, v, w);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m as u32 + 1)..(n as u32) {
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 100 * m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if t != u && !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
        }
        for &t in &chosen {
            let w = lo + (hi - lo) * rng.random::<f64>();
            b.add_undirected(u, t, w);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build()
}

/// A `rows × cols` grid with 4-neighbor connectivity and jittered weights
/// (a low-expansion contrast case).
///
/// # Panics
///
/// Panics if either dimension is 0 or the weight range is invalid.
pub fn grid<R: Rng + ?Sized>(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut R) -> Graph {
    assert!(rows > 0 && cols > 0, "empty grid");
    assert!(0.0 < lo && lo <= hi, "invalid weight range");
    let mut b = GraphBuilder::new(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let w = lo + (hi - lo) * rng.random::<f64>();
                b.add_undirected(id(r, c), id(r, c + 1), w);
            }
            if r + 1 < rows {
                let w = lo + (hi - lo) * rng.random::<f64>();
                b.add_undirected(id(r, c), id(r + 1, c), w);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn preferential_attachment_is_skewed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 500;
        let g = preferential_attachment(n, 3, 1.0, 1.0, &mut rng);
        let mut degs: Vec<usize> = (0..n as u32).map(|u| g.degree(u)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs: the max degree should far exceed the median.
        let median = degs[n / 2];
        assert!(
            degs[0] > 4 * median,
            "max degree {} vs median {median}",
            degs[0]
        );
    }

    #[test]
    fn grid_structure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = grid(5, 4, 1.0, 1.0, &mut rng);
        assert_eq!(g.node_count(), 20);
        // Interior nodes have degree 4, corners 2.
        assert_eq!(g.degree(0), 2);
        let interior = 5u32; // row 1, col 1 of the 5x4 grid
        assert_eq!(g.degree(interior), 4);
    }

    #[test]
    fn graphs_connected_enough_for_sketches() {
        // Preferential attachment graphs are connected by construction.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = preferential_attachment(200, 2, 0.5, 1.5, &mut rng);
        let d = monotone_sketches::dijkstra::dijkstra(&g, 0);
        assert!(
            d.iter().all(|x| x.is_finite()),
            "PA graph must be connected"
        );
    }
}
