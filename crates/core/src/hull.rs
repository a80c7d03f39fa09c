//! Lower convex hulls of lower-bound functions.
//!
//! The v-optimal estimates of the paper (Eq. (15)) are the negated slopes of
//! the *lower hull* (greatest convex minorant) of the lower-bound function
//! `f̄⁽ᵛ⁾` on `(0, 1]`, extended with the limit point `(0, f(v))`. This module
//! provides the hull construction (Andrew's monotone chain over sampled or
//! exact corner points), slope queries, and the square integral of the hull
//! derivative, which characterizes the minimum attainable `E[f̂²]`
//! (Eq. (10) of the paper).

/// A piecewise-linear convex minorant described by its vertices.
///
/// Vertices are stored with strictly increasing x-coordinates; consecutive
/// slopes are strictly increasing (convexity). For the monotone estimation
/// use case the hull is non-increasing, so slopes are `<= 0` and the negated
/// slopes (the v-optimal estimates) are nonnegative and non-increasing in u.
///
/// # Examples
///
/// ```
/// use monotone_core::hull::LowerHull;
///
/// // Lower bound function of RG1+ at v = (0.6, 0.0) under PPS(1):
/// // f̄(u) = max(0, 0.6 - u), already convex.
/// let pts: Vec<(f64, f64)> = (0..=100)
///     .map(|k| {
///         let u = k as f64 / 100.0;
///         (u, (0.6 - u).max(0.0))
///     })
///     .collect();
/// let hull = LowerHull::of_points(&pts);
/// // The v-optimal estimate is 1 on (0, 0.6] and 0 afterwards.
/// assert!((hull.neg_slope_at(0.3) - 1.0).abs() < 1e-9);
/// assert!(hull.neg_slope_at(0.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LowerHull {
    vertices: Vec<(f64, f64)>,
}

impl LowerHull {
    /// Builds the lower convex hull of a point set.
    ///
    /// The input need not be sorted; duplicate x-coordinates keep the lowest
    /// y. At least one point is required.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains non-finite coordinates.
    pub fn of_points(points: &[(f64, f64)]) -> LowerHull {
        assert!(!points.is_empty(), "hull of empty point set");
        let mut pts: Vec<(f64, f64)> = points.to_vec();
        for &(x, y) in &pts {
            assert!(
                x.is_finite() && y.is_finite(),
                "non-finite hull input ({x}, {y})"
            );
        }
        pts.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(a.1.partial_cmp(&b.1).unwrap())
        });
        // Keep only the lowest y per x.
        pts.dedup_by(|next, prev| (next.0 - prev.0).abs() == 0.0);

        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for p in pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep b only if it turns left (convex): cross(ab, ap) > 0.
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        LowerHull { vertices: hull }
    }

    /// The hull vertices in increasing x order.
    pub fn vertices(&self) -> &[(f64, f64)] {
        &self.vertices
    }

    /// Hull value at `x` (linear interpolation; clamped to the end segments
    /// outside the vertex range).
    pub fn value(&self, x: f64) -> f64 {
        let v = &self.vertices;
        if v.len() == 1 {
            return v[0].1;
        }
        let i = match v.partition_point(|p| p.0 <= x) {
            0 => 0,
            k if k >= v.len() => v.len() - 2,
            k => k - 1,
        };
        let (x0, y0) = v[i];
        let (x1, y1) = v[i + 1];
        if x1 == x0 {
            return y0.min(y1);
        }
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Negated slope of the hull segment containing `x` (the v-optimal
    /// estimate at seed `x` when the hull is built from a lower-bound
    /// function). For `x` beyond the last vertex, the final segment's slope
    /// is used; for a single-vertex hull the slope is 0.
    pub fn neg_slope_at(&self, x: f64) -> f64 {
        let v = &self.vertices;
        if v.len() < 2 {
            return 0.0;
        }
        let i = match v.partition_point(|p| p.0 < x) {
            0 => 0,
            k if k >= v.len() => v.len() - 2,
            k => k - 1,
        };
        let (x0, y0) = v[i];
        let (x1, y1) = v[i + 1];
        -(y1 - y0) / (x1 - x0)
    }

    /// `∫ (dH/du)² du` over the hull's x-range: the minimum attainable
    /// `E[f̂²]` contribution (Eq. (10)). For a piecewise linear hull this is
    /// `Σ slopeᵢ² · Δxᵢ`, exact.
    pub fn sq_integral_of_slope(&self) -> f64 {
        let mut total = 0.0;
        for w in self.vertices.windows(2) {
            let dx = w[1].0 - w[0].0;
            if dx > 0.0 {
                let s = (w[1].1 - w[0].1) / dx;
                total += s * s * dx;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if every hull vertex lies on or below `f` (within `tol`), i.e.
    /// the hull really is a minorant of `f`.
    fn is_minorant(hull: &LowerHull, f: impl Fn(f64) -> f64, tol: f64) -> bool {
        hull.vertices().iter().all(|&(x, y)| y <= f(x) + tol)
    }

    fn sample<F: Fn(f64) -> f64>(f: F, n: usize) -> Vec<(f64, f64)> {
        (0..=n)
            .map(|k| {
                let u = k as f64 / n as f64;
                (u, f(u))
            })
            .collect()
    }

    #[test]
    fn hull_of_convex_function_is_function() {
        let pts = sample(|u| (1.0 - u) * (1.0 - u), 200);
        let hull = LowerHull::of_points(&pts);
        for k in 0..=20 {
            let u = k as f64 / 20.0;
            let expect = (1.0 - u) * (1.0 - u);
            assert!((hull.value(u) - expect).abs() < 1e-3, "u={u}");
        }
    }

    #[test]
    fn hull_of_concave_function_is_chord() {
        // sqrt on [0,1]: hull is the chord from (0,0) to (1,1).
        let pts = sample(|u| u.sqrt(), 400);
        let hull = LowerHull::of_points(&pts);
        assert_eq!(hull.vertices().len(), 2);
        assert!((hull.value(0.5) - 0.5).abs() < 1e-9);
        assert!((hull.neg_slope_at(0.3) + 1.0).abs() < 1e-9); // slope +1 → neg slope -1
    }

    #[test]
    fn hull_of_step_function() {
        // Step: 3 on (0, 0.25], 1 on (0.25, 0.5], 0 on (0.5, 1].
        // Corner points: (0, 3), (0.25, 1), (0.5, 0), (1, 0).
        let pts = [(0.0, 3.0), (0.25, 1.0), (0.5, 0.0), (1.0, 0.0)];
        let hull = LowerHull::of_points(&pts);
        // All four corners are on the hull (slopes -8, -4, 0: increasing).
        assert_eq!(hull.vertices().len(), 4);
        assert!((hull.neg_slope_at(0.1) - 8.0).abs() < 1e-12);
        assert!((hull.neg_slope_at(0.3) - 4.0).abs() < 1e-12);
        assert!((hull.neg_slope_at(0.7) - 0.0).abs() < 1e-12);
        // Exact square integral: 64*0.25 + 16*0.25 + 0 = 20.
        assert!((hull.sq_integral_of_slope() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn hull_drops_non_extreme_points() {
        let pts = [(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)];
        let hull = LowerHull::of_points(&pts);
        // (0.5, 0.9) lies above the chord (0,1)-(1,0), so it is dropped.
        assert_eq!(hull.vertices(), &[(0.0, 1.0), (1.0, 0.0)]);
    }

    #[test]
    fn hull_keeps_lowest_duplicate_x() {
        let pts = [(0.0, 2.0), (0.0, 1.0), (1.0, 0.0)];
        let hull = LowerHull::of_points(&pts);
        assert_eq!(hull.vertices()[0], (0.0, 1.0));
    }

    #[test]
    fn minorant_check() {
        let pts = sample(|u| u.sqrt(), 100);
        let hull = LowerHull::of_points(&pts);
        assert!(is_minorant(&hull, |u| u.sqrt(), 1e-12));
    }

    #[test]
    fn single_point_hull() {
        let hull = LowerHull::of_points(&[(0.5, 1.0)]);
        assert_eq!(hull.value(0.2), 1.0);
        assert_eq!(hull.neg_slope_at(0.2), 0.0);
        assert_eq!(hull.sq_integral_of_slope(), 0.0);
    }

    #[test]
    fn rg2plus_hull_partially_coincides() {
        // Paper, Example 3: for p = 2, v = (0.6, 0.2), the hull coincides
        // with the LB function on an interval (a, 0.6] and is linear on (0, a].
        let f = |u: f64| {
            let b = u.max(0.2);
            let d: f64 = (0.6 - b).max(0.0);
            d * d
        };
        let mut pts = sample(f, 2000);
        pts.insert(0, (0.0, 0.16)); // limit point (0, f(v)) = (0, 0.4²)
        let hull = LowerHull::of_points(&pts);
        // Hull is below f everywhere and matches near u = 0.5.
        assert!(is_minorant(&hull, f, 1e-9));
        assert!((hull.value(0.55) - f(0.55)).abs() < 1e-4);
        // Near zero the hull is strictly below the (flat) LB function.
        assert!(hull.value(0.05) < f(0.05) - 1e-3);
    }
}
