//! Heavy-tailed weight generators (Zipf and Pareto).
//!
//! The paper's companion experiments run on IP-flow records and word
//! frequencies — both strongly heavy-tailed. These generators reproduce
//! that shape synthetically.

use rand::{Rng, RngExt};

/// Zipf-distributed ranks over `{1, …, n}` with exponent `s`:
/// `P(X = i) ∝ i^{-s}`, sampled by inverse CDF over precomputed cumulative
/// weights.
///
/// # Examples
///
/// ```
/// use monotone_datagen::zipf::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(1000, 1.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for support size `n` and exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "support must be nonempty");
        assert!(s.is_finite() && s > 0.0, "exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 1..=n {
            total += (i as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Support size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u) + 1
    }
}

/// A Pareto-distributed weight: `scale · u^{-1/alpha}`, heavy-tailed with
/// tail exponent `alpha`.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, scale: f64, alpha: f64) -> f64 {
    debug_assert!(scale > 0.0 && alpha > 0.0);
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    scale * u.powf(-1.0 / alpha)
}

/// A log-normal multiplicative factor `exp(sigma · Z)` with `Z ~ N(0, 1)`
/// (Box-Muller; used to model churn between instances).
pub fn lognormal_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The probability the sampler gives rank `i` (1-based): the step of
    /// its cumulative weights at `i`.
    fn rank_probability(z: &Zipf, i: usize) -> f64 {
        if i == 1 {
            z.cdf[0]
        } else {
            z.cdf[i - 1] - z.cdf[i - 2]
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (1..=50).map(|i| rank_probability(&z, i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let trials = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..trials {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for i in 1..=10 {
            let emp = counts[i - 1] as f64 / trials as f64;
            let expect = rank_probability(&z, i);
            assert!(
                (emp - expect).abs() < 0.01,
                "rank {i}: empirical {emp} vs probability {expect}"
            );
        }
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1000, 1.5);
        assert!(rank_probability(&z, 1) > rank_probability(&z, 2));
        assert!(rank_probability(&z, 2) > rank_probability(&z, 100));
    }

    #[test]
    fn pareto_heavy_tail() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut max: f64 = 0.0;
        let mut count_large = 0;
        for _ in 0..10_000 {
            let x = pareto(&mut rng, 1.0, 1.0);
            assert!(x >= 1.0);
            max = max.max(x);
            if x > 100.0 {
                count_large += 1;
            }
        }
        assert!(max > 1000.0, "expected a heavy tail, max {max}");
        // P(X > 100) = 1/100 for alpha = 1.
        assert!((count_large as f64 / 10_000.0 - 0.01).abs() < 0.01);
    }

    #[test]
    fn lognormal_centered_around_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut log_sum = 0.0;
        for _ in 0..20_000 {
            log_sum += lognormal_factor(&mut rng, 0.5).ln();
        }
        let mean_log = log_sum / 20_000.0;
        assert!(mean_log.abs() < 0.02, "mean log {mean_log}");
    }
}
