//! Instance-pair generators standing in for the companion experiments'
//! datasets (paper, Section 7 / \[7\]).
//!
//! * [`flow_like`] mimics IP-flow records across two time windows: Zipf
//!   weights with large multiplicative churn plus key births and deaths —
//!   instances with typically *large* per-key differences, where the U\*
//!   estimator is expected to dominate;
//! * [`stable_like`] mimics surname frequencies across publication years:
//!   the same keys with small relative drift — *similar* instances, where
//!   L\* is expected to dominate.
//!
//! Both return two-instance [`Dataset`]s normalized to weights in `(0, 1]`
//! so a PPS scale of `1/rate` gives per-item sampling probability
//! `≈ rate · weight`.

use monotone_coord::instance::{Dataset, Instance};
use rand::{Rng, RngExt};

use crate::zipf::{lognormal_factor, pareto};

/// Parameters for the pair generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairConfig {
    /// Number of item keys in the base instance.
    pub keys: usize,
    /// Pareto tail exponent of the base weights (lower = heavier tail).
    pub tail: f64,
    /// Multiplicative churn strength (log-normal sigma).
    pub churn_sigma: f64,
    /// Probability that a key disappears from the second instance.
    pub death_prob: f64,
    /// Number of keys that appear only in the second instance, as a
    /// fraction of `keys`.
    pub birth_frac: f64,
}

impl PairConfig {
    /// IP-flow-like defaults: heavy tail and strong churn.
    pub fn flow() -> PairConfig {
        PairConfig {
            keys: 2000,
            tail: 1.2,
            churn_sigma: 1.2,
            death_prob: 0.2,
            birth_frac: 0.2,
        }
    }

    /// Surnames-like defaults: mild tail, tiny drift, no birth/death.
    pub fn stable() -> PairConfig {
        PairConfig {
            keys: 2000,
            tail: 1.5,
            churn_sigma: 0.08,
            death_prob: 0.0,
            birth_frac: 0.0,
        }
    }
}

fn generate_pair<R: Rng + ?Sized>(cfg: &PairConfig, rng: &mut R) -> Dataset {
    let mut a = Vec::with_capacity(cfg.keys);
    let mut b = Vec::with_capacity(cfg.keys);
    let mut max_w: f64 = 0.0;
    for key in 0..cfg.keys as u64 {
        let w1 = pareto(rng, 1.0, cfg.tail);
        let dead = rng.random::<f64>() < cfg.death_prob;
        let w2 = if dead {
            0.0
        } else {
            w1 * lognormal_factor(rng, cfg.churn_sigma)
        };
        max_w = max_w.max(w1).max(w2);
        a.push((key, w1));
        b.push((key, w2));
    }
    let births = (cfg.keys as f64 * cfg.birth_frac) as u64;
    for j in 0..births {
        let key = cfg.keys as u64 + j;
        let w2 = pareto(rng, 1.0, cfg.tail);
        max_w = max_w.max(w2);
        b.push((key, w2));
    }
    // Normalize into (0, 1].
    let inv = 1.0 / max_w;
    Dataset::new(vec![
        Instance::from_pairs(a.into_iter().map(|(k, w)| (k, w * inv))),
        Instance::from_pairs(b.into_iter().map(|(k, w)| (k, w * inv))),
    ])
}

/// An IP-flow-like pair: heavy-tailed weights, strong churn, key birth and
/// death — large per-key differences.
pub fn flow_like<R: Rng + ?Sized>(cfg: &PairConfig, rng: &mut R) -> Dataset {
    generate_pair(cfg, rng)
}

/// A surnames-like pair: the same keys with small relative drift — small
/// per-key differences.
pub fn stable_like<R: Rng + ?Sized>(cfg: &PairConfig, rng: &mut R) -> Dataset {
    generate_pair(cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monotone_coord::query::weighted_jaccard;
    use rand::SeedableRng;

    #[test]
    fn flow_pairs_are_dissimilar_stable_pairs_similar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let flow = flow_like(&PairConfig::flow(), &mut rng);
        let stable = stable_like(&PairConfig::stable(), &mut rng);
        let j_flow = weighted_jaccard(flow.instance(0), flow.instance(1));
        let j_stable = weighted_jaccard(stable.instance(0), stable.instance(1));
        assert!(
            j_stable > 0.9,
            "stable pair should be near-identical, jaccard {j_stable}"
        );
        assert!(
            j_flow < 0.6,
            "flow pair should differ substantially, jaccard {j_flow}"
        );
    }

    #[test]
    fn weights_normalized_to_unit_interval() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let d = flow_like(&PairConfig::flow(), &mut rng);
        let heaviest = |inst: &Instance| inst.iter().map(|(_, w)| w).fold(0.0, f64::max);
        for inst in d.instances() {
            assert!(heaviest(inst) <= 1.0 + 1e-12);
            assert!(inst.iter().all(|(_, w)| w > 0.0));
        }
        assert!(heaviest(d.instance(0)) == 1.0 || heaviest(d.instance(1)) == 1.0);
    }

    #[test]
    fn births_and_deaths_present_in_flow() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfg = PairConfig::flow();
        let d = flow_like(&cfg, &mut rng);
        let (a, b) = (d.instance(0), d.instance(1));
        let deaths = a.keys().filter(|&k| b.weight(k) == 0.0).count();
        let births = b.keys().filter(|&k| a.weight(k) == 0.0).count();
        assert!(deaths > 0, "expected deaths");
        assert!(births > 0, "expected births");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = flow_like(
            &PairConfig::flow(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        let b = flow_like(
            &PairConfig::flow(),
            &mut rand::rngs::StdRng::seed_from_u64(5),
        );
        assert_eq!(a, b);
    }
}
