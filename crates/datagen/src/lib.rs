//! # monotone-datagen
//!
//! Synthetic workload generators for the reproduction of Cohen,
//! *"Estimation for Monotone Sampling"* (PODC 2014).
//!
//! The companion experiments of the paper (Section 7) use proprietary data:
//! IP-flow records, surname frequencies in published books, and social
//! networks. This crate substitutes distributionally-faithful synthetic
//! equivalents (see `DESIGN.md` §5 for the substitution argument):
//!
//! * [`zipf`] — heavy-tailed weights (Zipf ranks, Pareto tails, log-normal
//!   churn factors);
//! * [`pairs`] — two-instance datasets: [`pairs::flow_like`] (large
//!   differences) and [`pairs::stable_like`] (small drift);
//! * [`graphs`] — preferential-attachment and grid graphs for the
//!   closeness-similarity experiments.
//!
//! All generators are deterministic given an `rng` seed.

pub mod graphs;
pub mod pairs;
pub mod zipf;
