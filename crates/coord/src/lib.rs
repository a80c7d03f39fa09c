//! # monotone-coord
//!
//! Coordinated shared-seed sampling substrate for monotone estimation
//! (paper: Cohen, *"Estimation for Monotone Sampling"*, PODC 2014 —
//! Section 1's "Coordinated shared-seed sampling" and footnote 1).
//!
//! Multi-instance datasets (snapshots, logs, measurements over a shared item
//! universe) are sampled per instance with **coordinated randomization**: a
//! hash of the item key supplies the same seed `u^{(k)}` to every instance.
//! The restriction of the coordinated samples to one item is then a
//! *monotone sampling scheme* on the item's weight tuple, so the estimators
//! of [`monotone_core`] apply per item, and sum aggregates (`Lp^p`
//! differences, distinct counts, similarity numerators/denominators) are
//! estimated by summation.
//!
//! Provided schemes:
//!
//! * [`pps::CoordPps`] — coordinated PPS with per-instance scales (plus an
//!   *independent*-seed mode for the LSH contrast experiment);
//! * [`bottomk::BottomK`] — bottom-k under priority ranks `u/w`, with
//!   the per-item conditioned-threshold reduction to monotone sampling
//!   (a coordinated-PPS threshold per item);
//! * [`query`] — exact and estimated sum aggregates, weighted Jaccard, and
//!   sample-overlap diagnostics;
//! * [`source`] — the [`ItemSource`](source::ItemSource) abstraction over
//!   item streams: exact full-map merges ([`instance::WeightMerger`]) and
//!   sketch-backed unions with conditioned inclusion scales
//!   ([`source::SketchUnion`]).
//!
//! ## Example: estimating an `L1` increase from samples
//!
//! ```
//! use monotone_coord::instance::{Dataset, Instance};
//! use monotone_coord::pps::CoordPps;
//! use monotone_coord::query::{estimate_sum, exact_sum};
//! use monotone_coord::seed::SeedHasher;
//! use monotone_core::estimate::RgPlusLStar;
//! use monotone_core::func::RangePowPlus;
//!
//! # fn main() -> monotone_core::Result<()> {
//! let data = Dataset::example1();
//! let pair = Dataset::new(vec![data.instance(0).clone(), data.instance(1).clone()]);
//! let sampler = CoordPps::uniform_scale(2, 1.0, SeedHasher::new(7));
//! let samples = sampler.sample_all(&pair);
//! let f = RangePowPlus::new(1.0);
//! let estimate = estimate_sum(f, &RgPlusLStar::new(1, 1.0), &sampler, &samples, None)?;
//! let truth = exact_sum(&f, &pair, None);
//! assert!(estimate >= 0.0 && truth > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod bottomk;
pub mod independent;
pub mod instance;
pub mod pps;
pub mod query;
pub mod seed;
pub mod source;
pub mod wire;
