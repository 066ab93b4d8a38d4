//! Length partitioning for the length-based distribution framework.
//!
//! The length-based scheme assigns each joiner a contiguous range of record
//! lengths. *Which* boundaries are chosen decides load balance: record
//! lengths are heavily skewed, and the join cost landing on a joiner
//! depends not only on how many records it indexes but on how many probes
//! target its length range and how expensive each is.
//!
//! * [`histogram`] — length histograms collected from samples;
//! * [`cost`] — the per-indexed-length cost mass `H(ℓ)` derived from a
//!   histogram and a threshold (the quantity the paper's load-aware
//!   partition balances);
//! * [`partitioner`] — equal-width and equal-depth baselines plus the
//!   load-aware partitioner (exact minimax DP and a faster
//!   binary-search/greedy variant).

#![warn(missing_docs)]

pub mod cost;
pub mod histogram;
pub mod partitioner;

pub use cost::CostModel;
pub use histogram::LengthHistogram;
pub use partitioner::{
    equal_depth, equal_width, imbalance, load_aware, load_aware_greedy, LengthPartition,
};
