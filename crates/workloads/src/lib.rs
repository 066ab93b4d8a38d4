//! Synthetic corpus and stream generators.
//!
//! The paper evaluates on real corpora (query logs, titles, e-mails,
//! tweets); those cannot ship with the repository, so this crate generates
//! streams that reproduce the *cost drivers* the join cares about:
//!
//! * **token-frequency skew** — Zipf-distributed token popularity sampled
//!   in O(1) via a Walker alias table ([`alias`], [`zipf`]);
//! * **record-length distribution** — per-profile log-normal / normal
//!   length models with clamps ([`profile`]);
//! * **near-duplicate density** — a configurable fraction of records are
//!   mutated copies of recent ones ([`generator`]), the phenomenon the
//!   bundle joiner exploits;
//! * **arrival processes** — uniform / Poisson / bursty timestamping
//!   ([`arrival`]).
//!
//! Profiles named after the corpora they imitate (`aol`, `dblp`, `enron`,
//! `tweet`) fix the generator parameters used throughout the evaluation.
//!
//! ```
//! use ssj_workloads::{DatasetProfile, StreamGenerator};
//!
//! let records = StreamGenerator::new(DatasetProfile::aol(), 42).take_records(1000);
//! assert_eq!(records.len(), 1000);
//! assert!(records.iter().all(|r| r.len() >= 1));
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod arrival;
pub mod generator;
pub mod profile;
pub mod zipf;

pub use arrival::ArrivalProcess;
pub use generator::StreamGenerator;
pub use profile::{DatasetProfile, LengthDist};
pub use zipf::ZipfSampler;
