//! obs — observability primitives for dssj: structured trace events,
//! bounded per-task event rings, metric snapshots, per-stage latency
//! histograms, and byte-deterministic exporters (JSONL trace, Prometheus
//! text exposition, chrome://tracing JSON).
//!
//! # Determinism contract
//!
//! Nothing in this crate reads the wall clock or draws randomness.
//! Timestamps are supplied by the caller — in dssj, the topology's
//! scheduler clock reading, which under the deterministic simulation
//! scheduler is virtual time. Event merging sorts tasks by
//! `(component, task)` before a stable sort by timestamp, so the merged
//! order never depends on thread join order. The exporters format
//! integers only (nanoseconds, or microseconds rendered as
//! `ns/1000 "." ns%1000`), never `f64`, so the same events always render
//! to the same bytes on every platform. Together this makes a simulated
//! run's exported trace golden-diffable exactly like a transcript.

#![warn(missing_docs)]

mod event;
mod export;
mod histogram;
mod metric;
mod trace;

pub use event::{Event, Stage};
pub use export::{prometheus, trace_chrome, trace_jsonl};
pub use histogram::LatencyHistogram;
pub use metric::{HistogramSummary, MetricSample, MetricValue, MetricsSnapshot, StageProfile};
pub use trace::{RunTrace, TaskTrace, TaskTracer, TraceConfig, TraceSink};
