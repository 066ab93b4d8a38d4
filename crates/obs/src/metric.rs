//! Metric samples: counters, gauges and histogram summaries collected
//! into an ordered, exportable [`MetricsSnapshot`], plus the per-stage
//! latency profile the join pipeline records into.
//!
//! Producers push samples in a fixed order at the end of a run, so the
//! same run state always yields the same sample order — a prerequisite
//! for byte-deterministic Prometheus output.

use crate::event::Stage;
use crate::histogram::LatencyHistogram;
use std::time::Duration;

/// Snapshot value of one metric.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Point-in-time signed value.
    Gauge(i64),
    /// Latency distribution summary.
    Histogram(HistogramSummary),
}

/// Fixed-quantile summary of a [`LatencyHistogram`], with every field an
/// integer so exporters stay byte-deterministic.
#[derive(Debug, Clone)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u128,
    /// Median estimate in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile estimate in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile estimate in nanoseconds.
    pub p99_ns: u64,
    /// Largest recorded sample in nanoseconds.
    pub max_ns: u64,
}

impl From<&LatencyHistogram> for HistogramSummary {
    fn from(h: &LatencyHistogram) -> Self {
        Self {
            count: h.count(),
            sum_ns: h.sum_nanos(),
            p50_ns: h.quantile(0.5).as_nanos() as u64,
            p90_ns: h.quantile(0.9).as_nanos() as u64,
            p99_ns: h.quantile(0.99).as_nanos() as u64,
            max_ns: h.max().as_nanos() as u64,
        }
    }
}

/// One named, labelled sample in a snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (Prometheus-compatible: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// One-line human description, emitted as `# HELP`.
    pub help: String,
    /// Label pairs, e.g. `[("comp", "joiner"), ("task", "0")]`.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// An ordered collection of samples. Samples sharing a name must be
/// pushed adjacently (the Prometheus exposition format requires one
/// contiguous group per metric name).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Samples in push order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter sample.
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.samples.push(MetricSample {
            name: name.into(),
            help: help.into(),
            labels: own_labels(labels),
            value: MetricValue::Counter(value),
        });
    }

    /// Appends a gauge sample.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: i64) {
        self.samples.push(MetricSample {
            name: name.into(),
            help: help.into(),
            labels: own_labels(labels),
            value: MetricValue::Gauge(value),
        });
    }

    /// Appends a histogram sample summarized from `h`.
    pub fn push_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &LatencyHistogram,
    ) {
        self.samples.push(MetricSample {
            name: name.into(),
            help: help.into(),
            labels: own_labels(labels),
            value: MetricValue::Histogram(HistogramSummary::from(h)),
        });
    }

    /// Distinct metric names, in first-appearance order.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.samples {
            if names.last() != Some(&s.name.as_str()) && !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        names
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).into(), (*v).into()))
        .collect()
}

/// Per-stage latency histograms for the join pipeline: one
/// [`LatencyHistogram`] slot per [`Stage`], recorded task-locally and
/// merged across tasks at run completion.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    hists: [LatencyHistogram; Stage::ALL.len()],
}

impl StageProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample for `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, latency: Duration) {
        self.hists[stage as usize].record(latency);
    }

    /// The histogram for one stage.
    pub fn get(&self, stage: Stage) -> &LatencyHistogram {
        &self.hists[stage as usize]
    }

    /// Merges another profile in, stage by stage.
    pub fn merge(&mut self, other: &StageProfile) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// Stages that recorded at least one sample, in [`Stage::ALL`] order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, &LatencyHistogram)> {
        Stage::ALL
            .iter()
            .map(move |&s| (s, &self.hists[s as usize]))
            .filter(|(_, h)| !h.is_empty())
    }

    /// Whether no stage recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_profile_records_and_merges() {
        let mut a = StageProfile::new();
        assert!(a.is_empty());
        a.record(Stage::Verify, Duration::from_nanos(100));
        a.record(Stage::Index, Duration::from_nanos(10));
        let mut b = StageProfile::new();
        b.record(Stage::Verify, Duration::from_nanos(200));
        a.merge(&b);
        assert_eq!(a.get(Stage::Verify).count(), 2);
        assert_eq!(a.get(Stage::Index).count(), 1);
        assert_eq!(a.get(Stage::Emit).count(), 0);
        let stages: Vec<Stage> = a.stages().map(|(s, _)| s).collect();
        assert_eq!(stages, vec![Stage::Index, Stage::Verify]);
    }

    #[test]
    fn snapshot_names_dedup_in_first_appearance_order() {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("m_total", "m", &[("task", "0")], 1);
        snap.push_counter("m_total", "m", &[("task", "1")], 2);
        snap.push_gauge("g", "g", &[], 3);
        assert_eq!(snap.names(), vec!["m_total", "g"]);
    }
}
