//! Per-task execution metrics and a log-bucket latency histogram.
//!
//! Nothing in this module reads the wall clock. Every duration recorded
//! here (queue wait, busy time, end-to-end elapsed) is measured by the
//! running topology through its [`Clock`](crate::Clock) — so under
//! [`Scheduler::Sim`](crate::Scheduler::Sim) all reported latencies are
//! *virtual-time* readings: deterministic, seed-reproducible, and counted
//! in scheduler ticks rather than host nanoseconds. A threaded run uses a
//! wall-anchored clock and reports real time through the same types.

use obs::LatencyHistogram;
use std::fmt;
use std::time::Duration;

/// Counters for one task of one component.
#[derive(Debug, Clone, Default)]
pub struct TaskMetrics {
    /// Data tuples received.
    pub msgs_in: u64,
    /// Data tuples emitted.
    pub msgs_out: u64,
    /// Bytes received (per [`Message::wire_bytes`](crate::Message::wire_bytes)).
    pub bytes_in: u64,
    /// Bytes emitted.
    pub bytes_out: u64,
    /// Wall time spent inside `execute`.
    pub busy: Duration,
    /// Time tuples spent waiting in this task's input queue.
    pub queue_wait: LatencyHistogram,
    /// Input records shed by this task's overload policy
    /// (see [`Outbox::record_shed`](crate::Outbox::record_shed)).
    pub shed: u64,
    /// Checkpoint snapshots captured by this task
    /// (see [`Outbox::record_checkpoint`](crate::Outbox::record_checkpoint)).
    pub checkpoints: u64,
    /// Total serialized bytes of this task's checkpoint snapshots.
    pub checkpoint_bytes: u64,
    /// Latency of checkpoint epochs this task completed (barrier
    /// injection → the epoch's last part handed to the store writer);
    /// recorded only on the task that handed it over.
    pub checkpoint_latency: LatencyHistogram,
    /// Time barrier control tuples stalled between upstream injection and
    /// this task aligning on them.
    pub barrier_stall: LatencyHistogram,
}

impl TaskMetrics {
    /// Adds another task's counters into this one.
    pub fn merge(&mut self, other: &TaskMetrics) {
        self.msgs_in += other.msgs_in;
        self.msgs_out += other.msgs_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.busy += other.busy;
        self.queue_wait.merge(&other.queue_wait);
        self.shed += other.shed;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoint_latency.merge(&other.checkpoint_latency);
        self.barrier_stall.merge(&other.barrier_stall);
    }
}

/// End-to-end data-integrity counters for one run.
///
/// Every byte that crosses a wire or a disk is checksummed (CRC32C); a
/// failed check never panics — the frame or snapshot is rejected, counted
/// here, and the run heals (respawn + retransmission) or falls back to an
/// older verified checkpoint. A default (all-zero) report means no
/// corruption was ever observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Inbound transport frames rejected by checksum or decode failure.
    pub corrupt_frames: u64,
    /// Snapshot parts rejected during restore or scrub.
    pub corrupt_snapshot_parts: u64,
    /// Checkpoint manifests rejected during restore or scrub.
    pub corrupt_manifests: u64,
    /// Committed epochs quarantined (skipped by restore) as unverifiable.
    pub quarantined_epochs: u64,
    /// How many epochs restore had to step back past to find a verified
    /// one (0 = the newest committed epoch verified clean).
    pub restore_fallback_depth: u64,
}

impl IntegrityReport {
    /// Folds another report into this one (counts add, depth takes the
    /// maximum).
    pub fn merge(&mut self, other: &IntegrityReport) {
        self.corrupt_frames += other.corrupt_frames;
        self.corrupt_snapshot_parts += other.corrupt_snapshot_parts;
        self.corrupt_manifests += other.corrupt_manifests;
        self.quarantined_epochs += other.quarantined_epochs;
        self.restore_fallback_depth = self
            .restore_fallback_depth
            .max(other.restore_fallback_depth);
    }

    /// Whether no integrity violation was observed at all.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// The outcome of a topology run; a run in which a task panicked has none.
#[derive(Debug)]
pub struct RunReport {
    /// `(component, task_index, metrics)` for every task.
    pub tasks: Vec<(String, usize, TaskMetrics)>,
    /// Tasks that were rebuilt after an injected crash:
    /// `(component, task_index, restart count)`. Only restarted tasks
    /// appear.
    pub restarts: Vec<(String, usize, u64)>,
    /// Wall-clock duration from launch to full drain.
    pub elapsed: Duration,
    /// Corruption detections and verified-restore fallbacks observed by
    /// the run (all zero unless faults were injected or media rotted).
    pub integrity: IntegrityReport,
}

impl RunReport {
    /// Total task restarts across the run.
    pub fn total_restarts(&self) -> u64 {
        self.restarts.iter().map(|(_, _, n)| n).sum()
    }

    /// Sum of tuples processed across all tasks.
    pub fn total_processed(&self) -> u64 {
        self.tasks.iter().map(|(_, _, m)| m.msgs_in).sum()
    }

    /// Records shed by overload policies across all tasks. Every shed
    /// record is an explicit, accounted recall loss — never a silent drop.
    pub fn shed(&self) -> u64 {
        self.tasks.iter().map(|(_, _, m)| m.shed).sum()
    }

    /// Checkpoint snapshots captured across all tasks.
    pub fn checkpoints(&self) -> u64 {
        self.tasks.iter().map(|(_, _, m)| m.checkpoints).sum()
    }

    /// Total serialized snapshot bytes across all tasks.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.tasks.iter().map(|(_, _, m)| m.checkpoint_bytes).sum()
    }

    /// Merged per-epoch checkpoint latency histogram (barrier injection →
    /// the epoch's last part handed to the store writer) across all tasks.
    pub fn checkpoint_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for (_, _, m) in &self.tasks {
            h.merge(&m.checkpoint_latency);
        }
        h
    }

    /// Merged barrier-alignment stall histogram across all tasks.
    pub fn barrier_stall(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for (_, _, m) in &self.tasks {
            h.merge(&m.barrier_stall);
        }
        h
    }

    /// Aggregated metrics of one component across its tasks.
    pub fn component(&self, name: &str) -> TaskMetrics {
        let mut agg = TaskMetrics::default();
        for (comp, _, m) in &self.tasks {
            if comp == name {
                agg.merge(m);
            }
        }
        agg
    }

    /// Samples every counter and histogram of this report into an
    /// exportable [`obs::MetricsSnapshot`], one sample per task labelled
    /// `comp`/`task`, plus run-level totals. Iteration is metric-major
    /// (all tasks of one metric before the next) so same-name samples are
    /// adjacent, as the Prometheus exposition format requires; task order
    /// follows [`RunReport::tasks`], which both executors assemble in
    /// deterministic task order — so the rendered text is byte-stable.
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        // (name, help, per-task getter) rows of the export table.
        type CounterRow = (&'static str, &'static str, fn(&TaskMetrics) -> u64);
        type HistRow = (
            &'static str,
            &'static str,
            fn(&TaskMetrics) -> &LatencyHistogram,
        );
        let mut snap = obs::MetricsSnapshot::new();
        let counters: [CounterRow; 8] = [
            ("dssj_msgs_in_total", "Data tuples received", |m| m.msgs_in),
            ("dssj_msgs_out_total", "Data tuples emitted", |m| m.msgs_out),
            ("dssj_bytes_in_total", "Bytes received", |m| m.bytes_in),
            ("dssj_bytes_out_total", "Bytes emitted", |m| m.bytes_out),
            (
                "dssj_busy_ns_total",
                "Nanoseconds spent inside execute",
                |m| m.busy.as_nanos().min(u128::from(u64::MAX)) as u64,
            ),
            ("dssj_shed_total", "Records shed by overload policy", |m| {
                m.shed
            }),
            (
                "dssj_checkpoints_total",
                "Checkpoint snapshots captured",
                |m| m.checkpoints,
            ),
            (
                "dssj_checkpoint_bytes_total",
                "Serialized checkpoint bytes",
                |m| m.checkpoint_bytes,
            ),
        ];
        for (name, help, get) in counters {
            for (comp, task, m) in &self.tasks {
                let task = task.to_string();
                snap.push_counter(name, help, &[("comp", comp), ("task", &task)], get(m));
            }
        }
        let hists: [HistRow; 3] = [
            ("dssj_queue_wait_ns", "Input queue wait latency", |m| {
                &m.queue_wait
            }),
            (
                "dssj_checkpoint_latency_ns",
                "Per-epoch checkpoint latency",
                |m| &m.checkpoint_latency,
            ),
            ("dssj_barrier_stall_ns", "Barrier alignment stall", |m| {
                &m.barrier_stall
            }),
        ];
        for (name, help, get) in hists {
            for (comp, task, m) in &self.tasks {
                let task = task.to_string();
                snap.push_histogram(name, help, &[("comp", comp), ("task", &task)], get(m));
            }
        }
        snap.push_counter(
            "dssj_task_restarts_total",
            "Task restarts across the run",
            &[],
            self.total_restarts(),
        );
        snap.push_counter(
            "dssj_corrupt_frames_total",
            "Transport frames rejected by integrity checks",
            &[],
            self.integrity.corrupt_frames,
        );
        snap.push_counter(
            "dssj_corrupt_snapshot_parts_total",
            "Snapshot parts rejected by integrity checks",
            &[],
            self.integrity.corrupt_snapshot_parts,
        );
        snap.push_counter(
            "dssj_corrupt_manifests_total",
            "Checkpoint manifests rejected by integrity checks",
            &[],
            self.integrity.corrupt_manifests,
        );
        snap.push_counter(
            "dssj_quarantined_epochs_total",
            "Committed epochs quarantined as unverifiable",
            &[],
            self.integrity.quarantined_epochs,
        );
        snap.push_gauge(
            "dssj_restore_fallback_depth",
            "Epochs restore stepped back past to find a verified one",
            &[],
            self.integrity.restore_fallback_depth.min(i64::MAX as u64) as i64,
        );
        snap.push_gauge(
            "dssj_run_elapsed_ns",
            "Run duration from launch to full drain",
            &[],
            self.elapsed.as_nanos().min(i64::MAX as u128) as i64,
        );
        snap
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>5} {:>12} {:>12} {:>12} {:>10}",
            "component", "task", "msgs_in", "msgs_out", "bytes_out", "busy_ms"
        )?;
        for (comp, task, m) in &self.tasks {
            writeln!(
                f,
                "{:<14} {:>5} {:>12} {:>12} {:>12} {:>10.1}",
                comp,
                task,
                m.msgs_in,
                m.msgs_out,
                m.bytes_out,
                m.busy.as_secs_f64() * 1000.0
            )?;
        }
        write!(f, "elapsed: {:.1} ms", self.elapsed.as_secs_f64() * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregation() {
        let m1 = TaskMetrics {
            msgs_in: 5,
            bytes_out: 100,
            ..TaskMetrics::default()
        };
        let m2 = TaskMetrics {
            msgs_in: 7,
            bytes_out: 50,
            ..TaskMetrics::default()
        };
        let report = RunReport {
            tasks: vec![
                ("joiner".into(), 1, m2),
                ("joiner".into(), 0, m1),
                ("sink".into(), 0, TaskMetrics::default()),
            ],
            restarts: Vec::new(),
            elapsed: Duration::from_millis(1),
            integrity: IntegrityReport::default(),
        };
        assert_eq!(report.total_restarts(), 0);
        assert_eq!(report.total_processed(), 12);
        assert_eq!(report.component("joiner").msgs_in, 12);
        assert_eq!(report.component("joiner").bytes_out, 150);
        let text = report.to_string();
        assert!(text.contains("joiner"));
    }

    /// Every [`TaskMetrics`] field plus the run-level counters must appear
    /// in the exported snapshot — this list is the export-schema contract.
    #[test]
    fn metrics_snapshot_covers_every_report_field() {
        let mut m = TaskMetrics {
            msgs_in: 1,
            msgs_out: 2,
            bytes_in: 3,
            bytes_out: 4,
            busy: Duration::from_nanos(5),
            shed: 11,
            checkpoints: 14,
            checkpoint_bytes: 15,
            ..TaskMetrics::default()
        };
        m.queue_wait.record(Duration::from_nanos(16));
        m.checkpoint_latency.record(Duration::from_nanos(17));
        m.barrier_stall.record(Duration::from_nanos(18));
        let report = RunReport {
            tasks: vec![
                ("joiner".into(), 0, m),
                ("sink".into(), 0, TaskMetrics::default()),
            ],
            restarts: vec![("joiner".into(), 0, 2)],
            elapsed: Duration::from_nanos(99),
            integrity: IntegrityReport {
                corrupt_frames: 21,
                corrupt_snapshot_parts: 22,
                corrupt_manifests: 23,
                quarantined_epochs: 24,
                restore_fallback_depth: 25,
            },
        };
        let snap = report.metrics_snapshot();
        let expected = [
            "dssj_msgs_in_total",
            "dssj_msgs_out_total",
            "dssj_bytes_in_total",
            "dssj_bytes_out_total",
            "dssj_busy_ns_total",
            "dssj_shed_total",
            "dssj_checkpoints_total",
            "dssj_checkpoint_bytes_total",
            "dssj_queue_wait_ns",
            "dssj_checkpoint_latency_ns",
            "dssj_barrier_stall_ns",
            "dssj_task_restarts_total",
            "dssj_corrupt_frames_total",
            "dssj_corrupt_snapshot_parts_total",
            "dssj_corrupt_manifests_total",
            "dssj_quarantined_epochs_total",
            "dssj_restore_fallback_depth",
            "dssj_run_elapsed_ns",
        ];
        assert_eq!(snap.names(), expected.to_vec());
        let text = obs::prometheus(&snap);
        for name in expected {
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "metric {name} missing from exposition"
            );
        }
        assert!(text.contains("dssj_msgs_in_total{comp=\"joiner\",task=\"0\"} 1"));
        assert!(text.contains("dssj_msgs_in_total{comp=\"sink\",task=\"0\"} 0"));
        assert!(text.contains("dssj_task_restarts_total 2"));
        assert!(text.contains("dssj_corrupt_frames_total 21"));
        assert!(text.contains("dssj_corrupt_snapshot_parts_total 22"));
        assert!(text.contains("dssj_corrupt_manifests_total 23"));
        assert!(text.contains("dssj_quarantined_epochs_total 24"));
        assert!(text.contains("dssj_restore_fallback_depth 25"));
        assert!(text.contains("dssj_run_elapsed_ns 99"));
        // Byte-stable: a second snapshot renders identically.
        assert_eq!(obs::prometheus(&report.metrics_snapshot()), text);
    }
}
