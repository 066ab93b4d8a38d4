//! Joiner crash recovery: replay buffers and watermarks.
//!
//! When a joiner task crashes (see [`stormlite::FaultPlan`]) or a cluster
//! node dies, the runtime rebuilds the joiner, but the fresh instance has
//! lost its partition of the inverted index. [`RecoveryState`] is the
//! shared state that lets it rebuild in O(window) work, and the only
//! source it rebuilds from — checkpoints make a run durable, they are not
//! read mid-run:
//!
//! * the **replay buffer**: for every joiner task, the dispatcher appends a
//!   copy of each record it routes there as an *index* target (the only
//!   messages that create joiner state). Entries expire exactly like the
//!   window they mirror, so the buffer is bounded by the window size plus
//!   the in-flight backlog — except under [`Window::Unbounded`], where it
//!   grows with the stream (an unbounded window *is* O(stream) state).
//! * the **watermark**: after fully processing any record-bearing tuple,
//!   the joiner publishes that record's `(id, timestamp)` — for a batch,
//!   its last record's, once the whole batch is processed. Because the
//!   single dispatcher feeds each joiner over one FIFO wire, a watermark of
//!   `w` proves every message with record id ≤ `w` was fully processed
//!   (its results already emitted) and every message with id > `w` is
//!   still queued and will be delivered to the fresh instance.
//!
//! On restart the fresh joiner therefore replays exactly the buffered
//! entries with `id ≤ watermark` that are still inside the window — via the
//! index-only [`StreamJoiner::restore`](ssj_core::StreamJoiner::restore)
//! path, which re-emits nothing — and resumes. No result pair is lost
//! (probes at or below the watermark already emitted; probes above it are
//! redelivered) and none is duplicated (replay never probes).
//!
//! The watermark is published as two relaxed atomics. The restart path
//! reads them from the same OS thread that wrote them (stormlite rebuilds
//! a task's bolt on the task's own thread), so it always sees the exact
//! crash-point values; the dispatcher's trimming path may read a stale or
//! torn pair, which can only *under*-trim — never drop a replayable entry.

use crate::msg::RecordMsg;
use parking_lot::Mutex;
use ssj_core::snapshot::SnapshotEntry;
use ssj_core::Window;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-task recovery state: the replay buffer and the processing watermark.
#[derive(Debug)]
struct TaskRecovery {
    /// In-window index targets in arrival order, as the joiner indexed
    /// them.
    buffer: Mutex<VecDeque<SnapshotEntry>>,
    /// Last fully processed record id, stored as `id + 1` (0 = none yet).
    watermark_id: AtomicU64,
    /// Timestamp of the last fully processed record.
    watermark_ts: AtomicU64,
    /// Times this task's bolt has been (re)built.
    incarnations: AtomicU64,
    /// Records replayed into this task across all restarts.
    replayed: AtomicU64,
}

impl TaskRecovery {
    fn new() -> Self {
        Self {
            buffer: Mutex::new(VecDeque::new()),
            watermark_id: AtomicU64::new(0),
            watermark_ts: AtomicU64::new(0),
            incarnations: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }

    /// The watermark as `(last_processed_id, its_timestamp)`, or `None` if
    /// the task has not fully processed any record yet.
    fn watermark(&self) -> Option<(u64, u64)> {
        let id_plus_one = self.watermark_id.load(Ordering::Relaxed);
        if id_plus_one == 0 {
            return None;
        }
        Some((id_plus_one - 1, self.watermark_ts.load(Ordering::Relaxed)))
    }
}

/// Shared recovery state for one distributed run: one replay buffer and
/// watermark per joiner task. Created only when the engine can lose a
/// joiner's state mid-run — an injected fault plan on the topology; a
/// fault, health, outage or checkpoint setting on the cluster, whose nodes
/// can also die unplanned — so other runs pay nothing.
#[derive(Debug)]
pub struct RecoveryState {
    window: Window,
    tasks: Vec<TaskRecovery>,
}

impl RecoveryState {
    /// Recovery state for `k` joiner tasks under the given window policy.
    pub fn new(k: usize, window: Window) -> Self {
        Self {
            window,
            tasks: (0..k).map(|_| TaskRecovery::new()).collect(),
        }
    }

    /// Dispatcher side: records that `payload` was routed to `task` as an
    /// index target, and drops buffered entries the task has both processed
    /// and expired. Must be called *before* the corresponding message is
    /// emitted, so a watermark covering the record implies its entry is
    /// buffered.
    pub fn buffer_index_target(&self, task: usize, payload: &RecordMsg) {
        let t = &self.tasks[task];
        let mut buf = t.buffer.lock();
        buf.push_back((payload.side, payload.record.clone()));
        if let Some((w_id, w_ts)) = t.watermark() {
            // Arrival order makes expiry monotone front-to-back, and an
            // unprocessed entry (id > w_id) can never test expired against
            // the watermark of an earlier arrival — so popping from the
            // front while expired is exact.
            while let Some((_, front)) = buf.front() {
                if self
                    .window
                    .expired(front.id().0, front.timestamp(), w_id, w_ts)
                {
                    buf.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Joiner side: publishes that the record `(id, ts)` — probe or index —
    /// has been fully processed, results included.
    pub fn mark_processed(&self, task: usize, id: u64, ts: u64) {
        let t = &self.tasks[task];
        t.watermark_id.store(id + 1, Ordering::Relaxed);
        t.watermark_ts.store(ts, Ordering::Relaxed);
    }

    /// Joiner side, on (re)construction: claims the next incarnation number
    /// for `task`. Returns 0 for the first build (nothing to replay).
    pub fn begin_incarnation(&self, task: usize) -> u64 {
        self.tasks[task]
            .incarnations
            .fetch_add(1, Ordering::Relaxed)
    }

    /// Joiner side, on restart: the entries the crashed incarnation had
    /// fully processed and that are still inside the window — exactly the
    /// lost index state, in arrival order, ready for
    /// [`StreamJoiner::restore`](ssj_core::StreamJoiner::restore).
    pub fn replay_for(&self, task: usize) -> Vec<SnapshotEntry> {
        let t = &self.tasks[task];
        let Some((w_id, w_ts)) = t.watermark() else {
            return Vec::new();
        };
        let buf = t.buffer.lock();
        let entries: Vec<SnapshotEntry> = buf
            .iter()
            .filter(|(_, r)| {
                r.id().0 <= w_id && !self.window.expired(r.id().0, r.timestamp(), w_id, w_ts)
            })
            .cloned()
            .collect();
        t.replayed
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        entries
    }

    /// Total records replayed into `task` across restarts.
    pub fn replayed(&self, task: usize) -> u64 {
        self.tasks[task].replayed.load(Ordering::Relaxed)
    }

    /// Currently buffered entries for `task` (test observability).
    pub fn buffered(&self, task: usize) -> usize {
        self.tasks[task].buffer.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::{Record, RecordId, TokenId};
    use stormlite::Timestamp;

    fn payload(id: u64, ts: u64) -> RecordMsg {
        let record = Record::from_sorted(RecordId(id), ts, vec![TokenId(1), TokenId(2)]);
        RecordMsg::solo(record, Timestamp::ZERO)
    }

    fn replayed_ids(r: &RecoveryState, task: usize) -> Vec<u64> {
        r.replay_for(task).iter().map(|(_, r)| r.id().0).collect()
    }

    #[test]
    fn replay_is_empty_before_any_processing() {
        let r = RecoveryState::new(2, Window::Unbounded);
        r.buffer_index_target(0, &payload(0, 0));
        assert!(r.replay_for(0).is_empty(), "nothing processed yet");
        assert_eq!(r.buffered(0), 1);
    }

    #[test]
    fn replay_stops_at_the_watermark() {
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..10 {
            r.buffer_index_target(0, &payload(id, id * 10));
        }
        r.mark_processed(0, 6, 60);
        assert_eq!(replayed_ids(&r, 0), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn replay_excludes_expired_entries() {
        let r = RecoveryState::new(1, Window::Count(3));
        for id in 0..10 {
            r.buffer_index_target(0, &payload(id, id * 10));
        }
        r.mark_processed(0, 9, 90);
        // Window::Count(3) from watermark 9 keeps ids 6..=9.
        assert_eq!(replayed_ids(&r, 0), vec![6, 7, 8, 9]);
    }

    #[test]
    fn trimming_drops_processed_expired_entries_only() {
        let r = RecoveryState::new(1, Window::Count(2));
        for id in 0..5 {
            r.buffer_index_target(0, &payload(id, id));
        }
        assert_eq!(r.buffered(0), 5, "nothing trimmed before processing");
        r.mark_processed(0, 4, 4);
        // The next push trims ids 0 and 1 (expired w.r.t. watermark 4).
        r.buffer_index_target(0, &payload(5, 5));
        assert_eq!(r.buffered(0), 4);
    }

    #[test]
    fn watermark_of_id_zero_is_distinguished_from_none() {
        let r = RecoveryState::new(1, Window::Unbounded);
        r.buffer_index_target(0, &payload(0, 0));
        r.mark_processed(0, 0, 0);
        assert_eq!(r.replay_for(0).len(), 1);
    }

    #[test]
    fn unbounded_buffer_grows_with_stream() {
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..50 {
            r.buffer_index_target(0, &payload(id, id));
            r.mark_processed(0, id, id);
        }
        assert_eq!(r.buffered(0), 50);
    }

    #[test]
    fn incarnations_count_up_per_task() {
        let r = RecoveryState::new(2, Window::Unbounded);
        assert_eq!(r.begin_incarnation(0), 0);
        assert_eq!(r.begin_incarnation(0), 1);
        assert_eq!(r.begin_incarnation(1), 0);
        assert_eq!(r.begin_incarnation(0), 2);
        assert_eq!(r.begin_incarnation(1), 1);
    }
}
