//! Joiner crash recovery: replay buffers and watermarks.
//!
//! When a joiner task crashes (see [`stormlite::FaultPlan`]) the runtime
//! rebuilds the bolt from its factory, but the fresh instance has lost its
//! partition of the inverted index. [`RecoveryState`] is the shared state
//! that lets it rebuild in O(window) work:
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
use ssj_core::join::bistream::Side;
use ssj_core::Window;
use ssj_text::Record;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One buffered index-target record, awaiting possible replay.
#[derive(Debug, Clone)]
pub struct ReplayEntry {
    /// The record as the joiner would have indexed it.
    pub record: Record,
    /// Source stream for bi-stream joins (`None` = self-join).
    pub side: Option<Side>,
}

impl ReplayEntry {
    /// Captures the replayable part of a routed payload.
    pub fn from_payload(payload: &RecordMsg) -> Self {
        Self {
            record: payload.record.clone(),
            side: payload.side,
        }
    }
}

/// Per-task recovery state: the replay buffer and the processing watermark.
#[derive(Debug)]
struct TaskRecovery {
    /// In-window index targets in arrival order.
    buffer: Mutex<VecDeque<ReplayEntry>>,
    /// Last fully processed record id, stored as `id + 1` (0 = none yet).
    watermark_id: AtomicU64,
    /// Timestamp of the last fully processed record.
    watermark_ts: AtomicU64,
    /// Times this task's bolt has been (re)built.
    incarnations: AtomicU64,
    /// Records replayed into this task across all restarts.
    replayed: AtomicU64,
    /// Entries dropped because a completed checkpoint now covers them.
    truncated: AtomicU64,
}

impl TaskRecovery {
    fn new() -> Self {
        Self {
            buffer: Mutex::new(VecDeque::new()),
            watermark_id: AtomicU64::new(0),
            watermark_ts: AtomicU64::new(0),
            incarnations: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
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
/// watermark per joiner task. Created only when a fault plan or
/// checkpointing is active, so plain runs pay nothing.
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

    /// Dispatcher side: records that `entry` was routed to `task` as an
    /// index target, and drops buffered entries the task has both processed
    /// and expired. Must be called *before* the corresponding message is
    /// emitted, so a watermark covering the record implies its entry is
    /// buffered.
    pub fn buffer_index_target(&self, task: usize, entry: ReplayEntry) {
        let t = &self.tasks[task];
        let mut buf = t.buffer.lock();
        buf.push_back(entry);
        if let Some((w_id, w_ts)) = t.watermark() {
            // Arrival order makes expiry monotone front-to-back, and an
            // unprocessed entry (id > w_id) can never test expired against
            // the watermark of an earlier arrival — so popping from the
            // front while expired is exact.
            while let Some(front) = buf.front() {
                if self
                    .window
                    .expired(front.record.id().0, front.record.timestamp(), w_id, w_ts)
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
    /// lost index state, in arrival order.
    pub fn replay_for(&self, task: usize) -> Vec<ReplayEntry> {
        let t = &self.tasks[task];
        let Some((w_id, w_ts)) = t.watermark() else {
            return Vec::new();
        };
        let buf = t.buffer.lock();
        let entries: Vec<ReplayEntry> = buf
            .iter()
            .filter(|e| {
                e.record.id().0 <= w_id
                    && !self
                        .window
                        .expired(e.record.id().0, e.record.timestamp(), w_id, w_ts)
            })
            .cloned()
            .collect();
        t.replayed
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        entries
    }

    /// Checkpoint coordinator side, when an epoch completes: drops every
    /// buffered entry for `task` with record id ≤ `through_id` — the
    /// durable snapshot now covers that state, so post-crash replay starts
    /// from the snapshot instead. `None` (no index target was ever routed
    /// to the task before the barrier) is a no-op.
    ///
    /// This is what bounds the replay buffer under [`Window::Unbounded`]:
    /// with an epoch committed every `interval` records, buffered state
    /// tops out near `interval` plus the in-flight backlog, independent of
    /// stream length.
    pub fn commit_snapshot(&self, task: usize, through_id: Option<u64>) {
        let Some(through) = through_id else { return };
        let t = &self.tasks[task];
        let mut buf = t.buffer.lock();
        let mut dropped = 0u64;
        while let Some(front) = buf.front() {
            if front.record.id().0 <= through {
                buf.pop_front();
                dropped += 1;
            } else {
                break;
            }
        }
        drop(buf);
        t.truncated.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Number of joiner tasks this state tracks.
    pub fn k(&self) -> usize {
        self.tasks.len()
    }

    /// How many incarnations `task` has seen (1 = never crashed).
    pub fn incarnations(&self, task: usize) -> u64 {
        self.tasks[task].incarnations.load(Ordering::Relaxed)
    }

    /// Total records replayed into `task` across restarts.
    pub fn replayed(&self, task: usize) -> u64 {
        self.tasks[task].replayed.load(Ordering::Relaxed)
    }

    /// Currently buffered entries for `task` (test observability).
    pub fn buffered(&self, task: usize) -> usize {
        self.tasks[task].buffer.lock().len()
    }

    /// Buffered entries for `task` dropped because a completed checkpoint
    /// superseded them (see [`commit_snapshot`](Self::commit_snapshot)).
    pub fn truncated(&self, task: usize) -> u64 {
        self.tasks[task].truncated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::{RecordId, TokenId};

    fn entry(id: u64, ts: u64) -> ReplayEntry {
        ReplayEntry {
            record: Record::from_sorted(RecordId(id), ts, vec![TokenId(1), TokenId(2)]),
            side: None,
        }
    }

    #[test]
    fn replay_is_empty_before_any_processing() {
        let r = RecoveryState::new(2, Window::Unbounded);
        r.buffer_index_target(0, entry(0, 0));
        assert!(r.replay_for(0).is_empty(), "nothing processed yet");
        assert_eq!(r.buffered(0), 1);
    }

    #[test]
    fn replay_stops_at_the_watermark() {
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..10 {
            r.buffer_index_target(0, entry(id, id * 10));
        }
        r.mark_processed(0, 6, 60);
        let ids: Vec<u64> = r.replay_for(0).iter().map(|e| e.record.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn replay_excludes_expired_entries() {
        let r = RecoveryState::new(1, Window::Count(3));
        for id in 0..10 {
            r.buffer_index_target(0, entry(id, id * 10));
        }
        r.mark_processed(0, 9, 90);
        let ids: Vec<u64> = r.replay_for(0).iter().map(|e| e.record.id().0).collect();
        // Window::Count(3) from watermark 9 keeps ids 6..=9.
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn trimming_drops_processed_expired_entries_only() {
        let r = RecoveryState::new(1, Window::Count(2));
        for id in 0..5 {
            r.buffer_index_target(0, entry(id, id));
        }
        assert_eq!(r.buffered(0), 5, "nothing trimmed before processing");
        r.mark_processed(0, 4, 4);
        // The next push trims ids 0 and 1 (expired w.r.t. watermark 4).
        r.buffer_index_target(0, entry(5, 5));
        assert_eq!(r.buffered(0), 4);
    }

    #[test]
    fn watermark_of_id_zero_is_distinguished_from_none() {
        let r = RecoveryState::new(1, Window::Unbounded);
        r.buffer_index_target(0, entry(0, 0));
        r.mark_processed(0, 0, 0);
        assert_eq!(r.replay_for(0).len(), 1);
    }

    #[test]
    fn unbounded_buffer_grows_with_stream() {
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..50 {
            r.buffer_index_target(0, entry(id, id));
            r.mark_processed(0, id, id);
        }
        assert_eq!(r.buffered(0), 50);
    }

    #[test]
    fn snapshot_commit_truncates_covered_prefix_only() {
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..10 {
            r.buffer_index_target(0, entry(id, id));
        }
        r.commit_snapshot(0, Some(6));
        assert_eq!(r.buffered(0), 3);
        assert_eq!(r.truncated(0), 7);
        // Replay after the commit covers only the uncheckpointed suffix.
        r.mark_processed(0, 9, 9);
        let ids: Vec<u64> = r.replay_for(0).iter().map(|e| e.record.id().0).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn snapshot_commit_with_no_cut_is_a_noop() {
        let r = RecoveryState::new(1, Window::Unbounded);
        r.buffer_index_target(0, entry(3, 3));
        r.commit_snapshot(0, None);
        assert_eq!(r.buffered(0), 1);
        assert_eq!(r.truncated(0), 0);
    }

    #[test]
    fn periodic_commits_bound_an_unbounded_buffer() {
        // Mirrors the checkpointing loop: an epoch commit every 8 records
        // keeps the unbounded-window buffer near the interval.
        let r = RecoveryState::new(1, Window::Unbounded);
        for id in 0..200u64 {
            r.buffer_index_target(0, entry(id, id));
            r.mark_processed(0, id, id);
            if (id + 1) % 8 == 0 {
                r.commit_snapshot(0, Some(id));
            }
            assert!(r.buffered(0) <= 8);
        }
    }

    #[test]
    fn incarnations_count_up_per_task() {
        let r = RecoveryState::new(2, Window::Unbounded);
        assert_eq!(r.begin_incarnation(0), 0);
        assert_eq!(r.begin_incarnation(0), 1);
        assert_eq!(r.begin_incarnation(1), 0);
        assert_eq!(r.incarnations(0), 2);
        assert_eq!(r.incarnations(1), 1);
    }
}
