//! Sliding-window semantics for the streaming join.
//!
//! Window membership is defined by *watermarks carried by the probing
//! record*, not by per-joiner local counts: a stored record is visible to a
//! probe iff it lies within the window measured from the probe's global
//! arrival id (count windows) or timestamp (time windows). This makes the
//! semantics identical whether the index lives on one node or is length-
//! partitioned across many — each joiner evaluates the same predicate —
//! which is what the distributed-equivalence tests rely on.

use std::collections::VecDeque;

/// A sliding-window policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Join against the entire history.
    Unbounded,
    /// A probe joins against the `W` most recently arrived records
    /// (by global arrival id).
    Count(u64),
    /// A probe with timestamp `t` joins against records with timestamps in
    /// `(t − W, t]`.
    TimeMs(u64),
}

impl Window {
    /// Is a stored record (with the given arrival id and timestamp) outside
    /// the window of a probe?
    #[inline]
    pub fn expired(&self, stored_id: u64, stored_ts: u64, probe_id: u64, probe_ts: u64) -> bool {
        match *self {
            Window::Unbounded => false,
            Window::Count(w) => probe_id.saturating_sub(stored_id) > w,
            Window::TimeMs(w) => probe_ts.saturating_sub(stored_ts) > w,
        }
    }
}

/// A FIFO of stored entries in arrival order, drained as the watermark
/// advances. Joiners push on insert and call [`drain_expired`] on every
/// probe/insert; the callback receives each evicted payload.
///
/// [`drain_expired`]: EvictionQueue::drain_expired
#[derive(Debug, Clone)]
pub struct EvictionQueue<T> {
    entries: VecDeque<(u64, u64, T)>,
}

impl<T> Default for EvictionQueue<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
        }
    }
}

impl<T> EvictionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a stored entry. Ids and timestamps must be non-decreasing
    /// across calls (streams arrive in order); this is debug-asserted.
    pub fn push(&mut self, id: u64, ts: u64, payload: T) {
        debug_assert!(
            self.entries
                .back()
                .is_none_or(|&(i, t, _)| i <= id && t <= ts),
            "eviction queue requires arrival order"
        );
        self.entries.push_back((id, ts, payload));
    }

    /// Evicts every entry expired w.r.t. the probe watermark, invoking
    /// `on_evict` for each. Returns the number evicted.
    pub fn drain_expired(
        &mut self,
        window: Window,
        probe_id: u64,
        probe_ts: u64,
        mut on_evict: impl FnMut(T),
    ) -> usize {
        let mut n = 0;
        while let Some(&(id, ts, _)) = self.entries.front() {
            if window.expired(id, ts, probe_id, probe_ts) {
                let (_, _, payload) = self.entries.pop_front().expect("front checked");
                on_evict(payload);
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// The payload `d` entries behind the front — the `(d + 1)`-th to
    /// expire — if the queue holds that many. Read-only: the eviction
    /// lookahead uses it to fetch what the next evictions will read.
    #[inline]
    pub fn behind_front(&self, d: usize) -> Option<&T> {
        self.entries.get(d).map(|(_, _, payload)| payload)
    }

    /// Iterates the live payloads in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, _, payload)| payload)
    }

    /// Iterates the live entries as `(id, timestamp, payload)` in arrival
    /// order. Used by the snapshot path, where the stored payload alone does
    /// not carry its arrival coordinates.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64, &T)> {
        self.entries
            .iter()
            .map(|(id, ts, payload)| (*id, *ts, payload))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        assert!(!Window::Unbounded.expired(0, 0, u64::MAX, u64::MAX));
    }

    #[test]
    fn count_window_keeps_last_w() {
        let w = Window::Count(2);
        // probe id 10 sees ids 8 and 9.
        assert!(!w.expired(9, 0, 10, 0));
        assert!(!w.expired(8, 0, 10, 0));
        assert!(w.expired(7, 0, 10, 0));
    }

    #[test]
    fn time_window_half_open() {
        let w = Window::TimeMs(100);
        assert!(!w.expired(0, 900, 0, 1000)); // exactly at the edge: visible
        assert!(w.expired(0, 899, 0, 1000));
    }

    #[test]
    fn saturating_on_reordered_watermark() {
        // A stored id larger than the probe id (can't happen in practice)
        // must not underflow.
        assert!(!Window::Count(1).expired(5, 0, 3, 0));
    }

    #[test]
    fn eviction_queue_drains_in_order() {
        let mut q = EvictionQueue::new();
        for i in 0..5u64 {
            q.push(i, i * 10, i);
        }
        let mut evicted = Vec::new();
        let n = q.drain_expired(Window::Count(2), 4, 40, |p| evicted.push(p));
        // probe id 4 sees ids 2,3 (4 itself not stored yet) — evicts 0,1.
        assert_eq!(n, 2);
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn eviction_queue_time_window() {
        let mut q = EvictionQueue::new();
        q.push(0, 0, "a");
        q.push(1, 500, "b");
        q.push(2, 900, "c");
        let mut out = Vec::new();
        q.drain_expired(Window::TimeMs(300), 3, 1000, |p| out.push(p));
        assert_eq!(out, vec!["a", "b"]); // 900 is within (700, 1000]
        assert_eq!(q.len(), 1);
    }

    /// `behind_front(d)` names the entry `d` places behind whatever the
    /// front is now, across pushes and drains, and nothing past the back.
    #[test]
    fn behind_front_tracks_the_front_across_push_and_drain() {
        let mut q = EvictionQueue::new();
        assert_eq!(q.behind_front(0), None);
        for i in 0..6u64 {
            q.push(i, i, i * 10);
        }
        assert_eq!(q.behind_front(0), Some(&0));
        assert_eq!(q.behind_front(5), Some(&50));
        assert_eq!(q.behind_front(6), None);
        // Probe id 5 under a count window of 2 expires ids 0..=2.
        let mut evicted = Vec::new();
        q.drain_expired(Window::Count(2), 5, 5, |p| evicted.push(p));
        assert_eq!(evicted, [0, 10, 20]);
        let ahead: Vec<_> = (0..4).map(|d| q.behind_front(d).copied()).collect();
        assert_eq!(ahead, [Some(30), Some(40), Some(50), None]);
        // A push lands at the back; draining one entry at a time hands out
        // the payloads in exactly the order `behind_front` listed them.
        q.push(6, 6, 60);
        let listed: Vec<_> = (0..4).map(|d| q.behind_front(d).copied()).collect();
        let mut drained = Vec::new();
        for probe_id in 4..8 {
            q.drain_expired(Window::Count(0), probe_id, 0, |p| drained.push(Some(p)));
        }
        assert_eq!(drained, listed);
        assert_eq!(listed, [Some(30), Some(40), Some(50), Some(60)]);
        assert_eq!(q.behind_front(0), None);
    }

    #[test]
    fn eviction_queue_unbounded_never_drains() {
        let mut q = EvictionQueue::new();
        q.push(0, 0, ());
        assert_eq!(
            q.drain_expired(Window::Unbounded, 1 << 40, 1 << 40, |_| {}),
            0
        );
        assert_eq!(q.len(), 1);
    }
}
