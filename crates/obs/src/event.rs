//! The structured trace event model.
//!
//! An [`Event`] is a fixed-size, allocation-free record of one pipeline
//! action: where it happened in the pipeline ([`Stage`]), when
//! (nanoseconds on the topology clock), how long (`dur`, zero for
//! instant events), and two stage-specific integer operands. The
//! component name and task index are *not* stored per event — they are
//! attached once at the ring level (see
//! [`TaskTrace`](crate::TaskTrace)), keeping the hot-path record a
//! 40-byte copy.
//!
//! Stage-specific operand meanings (`a`, `b`):
//!
//! | stage      | `a`              | `b`                     |
//! |------------|------------------|-------------------------|
//! | dispatch   | pull ordinal     | —                       |
//! | route      | record id        | fan-out (targets)       |
//! | deliver    | link id          | sequence number         |
//! | retry      | sequence number  | retry count             |
//! | execute    | tuples drained   | —                       |
//! | index      | record id        | index size after insert |
//! | verify     | record id        | results produced        |
//! | emit       | pair left id     | pair right id           |
//! | barrier    | epoch            | stall (ns)              |
//! | checkpoint | epoch            | snapshot bytes          |
//! | shed       | record id        | queue depth             |
//! | suspect    | task index       | detection latency (ns)  |
//! | recover    | task index       | respawn count           |
//! | fence      | task index       | in-flight records shed  |
//! | corrupt    | task index       | 1 if snapshot payload   |

/// The pipeline stage a trace event belongs to.
///
/// The discriminant order is fixed: it is the slot order of
/// [`StageProfile`](crate::StageProfile) and the iteration order of
/// [`Stage::ALL`], so exporters and goldens never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A spout handed one item of its source to the topology: a record,
    /// or a batch of them.
    Dispatch,
    /// A dispatcher routing decision: one record mapped to its target
    /// joiner task(s).
    Route,
    /// A packet was placed on a wire toward its destination task
    /// (including fault-injected duplicates).
    Deliver,
    /// A reliable-delivery retransmission of an unacked packet.
    Retry,
    /// One bolt `execute` invocation (drain of deliverable tuples).
    Execute,
    /// A record was inserted into a joiner's local inverted index.
    Index,
    /// Candidate probing plus similarity verification for one record.
    Verify,
    /// A verified result pair reached the sink.
    Emit,
    /// Barrier alignment at a checkpointing task.
    Barrier,
    /// A checkpoint snapshot was captured and published.
    Checkpoint,
    /// A record was shed by the overload policy.
    Shed,
    /// A liveness deadline expired: a node was declared suspect by the
    /// failure detector (the span duration is the detection latency).
    Suspect,
    /// A suspect node was respawned and its session resumed (the span
    /// duration covers kill, drain, handshake, restore and retransmit).
    Recover,
    /// A task exhausted its recovery budget and was fenced; its remaining
    /// partition is shed with exact recall accounting.
    Fence,
    /// A frame or snapshot payload failed its integrity check (checksum
    /// mismatch or undecodable body) and was rejected — the poisoned
    /// source is recovered instead of trusted.
    Corrupt,
}

impl Stage {
    /// Every stage in discriminant order.
    pub const ALL: [Stage; 15] = [
        Stage::Dispatch,
        Stage::Route,
        Stage::Deliver,
        Stage::Retry,
        Stage::Execute,
        Stage::Index,
        Stage::Verify,
        Stage::Emit,
        Stage::Barrier,
        Stage::Checkpoint,
        Stage::Shed,
        Stage::Suspect,
        Stage::Recover,
        Stage::Fence,
        Stage::Corrupt,
    ];

    /// Stable lowercase name used by every exporter (and therefore baked
    /// into trace goldens — do not rename).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Dispatch => "dispatch",
            Stage::Route => "route",
            Stage::Deliver => "deliver",
            Stage::Retry => "retry",
            Stage::Execute => "execute",
            Stage::Index => "index",
            Stage::Verify => "verify",
            Stage::Emit => "emit",
            Stage::Barrier => "barrier",
            Stage::Checkpoint => "checkpoint",
            Stage::Shed => "shed",
            Stage::Suspect => "suspect",
            Stage::Recover => "recover",
            Stage::Fence => "fence",
            Stage::Corrupt => "corrupt",
        }
    }
}

/// One trace event: a fixed-size record of a pipeline action.
///
/// `dur == 0` marks an instant event (a point in time); a nonzero `dur`
/// marks a span starting at `ts`. Under the simulation scheduler the
/// clock is frozen within a single execute step, so intra-step spans
/// deterministically report `dur == 0`; threaded runs report real wall
/// durations through the same field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since run start, read from the topology clock.
    pub ts: u64,
    /// Pipeline stage.
    pub stage: Stage,
    /// Span duration in nanoseconds; `0` for instant events.
    pub dur: u64,
    /// First stage-specific operand (see the module-level table).
    pub a: u64,
    /// Second stage-specific operand.
    pub b: u64,
}

impl Event {
    /// An instant (zero-duration) event.
    #[inline]
    pub fn instant(ts: u64, stage: Stage, a: u64, b: u64) -> Self {
        Event {
            ts,
            stage,
            dur: 0,
            a,
            b,
        }
    }

    /// A span event covering `[ts, ts + dur)`.
    #[inline]
    pub fn span(ts: u64, stage: Stage, dur: u64, a: u64, b: u64) -> Self {
        Event {
            ts,
            stage,
            dur,
            a,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_discriminant_order_and_names_are_unique() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }

    #[test]
    fn constructors() {
        let e = Event::instant(5, Stage::Shed, 1, 2);
        assert_eq!(e.dur, 0);
        let s = Event::span(5, Stage::Verify, 10, 1, 2);
        assert_eq!(s.dur, 10);
        assert_eq!(s.stage.name(), "verify");
    }
}
