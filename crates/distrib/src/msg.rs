//! The tuple vocabulary of the join topology.

use ssj_core::join::bistream::Side;
use ssj_text::Record;
use stormlite::{Message, Timestamp};

/// The payload of every record-bearing message.
///
/// `ingest` stamps carry the dispatch time (on the topology clock — real
/// in threaded runs, virtual under simulation) through the pipeline so the
/// joiner can measure dispatch-to-publication latency. `side` is `None` for
/// self-joins and tags the source stream for bi-stream (R–S) joins.
#[derive(Debug, Clone)]
pub struct RecordMsg {
    /// The record.
    pub record: Record,
    /// When the dispatcher saw the record, on the topology clock.
    pub ingest: Timestamp,
    /// Source stream for bi-stream joins (`None` = self-join).
    pub side: Option<Side>,
}

impl RecordMsg {
    /// A self-join payload.
    pub fn solo(record: Record, ingest: Timestamp) -> Self {
        Self {
            record,
            ingest,
            side: None,
        }
    }
}

/// Messages flowing from the source through the dispatcher to the joiners.
#[derive(Debug, Clone)]
pub enum JoinMsg {
    /// Probe the local index with this record (do not store it).
    Probe(RecordMsg),
    /// Store this record in the local index (no probe).
    Index(RecordMsg),
    /// Probe first, then store — the atomic step used when one joiner is
    /// both a probe and the index target of the same record.
    ProbeAndIndex(RecordMsg),
    /// Several messages shipped down one wire as a single engine message,
    /// in order; never nested. With [`crate::JoinSpec::dispatch_batch`]
    /// set, three edges carry them, to amortize per-message engine and
    /// per-frame session overhead:
    ///
    /// * source → dispatcher (topology, unpaced sources): that many source
    ///   messages, live records and restore tuples alike, in arrival
    ///   order. The dispatcher runs each through the per-record dispatch
    ///   path, so stamps, shed decisions and epoch boundaries are those of
    ///   an unbatched run;
    /// * dispatcher → joiner (topology): up to that many record-bearing
    ///   messages per joiner wire, in dispatch order, flushed before every
    ///   barrier injection and at stream end. The joiner runs each through
    ///   the full per-message path, so batching never changes results, and
    ///   publishes the batch's pairs, in probe order, when the batch ends;
    /// * launcher → node (cluster): the same dispatcher batches, each
    ///   framed as one sequenced `Data` frame — additionally flushed every
    ///   `BATCH_MAX_FRAMES` source records — and answered by the node with
    ///   at most one `Results` frame and one ack. The node → launcher
    ///   direction has its own frame for that and never carries a
    ///   `JoinMsg`.
    ///
    /// A batch is one engine tuple: it is redelivered (on the cluster:
    /// retransmitted under its original sequence number) whole after a
    /// crash, dropped whole (and counted once) if processing it panics,
    /// and moves the joiner's recovery watermark once.
    Batch(Vec<JoinMsg>),
    /// A checkpoint barrier control tuple. The dispatcher injects one per
    /// epoch down every joiner wire; a joiner receiving it snapshots its
    /// window and publishes the snapshot to the epoch's checkpoint. Rides
    /// the same FIFO wires as data, so everything dispatched before the
    /// barrier is reflected in the snapshot and nothing after it is.
    Barrier {
        /// The checkpoint epoch this barrier opens.
        epoch: u64,
        /// When the dispatcher injected the barrier, on the topology
        /// clock — the reference point for alignment-stall and checkpoint
        /// latency metrics.
        injected_at: Timestamp,
    },
}

impl JoinMsg {
    /// The carried record for record-bearing variants.
    pub fn record(&self) -> Option<&Record> {
        match self {
            JoinMsg::Probe(m) | JoinMsg::Index(m) | JoinMsg::ProbeAndIndex(m) => Some(&m.record),
            JoinMsg::Barrier { .. } | JoinMsg::Batch(_) => None,
        }
    }

    /// The full payload for record-bearing variants.
    pub fn payload(&self) -> Option<&RecordMsg> {
        match self {
            JoinMsg::Probe(m) | JoinMsg::Index(m) | JoinMsg::ProbeAndIndex(m) => Some(m),
            JoinMsg::Barrier { .. } | JoinMsg::Batch(_) => None,
        }
    }

    /// Whether this message stores its record in the receiving joiner's
    /// index — the messages the recovery replay buffer must retain.
    pub fn indexes(&self) -> bool {
        match self {
            JoinMsg::Index(_) | JoinMsg::ProbeAndIndex(_) => true,
            JoinMsg::Batch(msgs) => msgs.iter().any(JoinMsg::indexes),
            _ => false,
        }
    }
}

impl Message for JoinMsg {
    fn wire_bytes(&self) -> u64 {
        // 1 tag byte + payload, matching what a compact binary codec would
        // ship: records as (id, ts, len, tokens) plus a side byte for
        // bi-stream tuples.
        match self {
            JoinMsg::Probe(m) | JoinMsg::Index(m) | JoinMsg::ProbeAndIndex(m) => {
                1 + m.record.wire_bytes() + u64::from(m.side.is_some())
            }
            // tag + count + the framed sub-messages: batching costs 5 bytes
            // of envelope however many messages it carries.
            JoinMsg::Batch(msgs) => 1 + 4 + msgs.iter().map(Message::wire_bytes).sum::<u64>(),
            // tag + epoch + injected_at: barriers are (nearly) free on the
            // wire, whatever the checkpoint interval.
            JoinMsg::Barrier { .. } => 1 + 8 + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::{RecordId, TokenId};

    fn rec(len: u32) -> Record {
        Record::from_sorted(RecordId(1), 0, (0..len).map(TokenId).collect())
    }

    #[test]
    fn wire_bytes_scale_with_tokens() {
        let now = Timestamp::ZERO;
        let small = JoinMsg::Probe(RecordMsg::solo(rec(2), now));
        let large = JoinMsg::Index(RecordMsg::solo(rec(100), now));
        assert_eq!(small.wire_bytes(), 1 + 8 + 8 + 4 + 8);
        assert_eq!(large.wire_bytes(), 1 + 8 + 8 + 4 + 400);
    }

    #[test]
    fn bi_stream_payloads_cost_a_side_byte() {
        let m = JoinMsg::Probe(RecordMsg {
            record: rec(2),
            ingest: Timestamp::ZERO,
            side: Some(Side::Left),
        });
        assert_eq!(m.wire_bytes(), 1 + 8 + 8 + 4 + 8 + 1);
    }

    #[test]
    fn barrier_is_fixed_size_and_carries_no_record() {
        let m = JoinMsg::Barrier {
            epoch: 3,
            injected_at: Timestamp::ZERO,
        };
        assert_eq!(m.wire_bytes(), 17);
        assert!(m.record().is_none());
        assert!(m.payload().is_none());
        assert!(!m.indexes());
    }

    #[test]
    fn batch_sums_contents_plus_envelope() {
        let now = Timestamp::ZERO;
        let inner = vec![
            JoinMsg::Probe(RecordMsg::solo(rec(2), now)),
            JoinMsg::Index(RecordMsg::solo(rec(3), now)),
        ];
        let inner_bytes: u64 = inner.iter().map(Message::wire_bytes).sum();
        let batch = JoinMsg::Batch(inner);
        assert_eq!(batch.wire_bytes(), 1 + 4 + inner_bytes);
        assert!(batch.record().is_none());
        assert!(batch.payload().is_none());
        assert!(batch.indexes());
        assert!(!JoinMsg::Batch(vec![JoinMsg::Probe(RecordMsg::solo(rec(1), now))]).indexes());
    }

    #[test]
    fn record_accessor() {
        let m = JoinMsg::ProbeAndIndex(RecordMsg::solo(rec(3), Timestamp::ZERO));
        assert_eq!(m.record().unwrap().len(), 3);
        assert!(m.payload().unwrap().side.is_none());
    }
}
