//! The cluster wire protocol: every frame that crosses a process boundary.
//!
//! A cluster run (see [`crate::cluster`]) splits the topology at the
//! dispatcher→joiner and joiner→sink edges: the launcher keeps the source,
//! dispatcher and sink; each joiner becomes an `ssj-node` process reached
//! over one [`stormlite::Wire`]. This module defines the binary frames on
//! that wire, layered on the length-prefixed transport framing of
//! [`stormlite::transport`] — a frame here is the *payload* of one
//! transport frame.
//!
//! Encoding follows the record codec in `ssj_text::codec`: fixed-width
//! little-endian integers, `f64` as raw IEEE-754 bits, one leading tag
//! byte per frame and per embedded [`JoinMsg`]. Decoding is strict: an
//! unknown tag, a truncated body, or trailing bytes after a complete frame
//! are all [`io::ErrorKind::InvalidData`] errors, never silent
//! best-effort parses — the cross-process differential tests rely on a
//! corrupt wire failing loudly instead of joining wrong.
//!
//! The realized byte sizes match the cost model that
//! [`Message::wire_bytes`](stormlite::Message) has charged all along
//! (tag + record + optional side byte, 25-byte results, 17-byte
//! barriers), so in-process byte metrics and real socket traffic agree.

use std::io::{self, Cursor, Read};

use ssj_core::join::bistream::Side;
use ssj_core::{JoinStats, MatchPair, SimFn, Window};
use ssj_text::codec::{decode_record, encode_record};
use ssj_text::RecordId;
use stormlite::Timestamp;

use crate::driver::LocalAlgo;
use crate::msg::{JoinMsg, RecordMsg};

/// Wire-protocol version, exchanged during the handshake so a stale
/// `ssj-node` binary fails fast instead of mis-decoding frames.
///
/// Version 2 added the [`Frame::Heartbeat`]/[`Frame::HealthAck`] liveness
/// probes; a v1 node would reject the unknown tags, so the version bump
/// makes the mismatch fail at the handshake instead.
///
/// Version 3 seals every post-handshake frame with a CRC32C trailer
/// ([`stormlite::crc32c()`]), so a flipped bit on the wire is a *detected*
/// corruption (classified error close → respawn + session-resume
/// retransmission) rather than a misparse or a silently wrong decode.
/// Only the [`Frame::Hello`] travels unsealed, so a peer of any version
/// can read it; the launcher refuses every version but this one.
///
/// Version 4 batches the data path: a [`Frame::Data`] may carry a
/// [`JoinMsg::Batch`] as one sequenced unit, which a node answers with at
/// most one [`Frame::Results`] and exactly one [`Frame::Ack`]. A v3 node
/// would answer the same batch pair by pair and reject the new tag from a
/// v4 peer, so the bump makes the mismatch fail at the handshake.
pub const PROTO_VERSION: u16 = 4;

const TAG_HELLO: u8 = 0x01;
const TAG_CONFIG: u8 = 0x02;
const TAG_DATA: u8 = 0x03;
const TAG_ACK: u8 = 0x04;
const TAG_RESULT: u8 = 0x05;
const TAG_SNAPSHOT: u8 = 0x06;
const TAG_EOS: u8 = 0x07;
const TAG_DONE: u8 = 0x08;
const TAG_RESTORE: u8 = 0x09;
const TAG_HEARTBEAT: u8 = 0x0A;
const TAG_HEALTH_ACK: u8 = 0x0B;
const TAG_RESULTS: u8 = 0x0C;

/// Encoded size of one [`Frame::Results`] entry: two ids, the similarity
/// and the ingest stamp.
const RESULT_ENTRY_BYTES: u64 = 32;

const MSG_PROBE: u8 = 0;
const MSG_INDEX: u8 = 1;
const MSG_PROBE_AND_INDEX: u8 = 2;
const MSG_RESULT: u8 = 3;
const MSG_BARRIER: u8 = 4;
const MSG_BATCH: u8 = 5;

/// Everything a joiner node needs to build its local engine — shipped by
/// the launcher right after the handshake, and again (with a fresh
/// `resume_seq`) when a crashed node is restarted.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's task index in `0..k`.
    pub task: u32,
    /// Total joiner parallelism.
    pub k: u32,
    /// Similarity measure.
    pub sim: SimFn,
    /// Similarity threshold τ.
    pub tau: f64,
    /// Sliding-window bound.
    pub window: Window,
    /// Local join algorithm.
    pub algo: LocalAlgo,
    /// Whether this is a bi-stream (R–S) join.
    pub bistream: bool,
    /// Whether the routing strategy requires prefix-based result dedup.
    pub dedup: bool,
    /// First data sequence number the launcher will send; anything below
    /// it was already processed by a previous incarnation.
    pub resume_seq: u64,
}

/// A joiner node's final counters, shipped in the [`Frame::Done`] frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Local join statistics.
    pub stats: JoinStats,
    /// Records resident in the window at end of stream.
    pub stored: u64,
    /// Live posting-list entries at end of stream.
    pub postings: u64,
}

/// One frame of the cluster protocol.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Node → launcher: first frame on a fresh connection.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u16,
        /// The task index this node was launched to serve.
        task: u32,
    },
    /// Launcher → node: engine configuration (handshake reply).
    Config(NodeConfig),
    /// Launcher → node: one routed [`JoinMsg`] — or one
    /// [`JoinMsg::Batch`] of them — under the at-least-once protocol.
    /// `seq` increases by one per *distinct* frame on this wire, whatever
    /// it carries; retransmissions reuse the original `seq` so the node
    /// can deduplicate.
    Data {
        /// Per-wire sequence number.
        seq: u64,
        /// The routed message, or a batch of them.
        msg: JoinMsg,
    },
    /// Node → launcher: everything `seq` carried has been fully processed
    /// and all of its results were written to the wire *before* this ack.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Node → launcher: one verified result pair — the reply to a probe
    /// that arrived outside a batch.
    Result {
        /// The matching pair.
        pair: MatchPair,
        /// Dispatch timestamp of the probing record.
        ingest: Timestamp,
    },
    /// Node → launcher: every result pair of one inbound batch, in probe
    /// order, each with the dispatch timestamp of its probing record.
    /// Never empty: a batch without results is answered by its ack alone.
    Results(Vec<(MatchPair, Timestamp)>),
    /// Node → launcher: this node's window snapshot for a barrier epoch
    /// (`window` is the `ssj_core::snapshot` encoding); the launcher
    /// publishes it to the checkpoint coordinator on the node's behalf.
    Snapshot {
        /// The barrier epoch being answered.
        epoch: u64,
        /// The answering task.
        task: u32,
        /// `encode_window_vec` bytes of the window snapshot.
        window: Vec<u8>,
    },
    /// Launcher → node, right after [`Frame::Config`] on a *restarted*
    /// connection: window state the previous incarnation lost, in the
    /// `ssj_core::snapshot` encoding. Applied index-only (nothing is
    /// probed, no results are produced), exactly like the in-process
    /// replay path, so restore can never duplicate a pair.
    Restore {
        /// `encode_window_vec` bytes of the entries to re-index.
        window: Vec<u8>,
    },
    /// Launcher → node: end of stream; reply with [`Frame::Done`] and
    /// exit.
    Eos,
    /// Node → launcher: final counters, then the node exits cleanly.
    Done(NodeReport),
    /// Launcher → node: liveness probe. A healthy node echoes `nonce` and
    /// `sent_at` back in a [`Frame::HealthAck`] immediately, even
    /// mid-stream, so an idle-but-alive wire produces traffic the failure
    /// detector can observe.
    Heartbeat {
        /// Opaque probe identifier, echoed back verbatim.
        nonce: u64,
        /// Launcher wall-clock nanos at send time, echoed back so the
        /// launcher can histogram round-trip latency without a node clock.
        sent_at: u64,
    },
    /// Node → launcher: echo of one [`Frame::Heartbeat`].
    HealthAck {
        /// The probe's `nonce`, verbatim.
        nonce: u64,
        /// The probe's `sent_at`, verbatim.
        sent_at: u64,
    },
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn get_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    Ok(f64::from_bits(get_u64(r)?))
}

fn bad(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

fn put_result(out: &mut Vec<u8>, pair: &MatchPair, ingest: Timestamp) {
    put_u64(out, pair.earlier.0);
    put_u64(out, pair.later.0);
    put_f64(out, pair.similarity);
    put_u64(out, ingest.as_nanos());
}

fn get_result<R: Read>(r: &mut R) -> io::Result<(MatchPair, Timestamp)> {
    let pair = MatchPair {
        earlier: RecordId(get_u64(r)?),
        later: RecordId(get_u64(r)?),
        similarity: get_f64(r)?,
    };
    Ok((pair, Timestamp::from_nanos(get_u64(r)?)))
}

fn encode_side(out: &mut Vec<u8>, side: Option<Side>) {
    out.push(match side {
        None => 0,
        Some(Side::Left) => 1,
        Some(Side::Right) => 2,
    });
}

fn decode_side<R: Read>(r: &mut R) -> io::Result<Option<Side>> {
    match get_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(Side::Left)),
        2 => Ok(Some(Side::Right)),
        t => Err(bad(format!("unknown side tag {t}"))),
    }
}

fn encode_record_msg(out: &mut Vec<u8>, m: &RecordMsg) -> io::Result<()> {
    encode_record(&m.record, out)?;
    put_u64(out, m.ingest.as_nanos());
    encode_side(out, m.side);
    Ok(())
}

fn decode_record_msg<R: Read>(r: &mut R) -> io::Result<RecordMsg> {
    let record = decode_record(r)?.ok_or_else(|| bad("truncated record in data frame"))?;
    let ingest = Timestamp::from_nanos(get_u64(r)?);
    let side = decode_side(r)?;
    Ok(RecordMsg {
        record,
        ingest,
        side,
    })
}

/// Appends the tagged binary encoding of one [`JoinMsg`] to `out`.
pub fn encode_join_msg(out: &mut Vec<u8>, msg: &JoinMsg) -> io::Result<()> {
    match msg {
        JoinMsg::Probe(m) => {
            out.push(MSG_PROBE);
            encode_record_msg(out, m)?;
        }
        JoinMsg::Index(m) => {
            out.push(MSG_INDEX);
            encode_record_msg(out, m)?;
        }
        JoinMsg::ProbeAndIndex(m) => {
            out.push(MSG_PROBE_AND_INDEX);
            encode_record_msg(out, m)?;
        }
        JoinMsg::Result { pair, ingest } => {
            out.push(MSG_RESULT);
            put_result(out, pair, *ingest);
        }
        JoinMsg::Barrier { epoch, injected_at } => {
            out.push(MSG_BARRIER);
            put_u64(out, *epoch);
            put_u64(out, injected_at.as_nanos());
        }
        JoinMsg::Batch(msgs) => {
            out.push(MSG_BATCH);
            let count = u32::try_from(msgs.len()).map_err(|_| bad("batch too large"))?;
            put_u32(out, count);
            for m in msgs {
                encode_join_msg(out, m)?;
            }
        }
    }
    Ok(())
}

/// Decodes one tagged [`JoinMsg`] from `r`.
pub fn decode_join_msg<R: Read>(r: &mut R) -> io::Result<JoinMsg> {
    match get_u8(r)? {
        MSG_PROBE => Ok(JoinMsg::Probe(decode_record_msg(r)?)),
        MSG_INDEX => Ok(JoinMsg::Index(decode_record_msg(r)?)),
        MSG_PROBE_AND_INDEX => Ok(JoinMsg::ProbeAndIndex(decode_record_msg(r)?)),
        MSG_RESULT => {
            let (pair, ingest) = get_result(r)?;
            Ok(JoinMsg::Result { pair, ingest })
        }
        MSG_BARRIER => Ok(JoinMsg::Barrier {
            epoch: get_u64(r)?,
            injected_at: Timestamp::from_nanos(get_u64(r)?),
        }),
        MSG_BATCH => {
            let count = get_u32(r)?;
            // Dispatchers never nest batches, so a recursive decode can at
            // most go one level deep on well-formed input; cap the depth a
            // hostile stream could force by rejecting nested batch tags.
            let mut msgs = Vec::with_capacity(count.min(4096) as usize);
            for _ in 0..count {
                let m = decode_join_msg(r)?;
                if matches!(m, JoinMsg::Batch(_)) {
                    return Err(bad("nested batch in data frame"));
                }
                msgs.push(m);
            }
            Ok(JoinMsg::Batch(msgs))
        }
        t => Err(bad(format!("unknown join-msg tag {t}"))),
    }
}

fn encode_sim(out: &mut Vec<u8>, sim: SimFn) {
    out.push(match sim {
        SimFn::Jaccard => 0,
        SimFn::Cosine => 1,
        SimFn::Dice => 2,
        SimFn::Overlap => 3,
    });
}

fn decode_sim<R: Read>(r: &mut R) -> io::Result<SimFn> {
    match get_u8(r)? {
        0 => Ok(SimFn::Jaccard),
        1 => Ok(SimFn::Cosine),
        2 => Ok(SimFn::Dice),
        3 => Ok(SimFn::Overlap),
        t => Err(bad(format!("unknown sim tag {t}"))),
    }
}

fn encode_window(out: &mut Vec<u8>, w: Window) {
    match w {
        Window::Unbounded => {
            out.push(0);
            put_u64(out, 0);
        }
        Window::Count(n) => {
            out.push(1);
            put_u64(out, n);
        }
        Window::TimeMs(ms) => {
            out.push(2);
            put_u64(out, ms);
        }
    }
}

fn decode_window<R: Read>(r: &mut R) -> io::Result<Window> {
    let tag = get_u8(r)?;
    let param = get_u64(r)?;
    match tag {
        0 => Ok(Window::Unbounded),
        1 => Ok(Window::Count(param)),
        2 => Ok(Window::TimeMs(param)),
        t => Err(bad(format!("unknown window tag {t}"))),
    }
}

fn encode_algo(out: &mut Vec<u8>, algo: &LocalAlgo) {
    match algo {
        LocalAlgo::Naive => out.push(0),
        LocalAlgo::AllPairs => out.push(1),
        LocalAlgo::PpJoin => out.push(2),
        LocalAlgo::PpJoinPlus => out.push(3),
        LocalAlgo::Bundle {
            bundle_tau,
            max_members,
            max_delta_frac,
        } => {
            out.push(4);
            out.push(u8::from(bundle_tau.is_some()));
            put_f64(out, bundle_tau.unwrap_or(0.0));
            put_u64(out, *max_members as u64);
            put_f64(out, *max_delta_frac);
        }
    }
}

fn decode_algo<R: Read>(r: &mut R) -> io::Result<LocalAlgo> {
    match get_u8(r)? {
        0 => Ok(LocalAlgo::Naive),
        1 => Ok(LocalAlgo::AllPairs),
        2 => Ok(LocalAlgo::PpJoin),
        3 => Ok(LocalAlgo::PpJoinPlus),
        4 => {
            let has_tau = match get_u8(r)? {
                0 => false,
                1 => true,
                t => return Err(bad(format!("bad bundle-tau flag {t}"))),
            };
            let tau = get_f64(r)?;
            let max_members = get_u64(r)? as usize;
            let max_delta_frac = get_f64(r)?;
            Ok(LocalAlgo::Bundle {
                bundle_tau: has_tau.then_some(tau),
                max_members,
                max_delta_frac,
            })
        }
        t => Err(bad(format!("unknown local-algo tag {t}"))),
    }
}

const STATS_FIELDS: usize = 15;

fn stats_to_array(s: &JoinStats) -> [u64; STATS_FIELDS] {
    [
        s.probed,
        s.indexed,
        s.posting_hits,
        s.candidates,
        s.length_filtered,
        s.position_filtered,
        s.suffix_filtered,
        s.verifications,
        s.verify_steps,
        s.delta_verifications,
        s.results,
        s.postings_created,
        s.evicted,
        s.bundles_created,
        s.bundle_absorbed,
    ]
}

fn stats_from_array(a: [u64; STATS_FIELDS]) -> JoinStats {
    let mut s = JoinStats::new();
    [
        &mut s.probed,
        &mut s.indexed,
        &mut s.posting_hits,
        &mut s.candidates,
        &mut s.length_filtered,
        &mut s.position_filtered,
        &mut s.suffix_filtered,
        &mut s.verifications,
        &mut s.verify_steps,
        &mut s.delta_verifications,
        &mut s.results,
        &mut s.postings_created,
        &mut s.evicted,
        &mut s.bundles_created,
        &mut s.bundle_absorbed,
    ]
    .into_iter()
    .zip(a)
    .for_each(|(field, v)| *field = v);
    s
}

/// The unsealed bytes of `Frame::Data { seq, msg }`, encoded from a
/// borrowed message: the launcher keeps every in-flight message for
/// retransmission and must not clone it (for a batch, a `Vec` of records)
/// just to put it on the wire.
pub fn encode_data(seq: u64, msg: &JoinMsg) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    out.push(TAG_DATA);
    put_u64(&mut out, seq);
    encode_join_msg(&mut out, msg)?;
    Ok(out)
}

impl Frame {
    /// Serializes this frame into the byte payload of one transport frame.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64);
        match self {
            Frame::Hello { proto, task } => {
                out.push(TAG_HELLO);
                put_u16(&mut out, *proto);
                put_u32(&mut out, *task);
            }
            Frame::Config(cfg) => {
                out.push(TAG_CONFIG);
                put_u32(&mut out, cfg.task);
                put_u32(&mut out, cfg.k);
                encode_sim(&mut out, cfg.sim);
                put_f64(&mut out, cfg.tau);
                encode_window(&mut out, cfg.window);
                encode_algo(&mut out, &cfg.algo);
                out.push(u8::from(cfg.bistream));
                out.push(u8::from(cfg.dedup));
                put_u64(&mut out, cfg.resume_seq);
            }
            Frame::Data { seq, msg } => return encode_data(*seq, msg),
            Frame::Ack { seq } => {
                out.push(TAG_ACK);
                put_u64(&mut out, *seq);
            }
            Frame::Result { pair, ingest } => {
                out.push(TAG_RESULT);
                put_result(&mut out, pair, *ingest);
            }
            Frame::Results(results) => {
                out.push(TAG_RESULTS);
                let count = u32::try_from(results.len()).map_err(|_| bad("too many results"))?;
                put_u32(&mut out, count);
                for (pair, ingest) in results {
                    put_result(&mut out, pair, *ingest);
                }
            }
            Frame::Snapshot {
                epoch,
                task,
                window,
            } => {
                out.push(TAG_SNAPSHOT);
                put_u64(&mut out, *epoch);
                put_u32(&mut out, *task);
                put_u64(&mut out, window.len() as u64);
                out.extend_from_slice(window);
            }
            Frame::Restore { window } => {
                out.push(TAG_RESTORE);
                put_u64(&mut out, window.len() as u64);
                out.extend_from_slice(window);
            }
            Frame::Eos => out.push(TAG_EOS),
            Frame::Done(report) => {
                out.push(TAG_DONE);
                for v in stats_to_array(&report.stats) {
                    put_u64(&mut out, v);
                }
                put_u64(&mut out, report.stored);
                put_u64(&mut out, report.postings);
            }
            Frame::Heartbeat { nonce, sent_at } => {
                out.push(TAG_HEARTBEAT);
                put_u64(&mut out, *nonce);
                put_u64(&mut out, *sent_at);
            }
            Frame::HealthAck { nonce, sent_at } => {
                out.push(TAG_HEALTH_ACK);
                put_u64(&mut out, *nonce);
                put_u64(&mut out, *sent_at);
            }
        }
        Ok(out)
    }

    /// Serializes this frame and appends the CRC32C trailer — the form
    /// every post-handshake frame travels in.
    pub fn encode_sealed(&self) -> io::Result<Vec<u8>> {
        Ok(stormlite::seal(self.encode()?))
    }

    /// Deserializes one received payload, verifying and stripping the
    /// CRC32C trailer first when `checksums` is on (every frame but the
    /// `Hello`). A checksum mismatch or short trailer is
    /// [`io::ErrorKind::InvalidData`] — the caller must treat it as a
    /// corrupt frame (error-disconnect), never attempt a plain parse of
    /// the same bytes.
    pub fn decode_checked(payload: &[u8], checksums: bool) -> io::Result<Frame> {
        if checksums {
            Self::decode(stormlite::open_sealed(payload)?)
        } else {
            Self::decode(payload)
        }
    }

    /// Deserializes one frame. The whole payload must be consumed —
    /// trailing bytes are an error, so frame boundaries can never drift
    /// silently.
    pub fn decode(payload: &[u8]) -> io::Result<Frame> {
        let mut r = Cursor::new(payload);
        let frame = Self::decode_inner(&mut r)?;
        if r.position() != payload.len() as u64 {
            return Err(bad(format!(
                "{} trailing bytes after frame",
                payload.len() as u64 - r.position()
            )));
        }
        Ok(frame)
    }

    fn decode_inner(r: &mut Cursor<&[u8]>) -> io::Result<Frame> {
        match get_u8(r)? {
            TAG_HELLO => Ok(Frame::Hello {
                proto: get_u16(r)?,
                task: get_u32(r)?,
            }),
            TAG_CONFIG => {
                let task = get_u32(r)?;
                let k = get_u32(r)?;
                let sim = decode_sim(r)?;
                let tau = get_f64(r)?;
                let window = decode_window(r)?;
                let algo = decode_algo(r)?;
                let bistream = get_u8(r)? != 0;
                let dedup = get_u8(r)? != 0;
                let resume_seq = get_u64(r)?;
                Ok(Frame::Config(NodeConfig {
                    task,
                    k,
                    sim,
                    tau,
                    window,
                    algo,
                    bistream,
                    dedup,
                    resume_seq,
                }))
            }
            TAG_DATA => Ok(Frame::Data {
                seq: get_u64(r)?,
                msg: decode_join_msg(r)?,
            }),
            TAG_ACK => Ok(Frame::Ack { seq: get_u64(r)? }),
            TAG_RESULT => {
                let (pair, ingest) = get_result(r)?;
                Ok(Frame::Result { pair, ingest })
            }
            TAG_RESULTS => {
                let count = get_u32(r)?;
                // Entries are fixed-width, so the declared count is checked
                // against the bytes actually present before it sizes an
                // allocation.
                let remaining = r.get_ref().len() as u64 - r.position();
                if u64::from(count) * RESULT_ENTRY_BYTES > remaining {
                    return Err(bad("truncated results body"));
                }
                (0..count)
                    .map(|_| get_result(r))
                    .collect::<io::Result<Vec<_>>>()
                    .map(Frame::Results)
            }
            TAG_SNAPSHOT => {
                let epoch = get_u64(r)?;
                let task = get_u32(r)?;
                let len = get_u64(r)? as usize;
                let remaining = r.get_ref().len() as u64 - r.position();
                if len as u64 > remaining {
                    return Err(bad("truncated snapshot body"));
                }
                let mut window = vec![0u8; len];
                r.read_exact(&mut window)?;
                Ok(Frame::Snapshot {
                    epoch,
                    task,
                    window,
                })
            }
            TAG_RESTORE => {
                let len = get_u64(r)? as usize;
                let remaining = r.get_ref().len() as u64 - r.position();
                if len as u64 > remaining {
                    return Err(bad("truncated restore body"));
                }
                let mut window = vec![0u8; len];
                r.read_exact(&mut window)?;
                Ok(Frame::Restore { window })
            }
            TAG_EOS => Ok(Frame::Eos),
            TAG_DONE => {
                let mut a = [0u64; STATS_FIELDS];
                for v in a.iter_mut() {
                    *v = get_u64(r)?;
                }
                let stored = get_u64(r)?;
                let postings = get_u64(r)?;
                Ok(Frame::Done(NodeReport {
                    stats: stats_from_array(a),
                    stored,
                    postings,
                }))
            }
            TAG_HEARTBEAT => Ok(Frame::Heartbeat {
                nonce: get_u64(r)?,
                sent_at: get_u64(r)?,
            }),
            TAG_HEALTH_ACK => Ok(Frame::HealthAck {
                nonce: get_u64(r)?,
                sent_at: get_u64(r)?,
            }),
            t => Err(bad(format!("unknown frame tag {t:#04x}"))),
        }
    }
}

/// Sends one post-handshake protocol frame over a transport wire, sealed
/// (no flush).
pub fn send_frame(wire: &mut dyn stormlite::Wire, frame: &Frame) -> io::Result<()> {
    wire.send(&frame.encode_sealed()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::TokenId;

    fn rec(id: u64) -> ssj_text::Record {
        ssj_text::Record::from_sorted(RecordId(id), id * 3, vec![TokenId(1), TokenId(5)])
    }

    fn results(n: u64) -> Vec<(MatchPair, Timestamp)> {
        (0..n)
            .map(|i| {
                let pair = MatchPair {
                    earlier: RecordId(i),
                    later: RecordId(i + 7),
                    similarity: 0.75 + i as f64 / 64.0,
                };
                (pair, Timestamp::from_nanos(100 + i))
            })
            .collect()
    }

    #[test]
    fn every_frame_kind_roundtrips_byte_exactly() {
        let frames = vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                task: 3,
            },
            Frame::Config(NodeConfig {
                task: 2,
                k: 4,
                sim: SimFn::Cosine,
                tau: 0.725,
                window: Window::TimeMs(40),
                algo: LocalAlgo::bundle(),
                bistream: true,
                dedup: true,
                resume_seq: 99,
            }),
            Frame::Data {
                seq: 7,
                msg: JoinMsg::ProbeAndIndex(RecordMsg {
                    record: rec(11),
                    ingest: Timestamp::from_nanos(123),
                    side: Some(Side::Right),
                }),
            },
            Frame::Ack { seq: 41 },
            Frame::Result {
                pair: MatchPair {
                    earlier: RecordId(1),
                    later: RecordId(2),
                    similarity: 0.875,
                },
                ingest: Timestamp::from_nanos(9),
            },
            Frame::Results(results(3)),
            Frame::Snapshot {
                epoch: 5,
                task: 1,
                window: vec![1, 2, 3, 4],
            },
            Frame::Restore {
                window: vec![9, 8, 7],
            },
            Frame::Eos,
            Frame::Done(NodeReport {
                stats: {
                    let mut s = JoinStats::new();
                    s.probed = 10;
                    s.results = 4;
                    s
                },
                stored: 6,
                postings: 12,
            }),
            Frame::Heartbeat {
                nonce: 17,
                sent_at: 123_456,
            },
            Frame::HealthAck {
                nonce: 17,
                sent_at: 123_456,
            },
        ];
        for f in frames {
            let bytes = f.encode().unwrap();
            let back = Frame::decode(&bytes).unwrap();
            assert_eq!(back.encode().unwrap(), bytes, "{f:?}");
        }
    }

    #[test]
    fn batch_messages_roundtrip_and_reject_nesting() {
        let inner = vec![
            JoinMsg::Probe(RecordMsg {
                record: rec(3),
                ingest: Timestamp::from_nanos(5),
                side: None,
            }),
            JoinMsg::Index(RecordMsg {
                record: rec(4),
                ingest: Timestamp::from_nanos(6),
                side: Some(Side::Left),
            }),
        ];
        let frame = Frame::Data {
            seq: 12,
            msg: JoinMsg::Batch(inner),
        };
        let bytes = frame.encode().unwrap();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back.encode().unwrap(), bytes);
        let Frame::Data {
            msg: JoinMsg::Batch(msgs),
            ..
        } = back
        else {
            panic!("decoded to a different frame kind");
        };
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].record().unwrap().id(), RecordId(3));

        // A nested batch is a protocol violation, not a stack overflow.
        let mut nested = Vec::new();
        encode_join_msg(
            &mut nested,
            &JoinMsg::Batch(vec![JoinMsg::Batch(Vec::new())]),
        )
        .unwrap();
        assert!(decode_join_msg(&mut nested.as_slice()).is_err());
    }

    #[test]
    fn results_frames_keep_every_pair_and_reject_damage() {
        let want = results(3);
        let full = Frame::Results(want.clone()).encode().unwrap();
        assert_eq!(full.len(), 1 + 4 + 3 * RESULT_ENTRY_BYTES as usize);
        let Frame::Results(got) = Frame::decode(&full).unwrap() else {
            panic!("decoded to a different frame kind");
        };
        assert_eq!(got.len(), want.len());
        for ((gp, gi), (wp, wi)) in got.iter().zip(&want) {
            assert_eq!(
                (gp.key(), gp.similarity.to_bits()),
                (wp.key(), wp.similarity.to_bits())
            );
            assert_eq!(gi, wi);
        }
        for cut in 1..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = full.clone();
        padded.push(0);
        assert!(Frame::decode(&padded).is_err(), "trailing byte");
        // The tag after the last one in use is still unknown.
        let mut unknown = full;
        unknown[0] = TAG_RESULTS + 1;
        assert!(Frame::decode(&unknown).is_err(), "unknown tag");
    }

    #[test]
    fn truncation_unknown_tags_and_trailing_bytes_rejected() {
        let full = Frame::Ack { seq: 1234 }.encode().unwrap();
        for cut in 1..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Frame::decode(&[0xEE, 0, 0]).is_err(), "unknown tag");
        let mut padded = full;
        padded.push(0);
        assert!(Frame::decode(&padded).is_err(), "trailing byte");
    }
}
