//! Node-side integrity: garbage bytes arriving on a node's wire — in the
//! handshake or mid-stream — must end the serve loop with a classified
//! `InvalidData` error, never a panic. The launcher treats that error
//! close as a dead node and respawns it; the node's only job is to die
//! cleanly.
//!
//! The same hand-built frames pin the receiver side of the session
//! contract: frames applied in sequence order, a unit's results ahead of
//! its ack, and a reordered link — which a live wire never is — ending
//! the node instead of being buffered.

use ssj_core::{JoinConfig, SimFn, Threshold, Window};
use ssj_distrib::wire::{Frame, NodeConfig, PROTO_VERSION};
use ssj_distrib::{node_serve, JoinMsg, RecordMsg};
use ssj_text::{Record, RecordId, TokenId};
use std::io;
use std::time::Duration;
use stormlite::{channel_wire_pair, Timestamp, Wire, WireEvent};

fn config_frame(task: u32) -> Frame {
    let join = JoinConfig {
        threshold: Threshold::jaccard(0.8),
        window: Window::Unbounded,
    };
    Frame::Config(NodeConfig {
        task,
        k: 1,
        sim: SimFn::Jaccard,
        tau: join.threshold.tau(),
        window: join.window,
        algo: ssj_distrib::LocalAlgo::bundle(),
        bistream: false,
        dedup: false,
        resume_seq: 0,
    })
}

/// Every record carries the same two tokens, so record `id` pairs with
/// each record applied before it.
fn probe_and_index(id: u64) -> JoinMsg {
    JoinMsg::ProbeAndIndex(RecordMsg::solo(
        Record::from_sorted(RecordId(id), id, vec![TokenId(1), TokenId(2)]),
        Timestamp::from_nanos(id),
    ))
}

fn data_frame(seq: u64, id: u64) -> Frame {
    Frame::Data {
        seq,
        msg: probe_and_index(id),
    }
}

fn send(wire: &mut dyn Wire, frame: Frame) {
    wire.send(&frame.encode_sealed().unwrap()).unwrap();
    wire.flush().unwrap();
}

/// The next sealed frame the node sent.
fn next_frame(wire: &mut dyn Wire) -> Frame {
    match wire.recv_timeout(Duration::from_secs(5)).unwrap() {
        WireEvent::Frame(b) => Frame::decode_checked(&b, true).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// What the launcher sees of a frame: an ack's seq, or the probing
/// records of the result pairs it carries.
#[derive(Debug, PartialEq)]
enum Seen {
    Ack(u64),
    Result(u64),
    Results(Vec<u64>),
}

fn next_seen(wire: &mut dyn Wire) -> Seen {
    match next_frame(wire) {
        Frame::Ack { seq } => Seen::Ack(seq),
        Frame::Result { pair, .. } => Seen::Result(pair.later.0),
        Frame::Results(pairs) => Seen::Results(pairs.iter().map(|(p, _)| p.later.0).collect()),
        other => panic!("expected Ack/Result/Results, got {other:?}"),
    }
}

/// Drains the node's Hello so the test can speak launcher.
fn expect_hello(wire: &mut dyn Wire) {
    match wire.recv_timeout(Duration::from_secs(5)).unwrap() {
        WireEvent::Frame(b) => match Frame::decode_checked(&b, false).unwrap() {
            Frame::Hello { proto, task: 0 } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        },
        other => panic!("expected Hello frame, got {other:?}"),
    }
}

#[test]
fn garbage_instead_of_config_is_an_error_not_a_panic() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher);
    launcher.send(b"\xde\xad\xbe\xef not a frame").unwrap();
    launcher.flush().unwrap();
    let err = node
        .join()
        .unwrap()
        .expect_err("garbage handshake must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn garbage_data_frame_mid_stream_is_an_error_not_a_panic() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher);
    launcher
        .send(&config_frame(0).encode_sealed().unwrap())
        .unwrap();
    launcher
        .send(&data_frame(0, 1).encode_sealed().unwrap())
        .unwrap();
    // Arbitrary garbage where a sealed frame should be.
    launcher.send(&[0u8; 40]).unwrap();
    launcher.flush().unwrap();
    let err = node.join().unwrap().expect_err("garbage frame must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn single_bit_flip_on_a_valid_frame_is_a_checksum_mismatch() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher);
    launcher
        .send(&config_frame(0).encode_sealed().unwrap())
        .unwrap();
    let mut frame = data_frame(0, 1).encode_sealed().unwrap();
    let mid = frame.len() / 2;
    frame[mid] ^= 0x10;
    launcher.send(&frame).unwrap();
    launcher.flush().unwrap();
    let err = node.join().unwrap().expect_err("flipped frame must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("checksum"),
        "a sealed-frame flip should die on the checksum, not misparse: {msg}"
    );
}

#[test]
fn receiver_applies_in_seq_order_and_acks_after_results() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher);
    send(&mut launcher, config_frame(0));
    send(&mut launcher, data_frame(0, 1));
    send(&mut launcher, data_frame(1, 2));
    send(&mut launcher, data_frame(2, 3));
    // A batch is one unit: one Results frame, then its one ack.
    send(
        &mut launcher,
        Frame::Data {
            seq: 3,
            msg: JoinMsg::Batch(vec![probe_and_index(4), probe_and_index(5)]),
        },
    );
    send(&mut launcher, Frame::Eos);

    let seen: Vec<Seen> = (0..8).map(|_| next_seen(&mut launcher)).collect();
    assert_eq!(
        seen,
        [
            Seen::Ack(0),
            Seen::Result(2),
            Seen::Ack(1),
            Seen::Result(3),
            Seen::Result(3),
            Seen::Ack(2),
            Seen::Results(vec![4, 4, 4, 5, 5, 5, 5]),
            Seen::Ack(3),
        ]
    );
    // Five records probed and indexed once each, 0 + 1 + 2 + 3 + 4 pairs.
    match next_frame(&mut launcher) {
        Frame::Done(report) => {
            assert_eq!(
                (
                    report.stats.probed,
                    report.stats.indexed,
                    report.stats.results
                ),
                (5, 5, 10)
            );
            assert_eq!(report.stored, 5);
        }
        other => panic!("expected Done, got {other:?}"),
    }
    drop(launcher);
    node.join().unwrap().expect("clean end of stream");
}

#[test]
fn a_reordered_link_ends_the_node_before_it_applies_anything() {
    let (mut launcher, mut node_wire) = channel_wire_pair(64);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    expect_hello(&mut launcher);
    send(&mut launcher, config_frame(0));
    // Seq 1 ahead of seq 0: had the node buffered it, seq 0 would now
    // fill the gap. A live wire never reorders, so the session is broken.
    send(&mut launcher, data_frame(1, 2));
    send(&mut launcher, data_frame(0, 1));
    let err = node
        .join()
        .unwrap()
        .expect_err("a reordered link must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("seq 1 where seq 0"), "{err}");
    assert!(
        !matches!(launcher.try_recv().unwrap(), WireEvent::Frame(_)),
        "the node answered a frame it should not have applied"
    );
}
