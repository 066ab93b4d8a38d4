//! Node-side integrity: garbage bytes arriving on a node's wire — in the
//! handshake or mid-stream — must end the serve loop with a classified
//! `InvalidData` error, never a panic. The launcher treats that error
//! close as a dead node and respawns it; the node's only job is to die
//! cleanly.

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

fn data_frame(seq: u64, id: u64) -> Frame {
    Frame::Data {
        seq,
        msg: JoinMsg::ProbeAndIndex(RecordMsg::solo(
            Record::from_sorted(RecordId(id), id, vec![TokenId(1), TokenId(2)]),
            Timestamp::from_nanos(id),
        )),
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
