//! Property tests for the transport framing codec: length-prefixed frames
//! must round-trip exactly, and malformed inputs (truncated frames,
//! garbage length prefixes) must be rejected with the right error kind —
//! never a panic, never a silent partial read. The CRC32C seal layer gets
//! the same treatment: every single-bit flip and every truncation of a
//! sealed payload must be detected as a checksum mismatch.
//!
//! The burst reader's [`FrameParser`] is held to [`read_frame`] as its
//! oracle: whatever way a `Read` cuts the stream, it must yield the same
//! frames and the same end-of-stream classification.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use stormlite::{
    listen_loopback, open_sealed, read_frame, seal, write_frame, CloseReason, FrameBatcher,
    FrameParser, TcpWire, Wire, WireEvent, MAX_FRAME_BYTES,
};

/// The system allocator plus a per-thread count of bytes requested, so a
/// test can show that a hostile length prefix is refused without anything
/// being allocated for it.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every operation is `System`'s, called with the caller's own
// arguments; the only addition is a bump of a `const`-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn read_all(bytes: &[u8], max_frame: usize) -> io::Result<Vec<Vec<u8>>> {
    let mut cursor = Cursor::new(bytes);
    let mut frames = Vec::new();
    while let Some(f) = read_frame(&mut cursor, max_frame)? {
        frames.push(f);
    }
    Ok(frames)
}

/// The oracle: a [`read_frame`] loop over the whole stream — the frames it
/// decoded, and how the stream ended.
fn read_frame_loop(bytes: &[u8], max_frame: usize) -> (Vec<Vec<u8>>, CloseReason) {
    let mut cursor = Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor, max_frame) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, CloseReason::Clean),
            Err(_) => return (frames, CloseReason::Error),
        }
    }
}

/// A `Read` that hands out `1..=max_read` bytes per call, the sizes drawn
/// from a seeded LCG — a socket delivering the stream in arbitrary cuts.
struct Trickle<'a> {
    bytes: &'a [u8],
    max_read: usize,
    state: u64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let want = 1 + (self.state >> 33) as usize % self.max_read;
        let n = want.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Runs a [`FrameParser`] with a `buf_bytes` buffer over `bytes` delivered
/// `1..=max_read` at a time, to the end of the stream.
fn parse_trickled(
    bytes: &[u8],
    buf_bytes: usize,
    max_frame: usize,
    max_read: usize,
) -> (Vec<Vec<u8>>, CloseReason) {
    let mut source = Trickle {
        bytes,
        max_read,
        state: bytes.len() as u64 ^ max_read as u64,
    };
    let mut parser = FrameParser::new(buf_bytes, max_frame);
    let mut frames = Vec::new();
    loop {
        if let Some(reason) = parser.read_from(&mut source, &mut frames) {
            return (frames, reason);
        }
    }
}

proptest! {
    #[test]
    fn parser_equals_read_frame_under_any_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..300),
            0..24,
        ),
        // From "every frame with a body is larger than the buffer" up to
        // "several frames per buffer": straddles and in-place reads both.
        buf_bytes in 4usize..160,
        max_read in 1usize..400,
        cut in 0usize..100_000,
        truncate in 0u8..2,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        if truncate == 1 {
            // Anywhere, boundaries included: mid-prefix and mid-payload
            // must end in Error, a boundary in Clean, as the oracle says.
            stream.truncate(cut % (stream.len() + 1));
        }
        let expect = read_frame_loop(&stream, MAX_FRAME_BYTES);
        prop_assert_eq!(&parse_trickled(&stream, buf_bytes, MAX_FRAME_BYTES, max_read), &expect);
        // One byte per read, the worst cut there is.
        prop_assert_eq!(&parse_trickled(&stream, buf_bytes, MAX_FRAME_BYTES, 1), &expect);
    }

    #[test]
    fn frames_roundtrip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..300),
            0..20,
        )
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let decoded = read_all(&buf, MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(decoded, payloads);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof(
        payload in proptest::collection::vec(0u8..=255, 1..200),
        cut in 0usize..1000,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        // Cut strictly inside the frame (anywhere in prefix or payload):
        // decoding must report UnexpectedEof, not a clean end of stream.
        let cut = 1 + cut % (buf.len() - 1);
        let err = read_all(&buf[..cut], MAX_FRAME_BYTES).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_length_prefix_is_rejected_not_allocated(
        garbage in proptest::collection::vec(0u8..=255, 4..64),
        declared in (MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
    ) {
        // A corrupt or hostile length prefix larger than the frame cap must
        // be refused as InvalidData *before* any buffer allocation.
        let mut buf = declared.to_le_bytes().to_vec();
        buf.extend_from_slice(&garbage);
        let err = read_all(&buf, MAX_FRAME_BYTES).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn batcher_produces_the_identical_byte_stream(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..120),
            1..40,
        ),
        max_frames in 1usize..8,
        max_bytes in 1usize..512,
    ) {
        // Batching is a flush policy, not a format: the bytes on the wire
        // must equal unbatched frame-by-frame writes regardless of
        // thresholds.
        let mut plain = Vec::new();
        for p in &payloads {
            write_frame(&mut plain, p).unwrap();
        }
        let mut batched = Vec::new();
        {
            let mut batcher =
                FrameBatcher::with_thresholds(&mut batched, max_frames, max_bytes);
            for p in &payloads {
                batcher.push(p).unwrap();
            }
            batcher.flush().unwrap();
            let (frames, batches) = batcher.counters();
            prop_assert_eq!(frames as usize, payloads.len());
            prop_assert!(batches as usize <= payloads.len());
        }
        prop_assert_eq!(&batched, &plain);
        let decoded = read_all(&batched, MAX_FRAME_BYTES).unwrap();
        prop_assert_eq!(&decoded, &payloads);
    }

    #[test]
    fn channel_wire_preserves_frames_in_order(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..100),
            0..30,
        )
    ) {
        let (mut a, mut b) = stormlite::channel_wire_pair(1024);
        for p in &payloads {
            a.send(p).unwrap();
        }
        a.flush().unwrap();
        drop(a);
        let mut got = Vec::new();
        loop {
            match b.recv_timeout(std::time::Duration::from_secs(5)).unwrap() {
                WireEvent::Frame(f) => got.push(f),
                WireEvent::Closed(_) => break,
                WireEvent::Idle => {}
            }
        }
        prop_assert_eq!(got, payloads);
    }

    #[test]
    fn sealed_payloads_roundtrip(
        payload in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let sealed = seal(payload.clone());
        prop_assert_eq!(sealed.len(), payload.len() + 4);
        prop_assert_eq!(open_sealed(&sealed).unwrap(), payload.as_slice());
    }

    #[test]
    fn sealed_single_bit_flips_are_detected(
        payload in proptest::collection::vec(0u8..=255, 0..300),
        bit in 0usize..10_000,
    ) {
        // CRC32C detects every single-bit error over the whole envelope —
        // payload bytes and the trailer alike. A flip must surface as a
        // checksum mismatch, never as a clean open of different bytes.
        let mut sealed = seal(payload);
        let bit = bit % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        let err = open_sealed(&sealed).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn sealed_truncations_are_detected(
        payload in proptest::collection::vec(0u8..=255, 0..300),
        cut in 0usize..10_000,
    ) {
        let sealed = seal(payload);
        let cut = cut % sealed.len();
        let err = open_sealed(&sealed[..cut]).unwrap_err();
        prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

#[test]
fn empty_input_is_clean_eof() {
    assert!(read_all(&[], MAX_FRAME_BYTES).unwrap().is_empty());
}

#[test]
fn max_frame_cap_is_inclusive() {
    // A frame exactly at the cap passes; one byte over is refused.
    let payload = vec![7u8; 32];
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    assert_eq!(read_all(&buf, 32).unwrap(), vec![payload]);
    let err = read_all(&buf, 31).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn parser_classifies_every_end_of_stream() {
    let mut stream = Vec::new();
    write_frame(&mut stream, b"").unwrap();
    write_frame(&mut stream, b"abcdef").unwrap();
    write_frame(&mut stream, &[9u8; 100]).unwrap(); // larger than the buffer
    let frames = [Vec::new(), b"abcdef".to_vec(), vec![9u8; 100]];
    // Frame boundaries of the stream, the empty stream included.
    let boundaries = [0, 4, 14, stream.len()];
    for cut in 0..=stream.len() {
        let (got, reason) = parse_trickled(&stream[..cut], 16, MAX_FRAME_BYTES, 3);
        let complete = boundaries.iter().filter(|&&b| b != 0 && b <= cut).count();
        assert_eq!(got, frames[..complete], "cut at {cut}");
        let expect = if boundaries.contains(&cut) {
            CloseReason::Clean
        } else {
            CloseReason::Error
        };
        assert_eq!(reason, expect, "cut at {cut}");
    }
}

#[test]
fn oversize_prefix_after_valid_frames_keeps_them_and_allocates_nothing() {
    let mut stream = Vec::new();
    write_frame(&mut stream, b"first").unwrap();
    write_frame(&mut stream, b"second").unwrap();
    stream.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    stream.extend_from_slice(&[0xAB; 64]); // the "payload" never gets read

    let mut parser = FrameParser::new(64 * 1024, MAX_FRAME_BYTES);
    let mut frames = Vec::with_capacity(4);
    let mut source = Cursor::new(&stream);
    let before = ALLOCATED.with(Cell::get);
    let reason = parser.read_from(&mut source, &mut frames);
    let allocated = ALLOCATED.with(Cell::get) - before;

    assert_eq!(reason, Some(CloseReason::Error));
    assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
    // The two payload copies (so the counter is live), and nothing sized
    // by the 16 MiB + 1 prefix.
    assert!(
        (11..1024).contains(&allocated),
        "allocated {allocated} bytes"
    );
}

/// Spins until `ready()` holds, failing the test after ten seconds.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn tcp_wire_delivers_bursts_and_a_huge_frame_in_order_with_exact_depth() {
    const SMALL: usize = 10_000;
    let big: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();

    let listener = listen_loopback().unwrap();
    let addr = listener.local_addr().unwrap();
    let big_out = big.clone();
    let sender = std::thread::spawn(move || {
        let mut tx = TcpWire::new(TcpStream::connect(addr).unwrap(), 16).unwrap();
        for i in 0..SMALL as u32 {
            tx.send(&i.to_le_bytes()).unwrap();
        }
        tx.send(&big_out).unwrap();
        tx.flush().unwrap();
        tx // returned, not dropped: the wire must outlive the last read
    });
    let (stream, _) = listener.accept().unwrap();
    let mut rx = TcpWire::new(stream, 1 << 20).unwrap();

    // The bound is far away, so the reader queues the whole stream on its
    // own; from then on the depth must count down frame by frame and hit
    // zero exactly when the last frame is taken.
    wait_until("every frame is queued", || rx.queue_depth() == SMALL + 1);
    for i in 0..=SMALL {
        assert_eq!(rx.queue_depth(), SMALL + 1 - i);
        match rx.try_recv().unwrap() {
            WireEvent::Frame(f) if i < SMALL => assert_eq!(f, (i as u32).to_le_bytes()),
            WireEvent::Frame(f) => assert!(f == big, "the 1 MiB frame arrived mangled"),
            other => panic!("frame {i}: {other:?}"),
        }
    }
    assert_eq!(rx.queue_depth(), 0);
    assert_eq!(rx.try_recv().unwrap(), WireEvent::Idle);
    drop(sender.join().unwrap());
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        WireEvent::Closed(CloseReason::Clean)
    );
}

#[test]
fn tcp_wire_queue_bound_counts_frames_and_reopens() {
    // 1 KiB frames: a burst is at most 64 of them, so a queue bounded at 8
    // may never hold more than 8 + 64 — while 4 MiB wait behind it — and
    // every receive that brings it back under 8 must restart the reader.
    const FRAMES: usize = 4096;
    const CAP: usize = 8;
    let listener = listen_loopback().unwrap();
    let addr = listener.local_addr().unwrap();
    let sender = std::thread::spawn(move || {
        let mut tx = TcpWire::new(TcpStream::connect(addr).unwrap(), 16).unwrap();
        for i in 0..FRAMES {
            tx.send(&[i as u8; 1024]).unwrap();
        }
        tx.flush().unwrap();
        tx
    });
    let (stream, _) = listener.accept().unwrap();
    let mut rx = TcpWire::new(stream, CAP).unwrap();
    wait_until("the queue fills to its bound", || rx.queue_depth() >= CAP);
    for i in 0..FRAMES {
        assert!(rx.queue_depth() <= CAP + 64, "depth {}", rx.queue_depth());
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            WireEvent::Frame(f) => assert_eq!(f, [i as u8; 1024]),
            other => panic!("frame {i}: {other:?}"),
        }
    }
    assert_eq!(rx.queue_depth(), 0);
    drop(sender.join().unwrap());
}
