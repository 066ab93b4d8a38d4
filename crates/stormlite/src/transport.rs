//! Pluggable wire transport: in-process channels or real TCP sockets.
//!
//! The topology engine in [`crate::topology`] moves tuples over bounded
//! crossbeam channels. This module factors that "wire" out into a small
//! [`Wire`] abstraction with two interchangeable backends:
//!
//! * [`ChannelWire`] — the existing in-process transport: a pair of bounded
//!   crossbeam channels. Zero serialization, natural backpressure, fully
//!   deterministic under the simulation scheduler.
//! * [`TcpWire`] — a real socket. Frames are length-prefixed byte blobs
//!   (see [`write_frame`] / [`read_frame`]), outbound frames are coalesced
//!   by a [`FrameBatcher`] so small tuples share syscalls, and inbound
//!   frames land in a *bounded* queue whose depth is visible through
//!   [`Wire::queue_depth`] — the same signal the shed watermark reads on
//!   in-process wires. When the queue is full the reader thread stops
//!   draining the socket, the kernel receive window closes, and
//!   backpressure propagates to the sender for real.
//!
//! # Who flushes, who reads
//!
//! Both directions of a [`TcpWire`] cost one syscall and one queue
//! hand-off per *burst*, not per frame.
//!
//! * **Outbound.** [`Wire::send`] only appends to the [`FrameBatcher`];
//!   bytes reach the socket when a batcher threshold trips
//!   ([`BATCH_MAX_FRAMES`] / [`BATCH_MAX_BYTES`]), when the owner calls
//!   [`Wire::flush`], or when the owner blocks in [`Wire::recv_timeout`]
//!   on an empty inbound queue. The owner's contract is therefore *flush
//!   before you wait on anything but this wire* — a sender that polls with
//!   [`Wire::try_recv`] and never flushes can hold a frame back forever.
//! * **Inbound.** The reader thread issues one `read(2)` into a reused
//!   [`BATCH_MAX_BYTES`] buffer, a [`FrameParser`] cuts every complete
//!   frame out of it, and the whole burst crosses to the consumer in one
//!   channel send. The queue bound counts *frames across bursts*: the
//!   reader starts a new read only while fewer than `capacity` frames are
//!   queued, so the queue holds at most `capacity` frames plus the one
//!   burst that crossed the line.
//!
//! Both backends speak frames (`Vec<u8>`); what the bytes mean is the
//! caller's business (the distributed join layers its own message codec on
//! top). Both are reliable and FIFO while they live: a frame is never
//! dropped, duplicated or reordered on an open wire; the cluster layer
//! above scripts its outages (stall, partition, corruption) on the frames
//! it hands them.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

/// Hard upper bound on a single frame's payload, enforced by
/// [`read_frame`]. A length prefix above this is treated as a corrupt or
/// garbage stream, not an allocation request — four random bytes decode to
/// ~2 GiB on average, and rejecting them here is what makes the codec safe
/// to point at an arbitrary socket.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Default flush threshold for [`FrameBatcher`]: buffered frame count.
pub const BATCH_MAX_FRAMES: usize = 32;

/// Default flush threshold for [`FrameBatcher`]: buffered byte count.
pub const BATCH_MAX_BYTES: usize = 64 * 1024;

/// Writes one length-prefixed frame: `u32` little-endian payload length,
/// then the payload bytes. The inverse of [`read_frame`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame written by [`write_frame`].
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly at a frame
/// boundary). A stream that ends mid-prefix or mid-payload is an
/// [`io::ErrorKind::UnexpectedEof`] error, and a length prefix larger than
/// `max_frame` is [`io::ErrorKind::InvalidData`] — the garbage-prefix
/// rejection that keeps a corrupt peer from looking like a huge frame.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read(&mut prefix) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut prefix[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => r.read_exact(&mut prefix)?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds max {max_frame}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental decoder for the [`write_frame`] framing, fed from one
/// reused buffer: each [`FrameParser::read_from`] call issues a single
/// `read` and hands back every frame that read completed, however the
/// stream cut them. Produces exactly the frames a [`read_frame`] loop
/// would, with one read per burst instead of two per frame.
///
/// A frame that cannot fit the buffer is read straight into its own
/// allocation (made only after the `max_frame` check), so the buffer
/// never grows and large payloads are not copied twice.
#[derive(Debug)]
pub struct FrameParser {
    buf: Box<[u8]>,
    /// Bytes received but not yet parsed: `buf[..filled]`, always starting
    /// on a frame boundary.
    filled: usize,
    /// A frame larger than `buf` being received in place: its payload and
    /// how much of it has arrived.
    large: Option<(Vec<u8>, usize)>,
    max_frame: usize,
}

impl FrameParser {
    /// A parser reading through a `buf_bytes` buffer (at least one length
    /// prefix) and refusing length prefixes above `max_frame`.
    pub fn new(buf_bytes: usize, max_frame: usize) -> Self {
        Self {
            buf: vec![0u8; buf_bytes.max(4)].into_boxed_slice(),
            filled: 0,
            large: None,
            max_frame,
        }
    }

    /// Reads once from `r` and appends every frame completed by that read
    /// to `out`. Returns `None` while the stream is still up, or why it
    /// ended: [`CloseReason::Clean`] for EOF exactly on a frame boundary,
    /// [`CloseReason::Error`] for EOF inside a frame, an I/O error, or a
    /// length prefix above `max_frame` (frames ahead of the bad prefix are
    /// still appended).
    pub fn read_from<R: Read>(&mut self, r: &mut R, out: &mut Vec<Vec<u8>>) -> Option<CloseReason> {
        match r.read(self.space()) {
            Ok(0) if self.filled == 0 && self.large.is_none() => Some(CloseReason::Clean),
            Ok(0) => Some(CloseReason::Error),
            Ok(n) => self.advance(n, out),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => None,
            Err(_) => Some(CloseReason::Error),
        }
    }

    /// Where the next bytes of the stream belong. Never empty: a frame
    /// left incomplete in `buf` is one that fits it.
    fn space(&mut self) -> &mut [u8] {
        match &mut self.large {
            Some((payload, got)) => &mut payload[*got..],
            None => &mut self.buf[self.filled..],
        }
    }

    /// Accounts for `n` bytes just written into [`Self::space`]; `Some` is
    /// a length prefix above `max_frame`, which ends the stream.
    fn advance(&mut self, n: usize, out: &mut Vec<Vec<u8>>) -> Option<CloseReason> {
        if let Some((payload, got)) = &mut self.large {
            *got += n;
            if *got == payload.len() {
                out.extend(self.large.take().map(|(payload, _)| payload));
            }
            return None;
        }
        self.filled += n;
        let mut at = 0;
        while let Some(prefix) = self.buf[at..self.filled].first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix) as usize;
            if len > self.max_frame {
                return Some(CloseReason::Error);
            }
            let body = &self.buf[at + 4..self.filled];
            if body.len() >= len {
                out.push(body[..len].to_vec());
                at += 4 + len;
            } else if len > self.buf.len() - 4 {
                let mut payload = vec![0u8; len];
                payload[..body.len()].copy_from_slice(body);
                self.large = Some((payload, body.len()));
                at = self.filled;
                break;
            } else {
                break;
            }
        }
        // Move the incomplete tail (less than one frame) to the front so
        // the next read has the rest of the buffer to fill.
        self.buf.copy_within(at..self.filled, 0);
        self.filled -= at;
        None
    }
}

/// Coalesces outbound frames into one write buffer so many small tuples
/// share a syscall. Flushes automatically once `max_frames` frames or
/// `max_bytes` bytes are pending; callers flush explicitly before blocking
/// on a response.
#[derive(Debug)]
pub struct FrameBatcher<W: Write> {
    inner: W,
    buf: Vec<u8>,
    pending: usize,
    max_frames: usize,
    max_bytes: usize,
    flushes: u64,
    frames: u64,
}

impl<W: Write> FrameBatcher<W> {
    /// A batcher over `inner` with the default thresholds
    /// ([`BATCH_MAX_FRAMES`] / [`BATCH_MAX_BYTES`]).
    pub fn new(inner: W) -> Self {
        Self::with_thresholds(inner, BATCH_MAX_FRAMES, BATCH_MAX_BYTES)
    }

    /// A batcher with explicit flush thresholds (both clamped to ≥ 1).
    pub fn with_thresholds(inner: W, max_frames: usize, max_bytes: usize) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(max_bytes.clamp(1, BATCH_MAX_BYTES)),
            pending: 0,
            max_frames: max_frames.max(1),
            max_bytes: max_bytes.max(1),
            flushes: 0,
            frames: 0,
        }
    }

    /// Appends one frame, flushing to the inner writer if a threshold is
    /// now met.
    pub fn push(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.buf, payload)?;
        self.pending += 1;
        self.frames += 1;
        if self.pending >= self.max_frames || self.buf.len() >= self.max_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every buffered frame to the inner writer and flushes it.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
            self.pending = 0;
            self.flushes += 1;
        }
        self.inner.flush()
    }

    /// Total frames pushed and batch flushes performed — the coalescing
    /// ratio is `frames / flushes`.
    pub fn counters(&self) -> (u64, u64) {
        (self.frames, self.flushes)
    }
}

/// Why a wire stopped delivering frames — surfaced through
/// [`WireEvent::Closed`] so a supervisor can tell an orderly shutdown
/// from a failure (and count each separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed cleanly: EOF exactly at a frame boundary (TCP) or
    /// the peer's channel end was dropped (in-process).
    Clean,
    /// The stream died mid-frame or the socket reported an I/O error
    /// (reset, truncation, oversize/garbage length prefix).
    Error,
    /// The local reader is gone without reporting a reason — e.g. the
    /// wire was torn down locally.
    Dropped,
}

/// What a non-blocking or timed receive produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEvent {
    /// One complete frame.
    Frame(Vec<u8>),
    /// Nothing available before the timeout (the wire is still up).
    Idle,
    /// The wire closed for the given reason; no more frames will ever
    /// arrive.
    Closed(CloseReason),
}

/// A bidirectional, FIFO, frame-oriented link to one peer.
///
/// Implementations differ only in *where the peer runs*: another thread
/// ([`ChannelWire`]) or another OS process over TCP ([`TcpWire`]). Sends
/// may buffer; [`Wire::flush`] forces buffered frames out and must be
/// called before blocking on a reply.
pub trait Wire: Send {
    /// Queues one outbound frame (may coalesce; see [`Wire::flush`]).
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Forces every queued outbound frame to the peer.
    fn flush(&mut self) -> io::Result<()>;

    /// Waits up to `timeout` for the next inbound frame.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<WireEvent>;

    /// Takes the next inbound frame if one is already queued.
    fn try_recv(&mut self) -> io::Result<WireEvent>;

    /// Number of inbound frames queued but not yet received — the bounded
    /// buffer depth the shed watermark reads.
    fn queue_depth(&self) -> usize;

    /// `(frames sent, write batches flushed)` on the outbound side; the
    /// coalescing ratio is `frames / flushes`. `(0, 0)` for a backend that
    /// does not batch.
    fn batch_counters(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The in-process backend: a pair of bounded crossbeam channels, one per
/// direction. Create both ends with [`channel_wire_pair`].
pub struct ChannelWire {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Two connected [`ChannelWire`] ends, each direction bounded to
/// `capacity` frames (capacity is clamped to ≥ 1).
pub fn channel_wire_pair(capacity: usize) -> (ChannelWire, ChannelWire) {
    channel_wire_pair_asym(capacity, capacity)
}

/// Like [`channel_wire_pair`] but with per-direction bounds: the first
/// returned end sends into a queue of `a_to_b` frames and receives from a
/// queue of `b_to_a` frames. Asymmetric bounds let a coordinator keep a
/// deep inbound queue (so it can never deadlock against a peer's
/// backpressured sends) while the data direction stays tightly bounded.
pub fn channel_wire_pair_asym(a_to_b: usize, b_to_a: usize) -> (ChannelWire, ChannelWire) {
    let (a_tx, b_rx) = bounded(a_to_b.max(1));
    let (b_tx, a_rx) = bounded(b_to_a.max(1));
    (
        ChannelWire { tx: a_tx, rx: a_rx },
        ChannelWire { tx: b_tx, rx: b_rx },
    )
}

impl Wire for ChannelWire {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer wire end dropped"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<WireEvent> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(WireEvent::Frame(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(WireEvent::Idle),
            Err(RecvTimeoutError::Disconnected) => Ok(WireEvent::Closed(CloseReason::Clean)),
        }
    }

    fn try_recv(&mut self) -> io::Result<WireEvent> {
        match self.rx.try_recv() {
            Ok(frame) => Ok(WireEvent::Frame(frame)),
            Err(TryRecvError::Empty) => Ok(WireEvent::Idle),
            Err(TryRecvError::Disconnected) => Ok(WireEvent::Closed(CloseReason::Clean)),
        }
    }

    fn queue_depth(&self) -> usize {
        self.rx.len()
    }
}

/// The TCP backend: a blocking socket with a dedicated reader thread.
///
/// The reader thread reads the socket a burst at a time and hands each
/// burst's frames over in one channel send (see the module docs). It
/// starts a read only while fewer than `capacity` frames are queued;
/// otherwise it parks, stops draining the socket, and the kernel's receive
/// window closes — so the bounded in-memory queue *is* the bounded socket
/// buffer, and its depth in frames ([`Wire::queue_depth`]) feeds the same
/// shed watermark as the in-process backend. Outbound frames go through a
/// [`FrameBatcher`].
///
/// Dropping a `TcpWire` shuts the socket down in both directions, which
/// unblocks and terminates the reader thread.
pub struct TcpWire {
    writer: FrameBatcher<TcpStream>,
    rx: Receiver<ReadItem>,
    /// Frames of the burst being consumed, already off the channel.
    ready: std::vec::IntoIter<Vec<u8>>,
    /// Frames the reader has handed over and the consumer has not yet
    /// received (channel plus `ready`). The reader adds a burst at a time,
    /// the consumer subtracts one per received frame.
    queued: Arc<AtomicUsize>,
    capacity: usize,
    reader: Option<JoinHandle<()>>,
    stream: TcpStream,
    /// Close reason reported by the reader thread's end-of-stream
    /// sentinel, latched so every receive after the close repeats it.
    closed: Option<CloseReason>,
}

/// What the reader thread hands over: bursts of decoded frames (never
/// empty), then exactly one end-of-stream sentinel carrying the close
/// classification.
enum ReadItem {
    Frames(Vec<Vec<u8>>),
    End(CloseReason),
}

impl TcpWire {
    /// Wraps a connected stream; inbound frames queue up to `capacity`
    /// (plus the burst that crosses it) before socket-level backpressure
    /// engages.
    pub fn new(stream: TcpStream, capacity: usize) -> io::Result<Self> {
        // Frames are already batched application-side; Nagle only adds
        // latency on the flush boundary.
        stream.set_nodelay(true)?;
        let capacity = capacity.max(1);
        let reader_stream = stream.try_clone()?;
        // The frame count below is the bound; the channel itself never
        // holds more bursts than that many frames.
        let (tx, rx) = unbounded();
        let queued = Arc::new(AtomicUsize::new(0));
        let reader_queued = Arc::clone(&queued);
        let reader = std::thread::Builder::new()
            .name("tcp-wire-reader".into())
            .spawn(move || read_loop(reader_stream, tx, &reader_queued, capacity))?;
        Ok(Self {
            writer: FrameBatcher::new(stream.try_clone()?),
            rx,
            ready: Vec::new().into_iter(),
            queued,
            capacity,
            reader: Some(reader),
            stream,
            closed: None,
        })
    }

    /// Takes the next frame of the burst in hand, reopening the reader's
    /// gate when this frame brings the queue back under its bound.
    fn next_ready(&mut self) -> Option<Vec<u8>> {
        let frame = self.ready.next()?;
        if self.queued.fetch_sub(1, Ordering::SeqCst) == self.capacity {
            if let Some(reader) = &self.reader {
                reader.thread().unpark();
            }
        }
        Some(frame)
    }

    /// What a receive can answer without touching the channel: the next
    /// frame of the burst in hand, or the latched close.
    fn buffered(&mut self) -> Option<WireEvent> {
        self.next_ready()
            .map(WireEvent::Frame)
            .or(self.closed.map(WireEvent::Closed))
    }

    fn on_item(&mut self, item: ReadItem) -> WireEvent {
        match item {
            ReadItem::Frames(burst) => {
                self.ready = burst.into_iter();
                let frame = self
                    .next_ready()
                    .expect("the reader never sends an empty burst");
                WireEvent::Frame(frame)
            }
            ReadItem::End(reason) => {
                self.closed = Some(reason);
                WireEvent::Closed(reason)
            }
        }
    }
}

fn read_loop(mut stream: TcpStream, tx: Sender<ReadItem>, queued: &AtomicUsize, capacity: usize) {
    let mut parser = FrameParser::new(BATCH_MAX_BYTES, MAX_FRAME_BYTES);
    loop {
        // The queue bound: no read starts while `capacity` frames wait.
        // `park` returns once the consumer's `unpark` (sent after the
        // decrement that crosses the bound) is pending, so the re-check
        // sees that decrement; a spurious return just re-checks.
        while queued.load(Ordering::SeqCst) >= capacity {
            std::thread::park();
        }
        let mut burst = Vec::new();
        let end = parser.read_from(&mut stream, &mut burst);
        if !burst.is_empty() {
            queued.fetch_add(burst.len(), Ordering::SeqCst);
            if tx.send(ReadItem::Frames(burst)).is_err() {
                return; // receiver gone: wire dropped
            }
        }
        // No more frames will arrive either way, but the two cases mean
        // different things to a supervisor: EOF at a frame boundary is an
        // orderly shutdown, anything else (reset, mid-frame truncation,
        // garbage length prefix) is a failure. The sentinel queues
        // *behind* frames that did arrive, so the delivered prefix is
        // never lost and the close reason is seen only after it drains.
        if let Some(reason) = end {
            let _ = tx.send(ReadItem::End(reason));
            return;
        }
    }
}

impl Wire for TcpWire {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.push(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<WireEvent> {
        if let Some(event) = self.buffered() {
            return Ok(event);
        }
        if self.rx.is_empty() {
            // About to block on the peer: push any batched-but-unflushed
            // outbound frames out first, so trickle traffic (single frames
            // below the batch thresholds) never deadlocks a request/reply
            // exchange. A flush failure means the peer is going away; the
            // reader thread will classify and report the close.
            let _ = self.writer.flush();
        }
        match self.rx.recv_timeout(timeout) {
            Ok(item) => Ok(self.on_item(item)),
            Err(RecvTimeoutError::Timeout) => Ok(WireEvent::Idle),
            Err(RecvTimeoutError::Disconnected) => Ok(WireEvent::Closed(CloseReason::Dropped)),
        }
    }

    fn try_recv(&mut self) -> io::Result<WireEvent> {
        if let Some(event) = self.buffered() {
            return Ok(event);
        }
        match self.rx.try_recv() {
            Ok(item) => Ok(self.on_item(item)),
            Err(TryRecvError::Empty) => Ok(WireEvent::Idle),
            Err(TryRecvError::Disconnected) => Ok(WireEvent::Closed(CloseReason::Dropped)),
        }
    }

    fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    fn batch_counters(&self) -> (u64, u64) {
        self.writer.counters()
    }
}

impl Drop for TcpWire {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            // Nothing will be received again. The reader may be parked on
            // a full queue, or still draining what the kernel buffered
            // before the shutdown: drop the receiving end so its next
            // hand-off fails, and open the gate so it gets that far.
            self.rx = unbounded().1;
            self.queued.store(0, Ordering::SeqCst);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Binds a listener on `127.0.0.1` with an OS-assigned ephemeral port.
/// Every cluster and test binds this way, so parallel runs never collide
/// on a fixed port.
pub fn listen_loopback() -> io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap(),
            vec![7u8; 300]
        );
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
    }

    #[test]
    fn truncated_and_oversize_frames_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        for cut in 1..buf.len() {
            let mut r = Cursor::new(&buf[..cut]);
            let err = read_frame(&mut r, MAX_FRAME_BYTES).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A garbage prefix decodes to an absurd length and is rejected
        // before any allocation.
        let mut r = Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        let err = read_frame(&mut r, MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn batcher_flushes_on_thresholds() {
        let mut b = FrameBatcher::with_thresholds(Vec::new(), 3, 1 << 20);
        b.push(b"a").unwrap();
        b.push(b"b").unwrap();
        assert_eq!(b.counters(), (2, 0), "below threshold: nothing flushed");
        b.push(b"c").unwrap();
        assert_eq!(b.counters(), (3, 1), "frame threshold flushes");
        let mut small = FrameBatcher::with_thresholds(Vec::new(), 100, 8);
        small.push(&[0u8; 16]).unwrap();
        assert_eq!(small.counters().1, 1, "byte threshold flushes");
    }

    #[test]
    fn channel_wire_pair_is_fifo_both_ways() {
        let (mut a, mut b) = channel_wire_pair(8);
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        assert_eq!(b.queue_depth(), 2);
        assert_eq!(b.try_recv().unwrap(), WireEvent::Frame(b"one".to_vec()));
        b.send(b"ack").unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(1)).unwrap(),
            WireEvent::Frame(b"ack".to_vec())
        );
        assert_eq!(b.try_recv().unwrap(), WireEvent::Frame(b"two".to_vec()));
        assert_eq!(b.try_recv().unwrap(), WireEvent::Idle);
        drop(a);
        assert_eq!(b.try_recv().unwrap(), WireEvent::Closed(CloseReason::Clean));
    }

    #[test]
    fn tcp_wire_roundtrip_over_loopback() {
        let listener = listen_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut wire = TcpWire::new(stream, 64).unwrap();
            for _ in 0..100 {
                match wire.recv_timeout(Duration::from_secs(5)).unwrap() {
                    WireEvent::Frame(f) => {
                        let mut echo = f;
                        echo.push(b'!');
                        wire.send(&echo).unwrap();
                    }
                    WireEvent::Idle => panic!("timed out waiting for frame"),
                    WireEvent::Closed(reason) => {
                        assert_eq!(reason, CloseReason::Clean, "client drops cleanly");
                        break;
                    }
                }
            }
            wire.flush().unwrap();
            // Linger until the client saw every echo (client closes first).
            while !matches!(
                wire.recv_timeout(Duration::from_secs(5)).unwrap(),
                WireEvent::Closed(_)
            ) {}
        });
        let mut client = TcpWire::new(TcpStream::connect(addr).unwrap(), 64).unwrap();
        for i in 0..100u32 {
            client.send(format!("msg{i}").as_bytes()).unwrap();
        }
        client.flush().unwrap();
        for i in 0..100u32 {
            match client.recv_timeout(Duration::from_secs(5)).unwrap() {
                WireEvent::Frame(f) => assert_eq!(f, format!("msg{i}!").as_bytes()),
                other => panic!("expected echo {i}, got {other:?}"),
            }
        }
        let (frames, flushes) = client.batch_counters();
        assert_eq!(frames, 100);
        assert!(flushes < frames, "batching should coalesce frames");
        drop(client);
        server.join().unwrap();
    }
}
