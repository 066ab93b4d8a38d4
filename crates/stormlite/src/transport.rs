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
//! top). Link-fault chaos composes with either backend through
//! [`ChaosLink`], which replays the deterministic drop/duplicate/delay
//! dice of [`crate::link`] against an outbound frame stream.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::link::{ChaosDice, LinkAction, LinkFault};

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

/// A half-open interval of transmission ordinals during which an outage
/// is active: the window covers transmissions `after + 1 ..= after + len`
/// (1-based ordinals, counted per [`ChaosLink::transmit`] call).
///
/// Keying on the *transmission* count rather than wall time keeps outage
/// placement deterministic across schedulers — and guarantees every window
/// eventually closes, because retransmissions of unacked frames also flow
/// through `transmit` and advance the ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosWindow {
    /// The window opens after this many transmissions have been attempted.
    pub after: u64,
    /// Number of transmissions the window stays active for.
    pub len: u64,
}

impl ChaosWindow {
    /// Whether the window is active at 1-based transmission ordinal `seq`.
    pub fn covers(&self, seq: u64) -> bool {
        seq > self.after && seq <= self.after.saturating_add(self.len)
    }
}

/// A scripted link outage, beyond the per-frame drop/dup/delay dice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutage {
    /// The link freezes: frames sent during the window are held (lossless)
    /// and released in order once the window passes. Models a hung or
    /// GC-paused peer — traffic resumes, nothing was lost.
    Stall(ChaosWindow),
    /// The link is cut: outbound frames attempted during the window are
    /// dropped. With `two_way`, the receiving side should also hold
    /// inbound traffic while [`ChaosLink::inbound_blocked`] reports true.
    Partition {
        /// When the cut is active, in transmission ordinals.
        window: ChaosWindow,
        /// Whether inbound traffic is cut too (see
        /// [`ChaosLink::inbound_blocked`]).
        two_way: bool,
    },
    /// The link mangles payloads: each data frame transmitted during the
    /// window has one bit flipped (deterministically keyed on the
    /// transmission ordinal). The frame still arrives — models bit rot on
    /// a middlebox or NIC, the failure a frame checksum exists to catch.
    /// Only data transmissions are corrupted; control traffic passes
    /// clean so the flip lands on a deterministic frame.
    Corrupt(ChaosWindow),
}

/// Deterministic link chaos for an outbound frame stream.
///
/// Rolls the seeded drop/duplicate/delay dice of [`crate::link`] against
/// raw frames, so a sender can inject network faults *above* a (reliable)
/// socket or channel. Delayed frames are held back and released after `1..=max_delay`
/// later transmissions, reordering the link; [`ChaosLink::drain`] releases
/// any still-held frames at end of stream.
///
/// On top of the per-frame dice, scripted [`LinkOutage`] windows model
/// coarse failures: stalls (lossless freeze) and partitions (drop
/// everything attempted in the window). Windows are keyed on the
/// transmission ordinal, which only [`ChaosLink::transmit`] advances —
/// control traffic sent through [`ChaosLink::transmit_control`] is subject
/// to the windows but does not shift them, so data-frame outage placement
/// is independent of how often the supervisor heartbeats.
#[derive(Debug)]
pub struct ChaosLink {
    dice: Option<ChaosDice>,
    held: Vec<(u64, Vec<u8>)>,
    stalled: Vec<Vec<u8>>,
    outages: Vec<LinkOutage>,
    seq: u64,
    stalls: u64,
    partition_drops: u64,
    corruptions: u64,
}

impl ChaosLink {
    /// A chaos link applying `fault` with the decision stream of
    /// sending-task `sender_task` on wire number `wire_index` under `seed`.
    ///
    /// # Panics
    /// Panics if `fault`'s rates are out of range (see [`LinkFault`]).
    pub fn new(seed: u64, fault: LinkFault, wire_index: usize, sender_task: usize) -> Self {
        Self {
            dice: Some(ChaosDice::new(seed, fault, wire_index, sender_task)),
            held: Vec::new(),
            stalled: Vec::new(),
            outages: Vec::new(),
            seq: 0,
            stalls: 0,
            partition_drops: 0,
            corruptions: 0,
        }
    }

    /// A chaos link with no per-frame dice, only scripted outages.
    pub fn from_outages(outages: Vec<LinkOutage>) -> Self {
        Self {
            dice: None,
            held: Vec::new(),
            stalled: Vec::new(),
            outages,
            seq: 0,
            stalls: 0,
            partition_drops: 0,
            corruptions: 0,
        }
    }

    /// Adds scripted outage windows on top of the existing configuration.
    pub fn with_outages(mut self, outages: Vec<LinkOutage>) -> Self {
        self.outages.extend(outages);
        self
    }

    fn stall_active(&self) -> bool {
        self.outages.iter().any(|o| match o {
            LinkOutage::Stall(w) => w.covers(self.seq),
            _ => false,
        })
    }

    fn partition_active(&self) -> bool {
        self.outages.iter().any(|o| match o {
            LinkOutage::Partition { window, .. } => window.covers(self.seq),
            _ => false,
        })
    }

    fn corrupt_active(&self) -> bool {
        self.outages.iter().any(|o| match o {
            LinkOutage::Corrupt(w) => w.covers(self.seq),
            _ => false,
        })
    }

    /// Whether a two-way partition window is active at the current
    /// transmission ordinal: the receiving side should hold (not deliver)
    /// inbound frames from this peer while true.
    pub fn inbound_blocked(&self) -> bool {
        self.outages.iter().any(|o| match o {
            LinkOutage::Partition { window, two_way } => *two_way && window.covers(self.seq),
            _ => false,
        })
    }

    /// `(stalled frames, partition-dropped frames)` so far.
    pub fn outage_counters(&self) -> (u64, u64) {
        (self.stalls, self.partition_drops)
    }

    /// Frames this link has deliberately mangled so far (see
    /// [`LinkOutage::Corrupt`]).
    pub fn corruptions(&self) -> u64 {
        self.corruptions
    }

    /// Moves stalled frames to `out` if no outage currently holds them.
    fn release_stalled(&mut self, out: &mut Vec<Vec<u8>>) {
        if !self.stalled.is_empty() && !self.stall_active() && !self.partition_active() {
            out.append(&mut self.stalled);
        }
    }

    /// Routes a frame that is due to go on the wire now through any active
    /// outage window: stall holds it, partition drops it.
    fn gate(&mut self, frame: Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if self.stall_active() {
            self.stalled.push(frame);
            self.stalls += 1;
        } else if self.partition_active() {
            self.partition_drops += 1;
        } else {
            out.push(frame);
        }
    }

    /// Flips one bit of `frame`, keyed on the current transmission
    /// ordinal so reruns mangle the identical bit. The receiver's frame
    /// checksum (wire protocol v3) is what turns this into a detected
    /// corruption rather than a silent misparse.
    fn mangle(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let byte = (self.seq as usize * 31) % frame.len();
        frame[byte] ^= 1 << (self.seq % 8);
        self.corruptions += 1;
    }

    /// Rolls the dice for one transmission: the returned frames (possibly
    /// none, possibly several) are what actually goes on the wire, in
    /// order — including any previously delayed frames now due.
    pub fn transmit(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        self.seq += 1;
        let mut frame = frame;
        if self.corrupt_active() {
            self.mangle(&mut frame);
        }
        let mut out = Vec::new();
        self.release_stalled(&mut out);
        match self
            .dice
            .as_mut()
            .map(|d| d.roll())
            .unwrap_or(LinkAction::Pass)
        {
            LinkAction::Pass => self.gate(frame, &mut out),
            LinkAction::Drop => {}
            LinkAction::Duplicate => {
                self.gate(frame.clone(), &mut out);
                self.gate(frame, &mut out);
            }
            LinkAction::Delay(d) => self.held.push((self.seq + d as u64, frame)),
        }
        let due: Vec<usize> = (0..self.held.len())
            .rev()
            .filter(|&i| self.held[i].0 <= self.seq)
            .collect();
        for i in due {
            let f = self.held.remove(i).1;
            self.gate(f, &mut out);
        }
        out
    }

    /// Sends a control frame (heartbeat, config) through the link: subject
    /// to outage windows, but never dice'd and never advancing the
    /// transmission ordinal, so control cadence cannot shift where data
    /// frames land relative to outage windows.
    pub fn transmit_control(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.release_stalled(&mut out);
        self.gate(frame, &mut out);
        out
    }

    /// Releases every still-held frame — stalled first (already in send
    /// order), then delayed, in hold order. Call at end of stream so
    /// stalls and delays never become silent drops.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        let mut out = std::mem::take(&mut self.stalled);
        self.held.sort_by_key(|(due, _)| *due);
        out.extend(self.held.drain(..).map(|(_, f)| f));
        out
    }
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

    #[test]
    fn chaos_link_is_deterministic_and_lossless_when_drained() {
        let fault = LinkFault {
            drop_rate: 0.0,
            dup_rate: 0.1,
            delay_rate: 0.3,
            max_delay: 4,
        };
        let run = |seed: u64| {
            let mut link = ChaosLink::new(seed, fault, 2, 1);
            let mut out = Vec::new();
            for i in 0..200u32 {
                out.extend(link.transmit(i.to_le_bytes().to_vec()));
            }
            out.extend(link.drain());
            out
        };
        assert_eq!(run(9), run(9), "same seed must replay exactly");
        assert_ne!(run(9), run(10), "different seeds explore different chaos");
        // With no drops, a drained link loses nothing (dups allowed).
        let got = run(9);
        let mut uniq: Vec<[u8; 4]> = got.iter().map(|f| f[..4].try_into().unwrap()).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 200);
    }

    #[test]
    fn stall_window_is_lossless_and_ordered() {
        let w = ChaosWindow { after: 3, len: 4 };
        let mut link = ChaosLink::from_outages(vec![LinkOutage::Stall(w)]);
        let mut out = Vec::new();
        for i in 0..10u32 {
            out.extend(link.transmit(vec![i as u8]));
        }
        // Frames 4..=7 (ordinals) stall; the window closes at ordinal 8, so
        // transmission 8 first releases the stalled run, then itself.
        let got: Vec<u8> = out.iter().map(|f| f[0]).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(link.outage_counters(), (4, 0));
        assert!(link.drain().is_empty(), "nothing left held");
    }

    #[test]
    fn stall_drain_releases_before_window_closes() {
        let w = ChaosWindow {
            after: 0,
            len: 1000,
        };
        let mut link = ChaosLink::from_outages(vec![LinkOutage::Stall(w)]);
        for i in 0..5u32 {
            assert!(link.transmit(vec![i as u8]).is_empty());
        }
        let released: Vec<u8> = link.drain().iter().map(|f| f[0]).collect();
        assert_eq!(released, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn partition_window_drops_exactly_the_covered_ordinals() {
        let w = ChaosWindow { after: 2, len: 3 };
        let mut link = ChaosLink::from_outages(vec![LinkOutage::Partition {
            window: w,
            two_way: false,
        }]);
        let mut out = Vec::new();
        for i in 0..8u32 {
            out.extend(link.transmit(vec![i as u8]));
        }
        let got: Vec<u8> = out.iter().map(|f| f[0]).collect();
        assert_eq!(got, vec![0, 1, 5, 6, 7], "ordinals 3..=5 dropped");
        assert_eq!(link.outage_counters(), (0, 3));
        assert!(!link.inbound_blocked(), "one-way never blocks inbound");
    }

    #[test]
    fn two_way_partition_blocks_inbound_only_inside_window() {
        let w = ChaosWindow { after: 1, len: 2 };
        let mut link = ChaosLink::from_outages(vec![LinkOutage::Partition {
            window: w,
            two_way: true,
        }]);
        assert!(!link.inbound_blocked());
        link.transmit(vec![0]);
        assert!(!link.inbound_blocked(), "window opens after ordinal 1");
        link.transmit(vec![1]);
        assert!(link.inbound_blocked());
        link.transmit(vec![2]);
        assert!(link.inbound_blocked());
        link.transmit(vec![3]);
        assert!(!link.inbound_blocked(), "window closed");
    }

    #[test]
    fn corrupt_window_flips_exactly_one_bit_per_covered_frame() {
        let w = ChaosWindow { after: 1, len: 2 };
        let build = || ChaosLink::from_outages(vec![LinkOutage::Corrupt(w)]);
        let mut link = build();
        let frame = vec![0u8; 16];
        let mut mangled = Vec::new();
        for _ in 0..4 {
            let out = link.transmit(frame.clone());
            assert_eq!(out.len(), 1, "corruption never drops the frame");
            mangled.push(out.into_iter().next().unwrap());
        }
        assert_eq!(link.corruptions(), 2);
        assert_eq!(mangled[0], frame, "before the window: clean");
        assert_eq!(mangled[3], frame, "after the window: clean");
        for m in &mangled[1..3] {
            let flipped: u32 = m
                .iter()
                .zip(&frame)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit flipped in the window");
        }
        // Deterministic: a rebuilt link mangles the identical bits.
        let mut twin = build();
        for m in &mangled {
            assert_eq!(&twin.transmit(frame.clone())[0], m);
        }
        // Control traffic passes clean even inside the window.
        let mut ctl = build();
        ctl.transmit(frame.clone());
        ctl.transmit(frame.clone()); // ordinal 2: window open
        assert_eq!(ctl.transmit_control(frame.clone()), vec![frame.clone()]);
        assert_eq!(ctl.corruptions(), 1);
    }

    #[test]
    fn control_traffic_respects_windows_without_shifting_them() {
        let w = ChaosWindow { after: 1, len: 2 };
        let build = || ChaosLink::from_outages(vec![LinkOutage::Stall(w)]);

        // Control frames stall inside the window but never advance the
        // ordinal: data frame placement is identical however many control
        // frames interleave.
        let mut a = build();
        let mut a_out = Vec::new();
        for i in 0..5u32 {
            a_out.extend(a.transmit(vec![i as u8]));
        }
        let mut b = build();
        let mut b_out = Vec::new();
        for i in 0..5u32 {
            for _ in 0..3 {
                b_out.extend(b.transmit_control(vec![0xEE]));
            }
            b_out.extend(b.transmit(vec![i as u8]));
        }
        let data =
            |v: &[Vec<u8>]| -> Vec<u8> { v.iter().map(|f| f[0]).filter(|&x| x != 0xEE).collect() };
        assert_eq!(data(&a_out), data(&b_out));
        // Control frames sent while stalled were held, then released in
        // order once the window passed — never silently dropped.
        let hb_count = b_out.iter().filter(|f| f[0] == 0xEE).count();
        assert_eq!(hb_count, 15);
    }

    #[test]
    fn dice_and_outages_compose() {
        let fault = LinkFault {
            drop_rate: 0.0,
            dup_rate: 0.2,
            delay_rate: 0.2,
            max_delay: 3,
        };
        let w = ChaosWindow { after: 10, len: 5 };
        let run = || {
            let mut link = ChaosLink::new(7, fault, 0, 0).with_outages(vec![LinkOutage::Stall(w)]);
            let mut out = Vec::new();
            for i in 0..50u32 {
                out.extend(link.transmit(vec![i as u8]));
            }
            out.extend(link.drain());
            out
        };
        let (x, y) = (run(), run());
        assert_eq!(x, y, "dice plus windows replay deterministically");
        let mut uniq: Vec<u8> = x.iter().map(|f| f[0]).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 50, "no drops configured: stall stays lossless");
    }
}
