//! stormlite — a miniature Storm-shaped stream processing engine.
//!
//! The paper runs its topology (dispatcher → joiners → sink) on Apache
//! Storm. The join algorithms only rely on Storm's dataflow contract:
//! named components with parallel tasks, tuples routed between them by a
//! grouping (shuffle / fields / broadcast / direct / global), per-edge FIFO
//! order, and a completion signal. stormlite provides exactly that,
//! in-process: one OS thread per task, bounded crossbeam channels between
//! them (reliable, FIFO, providing natural backpressure), an end-of-stream
//! protocol, and per-task metrics (throughput, queue wait, bytes moved).
//! Links that can lose a frame belong to the layer above: [`transport`]
//! and [`link`] carry the framing, chaos and retry policy the cluster's
//! launcher↔node sessions are built from.
//!
//! ```
//! use stormlite::{Bolt, Grouping, Message, Outbox, Topology};
//!
//! #[derive(Clone)]
//! struct Num(u64);
//! impl Message for Num {}
//!
//! struct Double;
//! impl Bolt<Num> for Double {
//!     fn execute(&mut self, msg: Num, out: &mut Outbox<Num>) {
//!         out.emit(Num(msg.0 * 2));
//!     }
//! }
//!
//! let mut t = Topology::new();
//! t.spout("src", (0..10u64).map(Num));
//! t.bolt("double", 2, |_task| Double);
//! let collected = t.collector("sink");
//! t.wire("src", "double", Grouping::shuffle());
//! t.wire("double", "sink", Grouping::global());
//! let report = t.run();
//! assert_eq!(collected.lock().len(), 10);
//! assert!(report.total_processed() >= 10);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod crc32c;
pub mod fault;
pub mod grouping;
pub mod link;
pub mod message;
pub mod metrics;
pub mod sim;
pub mod topology;
pub mod transport;

pub use clock::{Clock, Timestamp};
pub use crc32c::{crc32c, open_sealed, seal};
pub use fault::{FaultPlan, FaultSpec};
pub use grouping::Grouping;
pub use link::{LinkFault, RetryConfig};
pub use message::{BarrierAligner, Bolt, CollectorBolt, Message, Outbox};
pub use metrics::{IntegrityReport, LatencyHistogram, RunReport, TaskMetrics};
pub use obs::{RunTrace, Stage, TraceConfig, TraceSink};
pub use sim::{Scheduler, SimConfig, SimRun, Transcript};
pub use topology::Topology;
pub use transport::{
    channel_wire_pair, channel_wire_pair_asym, listen_loopback, read_frame, write_frame,
    ChannelWire, ChaosLink, ChaosWindow, CloseReason, FrameBatcher, FrameParser, LinkOutage,
    TcpWire, Wire, WireEvent, BATCH_MAX_BYTES, BATCH_MAX_FRAMES, MAX_FRAME_BYTES,
};
