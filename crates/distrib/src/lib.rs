//! Distribution frameworks for the streaming set similarity join.
//!
//! A single dispatcher routes each arriving record to `k` parallel joiners
//! as *probe* and/or *index* messages; joiners run a local
//! [`StreamJoiner`](ssj_core::StreamJoiner) and emit result pairs to a
//! sink. Three routing strategies are provided:
//!
//! * **Length-based** ([`route::LengthRouter`]) — the paper's scheme: index
//!   at the one joiner owning the record's length (zero replication), probe
//!   the joiners whose length ranges intersect the length-filter interval.
//! * **Prefix-based** ([`route::PrefixRouter`]) — the classic offline
//!   scheme adapted to streams: hash each prefix token to a joiner;
//!   records are *replicated* to every joiner owning one of their prefix
//!   tokens, and duplicate results are eliminated exactly by the
//!   smallest-common-prefix-token rule.
//! * **Broadcast** ([`route::BroadcastRouter`]) — index round-robin, probe
//!   everywhere.
//!
//! The dispatch and join algorithms are written once (the crate-private
//! `operators` module) and executed by two run-times:
//! [`driver::run_distributed`] assembles the dispatcher → joiners → sink
//! topology on [`stormlite`] (threads or deterministic simulation), runs a
//! record stream through it, and returns the result pairs plus throughput
//! / communication / load / latency measurements — the observables of
//! every distributed experiment in EXPERIMENTS.md;
//! [`cluster::run_cluster`] splits the same pipeline at the process
//! boundary, with each joiner behind a socket.

#![warn(missing_docs)]

pub mod bolts;
pub mod checkpoint;
pub mod cluster;
pub mod driver;
pub mod msg;
mod operators;
pub mod pace;
pub mod recovery;
pub mod route;
pub mod wire;

pub use checkpoint::{
    load_latest_verified, open_payload, scrub, seal_payload, CheckpointConfig,
    CheckpointCoordinator, CheckpointImage, EpochScrub, FileStore, MemStore, RestoreScan,
    ScrubReport, SnapshotStore, STORE_MAGIC,
};
pub use cluster::{
    node_main, node_serve, run_cluster, run_cluster_bistream, ClusterBackend, ClusterConfig,
    ClusterFault, ClusterOutage, ClusterResult, HealthConfig, HealthReport, OutageKind,
    NODE_INBOUND_CAP,
};
pub use driver::{
    calibrate_partition, run_bistream_distributed, run_distributed, DistributedJoinConfig,
    DistributedJoinResult, LocalAlgo, PartitionMethod, Strategy,
};
pub use msg::{JoinMsg, RecordMsg};
pub use pace::PacedIter;
pub use recovery::{RecoveryState, ReplayEntry};
pub use route::{BroadcastRouter, LengthRouter, PrefixRouter, RouteDecision, Router};
// Re-exported so callers configuring `DistributedJoinConfig::scheduler`
// or consuming `ClusterResult::integrity` /
// `ClusterResult::unflushed_records_high_water` don't need a direct
// stormlite dependency.
pub use stormlite::{IntegrityReport, Scheduler, SimConfig, BATCH_MAX_FRAMES};
// Re-exported so callers enabling `DistributedJoinConfig::trace` and
// consuming `DistributedJoinResult::trace`/`stages` don't need a direct
// obs dependency.
pub use obs::{RunTrace, StageProfile, TraceConfig};
