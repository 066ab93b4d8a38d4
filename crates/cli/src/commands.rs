//! The four `dssj` subcommands.

use crate::args::{ArgError, Args};
use ssj_core::{JoinConfig, Threshold, Window};
use ssj_distrib::{
    run_bistream_distributed, run_cluster, run_cluster_bistream, run_distributed, CheckpointConfig,
    ClusterBackend, ClusterConfig, ClusterFault, ClusterOutage, DistributedJoinConfig, FileStore,
    HealthConfig, LocalAlgo, OutageKind, PartitionMethod, Scheduler, SimConfig, Strategy,
};
use ssj_partition::{imbalance, load_aware, CostModel, LengthHistogram};
use ssj_text::{load_lines, Corpus, QGramTokenizer, Record, WordTokenizer};
use ssj_workloads::{DatasetProfile, StreamGenerator};
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

type CliResult = Result<(), Box<dyn Error>>;

/// Prints usage and returns the conventional exit code.
pub fn usage() -> ExitCode {
    eprintln!(
        "usage:
  dssj join      --input FILE [--tau T=0.8] [--algo bundle|ppjoin|allpairs]
                 [--qgram Q] [--window N] [--k K=4] [--show-pairs N=10]
                 [--shed-watermark W] [--source-rate R] [--sim SEED]
                 [--dispatch-batch B]   (every edge: B records per source
                                         message unless --source-rate, B messages
                                         per joiner wire, one result batch back)
                 [--checkpoint-dir DIR [--checkpoint-interval N=1000]]
                 [--restore-from DIR [--verify-restore]] [--trace-out FILE]
                 [--chrome-out FILE] [--metrics-out FILE]
  dssj bistream  --left FILE --right FILE [--tau T=0.8] [--algo A] [--k K=4]
                 [--source-rate R] [--sim SEED]
                 [--checkpoint-dir DIR [--checkpoint-interval N=1000]]
                 [--restore-from DIR [--verify-restore]] [--trace-out FILE]
                 [--chrome-out FILE] [--metrics-out FILE]
  dssj cluster   --input FILE | --left FILE --right FILE
                 [--tau T=0.8] [--algo A] [--k K=2] [--backend tcp|inprocess]
                 [--node-bin PATH] [--chaos-seed S] [--shed-watermark W]
                 [--dispatch-batch B=32]   (B messages per data frame, one
                                            results frame and one ack back)
                 [--kill-task T --kill-after N] [--logical-time]
                 [--stall T:AFTER:LEN[,..]] [--partition T:AFTER:LEN[:oneway|twoway][,..]]
                 [--heartbeat-interval MS=25] [--suspect-after MS=250]
                 [--recovery-budget N] [--retry-max-ms MS=640]
                 [--checkpoint-dir DIR [--checkpoint-interval N=1000]]
                 [--restore-from DIR [--verify-restore]] [--show-pairs N=10]
                 [--metrics-out FILE]
  dssj generate  --profile aol|dblp|enron|tweet --n N --out FILE [--seed S=1]
  dssj partition --input FILE [--tau T=0.8] [--k K=8]
  dssj scrub     DIR   (verify the checksums of every committed epoch)"
    );
    ExitCode::from(2)
}

fn load(path: &str, args: &Args) -> Result<Corpus, Box<dyn Error>> {
    let corpus = match args.get("qgram") {
        Some(q) => {
            let q: usize = q
                .parse()
                .map_err(|_| ArgError(format!("--qgram: cannot parse '{q}'")))?;
            load_lines(Path::new(path), QGramTokenizer::new(q), 1)?
        }
        None => load_lines(Path::new(path), WordTokenizer::default(), 1)?,
    };
    Ok(corpus)
}

fn join_config(args: &Args) -> Result<JoinConfig, ArgError> {
    let tau: f64 = args.get_or("tau", 0.8)?;
    if !(0.0..=1.0).contains(&tau) || tau == 0.0 {
        return Err(ArgError(format!("--tau must be in (0, 1], got {tau}")));
    }
    let window = match args.get("window") {
        None => Window::Unbounded,
        Some(w) => Window::Count(
            w.parse()
                .map_err(|_| ArgError(format!("--window: cannot parse '{w}'")))?,
        ),
    };
    Ok(JoinConfig {
        threshold: Threshold::jaccard(tau),
        window,
    })
}

fn local_algo(args: &Args) -> Result<LocalAlgo, ArgError> {
    match args.get("algo").unwrap_or("bundle") {
        "bundle" => Ok(LocalAlgo::bundle()),
        "ppjoin" => Ok(LocalAlgo::PpJoin),
        "allpairs" => Ok(LocalAlgo::AllPairs),
        "naive" => Ok(LocalAlgo::Naive),
        other => Err(ArgError(format!("--algo: unknown algorithm '{other}'"))),
    }
}

fn parse_opt<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, ArgError> {
    match args.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| ArgError(format!("--{key}: cannot parse '{v}'"))),
    }
}

fn dispatch_batch(args: &Args) -> Result<Option<usize>, ArgError> {
    let batch: Option<usize> = parse_opt(args, "dispatch-batch")?;
    if batch == Some(0) {
        return Err(ArgError("--dispatch-batch must be > 0".into()));
    }
    Ok(batch)
}

fn dist_config(args: &Args, join: JoinConfig) -> Result<DistributedJoinConfig, ArgError> {
    args.forbid(
        "chaos-seed",
        "link chaos is a cluster feature: use `dssj cluster --chaos-seed`",
    )?;
    let k: usize = args.get_or("k", 4)?;
    let scheduler = match parse_opt::<u64>(args, "sim")? {
        // Deterministic replay: the whole topology runs on the virtual
        // clock, so wall-clock pacing is meaningless there.
        Some(seed) => {
            args.forbid(
                "source-rate",
                "paces the source on the wall clock and cannot run under --sim",
            )?;
            Scheduler::Sim(SimConfig::seeded(seed))
        }
        None => Scheduler::Threads,
    };
    args.require_with("checkpoint-interval", "checkpoint-dir")?;
    let checkpoint = match args.get("checkpoint-dir") {
        Some(dir) => {
            let interval: u64 = args.get_or("checkpoint-interval", 1000)?;
            if interval == 0 {
                return Err(ArgError("--checkpoint-interval must be > 0".into()));
            }
            Some(
                CheckpointConfig::in_dir(interval, Path::new(dir))
                    .map_err(|e| ArgError(format!("--checkpoint-dir {dir}: {e}")))?,
            )
        }
        None => None,
    };
    let restore_from = match args.get("restore-from") {
        Some(dir) => Some(Arc::new(
            FileStore::open(Path::new(dir))
                .map_err(|e| ArgError(format!("--restore-from {dir}: {e}")))?,
        ) as _),
        None => None,
    };
    let dispatch_batch = dispatch_batch(args)?;
    Ok(DistributedJoinConfig {
        k,
        join,
        local: local_algo(args)?,
        strategy: Strategy::LengthAuto {
            method: PartitionMethod::LoadAware,
            sample: 10_000,
        },
        channel_capacity: 1024,
        source_rate: parse_opt(args, "source-rate")?,
        fault: None,
        // Degraded mode: shed whole records above this queue depth.
        shed_watermark: parse_opt(args, "shed-watermark")?,
        checkpoint,
        restore_from,
        // Batch dispatcher emits to amortize per-message channel overhead;
        // results are identical either way.
        dispatch_batch,
        scheduler,
        // Tracing is observation-only: under --sim the same seed renders a
        // byte-identical trace, and leaving both flags off keeps the hot
        // path instrumentation-free.
        trace: if args.has("trace-out") || args.has("chrome-out") {
            Some(ssj_distrib::TraceConfig::default())
        } else {
            None
        },
    })
}

/// Writes whichever observability exports were requested: a JSONL span
/// trace (`--trace-out`), a chrome://tracing timeline (`--chrome-out`),
/// and a Prometheus text-format metrics snapshot (`--metrics-out`).
fn write_exports(args: &Args, out: &ssj_distrib::DistributedJoinResult) -> CliResult {
    if let Some(path) = args.get("trace-out") {
        let trace = out.trace.as_ref().expect("tracing enabled by --trace-out");
        std::fs::write(path, obs::trace_jsonl(trace))?;
        println!("trace       : {} spans -> {path}", trace.len());
    }
    if let Some(path) = args.get("chrome-out") {
        let trace = out.trace.as_ref().expect("tracing enabled by --chrome-out");
        std::fs::write(path, obs::trace_chrome(trace))?;
        println!("chrome trace: {} spans -> {path}", trace.len());
    }
    if let Some(path) = args.get("metrics-out") {
        let snap = out.report.metrics_snapshot();
        std::fs::write(path, obs::prometheus(&snap))?;
        println!("metrics     : {} series -> {path}", snap.samples.len());
    }
    Ok(())
}

/// With `--verify-restore`, scrubs the `--restore-from` store up front:
/// prints the per-epoch checksum verification table, then refuses to
/// start if no epoch verifies at all — a run from an all-corrupt store
/// would silently recompute from scratch, which an operator asking for
/// verification presumably wants to know about instead.
fn verify_restore(args: &Args) -> CliResult {
    args.require_with("verify-restore", "restore-from")?;
    if !args.has("verify-restore") {
        return Ok(());
    }
    let dir = args.required("restore-from")?;
    let store = FileStore::open(Path::new(dir))
        .map_err(|e| ArgError(format!("--restore-from {dir}: {e}")))?;
    let report = ssj_distrib::scrub(&store)?;
    println!("{report}");
    if !report.epochs.is_empty() && report.verified() == 0 {
        return Err(Box::new(ArgError(format!(
            "--verify-restore: every epoch in {dir} is corrupt; nothing to restore from"
        ))));
    }
    Ok(())
}

/// One summary line for corruption the run detected and survived —
/// printed only when something actually rotted, mirroring the shed line.
fn print_integrity(integrity: &ssj_distrib::IntegrityReport) {
    if integrity.is_clean() {
        return;
    }
    println!(
        "integrity   : {} corrupt frame(s), {} corrupt snapshot part(s), \
         {} corrupt manifest(s); {} epoch(s) quarantined, restore fell back {} epoch(s)",
        integrity.corrupt_frames,
        integrity.corrupt_snapshot_parts,
        integrity.corrupt_manifests,
        integrity.quarantined_epochs,
        integrity.restore_fallback_depth
    );
}

fn print_summary(out: &ssj_distrib::DistributedJoinResult) {
    println!("records     : {}", out.records);
    println!("pairs       : {}", out.pairs.len());
    println!("throughput  : {:.0} records/s", out.throughput());
    println!(
        "comm        : {:.2} msgs/record, {:.0} bytes/record, replication {:.2}",
        out.msgs_per_record(),
        out.bytes_per_record(),
        out.replication()
    );
    println!(
        "latency     : mean {:.0} us, p99 {:.0} us",
        out.latency.mean().as_secs_f64() * 1e6,
        out.latency.quantile(0.99).as_secs_f64() * 1e6
    );
    if out.report.shed() > 0 {
        println!(
            "shed        : {} records dropped at the dispatcher under overload",
            out.report.shed()
        );
    }
    if out.report.checkpoints() > 0 {
        let latency = out.report.checkpoint_latency();
        println!(
            "checkpoints : {} snapshots published, {} bytes, epoch latency mean {:.0} us",
            out.report.checkpoints(),
            out.report.checkpoint_bytes(),
            latency.mean().as_secs_f64() * 1e6
        );
    }
    if let Some(cut) = out.restored_cut {
        println!("restored    : resumed from checkpoint cut at record id {cut}");
    }
    print_integrity(&out.report.integrity);
}

/// `dssj join` — self-join one file of line-documents.
pub fn join(args: &Args) -> CliResult {
    verify_restore(args)?;
    let corpus = load(args.required("input")?, args)?;
    let join = join_config(args)?;
    let cfg = dist_config(args, join)?;
    let out = run_distributed(corpus.records(), &cfg);
    print_summary(&out);
    write_exports(args, &out)?;
    if args.flag("verbose") {
        for j in &out.joiners {
            println!(
                "joiner {}: indexed {} candidates {} verifications {} results {}",
                j.task, j.stats.indexed, j.stats.candidates, j.stats.verifications, j.stats.results
            );
        }
    }
    let show: usize = args.get_or("show-pairs", 10)?;
    let mut pairs = out.pairs.clone();
    pairs.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then(a.key().cmp(&b.key()))
    });
    for m in pairs.iter().take(show) {
        println!(
            "{:.3}  line {} <-> line {}",
            m.similarity, m.earlier.0, m.later.0
        );
    }
    Ok(())
}

/// `dssj bistream` — join two files against each other.
pub fn bistream(args: &Args) -> CliResult {
    // Shed-adjusted recall accounting is only defined for the self-join
    // oracle; reject here instead of producing silently meaningless output.
    args.forbid(
        "shed-watermark",
        "cannot be combined with bistream input (shed accounting is only \
         defined for self-joins)",
    )?;
    verify_restore(args)?;
    // Token ids must come from one shared dictionary and record ids must be
    // globally unique, so both files are tokenized together.
    let (left_records, right_records) =
        tokenize_together(args.required("left")?, args.required("right")?, args)?;
    let join = join_config(args)?;
    let cfg = dist_config(args, join)?;
    let out = run_bistream_distributed(&left_records, &right_records, &cfg);
    print_summary(&out);
    write_exports(args, &out)?;
    let show: usize = args.get_or("show-pairs", 10)?;
    for m in out.pairs.iter().take(show) {
        println!("{:.3}  {:?} <-> {:?}", m.similarity, m.earlier, m.later);
    }
    Ok(())
}

/// Tokenizes two files under one shared dictionary: the left file's lines
/// take the first record ids, the right file's the following ones (ids are
/// arrival order, so here "all of left arrived before right" — windowed
/// bi-stream joins from files should pre-interleave the inputs).
fn tokenize_together(
    left_path: &str,
    right_path: &str,
    args: &Args,
) -> Result<(Vec<Record>, Vec<Record>), Box<dyn Error>> {
    use ssj_text::{CorpusBuilder, Tokenizer};
    fn build<T: Tokenizer>(
        left_path: &str,
        right_path: &str,
        tokenizer: T,
    ) -> Result<(Vec<Record>, usize), Box<dyn Error>> {
        let left_text = std::fs::read_to_string(left_path)?;
        let right_text = std::fs::read_to_string(right_path)?;
        let mut builder = CorpusBuilder::new(tokenizer);
        let mut n_left = 0;
        let mut ts = 0;
        for line in left_text.lines() {
            let before = builder.len();
            builder.push_text(line, ts);
            if builder.len() > before {
                n_left += 1;
                ts += 1;
            }
        }
        for line in right_text.lines() {
            builder.push_text(line, ts);
            ts += 1;
        }
        Ok((builder.build().into_records(), n_left))
    }
    let (records, n_left) = match args.get("qgram") {
        Some(q) => {
            let q: usize = q
                .parse()
                .map_err(|_| ArgError(format!("--qgram: cannot parse '{q}'")))?;
            build(left_path, right_path, QGramTokenizer::new(q))?
        }
        None => build(left_path, right_path, WordTokenizer::default())?,
    };
    let left = records[..n_left].to_vec();
    let right = records[n_left..].to_vec();
    Ok((left, right))
}

/// Parses one comma-separated outage list: each entry is
/// `task:after:len` (`--stall`) or `task:after:len[:oneway|twoway]`
/// (`--partition`, default one-way). `after`/`len` count data-frame
/// transmissions on that task's wire, so placement is deterministic.
fn parse_outages(
    args: &Args,
    key: &str,
    partition: bool,
    k: usize,
    out: &mut Vec<ClusterOutage>,
) -> Result<(), ArgError> {
    let Some(spec) = args.get(key) else {
        return Ok(());
    };
    for entry in spec.split(',') {
        let parts: Vec<&str> = entry.split(':').collect();
        let bad = || ArgError(format!("--{key}: cannot parse '{entry}'"));
        let (fields, kind) = match (partition, parts.len()) {
            (false, 3) => (&parts[..3], OutageKind::Stall),
            (true, 3) => (&parts[..3], OutageKind::PartitionOneWay),
            (true, 4) => {
                let kind = match parts[3] {
                    "oneway" => OutageKind::PartitionOneWay,
                    "twoway" => OutageKind::PartitionTwoWay,
                    _ => return Err(bad()),
                };
                (&parts[..3], kind)
            }
            _ => return Err(bad()),
        };
        let task: usize = fields[0].parse().map_err(|_| bad())?;
        let after: u64 = fields[1].parse().map_err(|_| bad())?;
        let len: u64 = fields[2].parse().map_err(|_| bad())?;
        if task >= k {
            return Err(ArgError(format!("--{key}: task {task} is not in 0..{k}")));
        }
        if len == 0 {
            return Err(ArgError(format!("--{key}: window length must be > 0")));
        }
        out.push(ClusterOutage {
            task,
            after,
            len,
            kind,
        });
    }
    Ok(())
}

fn cluster_config(
    args: &Args,
    join: JoinConfig,
    bistream: bool,
) -> Result<ClusterConfig, ArgError> {
    let k: usize = args.get_or("k", 2)?;
    let backend = match args.get("backend").unwrap_or("tcp") {
        "inprocess" | "in-process" => ClusterBackend::InProcess,
        "tcp" => {
            let node_bin = match args.get("node-bin") {
                Some(p) => std::path::PathBuf::from(p),
                // Default: the ssj-node binary installed next to dssj.
                None => std::env::current_exe()
                    .ok()
                    .and_then(|p| p.parent().map(|d| d.join("ssj-node")))
                    .ok_or_else(|| {
                        ArgError("cannot locate ssj-node next to dssj; pass --node-bin".into())
                    })?,
            };
            if !node_bin.is_file() {
                return Err(ArgError(format!(
                    "node binary {} not found; build it with `cargo build --bin ssj-node` \
                     or pass --node-bin",
                    node_bin.display()
                )));
            }
            ClusterBackend::Tcp { node_bin }
        }
        other => return Err(ArgError(format!("--backend: unknown backend '{other}'"))),
    };
    if bistream {
        args.forbid(
            "shed-watermark",
            "cannot be combined with bistream input (shed accounting is only \
             defined for self-joins)",
        )?;
    }
    args.require_with("checkpoint-interval", "checkpoint-dir")?;
    args.require_with("kill-after", "kill-task")?;
    args.require_with("kill-task", "kill-after")?;
    let checkpoint = match args.get("checkpoint-dir") {
        Some(dir) => {
            let interval: u64 = args.get_or("checkpoint-interval", 1000)?;
            if interval == 0 {
                return Err(ArgError("--checkpoint-interval must be > 0".into()));
            }
            Some(
                CheckpointConfig::in_dir(interval, Path::new(dir))
                    .map_err(|e| ArgError(format!("--checkpoint-dir {dir}: {e}")))?,
            )
        }
        None => None,
    };
    let restore_from = match args.get("restore-from") {
        Some(dir) => Some(Arc::new(
            FileStore::open(Path::new(dir))
                .map_err(|e| ArgError(format!("--restore-from {dir}: {e}")))?,
        ) as _),
        None => None,
    };
    let fault = match (
        parse_opt::<usize>(args, "kill-task")?,
        parse_opt::<u64>(args, "kill-after")?,
    ) {
        (Some(task), Some(after_acks)) => {
            if task >= k {
                return Err(ArgError(format!("--kill-task {task} is not in 0..{k}")));
            }
            Some(ClusterFault { task, after_acks })
        }
        _ => None,
    };
    let mut cfg = ClusterConfig::recommended(k, join, backend);
    cfg.local = local_algo(args)?;
    cfg.chaos_seed = parse_opt(args, "chaos-seed")?;
    cfg.shed_watermark = parse_opt(args, "shed-watermark")?;
    if let Some(batch) = dispatch_batch(args)? {
        cfg.dispatch_batch = Some(batch);
    }
    cfg.checkpoint = checkpoint;
    cfg.restore_from = restore_from;
    cfg.fault = fault;
    cfg.logical_time = args.flag("logical-time");

    // Self-healing knobs. Any health flag — or a scripted outage — turns
    // the failure detector on; the heartbeat/suspect cadence then comes
    // from the flags or HealthConfig::recommended() defaults.
    if bistream {
        args.forbid(
            "recovery-budget",
            "cannot be combined with bistream input (fencing sheds records, \
             and shed accounting is only defined for self-joins)",
        )?;
    }
    parse_outages(args, "stall", false, k, &mut cfg.outages)?;
    parse_outages(args, "partition", true, k, &mut cfg.outages)?;
    let recovery_budget = parse_opt::<u32>(args, "recovery-budget")?;
    let health_requested = args.has("heartbeat-interval")
        || args.has("suspect-after")
        || recovery_budget.is_some()
        || !cfg.outages.is_empty();
    if health_requested {
        let mut health = HealthConfig::recommended();
        if let Some(ms) = parse_opt::<u64>(args, "heartbeat-interval")? {
            if ms == 0 {
                return Err(ArgError("--heartbeat-interval must be > 0".into()));
            }
            health.heartbeat_interval = Duration::from_millis(ms);
        }
        if let Some(ms) = parse_opt::<u64>(args, "suspect-after")? {
            if ms == 0 {
                return Err(ArgError("--suspect-after must be > 0".into()));
            }
            health.suspect_after = Duration::from_millis(ms);
        }
        health.recovery_budget = recovery_budget;
        cfg.health = Some(health);
    }
    if let Some(ms) = parse_opt::<u64>(args, "retry-max-ms")? {
        if Duration::from_millis(ms) < cfg.retry.base_timeout {
            return Err(ArgError(format!(
                "--retry-max-ms {ms} is below the {}ms base retransmission timeout",
                cfg.retry.base_timeout.as_millis()
            )));
        }
        cfg.retry.max_timeout = Duration::from_millis(ms);
    }
    Ok(cfg)
}

fn print_cluster_summary(out: &ssj_distrib::ClusterResult, backend: &ClusterBackend) {
    let backend_name = match backend {
        ClusterBackend::InProcess => "in-process",
        ClusterBackend::Tcp { .. } => "tcp",
    };
    println!("backend     : {backend_name}, {} nodes", out.joiners.len());
    println!("records     : {}", out.records);
    println!("pairs       : {}", out.pairs.len());
    println!("throughput  : {:.0} records/s", out.throughput());
    if !out.latency.is_empty() {
        println!(
            "latency     : mean {:.0} us, p99 {:.0} us",
            out.latency.mean().as_secs_f64() * 1e6,
            out.latency.quantile(0.99).as_secs_f64() * 1e6
        );
    }
    if out.retransmissions + out.dup_results_dropped > 0 {
        println!(
            "reliability : {} retransmissions, {} duplicate results dropped",
            out.retransmissions, out.dup_results_dropped
        );
    }
    if out.data_frames > 0 {
        println!(
            "batch       : {} records, {} messages in {} data frames ({:.1} messages/frame)",
            out.records,
            out.routed_messages,
            out.data_frames,
            out.routed_messages as f64 / out.data_frames as f64
        );
    }
    if out.wire_flushes > 0 {
        println!(
            "wire        : {} frames sent in {} flushes ({:.1} frames/flush)",
            out.frames_sent,
            out.wire_flushes,
            out.frames_sent as f64 / out.wire_flushes as f64
        );
    }
    if !out.shed_records.is_empty() {
        println!(
            "shed        : {} records dropped at the dispatcher under overload",
            out.shed_records.len()
        );
    }
    if out.epochs_committed > 0 {
        println!("checkpoints : {} epochs committed", out.epochs_committed);
    }
    if let Some(cut) = out.restored_cut {
        println!("restored    : resumed from checkpoint cut at record id {cut}");
    }
    for j in &out.joiners {
        if j.incarnation > 0 {
            println!(
                "recovery    : node {} restarted {} time(s), {} records replayed",
                j.task, j.incarnation, j.replayed
            );
        }
    }
    let h = &out.health;
    if h.heartbeats_sent + h.health_acks > 0 {
        println!(
            "liveness    : {} heartbeats sent, {} echoed",
            h.heartbeats_sent, h.health_acks
        );
    }
    if h.suspects > 0 {
        println!(
            "suspects    : {} ({} respawned), detection latency mean {:.1} ms, max {:.1} ms",
            h.suspects,
            h.respawns,
            h.detection_latency.mean().as_secs_f64() * 1e3,
            h.detection_latency.max().as_secs_f64() * 1e3
        );
    }
    if !h.fenced_tasks.is_empty() {
        let fenced: Vec<String> = h.fenced_tasks.iter().map(|t| t.to_string()).collect();
        println!(
            "fenced      : node(s) {} exhausted their recovery budget; their \
             records were shed with exact accounting",
            fenced.join(", ")
        );
    }
    if h.stalled_frames + h.partition_dropped_frames > 0 {
        println!(
            "outages     : {} frames stalled, {} dropped by partitions",
            h.stalled_frames, h.partition_dropped_frames
        );
    }
    if h.clean_closes + h.error_closes > 0 {
        println!(
            "wire closes : {} clean, {} with I/O errors",
            h.clean_closes, h.error_closes
        );
    }
    if let Some(digests) = &out.wire_digests {
        let rendered: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
        println!("wire digests: {}", rendered.join(" "));
    }
    print_integrity(&out.integrity);
}

/// Writes the cluster's Prometheus metrics snapshot when `--metrics-out`
/// was given — liveness gauges, suspect/respawn/fence counters and the
/// detection-latency histogram included.
fn write_cluster_metrics(args: &Args, out: &ssj_distrib::ClusterResult) -> CliResult {
    if let Some(path) = args.get("metrics-out") {
        let snap = out.metrics_snapshot();
        std::fs::write(path, obs::prometheus(&snap))?;
        println!("metrics     : {} series -> {path}", snap.samples.len());
    }
    Ok(())
}

/// `dssj cluster` — run the join on k joiner processes over localhost
/// TCP (or in-process threads behind the same protocol).
pub fn cluster(args: &Args) -> CliResult {
    verify_restore(args)?;
    let join = join_config(args)?;
    if args.has("left") || args.has("right") {
        args.forbid("input", "give either --input or --left/--right, not both")?;
        let (left, right) =
            tokenize_together(args.required("left")?, args.required("right")?, args)?;
        let cfg = cluster_config(args, join, true)?;
        let out = run_cluster_bistream(&left, &right, &cfg);
        print_cluster_summary(&out, &cfg.backend);
        write_cluster_metrics(args, &out)?;
        let show: usize = args.get_or("show-pairs", 10)?;
        for m in out.sorted_pairs().iter().take(show) {
            println!("{:.3}  {:?} <-> {:?}", m.similarity, m.earlier, m.later);
        }
        return Ok(());
    }
    let corpus = load(args.required("input")?, args)?;
    let cfg = cluster_config(args, join, false)?;
    let out = run_cluster(corpus.records(), &cfg);
    print_cluster_summary(&out, &cfg.backend);
    write_cluster_metrics(args, &out)?;
    let show: usize = args.get_or("show-pairs", 10)?;
    for m in out.sorted_pairs().iter().take(show) {
        println!(
            "{:.3}  line {} <-> line {}",
            m.similarity, m.earlier.0, m.later.0
        );
    }
    Ok(())
}

/// `dssj generate` — write a synthetic corpus as pseudo-word text.
pub fn generate(args: &Args) -> CliResult {
    let profile_name = args.required("profile")?;
    let profile = DatasetProfile::by_name(profile_name)
        .ok_or_else(|| ArgError(format!("unknown profile '{profile_name}'")))?;
    let n: usize = args.get_or("n", 10_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let out_path = args.required("out")?;
    let records = StreamGenerator::new(profile, seed).take_records(n);
    let mut file = std::io::BufWriter::new(std::fs::File::create(out_path)?);
    for r in &records {
        let mut first = true;
        for t in r.tokens() {
            if !first {
                write!(file, " ")?;
            }
            write!(file, "t{}", t.raw())?;
            first = false;
        }
        writeln!(file)?;
    }
    file.flush()?;
    println!("wrote {} records to {out_path}", records.len());
    Ok(())
}

/// `dssj partition` — show the load-aware partition plan for a corpus.
pub fn partition(args: &Args) -> CliResult {
    let corpus = load(args.required("input")?, args)?;
    let tau: f64 = args.get_or("tau", 0.8)?;
    let k: usize = args.get_or("k", 8)?;
    let hist = LengthHistogram::from_records(corpus.records());
    if hist.is_empty() {
        return Err(Box::new(ArgError("input has no records".into())));
    }
    let cost = CostModel::build(&hist, Threshold::jaccard(tau), hist.max_len());
    let plan = load_aware(&cost, k);
    println!(
        "{} records, lengths 1..={}, mean {:.1}",
        hist.total(),
        hist.max_len(),
        hist.mean()
    );
    println!("load-aware partition for k = {k}, tau = {tau}:");
    let loads = plan.loads(&cost);
    let total: f64 = loads.iter().sum();
    for (i, load) in loads.iter().enumerate() {
        let (lo, hi) = plan.range(i);
        println!(
            "  joiner {i}: lengths [{lo:>4}, {hi:>4}]  load {:>5.1}%",
            100.0 * load / total.max(1e-12)
        );
    }
    println!("imbalance (max/avg): {:.3}", imbalance(&plan, &cost));
    Ok(())
}

/// `dssj scrub DIR` — verify the CRC32C checksum of every committed
/// epoch's manifest and snapshot parts in a checkpoint directory, offline.
/// Exits nonzero if any epoch fails verification, so the command can gate
/// a restore in a script.
pub fn scrub(args: &Args) -> CliResult {
    let dir = args.required("dir")?;
    let store =
        FileStore::open(Path::new(dir)).map_err(|e| ArgError(format!("scrub {dir}: {e}")))?;
    let report = ssj_distrib::scrub(&store)?;
    if report.epochs.is_empty() {
        println!("no committed epochs in {dir}");
        return Ok(());
    }
    println!("{report}");
    if !report.is_clean() {
        return Err(Box::new(ArgError(format!(
            "{} of {} epoch(s) in {dir} failed verification",
            report.corrupt(),
            report.epochs.len()
        ))));
    }
    Ok(())
}
