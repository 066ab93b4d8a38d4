//! The `dssj` subcommands.

use crate::args::{ArgError, Args};
use ssj_core::{JoinConfig, MatchPair, Threshold, Window};
use ssj_distrib::{
    run_bistream_distributed, run_cluster, run_cluster_bistream, run_distributed, CheckpointConfig,
    ClusterBackend, ClusterConfig, DistributedJoinConfig, Fault, FaultKind, FileStore,
    HealthConfig, JoinSpec, LocalAlgo, Scheduler, SimConfig, TraceConfig, BATCH_MAX_FRAMES,
};
use ssj_partition::{imbalance, load_aware, CostModel, LengthHistogram};
use ssj_text::{load_lines, Corpus, QGramTokenizer, Record, WordTokenizer};
use ssj_workloads::{DatasetProfile, StreamGenerator};
use std::error::Error;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

type CliResult = Result<(), Box<dyn Error>>;

/// In this module `println!` returns a failed write (`| head`) through `?`.
macro_rules! println {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)?
    };
}

/// Prints usage and returns the conventional exit code.
pub fn usage() -> ExitCode {
    eprintln!(
        "usage:
  dssj join      --input FILE [JOIN] [--verbose] [--shed-watermark W] [TOPOLOGY]
  dssj bistream  --left FILE --right FILE [JOIN] [--verbose] [TOPOLOGY]
  dssj cluster   --input FILE [JOIN] [--shed-watermark W] [CLUSTER]
  dssj cluster   --left FILE --right FILE [JOIN] [CLUSTER]
  dssj generate  --profile aol|dblp|enron|tweet --n N --out FILE [--seed S=1]
  dssj partition --input FILE [--qgram Q] [--tau T=0.8] [--k K=8]
  dssj scrub     DIR   (verify the checksums of every committed epoch)

  JOIN:     [--qgram Q] [--tau T=0.8] [--window N] [--algo bundle|ppjoin|allpairs|naive]
            [--k K=4, cluster K=2] [--show-pairs N=10]
            [--dispatch-batch B, cluster B=32]   (B messages per joiner wire
                  and one result batch back)
            [--checkpoint-dir DIR [--checkpoint-interval N=1000]]
            [--restore-from DIR [--verify-restore]]
            [--fault KIND:TASK:AFTER[:LEN][,..]]   (strikes TASK after its
                  message AFTER: crash; on cluster also, for LEN messages,
                  stall|partition|partition2|corrupt|corrupt-in)
  TOPOLOGY: [--source-rate R] [--sim SEED] [--trace-out FILE] [--chrome-out FILE]
            [--metrics-out FILE]
  CLUSTER:  [--backend tcp|inprocess] [--node-bin PATH] [--logical-time]
            [--heartbeat-interval MS=25] [--suspect-after MS=250]
            [--recovery-budget N] [--metrics-out FILE]
  Every command refuses an option it does not read."
    );
    ExitCode::from(2)
}

/// `--qgram Q`: tokenize into character q-grams instead of words.
fn qgram(args: &Args) -> Result<Option<usize>, ArgError> {
    parse_opt(args, "qgram")
}

fn load(path: &str, qgram: Option<usize>) -> Result<Corpus, Box<dyn Error>> {
    let corpus = match qgram {
        Some(q) => load_lines(Path::new(path), QGramTokenizer::new(q), 1)?,
        None => load_lines(Path::new(path), WordTokenizer::default(), 1)?,
    };
    Ok(corpus)
}

fn join_config(args: &Args) -> Result<JoinConfig, ArgError> {
    let tau: f64 = args.get_or("tau", 0.8)?;
    if !(0.0..=1.0).contains(&tau) || tau == 0.0 {
        return Err(ArgError(format!("--tau must be in (0, 1], got {tau}")));
    }
    let window = match parse_opt(args, "window")? {
        None => Window::Unbounded,
        Some(n) => Window::Count(n),
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

/// The options `dssj join`, `bistream` and `cluster` share, parsed once into
/// the [`JoinSpec`] every engine runs. The commands differ only in the
/// defaults they pass (`k`, and the cluster's batched data path) and in
/// refusing shedding on two streams.
fn join_spec(
    args: &Args,
    k: usize,
    dispatch_batch: Option<usize>,
    bistream: bool,
) -> Result<JoinSpec, ArgError> {
    if bistream {
        args.forbid(
            "shed-watermark",
            "cannot be combined with bistream input (shed accounting is only \
             defined for self-joins)",
        )?;
    }
    args.require_with("checkpoint-interval", "checkpoint-dir")?;
    args.require_with("verify-restore", "restore-from")?;
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
    let batch = parse_opt(args, "dispatch-batch")?;
    if batch == Some(0) {
        return Err(ArgError("--dispatch-batch must be > 0".into()));
    }
    let k = args.get_or("k", k)?;
    Ok(JoinSpec {
        local: local_algo(args)?,
        // Degraded mode: shed whole records above this backlog.
        shed_watermark: parse_opt(args, "shed-watermark")?,
        checkpoint,
        restore_from,
        dispatch_batch: batch.or(dispatch_batch),
        faults: faults(args, k)?,
        ..JoinSpec::recommended(k, join_config(args)?)
    })
}

/// `--fault KIND:TASK:AFTER[:LEN][,..]`: each entry strikes joiner TASK
/// after its message AFTER (see `ssj_distrib::fault`) — a `crash`, or a
/// window of LEN messages: `stall`, `partition`, `partition2` (both ways),
/// `corrupt` or `corrupt-in` (the node's answers).
fn faults(args: &Args, k: usize) -> Result<Vec<Fault>, ArgError> {
    let Some(list) = args.get("fault") else {
        return Ok(Vec::new());
    };
    let windows = ["stall", "partition", "partition2", "corrupt", "corrupt-in"];
    list.split(',')
        .map(|entry| {
            let bad = |why: &str| ArgError(format!("--fault {entry}: {why}"));
            let parts: Vec<&str> = entry.split(':').collect();
            let number = |at: usize| parts[at].parse::<u64>().map_err(|_| bad("not a number"));
            if !(3..=4).contains(&parts.len()) {
                return Err(bad("expected KIND:TASK:AFTER[:LEN]"));
            }
            let (name, task, after) = (parts[0], number(1)? as usize, number(2)?);
            if task >= k {
                return Err(bad(&format!("task {task} is not in 0..{k}")));
            }
            let kind = match (name, parts.get(3).map(|_| number(3)).transpose()?) {
                ("crash", None) => FaultKind::Crash,
                ("crash", Some(_)) => return Err(bad("a crash takes no length")),
                (_, None | Some(0)) if windows.contains(&name) => {
                    return Err(bad("a window needs a length > 0"))
                }
                ("stall", Some(len)) => FaultKind::Stall { len },
                ("partition" | "partition2", Some(len)) => {
                    let two_way = name == "partition2";
                    FaultKind::Partition { len, two_way }
                }
                ("corrupt" | "corrupt-in", Some(len)) => {
                    let inbound = name == "corrupt-in";
                    FaultKind::Corrupt { len, inbound }
                }
                _ => return Err(bad(&format!("kind is one of crash|{}", windows.join("|")))),
            };
            Ok(Fault { task, after, kind })
        })
        .collect()
}

/// The observability exports of a topology run: a JSONL span trace
/// (`--trace-out`), a chrome://tracing timeline (`--chrome-out`) and a
/// Prometheus text-format metrics snapshot (`--metrics-out`).
struct Exports<'a> {
    trace: Option<&'a str>,
    chrome: Option<&'a str>,
    metrics: Option<&'a str>,
}

impl<'a> Exports<'a> {
    fn parse(args: &'a Args) -> Self {
        Self {
            trace: args.get("trace-out"),
            chrome: args.get("chrome-out"),
            metrics: args.get("metrics-out"),
        }
    }

    fn write(&self, out: &ssj_distrib::DistributedJoinResult) -> CliResult {
        if let Some(path) = self.trace {
            let trace = out.trace.as_ref().expect("tracing enabled by --trace-out");
            std::fs::write(path, obs::trace_jsonl(trace))?;
            println!("trace       : {} spans -> {path}", trace.len());
        }
        if let Some(path) = self.chrome {
            let trace = out.trace.as_ref().expect("tracing enabled by --chrome-out");
            std::fs::write(path, obs::trace_chrome(trace))?;
            println!("chrome trace: {} spans -> {path}", trace.len());
        }
        write_metrics(self.metrics, &out.report.metrics_snapshot())
    }
}

fn write_metrics(path: Option<&str>, snap: &obs::MetricsSnapshot) -> CliResult {
    if let Some(path) = path {
        std::fs::write(path, obs::prometheus(snap))?;
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
    if !args.has("verify-restore") {
        return Ok(());
    }
    let dir = args.required("restore-from")?;
    let store = FileStore::open(Path::new(dir))
        .map_err(|e| ArgError(format!("--restore-from {dir}: {e}")))?;
    let report = ssj_distrib::scrub(&store)?;
    println!("{report}");
    if !report.epochs.is_empty() && report.verified() == 0 {
        return Err(format!(
            "--verify-restore: every epoch in {dir} is corrupt; nothing to restore from"
        )
        .into());
    }
    Ok(())
}

/// What a join command joins: one file with itself, or two files against
/// each other under one shared dictionary.
enum Inputs<'a> {
    One(&'a str),
    Two(&'a str, &'a str),
}

/// Prints the `show` most similar pairs, ties by key: of a self-join by
/// line number, of a bi-stream join by record id. The order does not
/// depend on the order the run collected them in.
fn print_pairs(pairs: &[MatchPair], bistream: bool, show: usize) -> CliResult {
    let mut pairs = pairs.to_vec();
    pairs.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then(a.key().cmp(&b.key()))
    });
    for m in pairs.iter().take(show) {
        if bistream {
            println!("{:.3}  {:?} <-> {:?}", m.similarity, m.earlier, m.later);
        } else {
            println!(
                "{:.3}  line {} <-> line {}",
                m.similarity, m.earlier.0, m.later.0
            );
        }
    }
    Ok(())
}

/// One summary line for corruption the run detected and survived —
/// printed only when something actually rotted, mirroring the shed line.
fn print_integrity(integrity: &ssj_distrib::IntegrityReport) -> CliResult {
    if !integrity.is_clean() {
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
    Ok(())
}

fn print_summary(out: &ssj_distrib::DistributedJoinResult, verbose: bool) -> CliResult {
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
    print_integrity(&out.report.integrity)?;
    if verbose {
        for j in &out.joiners {
            let s = &j.stats;
            println!(
                "joiner {}: indexed {} probed {} posting_hits {} candidates {} \
                 length_filtered {} verifications {} results {}",
                j.task,
                s.indexed,
                s.probed,
                s.posting_hits,
                s.candidates,
                s.length_filtered,
                s.verifications,
                s.results
            );
        }
    }
    Ok(())
}

/// `dssj join` (one `--input` file joined with itself) and `dssj bistream`
/// (`--left` joined against `--right`): the join on the stormlite
/// topology, on threads or under `--sim`.
pub fn join(args: &Args, bistream: bool) -> CliResult {
    let inputs = if bistream {
        Inputs::Two(args.required("left")?, args.required("right")?)
    } else {
        Inputs::One(args.required("input")?)
    };
    let qgram = qgram(args)?;
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
    let exports = Exports::parse(args);
    let cfg = DistributedJoinConfig {
        source_rate: parse_opt(args, "source-rate")?,
        scheduler,
        // Tracing is observation-only: under --sim the same seed renders a
        // byte-identical trace, and leaving both flags off keeps the hot
        // path instrumentation-free.
        trace: (exports.trace.is_some() || exports.chrome.is_some()).then(TraceConfig::default),
        ..DistributedJoinConfig::new(join_spec(args, 4, None, bistream)?)
    };
    ssj_distrib::fault::topology_plan(&cfg.spec.faults)
        .map_err(|why| ArgError(format!("--fault: {why}")))?;
    let verbose = args.flag("verbose");
    let show: usize = args.get_or("show-pairs", 10)?;
    args.reject_unread(if bistream { "bistream" } else { "join" })?;

    verify_restore(args)?;
    let out = match inputs {
        Inputs::One(path) => run_distributed(load(path, qgram)?.records(), &cfg),
        Inputs::Two(left, right) => {
            let (left, right) = tokenize_together(left, right, qgram)?;
            run_bistream_distributed(&left, &right, &cfg)
        }
    };
    print_summary(&out, verbose)?;
    exports.write(&out)?;
    print_pairs(&out.pairs, bistream, show)?;
    Ok(())
}

/// Tokenizes two files under one shared dictionary: the left file's lines
/// take the first record ids, the right file's the following ones (ids are
/// arrival order, so here "all of left arrived before right" — windowed
/// bi-stream joins from files should pre-interleave the inputs).
fn tokenize_together(
    left_path: &str,
    right_path: &str,
    qgram: Option<usize>,
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
    let (records, n_left) = match qgram {
        Some(q) => build(left_path, right_path, QGramTokenizer::new(q))?,
        None => build(left_path, right_path, WordTokenizer::default())?,
    };
    let left = records[..n_left].to_vec();
    let right = records[n_left..].to_vec();
    Ok((left, right))
}

fn cluster_config(args: &Args, bistream: bool) -> Result<ClusterConfig, ArgError> {
    let spec = join_spec(args, 2, Some(BATCH_MAX_FRAMES), bistream)?;
    let node_bin = args.get("node-bin");
    let backend = match args.get("backend").unwrap_or("tcp") {
        "inprocess" | "in-process" => ClusterBackend::InProcess,
        "tcp" => {
            let node_bin = match node_bin {
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
    let mut cfg = ClusterConfig::new(spec, backend);
    cfg.logical_time = args.flag("logical-time");

    // Self-healing knobs. Any health flag — or an outage window — turns
    // the failure detector on; the heartbeat/suspect cadence then comes
    // from the flags or HealthConfig::recommended() defaults.
    let recovery_budget = parse_opt::<u32>(args, "recovery-budget")?;
    let health_requested = args.has("heartbeat-interval")
        || args.has("suspect-after")
        || recovery_budget.is_some()
        || cfg.spec.faults.iter().any(|f| f.kind.needs_wire());
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
    Ok(cfg)
}

fn print_cluster_summary(out: &ssj_distrib::ClusterResult, backend: &ClusterBackend) -> CliResult {
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
            "reliability : {} frames resent to respawned nodes, {} result pairs discarded unacked",
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
    print_integrity(&out.integrity)
}

/// `dssj cluster` — run the join on k joiner processes over localhost
/// TCP (or in-process threads behind the same protocol).
pub fn cluster(args: &Args) -> CliResult {
    let bistream = args.has("left") || args.has("right");
    let inputs = if bistream {
        args.forbid("input", "give either --input or --left/--right, not both")?;
        Inputs::Two(args.required("left")?, args.required("right")?)
    } else {
        Inputs::One(args.required("input")?)
    };
    let qgram = qgram(args)?;
    let cfg = cluster_config(args, bistream)?;
    // The cluster's metrics snapshot includes liveness gauges,
    // suspect/respawn counters and the detection-latency histogram.
    let metrics = args.get("metrics-out");
    let show: usize = args.get_or("show-pairs", 10)?;
    args.reject_unread("cluster")?;

    verify_restore(args)?;
    let out = match inputs {
        Inputs::One(path) => run_cluster(load(path, qgram)?.records(), &cfg),
        Inputs::Two(left, right) => {
            let (left, right) = tokenize_together(left, right, qgram)?;
            run_cluster_bistream(&left, &right, &cfg)
        }
    };
    print_cluster_summary(&out, &cfg.backend)?;
    write_metrics(metrics, &out.metrics_snapshot())?;
    print_pairs(&out.sorted_pairs(), bistream, show)?;
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
    args.reject_unread("generate")?;
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
    let input = args.required("input")?;
    let qgram = qgram(args)?;
    let tau: f64 = args.get_or("tau", 0.8)?;
    let k: usize = args.get_or("k", 8)?;
    args.reject_unread("partition")?;
    let corpus = load(input, qgram)?;
    let hist = LengthHistogram::from_records(corpus.records());
    if hist.is_empty() {
        return Err("input has no records".into());
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
    args.reject_unread("scrub")?;
    let store =
        FileStore::open(Path::new(dir)).map_err(|e| ArgError(format!("scrub {dir}: {e}")))?;
    let report = ssj_distrib::scrub(&store)?;
    if report.epochs.is_empty() {
        println!("no committed epochs in {dir}");
        return Ok(());
    }
    println!("{report}");
    if !report.is_clean() {
        return Err(format!(
            "{} of {} epoch(s) in {dir} failed verification",
            report.corrupt(),
            report.epochs.len()
        )
        .into());
    }
    Ok(())
}
