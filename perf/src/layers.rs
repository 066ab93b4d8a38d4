//! The traced run: one probe per layer, each a timed call into that
//! layer's public functions on the workload's own records, plus traced and
//! untraced repetitions of the program whose result structs supply the
//! counters. Per-layer metrics come only from here; end-to-end metrics
//! never do.
//!
//! Metric names are `<crate>.<module>.<metric>`. Which end-to-end metric
//! each should move, and on which workload, is tabulated in
//! `perf/README.md`.

use std::hint::black_box;
use std::io::Cursor;
use std::time::{Duration, Instant};

use obs::Stage;
use ssj_core::join::run_stream;
use ssj_core::snapshot::{decode_window_slice, encode_window_vec, SnapshotEntry};
use ssj_core::{verify, AllPairsJoiner, BundleJoiner, JoinStats, MatchPair, SimFn, StreamJoiner};
use ssj_distrib::checkpoint::Manifest;
use ssj_distrib::wire::{Frame, NodeConfig};
use ssj_distrib::{
    calibrate_partition, node_serve, seal_payload, ClusterBackend, DistributedJoinResult,
    FileStore, JoinMsg, LengthRouter, LocalAlgo, PartitionMethod, RecordMsg, Router, SnapshotStore,
};
use ssj_partition::{imbalance, CostModel, LengthHistogram};
use ssj_text::codec::{decode_record, encode_record};
use ssj_text::Record;
use stormlite::{
    channel_wire_pair, channel_wire_pair_asym, crc32c, listen_loopback, read_frame, Bolt,
    FrameBatcher, Grouping, Message, Outbox, Scheduler, SimConfig, TcpWire, Timestamp, Topology,
    Wire, WireEvent, MAX_FRAME_BYTES,
};

use crate::host;
use crate::json::Json;
use crate::span::Spans;
use crate::spec::{MetricSet, Spec};
use crate::stats;
use crate::workloads::{
    expected_prefix, fresh_dir, naive_check, reference_pairs, run_on_cluster, run_threads, score,
    sorted_keys, Engine, Env, Score, Workload, K,
};
use crate::Outcome;

/// Records the codec, wire and transport probes work on: enough for a
/// steady per-unit cost, small enough that a traced run stays short.
const WIRE_SAMPLE: usize = 100_000;
/// Records the cluster and node probes work on.
const CLUSTER_SAMPLE: usize = 30_000;
/// Messages through the hop probes (the simulator logs every step).
const HOP_MESSAGES: u64 = 200_000;
const SIM_HOP_MESSAGES: u64 = 20_000;
/// Record pairs per class (match / same-length non-match) in the verify probe.
const VERIFY_PAIRS: usize = 20_000;
const VERIFY_PASSES: usize = 5;
/// Un-acked data frames the node probe keeps in flight, as the launcher does.
const NODE_IN_FLIGHT: u64 = 256;
const WIRE_TIMEOUT: Duration = Duration::from_secs(30);

/// One row of the layer budget: what a layer costs per unit of its work,
/// and how many units one record causes.
#[derive(Debug, Clone)]
struct BudgetRow {
    layer: &'static str,
    ns_per_unit: f64,
    units_per_record: f64,
}

fn per(secs: f64, count: usize) -> f64 {
    secs * 1e9 / count.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The messages the launcher would put on the wires for `records`, in
/// dispatch order: one per target, probe-and-index where a target both
/// stores and probes.
fn routed_messages(router: &mut LengthRouter, records: &[Record]) -> Vec<JoinMsg> {
    let mut msgs = Vec::new();
    for r in records {
        let decision = router.route(r);
        let payload = || RecordMsg::solo(r.clone(), Timestamp::ZERO);
        for &t in &decision.probe {
            if decision.index.contains(&t) {
                msgs.push(JoinMsg::ProbeAndIndex(payload()));
            } else {
                msgs.push(JoinMsg::Probe(payload()));
            }
        }
        for &t in &decision.index {
            if !decision.probe.contains(&t) {
                msgs.push(JoinMsg::Index(payload()));
            }
        }
    }
    msgs
}

/// Sends `frames` down `tx` from one thread while this thread receives
/// them from `rx`; returns the seconds until the last one arrived.
fn pump(mut tx: impl Wire, mut rx: impl Wire, frames: &[Vec<u8>]) -> f64 {
    std::thread::scope(|scope| {
        let t0 = Instant::now();
        let sender = scope.spawn(move || {
            for f in frames {
                tx.send(f).expect("probe wire accepts frames");
            }
            tx.flush().expect("probe wire flushes");
            // Returned, not dropped: the wire must outlive the last read.
            tx
        });
        let mut got = 0;
        while got < frames.len() {
            match rx.recv_timeout(WIRE_TIMEOUT).expect("probe wire delivers") {
                WireEvent::Frame(f) => {
                    black_box(&f);
                    got += 1;
                }
                other => panic!("probe wire stopped after {got} frames: {other:?}"),
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        drop(sender.join().expect("sender thread finished"));
        secs
    })
}

#[derive(Clone)]
struct Tick(u64);
impl Message for Tick {}

struct PassThrough;
impl Bolt<Tick> for PassThrough {
    fn execute(&mut self, msg: Tick, out: &mut Outbox<Tick>) {
        out.emit(Tick(msg.0));
    }
}

/// Seconds for `n` small messages to cross spout → pass-through bolt →
/// collector: two engine hops each.
fn hop_seconds(n: u64, scheduler: Scheduler) -> f64 {
    let mut t = Topology::new();
    t.spout("source", (0..n).map(Tick));
    t.bolt("pass", 1, |_| PassThrough);
    let sink = t.collector("sink");
    t.wire("source", "pass", Grouping::global());
    t.wire("pass", "sink", Grouping::global());
    let t0 = Instant::now();
    t.run_with(scheduler);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(sink.lock().len() as u64, n, "hop probe lost messages");
    secs
}

/// Record pairs for the verify probe: up to [`VERIFY_PAIRS`] true matches
/// spread evenly over the reference, and as many same-length pairs that
/// are not matches, chosen by a generator seeded with the workload seed.
fn verify_sample<'a>(
    records: &'a [Record],
    expected: &[(u64, u64)],
    seed: u64,
) -> Vec<(&'a Record, &'a Record)> {
    let mut sample = Vec::new();
    let step = (expected.len() / VERIFY_PAIRS).max(1);
    for &(a, b) in expected.iter().step_by(step).take(VERIFY_PAIRS) {
        sample.push((&records[a as usize], &records[b as usize]));
    }
    let mut by_len: Vec<&Record> = records.iter().collect();
    by_len.sort_by_key(|r| (r.len(), r.id().0));
    let mut state = seed | 1;
    for _ in 0..VERIFY_PAIRS.min(records.len()) {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let i = ((z ^ (z >> 31)) % (by_len.len() as u64 - 1).max(1)) as usize;
        let (a, b) = (by_len[i], by_len[(i + 1) % by_len.len()]);
        let key = (a.id().0.min(b.id().0), a.id().0.max(b.id().0));
        if a.len() == b.len() && expected.binary_search(&key).is_err() {
            sample.push((a, b));
        }
    }
    sample
}

/// Plays launcher to one `node_serve` over a channel wire: handshake,
/// every record as one probe-and-index data frame under a bounded
/// un-acked window, end of stream. Returns the seconds from first data
/// frame to `Done` and the result pairs the node sent.
fn node_probe(w: &Workload, records: &[Record]) -> (f64, Vec<MatchPair>) {
    let (mut wire, mut node_wire) =
        channel_wire_pair_asym(NODE_IN_FLIGHT as usize * 2 + 64, 1 << 20);
    let node = std::thread::spawn(move || node_serve(&mut node_wire, 0));
    let frame = |wire: &mut dyn Wire| match wire.recv_timeout(WIRE_TIMEOUT).expect("node wire") {
        WireEvent::Frame(b) => b,
        other => panic!("node went quiet: {other:?}"),
    };
    // The Hello travels unsealed; everything after it is sealed.
    match Frame::decode(&frame(&mut wire)).expect("hello decodes") {
        Frame::Hello { task: 0, .. } => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    let join = w.join();
    let config = Frame::Config(NodeConfig {
        task: 0,
        k: 1,
        sim: SimFn::Jaccard,
        tau: join.threshold.tau(),
        window: join.window,
        algo: LocalAlgo::bundle(),
        bistream: false,
        dedup: false,
        resume_seq: 0,
    });
    wire.send(&config.encode_sealed().expect("config encodes"))
        .expect("node accepts config");

    let mut pairs = Vec::new();
    let mut acked = 0u64;
    let mut done = false;
    let mut absorb = |bytes: Vec<u8>, acked: &mut u64, done: &mut bool| match Frame::decode_checked(
        &bytes, true,
    )
    .expect("node frame decodes")
    {
        Frame::Result { pair, .. } => pairs.push(pair),
        Frame::Ack { .. } => *acked += 1,
        Frame::Done(_) => *done = true,
        other => panic!("unexpected frame from node: {other:?}"),
    };
    let t0 = Instant::now();
    for (seq, r) in records.iter().enumerate() {
        let seq = seq as u64;
        while seq - acked >= NODE_IN_FLIGHT {
            absorb(frame(&mut wire), &mut acked, &mut done);
        }
        while let WireEvent::Frame(b) = wire.try_recv().expect("node wire") {
            absorb(b, &mut acked, &mut done);
        }
        let data = Frame::Data {
            seq,
            msg: JoinMsg::ProbeAndIndex(RecordMsg::solo(r.clone(), Timestamp::ZERO)),
        };
        wire.send(&data.encode_sealed().expect("data encodes"))
            .expect("node accepts data");
    }
    wire.send(&Frame::Eos.encode_sealed().expect("eos encodes"))
        .expect("node accepts eos");
    while !done {
        absorb(frame(&mut wire), &mut acked, &mut done);
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(wire);
    node.join()
        .expect("node thread finished")
        .expect("node served without error");
    (secs, pairs)
}

fn busy_share(result: &DistributedJoinResult, component: &str, max_task: bool) -> f64 {
    let wall = result.wall.as_secs_f64();
    let busy = result
        .report
        .tasks
        .iter()
        .filter(|(c, _, _)| c == component)
        .map(|(_, _, m)| m.busy.as_secs_f64());
    let busy = if max_task {
        busy.fold(0.0, f64::max)
    } else {
        busy.sum()
    };
    ratio(busy, wall)
}

/// The counters of one traced `run_distributed` repetition as
/// `distrib.driver.*` and `distrib.checkpoint.*` metrics. Returns the
/// sink's busy nanoseconds per result pair and the committed epochs, which
/// the budget needs too.
fn set_driver_metrics(m: &mut MetricSet, out: &DistributedJoinResult) -> (f64, u64) {
    let sink = out.report.component("sink");
    let joiner = out.report.component("joiner");
    let sink_ns_per_pair = ratio(sink.busy.as_secs_f64() * 1e9, out.pairs.len() as f64);
    m.set(
        "distrib.driver.dispatcher_busy_share",
        busy_share(out, "dispatcher", false),
    );
    m.set(
        "distrib.driver.joiner_max_busy_share",
        busy_share(out, "joiner", true),
    );
    m.set(
        "distrib.driver.sink_busy_share",
        busy_share(out, "sink", false),
    );
    m.set(
        "distrib.driver.joiner_queue_wait_mean_us",
        mean_us(joiner.queue_wait.mean()),
    );
    m.set(
        "distrib.driver.sink_queue_wait_mean_us",
        mean_us(sink.queue_wait.mean()),
    );
    m.set("distrib.driver.sink_busy_ns_per_pair", sink_ns_per_pair);
    m.set("distrib.driver.msgs_per_record", out.msgs_per_record());
    m.set("distrib.driver.bytes_per_record", out.bytes_per_record());
    m.set("distrib.driver.replication", out.replication());
    m.set("distrib.driver.load_imbalance", out.load_imbalance());
    m.set(
        "distrib.driver.modeled_records_per_s",
        out.modeled_throughput(),
    );
    m.set(
        "distrib.driver.latency_mean_us",
        mean_us(out.latency.mean()),
    );

    let epochs = out.report.checkpoints() / K as u64;
    m.set("distrib.checkpoint.epochs", epochs as f64);
    m.set(
        "distrib.checkpoint.bytes_per_epoch",
        ratio(out.report.checkpoint_bytes() as f64, epochs as f64),
    );
    m.set(
        "distrib.checkpoint.epoch_latency_mean_ms",
        mean_ms(out.report.checkpoint_latency().mean()),
    );
    m.set(
        "distrib.checkpoint.barrier_stall_mean_ms",
        mean_ms(out.report.barrier_stall().mean()),
    );
    (sink_ns_per_pair, epochs)
}

/// Runs the traced benchmark of workload `w` and reports every per-layer
/// metric; the layer table goes to `<out>/<workload>.layers.json` and the
/// spans to `<out>/<workload>.trace.jsonl`. `seconds` is spent alternating
/// untraced and traced repetitions of the program; the probes before them
/// run on fixed samples.
pub fn run(
    w: &Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Outcome, String> {
    let mut spans = Spans::new(seed);
    let mut m = MetricSet::new(&spec.per_layer);
    let mut total = Score::default();
    let mut budget: Vec<BudgetRow> = Vec::new();
    let mut program_walls: Vec<(bool, f64)> = Vec::new();
    let mut wall_ns = 0.0;
    let join = w.join();
    let threshold = join.threshold;
    let n = w.n;

    let result: Result<(), String> = spans.scope("traced-run", |s| {
        // ---- set-up, as in the untraced run --------------------------------
        let (records, expected, ppjoin_secs) = s.scope("setup", |s| {
            let records = s.scope("generate", |_| w.records(seed));
            let (pairs, secs) = s.timed("core.ppjoin.run_stream", |_| reference_pairs(w, &records));
            let expected = sorted_keys(&pairs);
            s.scope("naive-check", |_| naive_check(w, &records, &expected))?;
            Ok::<_, String>((records, expected, secs))
        })?;
        let pairs_per_record = expected.len() as f64 / n as f64;
        m.set("core.ppjoin.ns_per_record", per(ppjoin_secs, n));

        // ---- text: the record codec ----------------------------------------
        let wire_records = &records[..n.min(WIRE_SAMPLE)];
        s.scope("text.codec", |s| {
            let (buf, enc) = s.timed("encode_record", |_| {
                let mut buf = Vec::new();
                for r in wire_records {
                    encode_record(r, &mut buf).expect("writing to a Vec cannot fail");
                }
                buf
            });
            let (decoded, dec) = s.timed("decode_record", |_| {
                let mut cur = Cursor::new(&buf);
                let mut count = 0usize;
                while let Some(r) = decode_record(&mut cur).expect("own encoding decodes") {
                    black_box(&r);
                    count += 1;
                }
                count
            });
            assert_eq!(decoded, wire_records.len(), "codec lost records");
            m.set("text.codec.encode_ns_per_record", per(enc, decoded));
            m.set("text.codec.decode_ns_per_record", per(dec, decoded));
        });

        // ---- partition: calibration on the 10k sample ----------------------
        let sample = &records[..n.min(10_000)];
        let (partition, cal) = s.timed("partition.calibrate", |_| {
            calibrate_partition(sample, threshold, K, PartitionMethod::LoadAware)
        });
        let hist = LengthHistogram::from_records(sample);
        let cost = CostModel::build(&hist, threshold, hist.max_len());
        m.set("partition.calibrate_ms", cal * 1e3);
        m.set(
            "partition.predicted_imbalance",
            imbalance(&partition, &cost),
        );

        // ---- distrib: routing every record ---------------------------------
        let mut router = LengthRouter::new(threshold, partition.clone());
        let (routed, route_secs) = s.timed("distrib.route", |_| {
            records
                .iter()
                .map(|r| black_box(router.route(r)).message_count())
                .sum::<usize>()
        });
        let msgs_per_record = routed as f64 / n as f64;
        m.set("distrib.route.ns_per_record", per(route_secs, n));
        m.set("distrib.route.msgs_per_record", msgs_per_record);

        // ---- distrib/stormlite: frames, checksum, transport ----------------
        let data_frames: Vec<Frame> = routed_messages(&mut router, wire_records)
            .into_iter()
            .enumerate()
            .map(|(seq, msg)| Frame::Data {
                seq: seq as u64,
                msg,
            })
            .collect();
        let n_frames = data_frames.len();
        let (sealed, wire_encode_ns, wire_decode_ns) = s.scope("distrib.wire", |s| {
            let (sealed, enc) = s.timed("encode_sealed", |_| {
                data_frames
                    .iter()
                    .map(|f| f.encode_sealed().expect("data frames encode"))
                    .collect::<Vec<Vec<u8>>>()
            });
            let ((), dec) = s.timed("decode_checked", |_| {
                for bytes in &sealed {
                    black_box(Frame::decode_checked(bytes, true).expect("own frames decode"));
                }
            });
            (sealed, per(enc, n_frames), per(dec, n_frames))
        });
        drop(data_frames);
        let sealed_bytes: usize = sealed.iter().map(Vec::len).sum();
        m.set("distrib.wire.encode_ns_per_msg", wire_encode_ns);
        m.set("distrib.wire.decode_ns_per_msg", wire_decode_ns);
        m.set(
            "distrib.wire.bytes_per_msg",
            sealed_bytes as f64 / n_frames.max(1) as f64,
        );

        let ((), crc) = s.timed("stormlite.crc32c", |_| {
            let mut acc = 0u32;
            for bytes in &sealed {
                acc ^= crc32c(black_box(bytes));
            }
            black_box(acc);
        });
        m.set("stormlite.crc32c.ns_per_frame", per(crc, n_frames));
        m.set(
            "stormlite.crc32c.gib_per_s",
            ratio(sealed_bytes as f64 / (1u64 << 30) as f64, crc),
        );

        let tcp_wire_ns = s.scope("stormlite.transport", |s| {
            let ((), framing) = s.timed("frame", |_| {
                let mut stream = Vec::with_capacity(sealed_bytes + 4 * n_frames);
                let mut batcher = FrameBatcher::new(&mut stream);
                for bytes in &sealed {
                    batcher.push(bytes).expect("writing to a Vec cannot fail");
                }
                batcher.flush().expect("writing to a Vec cannot fail");
                drop(batcher);
                let mut cur = Cursor::new(&stream);
                let mut back = 0usize;
                while let Some(f) =
                    read_frame(&mut cur, MAX_FRAME_BYTES).expect("own framing reads")
                {
                    black_box(&f);
                    back += 1;
                }
                assert_eq!(back, n_frames, "framing lost frames");
            });
            m.set(
                "stormlite.transport.frame_ns_per_msg",
                per(framing, n_frames),
            );

            let (channel, _) = s.timed("channel_wire", |_| {
                let (a, b) = channel_wire_pair(1024);
                pump(a, b, &sealed)
            });
            m.set(
                "stormlite.transport.channel_wire_ns_per_frame",
                per(channel, n_frames),
            );

            let (tcp, _) = s.timed("tcp_wire", |_| {
                let listener = listen_loopback().expect("loopback listener binds");
                let addr = listener.local_addr().expect("listener has an address");
                let client = std::net::TcpStream::connect(addr).expect("loopback connects");
                let (server, _) = listener.accept().expect("loopback accepts");
                let tx = TcpWire::new(client, 4096).expect("socket wraps");
                let rx = TcpWire::new(server, 4096).expect("socket wraps");
                pump(tx, rx, &sealed)
            });
            m.set(
                "stormlite.transport.tcp_wire_ns_per_frame",
                per(tcp, n_frames),
            );
            m.set(
                "stormlite.transport.tcp_wire_mib_per_s",
                ratio(sealed_bytes as f64 / (1u64 << 20) as f64, tcp),
            );
            per(tcp, n_frames)
        });
        drop(sealed);

        // ---- stormlite: one engine hop, threads and simulator --------------
        let (hop, _) = s.timed("stormlite.topology.hop", |_| {
            hop_seconds(HOP_MESSAGES, Scheduler::Threads)
        });
        let hop_ns = hop * 1e9 / (2 * HOP_MESSAGES) as f64;
        m.set("stormlite.topology.hop_ns_per_msg", hop_ns);
        let (sim_hop, _) = s.timed("stormlite.sim.hop", |_| {
            hop_seconds(SIM_HOP_MESSAGES, Scheduler::Sim(SimConfig::seeded(seed)))
        });
        m.set(
            "stormlite.sim.hop_ns_per_msg",
            sim_hop * 1e9 / (2 * SIM_HOP_MESSAGES) as f64,
        );

        // ---- core: the three local joins, single-threaded ------------------
        let (allpairs, secs) = s.timed("core.allpairs.run_stream", |_| {
            run_stream(&mut AllPairsJoiner::new(join), &records)
        });
        total.add(score(&expected, &allpairs));
        drop(allpairs);
        m.set("core.allpairs.ns_per_record", per(secs, n));

        let mut bundle = BundleJoiner::with_defaults(join);
        let (bundle_pairs, bundle_secs) = s.timed("core.bundle.run_stream", |_| {
            run_stream(&mut bundle, &records)
        });
        total.add(score(&expected, &bundle_pairs));
        drop(bundle_pairs);
        let bundle_ns = per(bundle_secs, n);
        let local_rate = n as f64 / bundle_secs;
        let st: JoinStats = bundle.stats().clone();
        m.set("core.bundle.ns_per_record", bundle_ns);
        m.set(
            "core.bundle.candidates_per_probe",
            st.candidates_per_probe(),
        );
        m.set(
            "core.bundle.verifications_per_record",
            st.verifications as f64 / n as f64,
        );
        // Every result pair is the outcome of one member-level check; the
        // rest of those checks were wasted work.
        m.set(
            "core.bundle.verify_useful_ratio",
            ratio(st.results as f64, st.delta_verifications as f64),
        );
        m.set("core.bundle.absorb_ratio", st.absorb_ratio());
        m.set(
            "core.bundle.postings_per_record",
            st.postings_created as f64 / n as f64,
        );
        m.set(
            "core.bundle.evicted_per_record",
            st.evicted as f64 / n as f64,
        );

        // ---- core: the overlap kernel on matches and near misses ------------
        let pairs = verify_sample(&records, &expected, seed);
        let ((), secs) = s.timed("core.verify.overlap_with_min", |_| {
            let mut hits = 0usize;
            for _ in 0..VERIFY_PASSES {
                for (a, b) in &pairs {
                    let need = threshold.min_overlap(a.len(), b.len());
                    hits +=
                        verify::overlap_with_min(a.tokens(), b.tokens(), need).is_some() as usize;
                }
            }
            black_box(hits);
        });
        m.set(
            "core.verify.ns_per_call",
            per(secs, pairs.len() * VERIFY_PASSES),
        );
        drop(pairs);

        // ---- core/distrib: snapshot of the end-of-stream window ------------
        let (snapshot, encode) = s.timed("core.snapshot.encode", |_| {
            let entries: Vec<SnapshotEntry> = bundle
                .window_snapshot()
                .into_iter()
                .map(|r| (None, r))
                .collect();
            encode_window_vec(&entries).expect("a joiner's window is in id order")
        });
        let (restored, restore) = s.timed("core.snapshot.restore", |_| {
            let window: Vec<Record> = decode_window_slice(&snapshot)
                .expect("own snapshot decodes")
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let mut fresh = BundleJoiner::with_defaults(join);
            fresh.restore(&window);
            fresh.stored()
        });
        assert_eq!(restored, bundle.stored(), "restore changed the window");
        drop(bundle);
        m.set("core.snapshot.encode_ms", encode * 1e3);
        m.set("core.snapshot.bytes", snapshot.len() as f64);
        m.set("core.snapshot.restore_ms", restore * 1e3);

        let ((), commit) = s.timed("distrib.checkpoint.store_commit", |_| {
            let dir = fresh_dir(&env.tmp);
            let store = FileStore::open(&dir).expect("checkpoint directory is creatable");
            let manifest = Manifest {
                epoch: 1,
                cut_id: records.last().map_or(0, |r| r.id().0),
                k: 1,
                bistream: false,
                partition: Some(partition.clone()),
            };
            store
                .put(1, "probe", &seal_payload(&snapshot))
                .expect("snapshot part is writable");
            store
                .commit(1, &seal_payload(&manifest.encode()))
                .expect("manifest commits");
            std::fs::remove_dir_all(&dir).expect("checkpoint directory is removable");
        });
        let commit_ms = commit * 1e3;
        m.set("distrib.checkpoint.store_commit_ms", commit_ms);
        drop(snapshot);

        // ---- distrib: one node behind a channel wire ------------------------
        let cluster_records = &records[..n.min(CLUSTER_SAMPLE)];
        let cluster_expected = expected_prefix(&expected, cluster_records);
        let ((node_secs, node_pairs), _) =
            s.timed("distrib.node", |_| node_probe(w, cluster_records));
        total.add(score(&cluster_expected, &node_pairs));
        let node_ns = per(node_secs, cluster_records.len());
        m.set("distrib.node.ns_per_msg", node_ns);

        // ---- distrib: the cluster stack, in process and over TCP ------------
        let tcp_rate = s.scope("distrib.cluster", |s| {
            let (wall, out) = s.scope("in-process", |_| {
                run_on_cluster(w, cluster_records, ClusterBackend::InProcess)
            });
            total.add(score(&cluster_expected, &out.pairs));
            m.set(
                "distrib.cluster.inprocess_records_per_s",
                cluster_records.len() as f64 / wall.as_secs_f64(),
            );
            let (spawn, _) = s.scope("tcp-spawn", |_| run_on_cluster(w, &records[..1], env.tcp()));
            m.set("distrib.cluster.spawn_ms", mean_ms(spawn));
            let (wall, out) = s.scope("tcp", |_| run_on_cluster(w, cluster_records, env.tcp()));
            total.add(score(&cluster_expected, &out.pairs));
            m.set(
                "distrib.cluster.retransmissions",
                out.retransmissions as f64,
            );
            m.set(
                "distrib.cluster.dup_results_dropped",
                out.dup_results_dropped as f64,
            );
            for (name, stage) in [
                ("distrib.cluster.stage_dispatch_mean_us", Stage::Dispatch),
                ("distrib.cluster.stage_route_mean_us", Stage::Route),
                ("distrib.cluster.stage_deliver_mean_us", Stage::Deliver),
                ("distrib.cluster.stage_emit_mean_us", Stage::Emit),
            ] {
                m.set(name, mean_us(out.stages.get(stage).mean()));
            }
            cluster_records.len() as f64 / wall.as_secs_f64()
        });

        // ---- the program itself, untraced and traced, alternating -----------
        let mut last_traced = None;
        s.scope("program", |s| {
            let t0 = Instant::now();
            let mut rounds = 0;
            while rounds < 2 || t0.elapsed().as_secs_f64() < seconds {
                for traced in [false, true] {
                    let name = if traced {
                        "run_distributed traced"
                    } else {
                        "run_distributed"
                    };
                    let (wall, out) = s.scope(name, |_| run_threads(w, &records, env, traced));
                    total.add(score(&expected, &out.pairs));
                    program_walls.push((traced, wall.as_secs_f64()));
                    if traced {
                        last_traced = Some(out);
                    }
                }
                rounds += 1;
            }
        });
        let out = last_traced.expect("at least two rounds ran");
        let rate = |want: bool| {
            let rates: Vec<f64> = program_walls
                .iter()
                .filter(|(traced, _)| *traced == want)
                .map(|(_, wall)| n as f64 / wall)
                .collect();
            stats::median(&rates)
        };
        let (untraced_rate, traced_rate) = (rate(false), rate(true));
        m.set(
            "obs.trace_overhead_share",
            1.0 - traced_rate / untraced_rate,
        );
        m.set(
            "obs.trace_spans",
            out.trace.as_ref().map_or(0, |t| t.len()) as f64,
        );

        // The single-threaded bundle join of the same records is the
        // baseline: what the engine adds or loses on top of it.
        m.set(
            "distrib.driver.engine_efficiency",
            untraced_rate / local_rate,
        );
        let (sink_ns_per_pair, epochs) = set_driver_metrics(&mut m, &out);

        // ---- the budget: layer cost × units per record vs. the wall ---------
        let row = |layer, ns_per_unit, units_per_record| BudgetRow {
            layer,
            ns_per_unit,
            units_per_record,
        };
        budget.push(row("distrib.route", per(route_secs, n), 1.0));
        wall_ns = match w.engine {
            Engine::Threads => {
                let engine_msgs: u64 = out.report.tasks.iter().map(|(_, _, t)| t.msgs_in).sum();
                budget.push(row(
                    "stormlite.topology hop",
                    hop_ns,
                    engine_msgs as f64 / n as f64,
                ));
                budget.push(row("core.bundle join", bundle_ns, 1.0));
                budget.push(row("distrib sink", sink_ns_per_pair, pairs_per_record));
                if w.checkpoint {
                    budget.push(row(
                        "checkpoint snapshot+commit",
                        (encode * 1e3 + commit_ms) * 1e6,
                        epochs as f64 / n as f64,
                    ));
                }
                1e9 / untraced_rate
            }
            Engine::Tcp => {
                budget.push(row("distrib.wire encode", wire_encode_ns, msgs_per_record));
                // Data out, its ack back, and every result back.
                budget.push(row(
                    "stormlite tcp wire",
                    tcp_wire_ns,
                    2.0 * msgs_per_record + pairs_per_record,
                ));
                budget.push(row(
                    "distrib.wire decode (launcher)",
                    wire_decode_ns,
                    msgs_per_record + pairs_per_record,
                ));
                budget.push(row("distrib.node (decode+join+reply)", node_ns, 1.0));
                1e9 / tcp_rate
            }
        };
        let accounted: f64 = budget
            .iter()
            .map(|r| r.ns_per_unit * r.units_per_record)
            .sum();
        m.set("budget.accounted_ns_per_record", accounted);
        // Below zero when layers overlap on the two cores; above, the rest
        // is queueing, scheduling and contention.
        m.set("budget.unexplained_share", 1.0 - accounted / wall_ns);
        budget.push(row("end to end (wall)", wall_ns, 1.0));
        Ok(())
    });
    result?;

    let host = host::fingerprint(seed, n, program_walls.len());
    let file = Json::obj([
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(true)),
        ("host", host.clone()),
        ("run_seconds", Json::Num(seconds)),
        (
            "program_wall_s_each",
            Json::Arr(
                program_walls
                    .iter()
                    .map(|(traced, wall)| {
                        Json::obj([
                            ("traced", Json::Bool(*traced)),
                            ("wall_s", Json::Num(*wall)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "budget",
            Json::Arr(
                budget
                    .iter()
                    .map(|r| {
                        let ns = r.ns_per_unit * r.units_per_record;
                        Json::obj([
                            ("layer", Json::str(r.layer)),
                            ("ns_per_unit", Json::Num(r.ns_per_unit)),
                            ("units_per_record", Json::Num(r.units_per_record)),
                            ("ns_per_record", Json::Num(ns)),
                            ("share_of_wall", Json::Num(ns / wall_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("benchmark_spans", Json::Num(spans.len() as f64)),
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("metrics", Outcome::metrics_json(&m)),
    ]);
    let files = vec![
        (format!("{}.layers.json", w.name), file.to_line() + "\n"),
        (format!("{}.trace.jsonl", w.name), spans.to_jsonl(host)),
    ];
    Ok(Outcome::new(&m, total, files))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn every_probe_runs_on_every_workload_at_small_scale() {
        let env = crate::test_env();
        if !env.node_bin.exists() {
            eprintln!("skipping: no ssj-node at {}", env.node_bin.display());
            return;
        }
        std::fs::create_dir_all(&env.tmp).unwrap();
        let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let spec = Spec::load(&manifest.join("../BENCHMARK.json")).unwrap();
        for w in WORKLOADS {
            // The checkpointing workload needs one barrier interval to pass.
            let w = w.with_n(if w.checkpoint { 12_000 } else { 2_000 });
            let out = run(&w, &spec, 11, 0.01, &env).unwrap();
            assert_eq!(
                out.score.failed, 0,
                "{}: a probe produced wrong pairs",
                w.name
            );
            assert_eq!(out.metrics.len(), spec.per_layer.len(), "{}", w.name);
            let get = |name: &str| out.metrics.iter().find(|(n, _, _)| n == name).unwrap().1;
            assert!(get("distrib.route.msgs_per_record") >= 1.0, "{}", w.name);
            assert!(get("core.snapshot.bytes") > 0.0, "{}", w.name);
            assert_eq!(
                get("distrib.checkpoint.epochs") > 0.0,
                w.checkpoint,
                "{}",
                w.name
            );
            assert!(out.files[1].1.lines().count() > 20, "{}", w.name);
        }
    }

    #[test]
    fn routed_messages_cover_every_target_once() {
        let w = WORKLOADS[0].with_n(500);
        let records = w.records(3);
        let partition =
            calibrate_partition(&records, w.join().threshold, K, PartitionMethod::LoadAware);
        let mut router = LengthRouter::new(w.join().threshold, partition);
        let expected: usize = records
            .iter()
            .map(|r| router.route(r).message_count())
            .sum();
        assert_eq!(routed_messages(&mut router, &records).len(), expected);
    }
}
