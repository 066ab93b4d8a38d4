//! One function per table/figure of the evaluation.
//!
//! Each experiment is self-contained: it builds its workload, runs the
//! system(s), prints an aligned table and writes `results/<id>.csv`.
//! EXPERIMENTS.md documents the expected shape of every output.

use crate::table::{fnum, Table};
use crate::workload::{headline_profiles, records, SEED};
use crate::Scale;
use ssj_core::{
    join::run_stream, AllPairsJoiner, BundleJoiner, JoinConfig, NaiveJoiner, PpJoinJoiner,
    StreamJoiner, Threshold, Window,
};
use ssj_distrib::{
    run_distributed, DistributedJoinConfig, LocalAlgo, PartitionMethod, Scheduler, Strategy,
};
use ssj_partition::{
    equal_depth, equal_width, imbalance, load_aware, load_aware_greedy, CostModel, LengthHistogram,
};
use ssj_text::{FxHashSet, TokenId};
use ssj_workloads::DatasetProfile;
use std::path::Path;
use std::time::Instant;
use stormlite::FaultPlan;

fn thresholds(scale: Scale) -> Vec<f64> {
    if scale.quick {
        vec![0.7, 0.9]
    } else {
        vec![0.6, 0.7, 0.8, 0.9]
    }
}

fn dist_cfg(
    k: usize,
    join: JoinConfig,
    local: LocalAlgo,
    strategy: Strategy,
) -> DistributedJoinConfig {
    DistributedJoinConfig {
        k,
        join,
        local,
        strategy,
        channel_capacity: 1024,
        source_rate: None,
        fault: None,
        shed_watermark: None,
        checkpoint: None,
        restore_from: None,
        // Default for all distributed experiments: 32-message dispatcher
        // batches lift threaded throughput ~1.7x on the tweet workload and
        // never change results (see the driver's batching tests).
        dispatch_batch: Some(32),
        trace: None,
        scheduler: Scheduler::Threads,
    }
}

fn length_auto(sample: usize) -> Strategy {
    Strategy::LengthAuto {
        method: PartitionMethod::LoadAware,
        sample,
    }
}

/// T1 — dataset statistics (the evaluation's "Table 1").
pub fn t1(scale: Scale, results: &Path) {
    let n = scale.n();
    let mut t = Table::new(
        &format!("T1: dataset statistics (n = {n} per profile, seed {SEED})"),
        &[
            "dataset",
            "records",
            "avg_len",
            "max_len",
            "distinct_tokens",
            "dup_rate",
        ],
    );
    for p in DatasetProfile::all() {
        let recs = records(&p, n);
        let avg = recs.iter().map(|r| r.len()).sum::<usize>() as f64 / recs.len() as f64;
        let max = recs.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut distinct: FxHashSet<TokenId> = FxHashSet::default();
        for r in &recs {
            distinct.extend(r.tokens().iter().copied());
        }
        t.row(vec![
            p.name.into(),
            n.to_string(),
            fnum(avg),
            max.to_string(),
            distinct.len().to_string(),
            fnum(p.dup_rate),
        ]);
    }
    t.emit(results, "t1_datasets");
}

/// T2 — model-predicted partition quality (imbalance ratio, lower is
/// better; 1.0 = perfect balance).
pub fn t2(scale: Scale, results: &Path) {
    let n = scale.n();
    let tau = 0.8;
    let k = 8;
    let mut t = Table::new(
        &format!("T2: partition imbalance (model), tau = {tau}, k = {k}"),
        &[
            "dataset",
            "equal_width",
            "equal_depth",
            "load_aware",
            "load_aware_greedy",
        ],
    );
    for p in DatasetProfile::all() {
        let recs = records(&p, n);
        let hist = LengthHistogram::from_records(&recs);
        let cost = CostModel::build(&hist, Threshold::jaccard(tau), hist.max_len());
        let row = [
            imbalance(&equal_width(hist.max_len(), k), &cost),
            imbalance(&equal_depth(&hist, k), &cost),
            imbalance(&load_aware(&cost, k), &cost),
            imbalance(&load_aware_greedy(&cost, k), &cost),
        ];
        t.row(vec![
            p.name.into(),
            fnum(row[0]),
            fnum(row[1]),
            fnum(row[2]),
            fnum(row[3]),
        ]);
    }
    t.emit(results, "t2_partition_quality");
}

/// F1 — distributed throughput vs threshold: LD (ppjoin + bundle) vs PD vs
/// RD.
pub fn f1(scale: Scale, results: &Path) {
    let n = scale.n();
    let k = 8;
    let mut t = Table::new(
        &format!("F1: throughput (records/s) vs tau, k = {k}, n = {n}"),
        &[
            "dataset",
            "tau",
            "LD+bundle",
            "LD+ppjoin",
            "PD+ppjoin",
            "RD+ppjoin",
            "results",
        ],
    );
    for p in headline_profiles() {
        let recs = records(&p, n);
        for tau in thresholds(scale) {
            let join = JoinConfig::jaccard(tau);
            let sample = (n / 10).max(100);
            let runs = [
                dist_cfg(k, join, LocalAlgo::bundle(), length_auto(sample)),
                dist_cfg(k, join, LocalAlgo::PpJoin, length_auto(sample)),
                dist_cfg(k, join, LocalAlgo::PpJoin, Strategy::Prefix),
                dist_cfg(k, join, LocalAlgo::PpJoin, Strategy::Broadcast),
            ];
            let outs: Vec<_> = runs.iter().map(|c| run_distributed(&recs, c)).collect();
            t.row(vec![
                p.name.into(),
                fnum(tau),
                fnum(outs[0].throughput()),
                fnum(outs[1].throughput()),
                fnum(outs[2].throughput()),
                fnum(outs[3].throughput()),
                outs[0].pairs.len().to_string(),
            ]);
        }
    }
    t.emit(results, "f1_throughput_vs_tau");
}

/// F2 — scalability: throughput vs number of joiners.
pub fn f2(scale: Scale, results: &Path) {
    let n = scale.n();
    let tau = 0.8;
    let join = JoinConfig::jaccard(tau);
    let ks: Vec<usize> = if scale.quick {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    // Wall-clock throughput cannot exceed the host's core budget (these
    // containers are often single-core), so the table also reports the
    // critical-path projection: records / busiest-stage busy time — the
    // bound a k-core deployment would see. The projection is what carries
    // the scaling shape.
    let mut t = Table::new(
        &format!("F2: throughput vs k (wall | critical-path model), tau = {tau}, n = {n}, dataset = dblp"),
        &["k", "LD+bundle", "LD+ppjoin", "PD+ppjoin", "RD+ppjoin",
          "LD+bundle*", "LD+ppjoin*", "PD+ppjoin*", "RD+ppjoin*"],
    );
    let recs = records(&DatasetProfile::dblp(), n);
    let sample = (n / 10).max(100);
    for &k in &ks {
        let runs = [
            dist_cfg(k, join, LocalAlgo::bundle(), length_auto(sample)),
            dist_cfg(k, join, LocalAlgo::PpJoin, length_auto(sample)),
            dist_cfg(k, join, LocalAlgo::PpJoin, Strategy::Prefix),
            dist_cfg(k, join, LocalAlgo::PpJoin, Strategy::Broadcast),
        ];
        let outs: Vec<_> = runs.iter().map(|c| run_distributed(&recs, c)).collect();
        let mut row = vec![k.to_string()];
        row.extend(outs.iter().map(|o| fnum(o.throughput())));
        row.extend(outs.iter().map(|o| fnum(o.modeled_throughput())));
        t.row(row);
    }
    t.emit(results, "f2_scalability");
}

/// F3 — communication cost: messages/bytes per record and replication.
pub fn f3(scale: Scale, results: &Path) {
    let n = scale.n();
    let k = 8;
    let mut t = Table::new(
        &format!("F3: communication per record, k = {k}, n = {n}"),
        &[
            "dataset",
            "tau",
            "strategy",
            "msgs/rec",
            "bytes/rec",
            "replication",
        ],
    );
    for p in headline_profiles() {
        let recs = records(&p, n);
        for tau in thresholds(scale) {
            let join = JoinConfig::jaccard(tau);
            let sample = (n / 10).max(100);
            for (name, strategy) in [
                ("LD", length_auto(sample)),
                ("PD", Strategy::Prefix),
                ("RD", Strategy::Broadcast),
            ] {
                let out = run_distributed(&recs, &dist_cfg(k, join, LocalAlgo::PpJoin, strategy));
                t.row(vec![
                    p.name.into(),
                    fnum(tau),
                    name.into(),
                    fnum(out.msgs_per_record()),
                    fnum(out.bytes_per_record()),
                    fnum(out.replication()),
                ]);
            }
        }
    }
    t.emit(results, "f3_communication");
}

/// F4 — measured joiner load balance by partitioning method.
pub fn f4(scale: Scale, results: &Path) {
    let n = scale.n();
    let tau = 0.8;
    let k = 8;
    let join = JoinConfig::jaccard(tau);
    let mut t = Table::new(
        &format!("F4: measured busy-time imbalance (max/avg), tau = {tau}, k = {k}, n = {n}"),
        &[
            "dataset",
            "equal_width",
            "equal_depth",
            "load_aware",
            "throughput_la",
        ],
    );
    for p in DatasetProfile::all() {
        let recs = records(&p, n);
        let sample = (n / 10).max(100);
        let mut cells = vec![p.name.to_string()];
        let mut la_tp = 0.0;
        for method in [
            PartitionMethod::EqualWidth,
            PartitionMethod::EqualDepth,
            PartitionMethod::LoadAware,
        ] {
            let out = run_distributed(
                &recs,
                &dist_cfg(
                    k,
                    join,
                    LocalAlgo::PpJoin,
                    Strategy::LengthAuto { method, sample },
                ),
            );
            cells.push(fnum(out.load_imbalance()));
            if method == PartitionMethod::LoadAware {
                la_tp = out.throughput();
            }
        }
        cells.push(fnum(la_tp));
        t.row(cells);
    }
    t.emit(results, "f4_load_balance");
}

/// F5 — local join throughput vs threshold (single joiner, no engine).
pub fn f5(scale: Scale, results: &Path) {
    let n = scale.n();
    let mut t = Table::new(
        &format!("F5: local join throughput (records/s) vs tau, n = {n}"),
        &[
            "dataset",
            "tau",
            "allpairs",
            "ppjoin",
            "ppjoin+",
            "bundle",
            "bundle_postings",
            "ppjoin_postings",
        ],
    );
    for p in headline_profiles() {
        let recs = records(&p, n);
        for tau in thresholds(scale) {
            let join = JoinConfig::jaccard(tau);
            let time_joiner = |mut j: Box<dyn StreamJoiner>| -> (f64, usize) {
                let t0 = Instant::now();
                let out = run_stream(&mut *j, &recs);
                let tp = recs.len() as f64 / t0.elapsed().as_secs_f64();
                std::hint::black_box(out.len());
                (tp, j.postings())
            };
            let (ap, _) = time_joiner(Box::new(AllPairsJoiner::new(join)));
            let (pp, pp_post) = time_joiner(Box::new(PpJoinJoiner::new(join)));
            let (ppp, _) = time_joiner(Box::new(PpJoinJoiner::new_plus(join)));
            let (bj, bj_post) = time_joiner(Box::new(BundleJoiner::with_defaults(join)));
            t.row(vec![
                p.name.into(),
                fnum(tau),
                fnum(ap),
                fnum(pp),
                fnum(ppp),
                fnum(bj),
                bj_post.to_string(),
                pp_post.to_string(),
            ]);
        }
    }
    t.emit(results, "f5_local_join");
}

/// F6 — bundle benefit vs near-duplicate rate.
pub fn f6(scale: Scale, results: &Path) {
    let n = scale.n();
    let tau = 0.8;
    let join = JoinConfig::jaccard(tau);
    let rates = if scale.quick {
        vec![0.0, 0.3]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    };
    let mut t = Table::new(
        &format!("F6: bundle joiner vs duplicate rate, tau = {tau}, n = {n}, dataset = tweet"),
        &[
            "dup_rate",
            "bundle_rps",
            "ppjoin_rps",
            "speedup",
            "absorb_ratio",
            "postings_saved_%",
        ],
    );
    for d in rates {
        let recs = records(&DatasetProfile::tweet().with_dup_rate(d), n);
        let t0 = Instant::now();
        let mut bj = BundleJoiner::with_defaults(join);
        let _ = run_stream(&mut bj, &recs);
        let bj_rps = recs.len() as f64 / t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut pp = PpJoinJoiner::new(join);
        let _ = run_stream(&mut pp, &recs);
        let pp_rps = recs.len() as f64 / t0.elapsed().as_secs_f64();
        let saved =
            1.0 - bj.stats().postings_created as f64 / pp.stats().postings_created.max(1) as f64;
        t.row(vec![
            fnum(d),
            fnum(bj_rps),
            fnum(pp_rps),
            fnum(bj_rps / pp_rps),
            fnum(bj.stats().absorb_ratio()),
            fnum(saved * 100.0),
        ]);
    }
    t.emit(results, "f6_bundle_vs_dup_rate");
}

/// F7 — batch vs individual verification (micro-ablation).
pub fn f7(scale: Scale, results: &Path) {
    use ssj_core::verify;
    let sizes = if scale.quick {
        vec![1, 8, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64]
    };
    let len = 64usize;
    let reps = 2_000;
    let mut t = Table::new(
        "F7: verification cost per member (ns), rep length 64, delta 4 tokens",
        &["bundle_size", "individual_ns", "batch_ns", "speedup"],
    );
    // A bundle of near-duplicates: representative + members with 4-token
    // deltas; the probe equals the representative with a 2-token delta.
    let rep: Vec<TokenId> = (0..len as u32).map(|x| TokenId(x * 3)).collect();
    let probe: Vec<TokenId> = {
        let mut v = rep.clone();
        v[10] = TokenId(31); // off-grid token: in no member
        v.sort_unstable();
        v
    };
    // Warm caches/branch predictors before the first timed loop (the
    // first measurement otherwise absorbs cold-start noise).
    let mut warm = 0usize;
    for _ in 0..reps {
        warm += verify::overlap(&probe, &rep);
    }
    std::hint::black_box(warm);
    for &size in &sizes {
        let members: Vec<(Vec<TokenId>, Vec<TokenId>, Vec<TokenId>)> = (0..size)
            .map(|m| {
                // Replace 2 grid tokens with 2 off-grid ones.
                let mut full = rep.clone();
                let del: Vec<TokenId> = vec![full[m % len], full[(m + 7) % len]];
                full.retain(|t| !del.contains(t));
                let add: Vec<TokenId> =
                    vec![TokenId(1000 + m as u32 * 2), TokenId(1001 + m as u32 * 2)];
                full.extend(add.iter().copied());
                full.sort_unstable();
                (full, add, del)
            })
            .collect();

        // Individual: a full merge per member.
        let t0 = Instant::now();
        let mut acc = 0usize;
        for _ in 0..reps {
            for (full, _, _) in &members {
                acc += verify::overlap(&probe, full);
            }
        }
        let individual = t0.elapsed().as_nanos() as f64 / (reps * size) as f64;
        std::hint::black_box(acc);

        // Batch: one merge with the representative + per-member deltas.
        let t0 = Instant::now();
        let mut acc2 = 0usize;
        for _ in 0..reps {
            let o_rep = verify::overlap(&probe, &rep);
            for (_, add, del) in &members {
                acc2 += o_rep + verify::intersect_small(add, &probe)
                    - verify::intersect_small(del, &probe);
            }
        }
        let batch = t0.elapsed().as_nanos() as f64 / (reps * size) as f64;
        std::hint::black_box(acc2);

        t.row(vec![
            size.to_string(),
            fnum(individual),
            fnum(batch),
            fnum(individual / batch),
        ]);
    }
    t.emit(results, "f7_batch_verification");
}

/// F8 — processing latency vs arrival rate.
pub fn f8(scale: Scale, results: &Path) {
    let n = scale.n().min(40_000);
    let tau = 0.8;
    let k = 8;
    let join = JoinConfig::jaccard(tau);
    let rates = if scale.quick {
        vec![5_000.0, 50_000.0]
    } else {
        vec![2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0]
    };
    let mut t = Table::new(
        &format!(
            "F8: result latency vs arrival rate, tau = {tau}, k = {k}, n = {n}, dataset = aol"
        ),
        &["rate_rps", "mean_us", "p95_us", "p99_us", "results"],
    );
    let recs = records(&DatasetProfile::aol(), n);
    let sample = (n / 10).max(100);
    for &rate in &rates {
        let mut cfg = dist_cfg(k, join, LocalAlgo::bundle(), length_auto(sample));
        cfg.source_rate = Some(rate);
        let out = run_distributed(&recs, &cfg);
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        t.row(vec![
            fnum(rate),
            fnum(us(out.latency.mean())),
            fnum(us(out.latency.quantile(0.95))),
            fnum(us(out.latency.quantile(0.99))),
            out.pairs.len().to_string(),
        ]);
    }
    t.emit(results, "f8_latency_vs_rate");
}

/// F9 — sliding-window size vs throughput and index size.
pub fn f9(scale: Scale, results: &Path) {
    let n = scale.n().max(10_000);
    let tau = 0.8;
    let mut t = Table::new(
        &format!("F9: window size vs throughput & index size, tau = {tau}, n = {n}, dataset = aol"),
        &[
            "window",
            "bundle_rps",
            "bundle_stored",
            "bundle_postings",
            "ppjoin_stored",
            "ppjoin_postings",
        ],
    );
    let recs = records(&DatasetProfile::aol(), n);
    let windows: Vec<(String, Window)> = vec![
        ("1k".into(), Window::Count(1_000)),
        ("10k".into(), Window::Count(10_000)),
        ((n / 2).to_string(), Window::Count((n / 2) as u64)),
        ("unbounded".into(), Window::Unbounded),
    ];
    for (name, window) in windows {
        let join = JoinConfig {
            threshold: Threshold::jaccard(tau),
            window,
        };
        let t0 = Instant::now();
        let mut bj = BundleJoiner::with_defaults(join);
        let _ = run_stream(&mut bj, &recs);
        let rps = recs.len() as f64 / t0.elapsed().as_secs_f64();
        let mut pp = PpJoinJoiner::new(join);
        let _ = run_stream(&mut pp, &recs);
        t.row(vec![
            name,
            fnum(rps),
            bj.stored().to_string(),
            bj.postings().to_string(),
            pp.stored().to_string(),
            pp.postings().to_string(),
        ]);
    }
    t.emit(results, "f9_window_size");
}

/// F11 — local joiner throughput vs stream length (index-growth
/// crossover): the bundle joiner's compressed index pays off as streams
/// grow, while AllPairs' per-record posting lists keep lengthening.
pub fn f11(scale: Scale, results: &Path) {
    let tau = 0.8;
    let join = JoinConfig::jaccard(tau);
    let sizes: Vec<usize> = if scale.quick {
        vec![10_000, 40_000]
    } else {
        vec![25_000, 50_000, 100_000, 200_000]
    };
    let mut t = Table::new(
        &format!("F11: local throughput (records/s) vs stream length, tau = {tau}, dataset = aol"),
        &["n", "allpairs", "ppjoin", "bundle", "bundle/allpairs"],
    );
    for &n in &sizes {
        let recs = records(&DatasetProfile::aol(), n);
        let time = |mut j: Box<dyn StreamJoiner>| {
            let t0 = Instant::now();
            std::hint::black_box(run_stream(&mut *j, &recs).len());
            recs.len() as f64 / t0.elapsed().as_secs_f64()
        };
        let ap = time(Box::new(AllPairsJoiner::new(join)));
        let pp = time(Box::new(PpJoinJoiner::new(join)));
        let bj = time(Box::new(BundleJoiner::with_defaults(join)));
        t.row(vec![
            n.to_string(),
            fnum(ap),
            fnum(pp),
            fnum(bj),
            fnum(bj / ap),
        ]);
    }
    t.emit(results, "f11_stream_length");
}

/// A1 — bundle-parameter ablation: absorption threshold and member cap
/// vs throughput, absorption and index compression.
pub fn a1(scale: Scale, results: &Path) {
    use ssj_core::BundleConfig;
    let n = scale.n();
    let tau = 0.8;
    let join = JoinConfig::jaccard(tau);
    let recs = records(&DatasetProfile::aol(), n);
    let mut t = Table::new(
        &format!("A1: bundle parameter ablation, tau = {tau}, n = {n}, dataset = aol"),
        &[
            "bundle_tau",
            "max_members",
            "rps",
            "absorb_ratio",
            "bundles",
            "postings",
        ],
    );
    let taus: Vec<f64> = if scale.quick {
        vec![0.8, 1.0]
    } else {
        vec![0.6, 0.7, 0.8, 0.9, 1.0]
    };
    let caps: Vec<usize> = if scale.quick { vec![64] } else { vec![4, 64] };
    for &bt in &taus {
        for &cap in &caps {
            let cfg = BundleConfig {
                join,
                bundle_tau: bt,
                max_members: cap,
                max_delta_frac: 0.25,
            };
            let mut j = BundleJoiner::new(cfg);
            let t0 = Instant::now();
            std::hint::black_box(run_stream(&mut j, &recs).len());
            let rps = recs.len() as f64 / t0.elapsed().as_secs_f64();
            t.row(vec![
                fnum(bt),
                cap.to_string(),
                fnum(rps),
                fnum(j.stats().absorb_ratio()),
                j.bundles().to_string(),
                j.postings().to_string(),
            ]);
        }
    }
    t.emit(results, "a1_bundle_ablation");
}

/// F12 — crash recovery: an injected joiner crash mid-stream must leave
/// the result set identical to the fault-free run, and the recovery cost
/// (records replayed into the restarted task) is bounded by the live
/// window, not by the stream length. The unbounded-window row shows the
/// degenerate case where the replay buffer covers the whole prefix.
pub fn f12(scale: Scale, results: &Path) {
    fn keys(out: &ssj_distrib::DistributedJoinResult) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        keys
    }
    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    // Crash joiner 1 roughly mid-stream: with load-aware routing each
    // joiner indexes ~n/k records, so half of that is the midpoint.
    let crash_after = (n / (2 * k)) as u64;
    let mut t = Table::new(
        &format!(
            "F12: crash recovery, tau = {tau}, n = {n}, k = {k}, dataset = aol, \
             crash joiner 1 after {crash_after} indexed tuples"
        ),
        &[
            "window",
            "clean_rps",
            "fault_rps",
            "slowdown",
            "restarts",
            "replayed",
            "identical",
        ],
    );
    let recs = records(&DatasetProfile::aol(), n);
    let windows: Vec<(String, Window)> = if scale.quick {
        vec![
            ("1k".into(), Window::Count(1_000)),
            ("unbounded".into(), Window::Unbounded),
        ]
    } else {
        vec![
            ("1k".into(), Window::Count(1_000)),
            ("5k".into(), Window::Count(5_000)),
            ("20k".into(), Window::Count(20_000)),
            ("unbounded".into(), Window::Unbounded),
        ]
    };
    for (name, window) in windows {
        let join = JoinConfig {
            threshold: Threshold::jaccard(tau),
            window,
        };
        let cfg = dist_cfg(k, join, LocalAlgo::bundle(), length_auto(2_000));
        let clean = run_distributed(&recs, &cfg);
        let mut fault_cfg = dist_cfg(k, join, LocalAlgo::bundle(), length_auto(2_000));
        fault_cfg.fault = Some(FaultPlan::new().crash("joiner", 1, crash_after));
        let faulted = run_distributed(&recs, &fault_cfg);
        let replayed: u64 = faulted.joiners.iter().map(|j| j.replayed).sum();
        t.row(vec![
            name,
            fnum(clean.throughput()),
            fnum(faulted.throughput()),
            fnum(clean.throughput() / faulted.throughput().max(1e-9)),
            faulted.report.total_restarts().to_string(),
            replayed.to_string(),
            (keys(&clean) == keys(&faulted)).to_string(),
        ]);
    }
    t.emit(results, "f12_recovery");
}

/// F13 — degraded mode. A clean baseline against an overloaded run that
/// sheds whole records at the dispatcher, where the recall gap is exactly
/// accounted for: the surviving output equals the join of the kept
/// records, recomputed as a reference run. (The lossy-link regimes this
/// figure used to carry are F15's `chaos` / `crash+chaos` rows: link loss
/// is a property of the cluster's sessions. The CSV keeps its name.)
pub fn f13(scale: Scale, results: &Path) {
    fn keys(out: &ssj_distrib::DistributedJoinResult) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        keys
    }
    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: Window::Unbounded,
    };
    let recs = records(&DatasetProfile::aol(), n);
    let mut t = Table::new(
        &format!("F13: degraded mode, tau = {tau}, n = {n}, k = {k}, dataset = aol"),
        &[
            "mode", "rps", "slowdown", "shed", "pairs", "recall", "exact",
        ],
    );

    let base_cfg = || dist_cfg(k, join, LocalAlgo::bundle(), length_auto(2_000));
    let clean = run_distributed(&recs, &base_cfg());
    let clean_rps = clean.throughput();
    t.row(vec![
        "baseline".into(),
        fnum(clean_rps),
        fnum(1.0),
        "0".into(),
        clean.pairs.len().to_string(),
        fnum(1.0),
        "true".into(),
    ]);

    // Starve the joiners of queue space so the dispatcher trips the
    // watermark and sheds. The recall gap must be *exactly* the pairs
    // involving shed records: a reference run over the kept records alone
    // has to reproduce the shed run's output bit for bit.
    let mut shed_cfg = base_cfg();
    shed_cfg.channel_capacity = 8;
    shed_cfg.shed_watermark = Some(4);
    let out = run_distributed(&recs, &shed_cfg);
    let shed: FxHashSet<u64> = out.shed_records.iter().copied().collect();
    let kept: Vec<ssj_text::Record> = recs
        .iter()
        .filter(|r| !shed.contains(&r.id().0))
        .cloned()
        .collect();
    let reference = run_distributed(&kept, &base_cfg());
    let exact = keys(&out) == keys(&reference);
    assert!(exact, "shed run output is not the join of the kept records");
    t.row(vec![
        "shed(watermark=4,cap=8)".into(),
        fnum(out.throughput()),
        fnum(clean_rps / out.throughput().max(1e-9)),
        out.report.shed().to_string(),
        out.pairs.len().to_string(),
        fnum(out.pairs.len() as f64 / clean.pairs.len().max(1) as f64),
        exact.to_string(),
    ]);
    t.emit(results, "f13_chaos");
}

/// F14 — recovery time and replay volume vs checkpoint interval. One
/// seeded joiner crash per run over an unbounded window (the worst case
/// for buffer replay: without checkpointing the replay buffer is
/// O(stream)). As the epoch interval shrinks, committed epochs truncate
/// the replay buffers, so the records replayed into the restarted task —
/// and with them recovery work — drop toward O(interval), at the price of
/// more published snapshots. Every run must still match the crash-free
/// baseline exactly. One extra row checkpoints through the durable
/// `FileStore` to price the disk round-trip against `MemStore`.
pub fn f14(scale: Scale, results: &Path) {
    use ssj_distrib::CheckpointConfig;

    fn keys(out: &ssj_distrib::DistributedJoinResult) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        keys
    }
    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: Window::Unbounded,
    };
    let recs = records(&DatasetProfile::aol(), n);
    let mut t = Table::new(
        &format!(
            "F14: recovery cost vs checkpoint interval, tau = {tau}, n = {n}, k = {k}, \
             crash @ ~{}, dataset = aol",
            n / 2
        ),
        &[
            "interval",
            "store",
            "rps",
            "restarts",
            "replayed",
            "ckpts",
            "ckpt_bytes",
            "ckpt_lat_us",
            "stall_us",
            "exact",
        ],
    );

    let base_cfg = || dist_cfg(k, join, LocalAlgo::bundle(), length_auto(2_000));
    let clean_keys = keys(&run_distributed(&recs, &base_cfg()));
    let crash = || FaultPlan::new().crash_seeded("joiner", k, (n / 2) as u64, SEED);

    let intervals: Vec<Option<u64>> = {
        let mut v = vec![None];
        let mut i = (n / 2) as u64;
        let points = if scale.quick { 3 } else { 5 };
        for _ in 0..points {
            v.push(Some(i.max(1)));
            i /= 4;
        }
        v
    };
    let mut rows = Vec::new();
    for interval in intervals {
        rows.push((interval, "mem"));
    }
    // Price the durable store at the middle interval.
    let durable_interval = (n / 8) as u64;
    rows.push((Some(durable_interval.max(1)), "file"));

    let tmp = std::env::temp_dir().join(format!("ssj-f14-{}", std::process::id()));
    for (interval, store) in rows {
        let mut cfg = base_cfg();
        cfg.fault = Some(crash());
        cfg.checkpoint = match (interval, store) {
            (None, _) => None,
            (Some(i), "mem") => Some(CheckpointConfig::in_memory(i)),
            (Some(i), _) => {
                let dir = tmp.join(format!("interval-{i}"));
                std::fs::create_dir_all(&dir).expect("create f14 checkpoint dir");
                Some(CheckpointConfig::in_dir(i, &dir).expect("open f14 file store"))
            }
        };
        let out = run_distributed(&recs, &cfg);
        let exact = keys(&out) == clean_keys;
        assert!(exact, "crash recovery diverged (interval {interval:?})");
        let replayed: u64 = out.joiners.iter().map(|j| j.replayed).sum();
        t.row(vec![
            interval.map_or("off".into(), |i| i.to_string()),
            store.into(),
            fnum(out.throughput()),
            out.report.total_restarts().to_string(),
            replayed.to_string(),
            out.report.checkpoints().to_string(),
            out.report.checkpoint_bytes().to_string(),
            fnum(out.report.checkpoint_latency().mean().as_secs_f64() * 1e6),
            fnum(out.report.barrier_stall().mean().as_secs_f64() * 1e6),
            exact.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    t.emit(results, "f14_checkpoint");
}

/// Locates the `ssj-node` binary a TCP-backed experiment spawns: the
/// `SSJ_NODE_BIN` env var wins, else a sibling of the running executable
/// (where `cargo build` puts workspace binaries).
fn node_bin() -> Option<std::path::PathBuf> {
    if let Ok(p) = std::env::var("SSJ_NODE_BIN") {
        let p = std::path::PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    // Test binaries live one level deeper (target/<profile>/deps), so
    // check the grandparent too.
    exe.ancestors()
        .skip(1)
        .take(3)
        .map(|dir| dir.join("ssj-node"))
        .find(|cand| cand.is_file())
}

/// F15 — cross-process transport equivalence: the crash (F12), chaos
/// (F13) and checkpoint/restore (F14) scenarios rerun on the cluster
/// transport, with joiners hosted as in-process threads and as real
/// `ssj-node` OS processes over localhost TCP. Every row must reproduce
/// the in-process driver's crash-free ground truth exactly — the wire,
/// the at-least-once layer, and supervised process kills may cost
/// throughput but never results. The `restore` row runs two cluster
/// incarnations: one that checkpoints into a durable `FileStore` and
/// dies, and a fresh one that resumes from it and owes exactly the
/// post-cut pairs.
pub fn f15(scale: Scale, results: &Path) {
    use ssj_distrib::{
        run_cluster, CheckpointConfig, ClusterBackend, ClusterConfig, ClusterFault, FileStore,
        SnapshotStore,
    };
    use std::sync::Arc;

    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: Window::Count(2_000),
    };
    let recs = records(&DatasetProfile::aol(), n);

    // Ground truth: the crash-free in-process driver (itself pinned to
    // the naive joiner by `check`).
    let clean = run_distributed(
        &recs,
        &dist_cfg(k, join, LocalAlgo::bundle(), length_auto(2_000)),
    );
    let mut clean_keys: Vec<(u64, u64)> = clean.pairs.iter().map(|m| m.key()).collect();
    clean_keys.sort_unstable();

    let mut backends: Vec<(&str, ClusterBackend)> = vec![("threads", ClusterBackend::InProcess)];
    match node_bin() {
        Some(bin) => backends.push(("tcp", ClusterBackend::Tcp { node_bin: bin })),
        None => println!(
            "note: ssj-node binary not found (set SSJ_NODE_BIN or run \
             `cargo build --release --bin ssj-node`); threads backend only\n"
        ),
    }

    let mut t = Table::new(
        &format!(
            "F15: transport equivalence (F12-F14 scenarios cross-process), \
             tau = {tau}, n = {n}, k = {k}, dataset = aol"
        ),
        &[
            "scenario",
            "backend",
            "rps",
            "retrans",
            "dup_drops",
            "restarts",
            "replayed",
            "epochs",
            "exact",
        ],
    );

    let base = |backend: &ClusterBackend| {
        let mut c = ClusterConfig::recommended(k, join, backend.clone());
        c.local = LocalAlgo::bundle();
        c.strategy = length_auto(2_000);
        c.dispatch_batch = None; // the committed rows are per-message framing
        c
    };
    let fault = ClusterFault {
        task: 1,
        after_acks: (n / (2 * k)).max(1) as u64,
    };
    let interval = (n / 8).max(1) as u64;
    let tmp = std::env::temp_dir().join(format!("ssj-f15-{}", std::process::id()));

    for (bname, backend) in &backends {
        // (scenario, chaos, crash, checkpoint) — F13, F12, F14 analogues.
        let scenarios = [
            ("clean", false, false, false),
            ("chaos", true, false, false),
            ("crash", false, true, false),
            ("crash+chaos", true, true, false),
            ("ckpt+crash", false, true, true),
        ];
        for (scenario, chaos, crash, ckpt) in scenarios {
            let mut cfg = base(backend);
            cfg.chaos_seed = chaos.then_some(SEED);
            cfg.fault = crash.then_some(fault);
            if ckpt {
                let dir = tmp.join(format!("{bname}-{scenario}"));
                cfg.checkpoint =
                    Some(CheckpointConfig::in_dir(interval, &dir).expect("open f15 file store"));
            }
            let out = run_cluster(&recs, &cfg);
            let mut keys: Vec<(u64, u64)> = out.pairs.iter().map(|m| m.key()).collect();
            keys.sort_unstable();
            let exact = keys == clean_keys;
            assert!(exact, "{scenario}/{bname} diverged from ground truth");
            let restarts: u64 = out.joiners.iter().map(|j| j.incarnation).sum();
            let replayed: u64 = out.joiners.iter().map(|j| j.replayed).sum();
            t.row(vec![
                scenario.into(),
                (*bname).into(),
                fnum(out.throughput()),
                out.retransmissions.to_string(),
                out.dup_results_dropped.to_string(),
                restarts.to_string(),
                replayed.to_string(),
                out.epochs_committed.to_string(),
                exact.to_string(),
            ]);
        }

        // F14's durable-restore analogue across cluster incarnations.
        let dir = tmp.join(format!("{bname}-restore"));
        let mut p1 = base(backend);
        p1.checkpoint =
            Some(CheckpointConfig::in_dir(interval, &dir).expect("open f15 restore store"));
        let prefix = &recs[..(recs.len() * 3 / 5).max(1)];
        let _ = run_cluster(prefix, &p1);
        let mut p2 = base(backend);
        p2.restore_from = Some(
            Arc::new(FileStore::open(&dir).expect("reopen f15 restore store"))
                as Arc<dyn SnapshotStore>,
        );
        let out = run_cluster(&recs, &p2);
        let cut = out.restored_cut.unwrap_or(0);
        let mut expect: Vec<(u64, u64)> = clean_keys
            .iter()
            .copied()
            .filter(|&(_, later)| later > cut)
            .collect();
        expect.sort_unstable();
        let mut keys: Vec<(u64, u64)> = out.pairs.iter().map(|m| m.key()).collect();
        keys.sort_unstable();
        let exact = keys == expect;
        assert!(
            exact,
            "restore/{bname} diverged from the post-cut ground truth"
        );
        let replayed: u64 = out.joiners.iter().map(|j| j.replayed).sum();
        t.row(vec![
            format!("restore(cut={cut})"),
            (*bname).into(),
            fnum(out.throughput()),
            out.retransmissions.to_string(),
            out.dup_results_dropped.to_string(),
            "0".into(),
            replayed.to_string(),
            out.epochs_committed.to_string(),
            exact.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    t.emit(results, "f15_transport");
}

/// F16 — self-healing under scripted outages: stall and partition
/// windows (one- and two-way) on individual cluster wires, across
/// self-join and bi-stream workloads and both backends, with the
/// heartbeat failure detector on. Every within-budget row must equal the
/// O(n²) oracle exactly — zero lost pairs, whatever the outage did to
/// the wire. The budget-exhausted row (self-join only; fencing
/// accounting is undefined for bi-streams) fences the killed task and
/// must equal the shed-adjusted oracle exactly. The detect_ms column is
/// the worst observed silence at suspicion (bounded by `suspect_after`
/// plus a detector pass when suspects fired), recover_ms the mean cost
/// of one respawn + session resume.
pub fn f16(scale: Scale, results: &Path) {
    use obs::Stage;
    use ssj_core::MatchPair;
    use ssj_distrib::{
        run_cluster, run_cluster_bistream, ClusterBackend, ClusterConfig, ClusterFault,
        ClusterOutage, ClusterResult, HealthConfig, OutageKind,
    };
    use ssj_text::Record;
    use std::time::Duration;

    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: Window::Count(2_000),
    };
    let recs = records(&DatasetProfile::aol(), n);
    let (left, right): (Vec<Record>, Vec<Record>) =
        recs.iter().cloned().partition(|r| r.id().0 % 2 == 0);

    // O(n²) ground truths (clean runs; shed rows re-derive theirs below).
    let sort = |mut keys: Vec<(u64, u64)>| {
        keys.sort_unstable();
        keys
    };
    let keys_of = |pairs: &[MatchPair]| sort(pairs.iter().map(MatchPair::key).collect());
    let self_truth = keys_of(&testkit::self_join_surviving(&recs, &join, &[]));
    let bi_truth = keys_of(&testkit::bistream_join(&left, &right, &join));

    let mut backends: Vec<(&str, ClusterBackend)> = vec![("threads", ClusterBackend::InProcess)];
    match node_bin() {
        Some(bin) => backends.push(("tcp", ClusterBackend::Tcp { node_bin: bin })),
        None => println!(
            "note: ssj-node binary not found (set SSJ_NODE_BIN or run \
             `cargo build --release --bin ssj-node`); threads backend only\n"
        ),
    }

    let mut t = Table::new(
        &format!(
            "F16: self-healing under stall/partition outages, \
             tau = {tau}, n = {n}, k = {k}, dataset = aol"
        ),
        &[
            "scenario",
            "mode",
            "backend",
            "rps",
            "stalled",
            "dropped",
            "suspects",
            "respawns",
            "detect_ms",
            "recover_ms",
            "fenced",
            "shed",
            "exact",
        ],
    );

    // Window placement: open once the wire has warmed up, stay short
    // against the 256-frame in-flight cap so retransmission always
    // closes the window; the detector handles whatever outlasts it.
    let after = (n as u64 / 10).max(8);
    let len = 40;
    let outage = |kind| ClusterOutage {
        task: 1,
        after,
        len,
        kind,
    };
    let health = HealthConfig {
        heartbeat_interval: Duration::from_millis(15),
        suspect_after: Duration::from_millis(100),
        recovery_budget: None,
    };
    let base = |backend: &ClusterBackend| {
        let mut c = ClusterConfig::recommended(k, join, backend.clone());
        c.local = LocalAlgo::bundle();
        c.strategy = length_auto(2_000);
        c.health = Some(health);
        // Outage windows are placed by frame ordinal on the per-message
        // frame stream; batching would move them.
        c.dispatch_batch = None;
        c
    };
    let fault = ClusterFault {
        task: 1,
        after_acks: (n / (2 * k)).max(1) as u64,
    };

    let row = |t: &mut Table,
               scenario: &str,
               mode: &str,
               bname: &str,
               out: &ClusterResult,
               truth: &[(u64, u64)]| {
        let got = keys_of(&out.pairs);
        let exact = got == *truth;
        assert!(exact, "{scenario}/{mode}/{bname} diverged from the oracle");
        let h = &out.health;
        let recover = out.stages.get(Stage::Recover);
        t.row(vec![
            scenario.into(),
            mode.into(),
            bname.into(),
            fnum(out.throughput()),
            h.stalled_frames.to_string(),
            h.partition_dropped_frames.to_string(),
            h.suspects.to_string(),
            h.respawns.to_string(),
            fnum(h.detection_latency.max().as_secs_f64() * 1e3),
            fnum(recover.mean().as_secs_f64() * 1e3),
            h.fenced_tasks.len().to_string(),
            out.shed_records.len().to_string(),
            exact.to_string(),
        ]);
    };

    for (bname, backend) in &backends {
        let scenarios = [
            ("stall", OutageKind::Stall),
            ("partition-1way", OutageKind::PartitionOneWay),
            ("partition-2way", OutageKind::PartitionTwoWay),
        ];
        for (scenario, kind) in scenarios {
            for mode in ["self", "bistream"] {
                let mut cfg = base(backend);
                cfg.outages = vec![outage(kind)];
                if mode == "self" {
                    let out = run_cluster(&recs, &cfg);
                    row(&mut t, scenario, mode, bname, &out, &self_truth);
                } else {
                    let out = run_cluster_bistream(&left, &right, &cfg);
                    row(&mut t, scenario, mode, bname, &out, &bi_truth);
                }
            }
        }

        // Deep two-way partition: under a 64-frame in-flight cap the
        // window outlasts every retransmission wave that reaches it
        // before `suspect_after`, so the failure detector *must* fire —
        // suspect, respawn, session resume — and the detect_ms /
        // recover_ms columns record real detector work. The respawn's
        // own retransmission wave then closes the window.
        let mut cfg = base(backend);
        cfg.channel_capacity = 64;
        cfg.outages = vec![ClusterOutage {
            task: 1,
            after,
            len: 170,
            kind: OutageKind::PartitionTwoWay,
        }];
        cfg.health = Some(HealthConfig {
            heartbeat_interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(80),
            recovery_budget: None,
        });
        let out = run_cluster(&recs, &cfg);
        assert!(
            out.health.suspects >= 1,
            "deep partition never tripped the detector"
        );
        assert!(out.health.respawns >= 1, "suspect was never recovered");
        row(&mut t, "partition-deep", "self", bname, &out, &self_truth);

        // Within budget: a scripted kill plus a partition, recovered
        // exactly (budget 2 ≫ what one kill needs).
        let mut cfg = base(backend);
        cfg.outages = vec![outage(OutageKind::PartitionOneWay)];
        cfg.fault = Some(fault);
        cfg.health = Some(HealthConfig {
            recovery_budget: Some(2),
            ..health
        });
        let out = run_cluster(&recs, &cfg);
        assert!(
            out.health.fenced_tasks.is_empty(),
            "within-budget run fenced a task"
        );
        row(&mut t, "kill-in-budget", "self", bname, &out, &self_truth);

        // Beyond budget: the same kill with budget 0 fences task 1 and
        // sheds its partition; exactness is against the shed-adjusted
        // O(n²) oracle — degraded, but never silently wrong.
        let mut cfg = base(backend);
        cfg.fault = Some(fault);
        cfg.health = Some(HealthConfig {
            recovery_budget: Some(0),
            ..health
        });
        let out = run_cluster(&recs, &cfg);
        assert_eq!(
            out.health.fenced_tasks,
            vec![1],
            "budget-0 kill did not fence task 1"
        );
        let shed_truth = keys_of(&testkit::self_join_surviving(
            &recs,
            &join,
            &out.shed_records,
        ));
        row(&mut t, "kill-fenced", "self", bname, &out, &shed_truth);
    }
    t.emit(results, "f16_selfheal");
}

/// Recursive directory copy so every F18 rot scenario damages its own
/// private replica of the committed store.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read copy src") {
        let entry = entry.expect("read copy entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("entry type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy store file");
        }
    }
}

/// Flips one mid-file bit in a committed epoch of a `FileStore` replica:
/// a snapshot part (`joiner-*.snap`) or the `MANIFEST` itself.
fn rot_epoch(dir: &Path, epoch: u64, manifest: bool) {
    let edir = dir.join(format!("epoch-{epoch}"));
    let target = if manifest {
        edir.join("MANIFEST")
    } else {
        std::fs::read_dir(&edir)
            .expect("read epoch dir")
            .map(|e| e.expect("epoch entry").path())
            .find(|p| p.extension().is_some_and(|e| e == "snap"))
            .expect("epoch holds a snapshot part")
    };
    let mut bytes = std::fs::read(&target).expect("read rot target");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&target, bytes).expect("write rotted file");
}

/// F18 — end-to-end data integrity: seeded bit-rot into the newest r of
/// the committed epochs of a durable `FileStore`. The offline scrub must
/// detect every rotted epoch (100% detection), verified restore must
/// quarantine exactly those epochs and fall back r epochs to the newest
/// clean one, and the restored cluster rerun must equal the post-cut
/// oracle exactly — including the all-rotted store, which degrades to
/// exact recomputation from the source. What the frame checksums cost is
/// measured by the `stormlite.crc32c.ns_per_frame` probe in `perf/`;
/// `results/f18_overhead.csv` keeps the one-off 2.10% sealed-vs-unsealed
/// figure recorded while an unsealed link could still be negotiated.
pub fn f18(scale: Scale, results: &Path) {
    use ssj_distrib::{
        load_latest_verified, run_cluster, scrub, CheckpointConfig, ClusterBackend, ClusterConfig,
        FileStore, SnapshotStore,
    };
    use std::sync::Arc;

    let n = scale.n();
    let tau = 0.8;
    let k = 4;
    let join = JoinConfig {
        threshold: Threshold::jaccard(tau),
        window: Window::Count(2_000),
    };
    let recs = records(&DatasetProfile::aol(), n);
    let truth = {
        let mut keys: Vec<(u64, u64)> = testkit::self_join_surviving(&recs, &join, &[])
            .iter()
            .map(ssj_core::MatchPair::key)
            .collect();
        keys.sort_unstable();
        keys
    };

    let base = || {
        let mut c = ClusterConfig::recommended(k, join, ClusterBackend::InProcess);
        c.local = LocalAlgo::bundle();
        c.strategy = length_auto(2_000);
        c.dispatch_batch = None; // the committed rows are per-message framing
        c
    };

    // Phase one: checkpoint a prefix run into the master store; every
    // rot scenario below works on its own copy of these epochs.
    let tmp = std::env::temp_dir().join(format!("ssj-f18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let master = tmp.join("master");
    let interval = (n as u64 / 12).max(1);
    let mut p1 = base();
    p1.checkpoint = Some(CheckpointConfig::in_dir(interval, &master).expect("open f18 file store"));
    let _ = run_cluster(&recs[..recs.len() * 4 / 5], &p1);
    let epochs = FileStore::open(&master)
        .expect("reopen f18 master store")
        .epochs()
        .expect("enumerate f18 epochs");
    assert!(
        epochs.len() >= 4,
        "phase one committed only {} epochs at interval {interval}",
        epochs.len()
    );

    let mut t = Table::new(
        &format!(
            "F18: bit-rot into r of {} committed epochs (FileStore), \
             tau = {tau}, n = {n}, k = {k}, dataset = aol",
            epochs.len()
        ),
        &[
            "scenario",
            "rotted",
            "detected",
            "detect_rate",
            "quarantined",
            "fallback",
            "restored_cut",
            "rps",
            "exact",
        ],
    );

    // (scenario, epochs to rot, rot the manifest instead of a part)
    let all = epochs.len();
    let scenarios: Vec<(String, usize, bool)> = vec![
        ("clean".into(), 0, false),
        ("rot-part-1".into(), 1, false),
        ("rot-part-2".into(), 2, false),
        ("rot-part-3".into(), 3, false),
        ("rot-manifest-1".into(), 1, true),
        (format!("rot-all-{all}"), all, false),
    ];
    for (scenario, rot, manifest) in scenarios {
        let dir = tmp.join(&scenario);
        copy_dir(&master, &dir);
        for &epoch in epochs.iter().rev().take(rot) {
            rot_epoch(&dir, epoch, manifest);
        }
        let store = FileStore::open(&dir).expect("open f18 scenario store");

        // Offline audit first: `dssj scrub` semantics, 100% detection.
        let report = scrub(&store).expect("scrub f18 scenario store");
        let detected = report.corrupt();
        assert_eq!(
            detected, rot,
            "{scenario}: scrub detected {detected} of {rot} rotted epochs"
        );

        // Verified restore scan: quarantine exactly the rotted suffix and
        // fall back to the newest clean epoch (or nothing when all rot).
        let scan = load_latest_verified(&store).expect("verified scan");
        assert_eq!(scan.quarantined.len(), rot, "{scenario}: quarantine set");
        assert_eq!(
            scan.fallback_depth(),
            rot as u64,
            "{scenario}: fallback depth"
        );
        assert_eq!(
            scan.image.is_none(),
            rot == all,
            "{scenario}: restore target"
        );

        // The restored rerun owes exactly the post-cut oracle pairs.
        let mut p2 = base();
        p2.restore_from =
            Some(Arc::new(FileStore::open(&dir).expect("reopen")) as Arc<dyn SnapshotStore>);
        let out = run_cluster(&recs, &p2);
        let cut = out.restored_cut.unwrap_or(0);
        if rot == all {
            assert_eq!(out.restored_cut, None, "{scenario}: all epochs rotted");
        }
        let expect: Vec<(u64, u64)> = truth
            .iter()
            .copied()
            .filter(|&(_, later)| later > cut)
            .collect();
        let mut got: Vec<(u64, u64)> = out.pairs.iter().map(ssj_core::MatchPair::key).collect();
        got.sort_unstable();
        let exact = got == expect;
        assert!(exact, "{scenario}: diverged from the post-cut oracle");

        t.row(vec![
            scenario.clone(),
            rot.to_string(),
            detected.to_string(),
            "100%".into(),
            out.integrity.quarantined_epochs.to_string(),
            out.integrity.restore_fallback_depth.to_string(),
            out.restored_cut
                .map_or_else(|| "-".into(), |c| c.to_string()),
            fnum(out.throughput()),
            exact.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    t.emit(results, "f18_integrity");
}

/// Correctness smoke: naive vs the full distributed recommended setup on a
/// small stream — run before benchmarking to catch misconfiguration.
pub fn check(results: &Path) {
    let recs = records(&DatasetProfile::tweet(), 2_000);
    let join = JoinConfig::jaccard(0.7);
    let mut naive = NaiveJoiner::new(join);
    let mut expect: Vec<(u64, u64)> = run_stream(&mut naive, &recs)
        .iter()
        .map(|m| m.key())
        .collect();
    expect.sort_unstable();
    let out = run_distributed(&recs, &DistributedJoinConfig::recommended(4, join));
    let mut got: Vec<(u64, u64)> = out.pairs.iter().map(|m| m.key()).collect();
    got.sort_unstable();
    assert_eq!(expect, got, "distributed result diverged from ground truth");
    let mut t = Table::new(
        "check: distributed == naive ground truth",
        &["records", "pairs", "status"],
    );
    t.row(vec![
        recs.len().to_string(),
        expect.len().to_string(),
        "OK".into(),
    ]);
    t.emit(results, "check");
}

/// Tiny sanity tests so the experiments themselves stay runnable.
#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            n: 600,
            quick: true,
        }
    }

    #[test]
    fn check_passes() {
        check(Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn t1_runs() {
        t1(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f7_runs() {
        f7(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f12_runs() {
        f12(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f13_runs() {
        f13(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f15_runs() {
        f15(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f16_runs() {
        f16(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f18_runs() {
        f18(tiny(), Path::new("/tmp/ssj-results-test"));
    }

    #[test]
    fn f9_runs() {
        f9(
            Scale {
                n: 2_000,
                quick: true,
            },
            Path::new("/tmp/ssj-results-test"),
        );
    }
}
