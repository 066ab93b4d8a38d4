//! One function per table/figure of the evaluation.
//!
//! Each experiment is self-contained: it builds its workload, runs the
//! system(s), prints an aligned table and writes `results/<file>.csv`.
//! EXPERIMENTS.md documents the expected shape of every output.

use crate::table::{fnum, Table};
use crate::workload::{headline_profiles, records, SEED};
use crate::Scale;
use ssj_core::{
    join::run_stream, AllPairsJoiner, BundleJoiner, JoinConfig, PpJoinJoiner, StreamJoiner,
    Threshold, Window,
};
use ssj_distrib::{
    run_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, PartitionMethod, Strategy,
};
use ssj_partition::{
    equal_depth, equal_width, imbalance, load_aware, load_aware_greedy, CostModel, LengthHistogram,
};
use ssj_text::{FxHashSet, TokenId};
use ssj_workloads::DatasetProfile;
use std::io;
use std::path::Path;
use std::time::Instant;

/// An experiment: runs at `scale` and writes its CSV under the results
/// directory.
pub type Experiment = fn(Scale, &Path) -> io::Result<()>;

/// Every experiment by command-line id, in `all` order.
pub const ALL: [(&str, Experiment); 13] = [
    ("t1", t1),
    ("t2", t2),
    ("f1", f1),
    ("f2", f2),
    ("f3", f3),
    ("f4", f4),
    ("f5", f5),
    ("f6", f6),
    ("f7", f7),
    ("f8", f8),
    ("f9", f9),
    ("f11", f11),
    ("a1", a1),
];

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
    // Default for all distributed experiments: 32-message dispatcher
    // batches lift threaded throughput ~1.7x on the tweet workload and
    // never change results (see the driver's batching tests).
    DistributedJoinConfig::new(JoinSpec {
        local,
        strategy,
        dispatch_batch: Some(32),
        ..JoinSpec::recommended(k, join)
    })
}

fn length_auto(sample: usize) -> Strategy {
    Strategy::LengthAuto {
        method: PartitionMethod::LoadAware,
        sample,
    }
}

/// T1 — dataset statistics (the evaluation's "Table 1").
pub fn t1(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "t1_datasets")
}

/// T2 — model-predicted partition quality (imbalance ratio, lower is
/// better; 1.0 = perfect balance).
pub fn t2(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "t2_partition_quality")
}

/// F1 — distributed throughput vs threshold: LD (ppjoin + bundle) vs PD vs
/// RD.
pub fn f1(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f1_throughput_vs_tau")
}

/// F2 — scalability: throughput vs number of joiners.
pub fn f2(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f2_scalability")
}

/// F3 — communication cost: messages/bytes per record and replication.
pub fn f3(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f3_communication")
}

/// F4 — measured joiner load balance by partitioning method.
pub fn f4(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f4_load_balance")
}

/// F5 — local join throughput vs threshold (single joiner, no engine).
pub fn f5(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f5_local_join")
}

/// F6 — bundle benefit vs near-duplicate rate.
pub fn f6(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f6_bundle_vs_dup_rate")
}

/// F7 — batch vs individual verification (micro-ablation).
pub fn f7(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f7_batch_verification")
}

/// F8 — processing latency vs arrival rate.
pub fn f8(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f8_latency_vs_rate")
}

/// F9 — sliding-window size vs throughput and index size.
pub fn f9(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f9_window_size")
}

/// F11 — local joiner throughput vs stream length (index-growth
/// crossover): the bundle joiner's compressed index pays off as streams
/// grow, while AllPairs' per-record posting lists keep lengthening.
pub fn f11(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "f11_stream_length")
}

/// A1 — bundle-parameter ablation: absorption threshold and member cap
/// vs throughput, absorption and index compression.
pub fn a1(scale: Scale, results: &Path) -> io::Result<()> {
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
    t.emit(results, "a1_bundle_ablation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn header(csv: &Path) -> String {
        let text = fs::read_to_string(csv).unwrap_or_else(|e| panic!("{}: {e}", csv.display()));
        text.lines().next().unwrap_or_default().to_owned()
    }

    /// Every experiment runs at tiny scale and writes exactly one CSV whose
    /// header is that of its committed record under `results/`. Headers
    /// only: the row keys of F9 and F11 depend on `n`.
    #[test]
    fn every_experiment_writes_its_committed_csv_header() {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let out = std::env::temp_dir().join(format!("ssj-bench-shape-{}", std::process::id()));
        let scale = Scale {
            n: 2_000,
            quick: true,
        };
        for (id, run) in ALL {
            let dir = out.join(id);
            run(scale, &dir).unwrap_or_else(|e| panic!("{id}: {e}"));
            let csvs: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            assert_eq!(csvs.len(), 1, "{id} wrote {csvs:?}");
            let name = csvs[0].file_name().unwrap();
            assert_eq!(
                header(&csvs[0]),
                header(&committed.join(name)),
                "{id}: columns of {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&out);
    }
}
