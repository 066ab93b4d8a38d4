//! On-line near-duplicate detection over a news-like stream — the paper's
//! motivating application — on the full distributed pipeline.
//!
//! A DBLP/news-like stream with a high re-post rate is pushed through the
//! recommended configuration (length-based distribution with a load-aware
//! partition + bundle join on every joiner) and the run's quality metrics
//! are printed.
//!
//! ```text
//! cargo run --release --example near_duplicate_news [n_records]
//! ```

use dssj::core::JoinConfig;
use dssj::distrib::{run_distributed, DistributedJoinConfig};
use dssj::workloads::{DatasetProfile, StreamGenerator};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);

    // News-like stream: medium-length records, 30% near-duplicates
    // (re-posts and lightly edited copies).
    let profile = DatasetProfile::dblp().with_dup_rate(0.3);
    println!(
        "generating {n} records of a news-like stream ({})...",
        profile.name
    );
    let records = StreamGenerator::new(profile, 1).take_records(n);

    let cfg = DistributedJoinConfig::recommended(8, JoinConfig::jaccard(0.8));
    println!(
        "running distributed join: k = {}, strategy = {}, local = {}\n",
        cfg.spec.k,
        cfg.spec.strategy.name(),
        cfg.spec.local.name()
    );
    let out = run_distributed(&records, &cfg);

    println!("near-duplicate pairs found : {}", out.pairs.len());
    println!(
        "throughput                 : {:.0} records/s",
        out.throughput()
    );
    println!(
        "communication              : {:.2} msgs/record, {:.0} bytes/record",
        out.msgs_per_record(),
        out.bytes_per_record()
    );
    println!(
        "index replication          : {:.2} copies/record",
        out.replication()
    );
    println!(
        "joiner busy-time imbalance : {:.2} (1.0 = perfect)",
        out.load_imbalance()
    );
    println!(
        "result latency             : mean {:.0} us, p99 {:.0} us",
        out.latency.mean().as_secs_f64() * 1e6,
        out.latency.quantile(0.99).as_secs_f64() * 1e6
    );

    println!("\nper-joiner state at drain:");
    for j in &out.joiners {
        println!(
            "  joiner {}: indexed {:>7}  candidates {:>9}  verifications {:>8}  bundles created {:>6}  absorbed {:>6}",
            j.task,
            j.stats.indexed,
            j.stats.candidates,
            j.stats.verifications,
            j.stats.bundles_created,
            j.stats.bundle_absorbed,
        );
    }
}
