//! Bi-stream (R–S) join: match a "news wire" feed against a "social" feed
//! in real time — cross-stream near-duplicate detection, the classic
//! data-integration use of the streaming set similarity join.
//!
//! ```text
//! cargo run --release --example two_feeds [n_records]
//! ```

use dssj::core::JoinConfig;
use dssj::distrib::{run_bistream_distributed, DistributedJoinConfig};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000);

    // One generator produces the "world's events"; odd/even arrival ids
    // split it into two feeds. Near-duplicate injection means many events
    // surface on both feeds — exactly what the join is looking for.
    let profile = DatasetProfile::tweet().with_dup_rate(0.4);
    println!(
        "generating {n} records across two feeds ({})...",
        profile.name
    );
    let all = StreamGenerator::new(profile, 5).take_records(n);
    let (mut wire, mut social): (Vec<Record>, Vec<Record>) = (Vec::new(), Vec::new());
    for r in all {
        if r.id().0 % 2 == 0 {
            wire.push(r);
        } else {
            social.push(r);
        }
    }

    let cfg = DistributedJoinConfig::recommended(8, JoinConfig::jaccard(0.8));
    println!(
        "running bi-stream join: wire = {} records, social = {} records, k = {}\n",
        wire.len(),
        social.len(),
        cfg.spec.k
    );
    let out = run_bistream_distributed(&wire, &social, &cfg);

    println!("cross-feed matches  : {}", out.pairs.len());
    println!("throughput          : {:.0} records/s", out.throughput());
    println!(
        "communication       : {:.2} msgs/record, replication {:.2}",
        out.msgs_per_record(),
        out.replication()
    );
    println!(
        "latency             : mean {:.0} us, p99 {:.0} us",
        out.latency.mean().as_secs_f64() * 1e6,
        out.latency.quantile(0.99).as_secs_f64() * 1e6
    );

    // Every pair crosses the feeds by construction of the bi-stream join:
    // even ids are wire, odd ids are social.
    let crossings = out
        .pairs
        .iter()
        .filter(|m| (m.earlier.0 % 2) != (m.later.0 % 2))
        .count();
    assert_eq!(
        crossings,
        out.pairs.len(),
        "self-feed pairs must not appear"
    );
    println!(
        "\nall {} matches connect the two feeds (no same-feed pairs)",
        crossings
    );
}
