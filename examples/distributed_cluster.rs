//! Side-by-side comparison of the three distribution strategies on the
//! same stream: the paper's headline experiment in miniature.
//!
//! ```text
//! cargo run --release --example distributed_cluster [n_records] [k]
//! ```

use dssj::core::JoinConfig;
use dssj::distrib::{
    run_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, PartitionMethod, Strategy,
};
use dssj::workloads::{DatasetProfile, StreamGenerator};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(30_000);
    let k: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8);

    let profile = DatasetProfile::enron();
    println!("generating {n} long-document records ({})...", profile.name);
    let records = StreamGenerator::new(profile, 11).take_records(n);
    let join = JoinConfig::jaccard(0.8);

    println!(
        "\n{:<14} {:>12} {:>10} {:>11} {:>12} {:>10}",
        "strategy", "records/s", "msgs/rec", "bytes/rec", "replication", "pairs"
    );
    let strategies = [
        (
            "length (LD)",
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: (n / 10).max(100),
            },
        ),
        ("prefix (PD)", Strategy::Prefix),
        ("broadcast (RD)", Strategy::Broadcast),
    ];
    let mut pair_counts = Vec::new();
    for (name, strategy) in strategies {
        let cfg = DistributedJoinConfig::new(JoinSpec {
            local: LocalAlgo::PpJoin,
            strategy,
            ..JoinSpec::recommended(k, join)
        });
        let out = run_distributed(&records, &cfg);
        println!(
            "{:<14} {:>12.0} {:>10.2} {:>11.0} {:>12.2} {:>10}",
            name,
            out.throughput(),
            out.msgs_per_record(),
            out.bytes_per_record(),
            out.replication(),
            out.pairs.len()
        );
        pair_counts.push(out.pairs.len());
    }
    assert!(
        pair_counts.windows(2).all(|w| w[0] == w[1]),
        "all strategies must produce the identical result set"
    );
    println!(
        "\nall three strategies produced the same {} pairs — exact results.",
        pair_counts[0]
    );
}
