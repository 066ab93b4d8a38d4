//! Pinned launcher wire digests: the outbound data stream of fixed-seed
//! `logical_time` cluster runs must stay byte-identical from commit to
//! commit, not just from run to run.
//!
//! [`ClusterResult::wire_digests`](ssj_distrib::ClusterResult) folds
//! every first-transmission data frame (routed messages and barriers,
//! with their logical ingest / injection stamps) of each
//! launcher→joiner wire, in sequence order. It therefore pins what the
//! dispatch algorithm emits — routing, probe/index interleaving,
//! `ProbeAndIndex` fusion, barrier placement — and every clock read it
//! makes. Each configuration is pinned twice: framed one message per
//! `Data` frame (`dispatch_batch: None`, the six constants that predate
//! batching) and batched at 8, where the digest additionally pins where
//! batches are cut — every 8th message on a wire, every flush point, ahead
//! of every barrier. The other digest tests compare two runs of the *same*
//! build (run-to-run, backend-to-backend); these constants compare against
//! the build that captured them.
//!
//! After an *intentional* change to the dispatch order or the data-frame
//! encoding, print fresh values with
//!
//! ```text
//! cargo test -p testkit --test cluster_digests print -- --ignored --nocapture
//! ```
//!
//! and review the change like any other golden-file diff.

use ssj_core::JoinConfig;
use ssj_distrib::{ClusterBackend, LocalAlgo, PartitionMethod, Strategy};
use testkit::{cluster_config_for, differential_records, DifferentialCase};

const SEED: u64 = 7;

const LENGTH_AUTO: Strategy = Strategy::LengthAuto {
    method: PartitionMethod::LoadAware,
    sample: 80,
};

/// `(name, strategy, checkpoint interval, bistream, unbatched digests,
/// digests at dispatch_batch 8)`.
type Pin = (
    &'static str,
    Strategy,
    Option<u64>,
    bool,
    [u64; 3],
    [u64; 3],
);

const BATCHED: Option<usize> = Some(8);

const PINS: [Pin; 6] = [
    (
        "length-auto/self",
        LENGTH_AUTO,
        None,
        false,
        [0x43c87c148dcc545f, 0x0c8c93696638a6ab, 0x620d70e369442b06],
        [0xef190c6ddf36c459, 0x4cd366cf589ac3a5, 0x1658c7751d5ee1e5],
    ),
    (
        "length-auto/bistream",
        LENGTH_AUTO,
        None,
        true,
        [0x8e0b134b5597312e, 0xb6cc65d9270a51bd, 0x2fc0abd91896cdf6],
        [0x1337bbf133b67fd6, 0x58c9ec559ba841e5, 0x548de9ad670b50d5],
    ),
    (
        "prefix/self",
        Strategy::Prefix,
        None,
        false,
        [0x099e92c1aab2c279, 0x0b0e431506ec0b84, 0x1ee2395ac8f025d5],
        [0xc667198244edaee9, 0x0df14f12a7aee8f0, 0x103294e5663b236d],
    ),
    (
        "prefix/bistream",
        Strategy::Prefix,
        None,
        true,
        [0xd8547fe58e69ce92, 0x86b9c8f97e658b91, 0xf476b510cb1aa75e],
        [0x4b313943b56554f0, 0x140e672bc50fe2e1, 0xdd62d763a14541a6],
    ),
    (
        "length-auto+ckpt/self",
        LENGTH_AUTO,
        Some(40),
        false,
        [0x423c6ea3549bb800, 0x87878dcde1fa7c7e, 0x1dfb4b8e1ba28b2b],
        [0x5def7dce2c3c9325, 0x266dff2f21821c2e, 0x049ed7b1dc732aa5],
    ),
    (
        "length-auto+ckpt/bistream",
        LENGTH_AUTO,
        Some(40),
        true,
        [0x68db182915566745, 0xc38e570fa882d86c, 0x787c5078d7b0c63b],
        [0xae5143f75bde4c4a, 0x4841f6897873d5f4, 0xee4fcd1f29a5fe0f],
    ),
];

fn digests(
    strategy: Strategy,
    checkpoint: Option<u64>,
    bistream: bool,
    batch: Option<usize>,
) -> Vec<u64> {
    let mut case = DifferentialCase::new(
        240,
        3,
        JoinConfig::jaccard(0.7),
        LocalAlgo::bundle(),
        strategy,
    );
    case.bistream = bistream;
    case.checkpoint_interval = checkpoint;
    case.dispatch_batch = batch;
    let mut cfg = cluster_config_for(SEED, &case, ClusterBackend::InProcess);
    cfg.logical_time = true;
    let records = differential_records(SEED, case.records);
    let result = if bistream {
        let (left, right): (Vec<_>, Vec<_>) = records.into_iter().partition(|r| r.id().0 % 2 == 0);
        ssj_distrib::run_cluster_bistream(&left, &right, &cfg)
    } else {
        ssj_distrib::run_cluster(&records, &cfg)
    };
    assert!(!result.pairs.is_empty(), "pinned run produced no pairs");
    if checkpoint.is_some() {
        assert!(result.epochs_committed > 0, "no barrier ever went out");
    }
    result
        .wire_digests
        .expect("logical-time runs report wire digests")
}

#[test]
fn launcher_wire_digests_match_the_pinned_constants() {
    for (name, strategy, checkpoint, bistream, unbatched, batched) in PINS {
        for (batch, want) in [(None, unbatched), (BATCHED, batched)] {
            let got = digests(strategy.clone(), checkpoint, bistream, batch);
            assert_eq!(
                got, want,
                "{name} at dispatch_batch {batch:?}: the launcher's outbound data \
                 stream changed — if that is intentional, re-pin with the `print` \
                 test (see the module docs)"
            );
        }
    }
}

#[test]
#[ignore = "prints fresh digests for re-pinning after an intentional change"]
fn print() {
    for (name, strategy, checkpoint, bistream, ..) in PINS {
        for batch in [None, BATCHED] {
            let d = digests(strategy.clone(), checkpoint, bistream, batch);
            println!(
                "{name} @ {batch:?}: [{:#018x}, {:#018x}, {:#018x}]",
                d[0], d[1], d[2]
            );
        }
    }
}
