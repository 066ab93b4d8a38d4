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
        [0x4cc5328812e80243, 0x578d084614179e6b, 0xc4e9ed7201de2baf],
        [0x7aff55b06cd31a65, 0xe37fa1089fadd754, 0xea4b9469b96f740b],
    ),
    (
        "length-auto/bistream",
        LENGTH_AUTO,
        None,
        true,
        [0x0770c6450665bc1e, 0xd419362c16d7ffc2, 0x1cc68587b3f604c8],
        [0x6620b7244d6bb2e8, 0xa80a92ea0ef8d541, 0x5bd365d8e6f0e540],
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
        [0x210587f1a377c678, 0xcd389b3d921774f4, 0xb9a94c28e55d426d],
        [0x26fda8fb4bbd836c, 0x4fed56587e88d12e, 0x9e1716984c7d8dfa],
    ),
    (
        "length-auto+ckpt/bistream",
        LENGTH_AUTO,
        Some(40),
        true,
        [0xb73033c162e486ed, 0x034ec25c71409a7d, 0x596a92baa8a13162],
        [0xa76cf36a65d2b1b5, 0x6195e052fb3effe3, 0x9589462079ec10fd],
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
