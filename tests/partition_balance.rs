//! The load-aware partition balances the work joiners measurably do.
//!
//! Each stream runs twice on the threads engine with k = 4 joiners, the
//! bundle local join and the benchmark's τ: once under the load-aware
//! partition calibrated on its first 10 000 records, once under the
//! equal-depth cut of the same sample. Each joiner's exact counters are
//! priced with the cost model's own weights, so "work" is what the model
//! claims to predict, read off the run instead of the sample:
//!
//! * the load-aware partition's busiest joiner does no more of it than
//!   equal-depth's;
//! * its predicted imbalance (max / mean load) is within 1.3× of the
//!   measured one.

use dssj::core::{JoinConfig, JoinStats, Threshold, Window};
use dssj::distrib::{
    calibrate_partition, run_distributed, DistributedJoinConfig, JoinSpec, PartitionMethod,
    Strategy,
};
use dssj::partition::cost::{HIT_COST, MERGE_TOKEN_COST, MESSAGE_COST, PAIR_COST};
use dssj::partition::{equal_depth, imbalance, CostModel, LengthHistogram, LengthPartition};
use dssj::text::Record;
use dssj::workloads::{DatasetProfile, StreamGenerator};

const K: usize = 4;
const SAMPLE: usize = 10_000;
const SEED: u64 = 5151;

/// A joiner's counters priced as the model prices its units. The model
/// charges a candidate pair's two record lengths as merge tokens, of which
/// a verification merges about a third: a counted step is three tokens.
fn priced(stats: &JoinStats) -> f64 {
    (MESSAGE_COST * stats.probed
        + HIT_COST * stats.posting_hits
        + PAIR_COST * stats.delta_verifications
        + 3 * MERGE_TOKEN_COST * stats.verify_steps) as f64
}

/// Each joiner's priced work when `records` run under `partition`.
fn measured(records: &[Record], join: JoinConfig, partition: &LengthPartition) -> Vec<f64> {
    let spec = JoinSpec {
        strategy: Strategy::Length(partition.clone()),
        ..JoinSpec::recommended(K, join)
    };
    let cfg = DistributedJoinConfig::new(spec).with_dispatch_batch(32);
    let mut joiners = run_distributed(records, &cfg).joiners;
    joiners.sort_by_key(|j| j.task);
    joiners.iter().map(|j| priced(&j.stats)).collect()
}

fn max_over_mean(loads: &[f64]) -> f64 {
    let max = loads.iter().copied().fold(0.0, f64::max);
    max * loads.len() as f64 / loads.iter().sum::<f64>()
}

fn check(name: &str, profile: DatasetProfile, n: usize, tau: f64, window: Window) {
    let records = StreamGenerator::new(profile, SEED).take_records(n);
    let join = JoinConfig::jaccard(tau).with_window(window);
    let sample = &records[..SAMPLE];
    let hist = LengthHistogram::from_records(sample);
    let threshold = Threshold::jaccard(tau);
    let lp = calibrate_partition(sample, threshold, K, PartitionMethod::LoadAware);
    let ed = equal_depth(&hist, K);

    let (lp_work, ed_work) = (measured(&records, join, &lp), measured(&records, join, &ed));
    let busiest = |w: &[f64]| w.iter().copied().fold(0.0, f64::max);
    assert!(
        busiest(&lp_work) <= busiest(&ed_work),
        "{name}: load-aware {:?} busiest {:.4e} > equal-depth {:?} busiest {:.4e}",
        lp.uppers(),
        busiest(&lp_work),
        ed.uppers(),
        busiest(&ed_work),
    );

    let cost = CostModel::build(&hist, threshold, hist.max_len());
    let (predicted, actual) = (imbalance(&lp, &cost), max_over_mean(&lp_work));
    let ratio = predicted.max(actual) / predicted.min(actual);
    assert!(
        ratio <= 1.3,
        "{name}: load-aware {:?} predicted imbalance {predicted:.3}, measured {actual:.3}",
        lp.uppers(),
    );
}

#[test]
fn tweet_load_aware_balances_measured_work() {
    check(
        "tweet",
        DatasetProfile::tweet(),
        40_000,
        0.8,
        Window::Count(20_000),
    );
}

#[test]
fn aol_load_aware_balances_measured_work() {
    check("aol", DatasetProfile::aol(), 20_000, 0.8, Window::Unbounded);
}

#[test]
fn enron_load_aware_balances_measured_work() {
    check(
        "enron",
        DatasetProfile::enron(),
        20_000,
        0.6,
        Window::Count(15_000),
    );
}

#[test]
fn enron_churn_load_aware_balances_measured_work() {
    check(
        "enron-churn",
        DatasetProfile::enron(),
        20_000,
        0.6,
        Window::Count(2_000),
    );
}
