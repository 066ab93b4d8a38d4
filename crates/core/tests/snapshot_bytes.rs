//! A checkpoint encodes a live joiner straight from its window walk
//! (`encode_joiner`, `encode_bistream`), building no `Record`. Its bytes
//! must be the bytes of the record-codec path it replaced,
//! `encode_window_vec` of the joiner's `window_snapshot`, for every local
//! joiner and the bi-stream joiner, at any point of a stream whose window
//! evicts: restore, the wire's `Snapshot`/`Restore` frames and `scrub`
//! read both alike.

use proptest::prelude::*;
use ssj_core::join::run_stream;
use ssj_core::join::{BiStreamJoiner, Side};
use ssj_core::snapshot::{encode_bistream, encode_joiner, encode_window_vec, SnapshotEntry};
use ssj_core::{
    AllPairsJoiner, BundleJoiner, JoinConfig, NaiveJoiner, PpJoinJoiner, StreamJoiner, Window,
};
use ssj_text::Record;
use ssj_workloads::{DatasetProfile, StreamGenerator};

fn joiners(join: JoinConfig) -> [Box<dyn StreamJoiner + Send>; 4] {
    [
        Box::new(NaiveJoiner::new(join)),
        Box::new(AllPairsJoiner::new(join)),
        Box::new(PpJoinJoiner::new(join)),
        Box::new(BundleJoiner::with_defaults(join)),
    ]
}

fn untagged(records: Vec<Record>) -> Vec<SnapshotEntry> {
    records.into_iter().map(|r| (None, r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_direct_encoding_equals_the_record_codec_path(
        seed in 0u64..1_000_000,
        // Near-duplicates form multi-member bundles.
        dup_rate in 0.0f64..0.9,
        tau in 0.5f64..0.95,
        count in 4u64..60,
        time_ms in 20u64..400,
        time_window in 0u8..2,
        n in 0usize..300,
    ) {
        let profile = DatasetProfile::tweet().with_dup_rate(dup_rate);
        let records = StreamGenerator::new(profile, seed).take_records(n);
        let window = if time_window == 1 { Window::TimeMs(time_ms) } else { Window::Count(count) };
        let join = JoinConfig::jaccard(tau).with_window(window);
        let (head, tail) = records.split_at(n / 2);
        for mut joiner in joiners(join) {
            for part in [head, tail] {
                run_stream(&mut joiner, part);
                let direct = encode_joiner(&joiner).unwrap();
                let via_records = encode_window_vec(&untagged(joiner.window_snapshot())).unwrap();
                prop_assert_eq!(direct, via_records, "{}", joiner.name());
            }
        }

        let mut bi = BiStreamJoiner::new(|| BundleJoiner::with_defaults(join));
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let side = if (r.id().0 ^ seed) % 3 == 0 { Side::Left } else { Side::Right };
            bi.process(side, r, &mut out);
            if i == n / 2 || i + 1 == n {
                let entries: Vec<SnapshotEntry> = bi
                    .window_snapshot()
                    .into_iter()
                    .map(|(side, r)| (Some(side), r))
                    .collect();
                prop_assert_eq!(encode_bistream(&bi).unwrap(), encode_window_vec(&entries).unwrap());
            }
        }
    }
}
