//! End-to-end integration: raw text → corpus → distributed streaming join,
//! checked against the single-node naive ground truth.

use dssj::core::join::run_stream;
use dssj::core::{JoinConfig, NaiveJoiner};
use dssj::distrib::{
    run_distributed, DistributedJoinConfig, JoinSpec, LocalAlgo, PartitionMethod, Strategy,
};
use dssj::text::{CorpusBuilder, QGramTokenizer, WordTokenizer};

/// A synthetic "news wire": templated sentences with small edits, so the
/// text pipeline (not a pre-tokenized generator) feeds the join.
fn news_texts(n: usize) -> Vec<String> {
    let subjects = ["senate", "market", "storm", "team", "council", "court"];
    let verbs = ["approves", "rejects", "debates", "announces", "delays"];
    let objects = [
        "new budget plan",
        "infrastructure bill",
        "trade agreement",
        "climate policy",
        "tax reform",
    ];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let s = subjects[i % subjects.len()];
        let v = verbs[(i / 2) % verbs.len()];
        let o = objects[(i / 3) % objects.len()];
        let suffix = if i % 4 == 0 { " today" } else { "" };
        out.push(format!("{s} {v} {o}{suffix} report {}", i % 7));
    }
    out
}

#[test]
fn text_pipeline_to_distributed_join() {
    let texts = news_texts(400);
    let mut builder = CorpusBuilder::new(WordTokenizer::default());
    for (i, t) in texts.iter().enumerate() {
        builder.push_text(t, i as u64);
    }
    let corpus = builder.build();
    let records = corpus.records().to_vec();

    let join = JoinConfig::jaccard(0.7);
    let mut naive = NaiveJoiner::new(join);
    let mut expect: Vec<_> = run_stream(&mut naive, &records)
        .iter()
        .map(|m| m.key())
        .collect();
    expect.sort_unstable();
    assert!(!expect.is_empty(), "workload must produce matches");

    for (local, strategy) in [
        (
            LocalAlgo::bundle(),
            Strategy::LengthAuto {
                method: PartitionMethod::LoadAware,
                sample: 100,
            },
        ),
        (LocalAlgo::PpJoin, Strategy::Prefix),
        (LocalAlgo::AllPairs, Strategy::Broadcast),
    ] {
        let cfg = DistributedJoinConfig {
            channel_capacity: 128,
            ..DistributedJoinConfig::new(JoinSpec {
                local,
                strategy,
                ..JoinSpec::recommended(4, join)
            })
        };
        let out = run_distributed(&records, &cfg);
        let mut got: Vec<_> = out.pairs.iter().map(|m| m.key()).collect();
        got.sort_unstable();
        assert_eq!(got, expect, "local={} diverged", local.name());
    }
}

#[test]
fn qgram_tokenization_feeds_the_join() {
    // Character q-grams turn typo-similarity into set similarity.
    let texts = [
        "streaming set similarity join",
        "streaming set similarity joins", // one-character edit
        "completely different sentence here",
    ];
    let mut builder = CorpusBuilder::new(QGramTokenizer::new(3));
    for (i, t) in texts.iter().enumerate() {
        builder.push_text(t, i as u64);
    }
    let corpus = builder.build();
    let mut naive = NaiveJoiner::new(JoinConfig::jaccard(0.7));
    let matches = run_stream(&mut naive, corpus.records());
    assert_eq!(matches.len(), 1, "only the edited pair matches");
    assert_eq!(matches[0].key(), (0, 1));
}

#[test]
fn identical_corpus_order_independence_of_results() {
    // The pair set depends only on content + arrival order encoded in ids;
    // running the same records twice must give identical output.
    let texts = news_texts(150);
    let mut builder = CorpusBuilder::new(WordTokenizer::default());
    for (i, t) in texts.iter().enumerate() {
        builder.push_text(t, i as u64);
    }
    let records = builder.build().into_records();
    let cfg = DistributedJoinConfig::recommended(4, JoinConfig::jaccard(0.7));
    let a = run_distributed(&records, &cfg);
    let b = run_distributed(&records, &cfg);
    let mut ka: Vec<_> = a.pairs.iter().map(|m| m.key()).collect();
    let mut kb: Vec<_> = b.pairs.iter().map(|m| m.key()).collect();
    ka.sort_unstable();
    kb.sort_unstable();
    assert_eq!(ka, kb);
}
