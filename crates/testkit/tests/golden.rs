//! Golden-transcript regression: the committed transcript of the
//! reference simulated run must replay byte-identically, forever.
//!
//! The transcript fixes the complete interleaving of
//! [`testkit::reference_run`] — scheduler choices, the injected crash,
//! and the virtual-clock readings on every line. Any change to the
//! simulation's decision order (a new RNG draw, a moved EOS hand-off, a
//! changed transcript format) breaks this test
//! *loudly*, which is the point: determinism regressions must never land
//! silently. After an *intentional* change, regenerate with
//!
//! ```text
//! cargo test -p testkit --test golden regenerate -- --ignored
//! ```
//!
//! and review the transcript diff like any other golden-file change.

use testkit::transcript::{diff, Transcript};

const GOLDEN_SEED: u64 = 7;
const GOLDEN: &str = include_str!("../golden/reference_seed7.transcript");
const GOLDEN_CHECKPOINT: &str = include_str!("../golden/checkpoint_seed7.transcript");

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/reference_seed7.transcript")
}

fn checkpoint_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/checkpoint_seed7.transcript")
}

#[test]
fn golden_transcript_replays_byte_identical() {
    let run = testkit::reference_run(GOLDEN_SEED);
    let got = run.transcript.to_text();
    if got != GOLDEN {
        let report = diff(&Transcript::from_text(GOLDEN), &run.transcript)
            .unwrap_or_else(|| "(same lines, different trailing bytes)".into());
        panic!(
            "replay diverged from the committed golden transcript.\n{report}\n\
             If the change is intentional, regenerate with\n  \
             cargo test -p testkit --test golden regenerate -- --ignored"
        );
    }
}

#[test]
fn two_consecutive_runs_are_byte_identical() {
    let a = testkit::reference_run(GOLDEN_SEED).transcript.to_text();
    let b = testkit::reference_run(GOLDEN_SEED).transcript.to_text();
    assert_eq!(a, b, "same seed must replay the exact same interleaving");
}

#[test]
fn checkpointed_golden_transcript_replays_byte_identical() {
    let run = testkit::reference_checkpoint_run(GOLDEN_SEED);
    let transcript = run.transcript.expect("sim runs record a transcript");
    let got = transcript.to_text();
    if got != GOLDEN_CHECKPOINT {
        let report = diff(&Transcript::from_text(GOLDEN_CHECKPOINT), &transcript)
            .unwrap_or_else(|| "(same lines, different trailing bytes)".into());
        panic!(
            "checkpointed replay diverged from the committed golden transcript.\n{report}\n\
             If the change is intentional, regenerate with\n  \
             cargo test -p testkit --test golden regenerate -- --ignored"
        );
    }
}

#[test]
#[ignore = "rewrites the golden files; run only after an intentional simulation change"]
fn regenerate() {
    let run = testkit::reference_run(GOLDEN_SEED);
    std::fs::write(golden_path(), run.transcript.to_text()).expect("write golden transcript");
    let ckpt = testkit::reference_checkpoint_run(GOLDEN_SEED);
    std::fs::write(
        checkpoint_golden_path(),
        ckpt.transcript.expect("sim transcript").to_text(),
    )
    .expect("write checkpoint golden transcript");
}
