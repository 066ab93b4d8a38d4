//! End-to-end CLI tests driving the built `dssj` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dssj(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dssj"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dssj-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const DOCS: &str = "apache storm stream processing\n\
                    stream processing with apache storm\n\
                    rust borrow checker explained\n\
                    the rust borrow checker, explained\n";

#[test]
fn join_finds_similar_lines() {
    let input = write_temp("join_input.txt", DOCS);
    let out = dssj(&["join", "--input", input.to_str().unwrap(), "--tau", "0.6"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairs       : 2"), "{stdout}");
    assert!(stdout.contains("line 0 <-> line 1"), "{stdout}");
    assert!(stdout.contains("line 2 <-> line 3"), "{stdout}");
}

#[test]
fn verbose_join_prints_each_joiners_scan_counters() {
    let input = write_temp("join_verbose.txt", &DOCS.repeat(10));
    let out = dssj(&[
        "join",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--k",
        "3",
        "--verbose",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("joiner "))
        .collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    let field = |line: &str, name: &str| -> u64 {
        let mut words = line.split_whitespace();
        words.find(|w| *w == name);
        words
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in: {line}"))
    };
    let mut posting_hits = 0;
    for line in &lines {
        field(line, "probed");
        posting_hits += field(line, "posting_hits");
    }
    assert!(posting_hits > 0, "{stdout}");
}

#[test]
fn join_with_qgrams() {
    let input = write_temp(
        "join_qgram.txt",
        "similarity join\nsimilarity joins\nunrelated words\n",
    );
    let out = dssj(&[
        "join",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.7",
        "--qgram",
        "3",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairs       : 1"), "{stdout}");
}

#[test]
fn bistream_joins_two_files() {
    let left = write_temp(
        "bi_left.txt",
        "breaking news about storms\ncalm weather today\n",
    );
    let right = write_temp("bi_right.txt", "breaking news about storms\n");
    let out = dssj(&[
        "bistream",
        "--left",
        left.to_str().unwrap(),
        "--right",
        right.to_str().unwrap(),
        "--tau",
        "0.9",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairs       : 1"), "{stdout}");
}

#[test]
fn generate_then_partition_roundtrip() {
    let corpus = std::env::temp_dir().join("dssj-cli-tests/gen.txt");
    let out = dssj(&[
        "generate",
        "--profile",
        "aol",
        "--n",
        "500",
        "--out",
        corpus.to_str().unwrap(),
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&corpus).unwrap();
    assert_eq!(text.lines().count(), 500);

    let out = dssj(&["partition", "--input", corpus.to_str().unwrap(), "--k", "4"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("joiner 0"), "{stdout}");
    assert!(stdout.contains("imbalance"), "{stdout}");
}

#[test]
fn cluster_under_chaos_finds_the_same_pairs() {
    let input = write_temp("cluster_chaos.txt", DOCS);
    let out = dssj(&[
        "cluster",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--backend",
        "inprocess",
        "--chaos-seed",
        "42",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The session layer masks the injected link faults: the result set is
    // identical to the clean run's.
    assert!(stdout.contains("pairs       : 2"), "{stdout}");
    assert!(stdout.contains("line 0 <-> line 1"), "{stdout}");
    assert!(stdout.contains("line 2 <-> line 3"), "{stdout}");
}

#[test]
fn cluster_reports_what_batching_amortised_and_rejects_a_zero_batch() {
    let input = write_temp("cluster_batch.txt", &DOCS.repeat(40));
    let input = input.to_str().unwrap();
    let run = |batch: &[&str]| {
        let mut args = vec![
            "cluster",
            "--input",
            input,
            "--tau",
            "0.6",
            "--backend",
            "inprocess",
        ];
        args.extend_from_slice(batch);
        dssj(&args)
    };
    // Omitted = the recommended batch: far fewer data frames than messages.
    let out = run(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("batch "))
        .unwrap_or_else(|| panic!("no batch line in:\n{stdout}"));
    assert!(line.contains("160 records"), "{line}");
    let per_frame: f64 = line
        .rsplit('(')
        .next()
        .and_then(|tail| tail.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no ratio in: {line}"));
    assert!(per_frame >= 4.0, "{line}");
    // One message per frame on request.
    let out = run(&["--dispatch-batch", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(1.0 messages/frame)"), "{stdout}");
    // Zero is refused, as on `dssj join`.
    let out = run(&["--dispatch-batch", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--dispatch-batch must be > 0"), "{stderr}");
}

#[test]
fn bad_chaos_seed_rejected() {
    // Topology wires cannot lose a tuple, so the flag names no behaviour
    // of `join` / `bistream`; the error says where it went.
    let input = write_temp("chaos_seed.txt", "a b c\n");
    let input = input.to_str().unwrap();
    for args in [
        vec!["join", "--input", input, "--chaos-seed", "42"],
        vec![
            "bistream",
            "--left",
            input,
            "--right",
            input,
            "--chaos-seed",
            "42",
        ],
    ] {
        let out = dssj(&args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--chaos-seed: link chaos is a cluster feature")
                && stderr.contains("dssj cluster --chaos-seed"),
            "{stderr}"
        );
    }
    // On the cluster the flag is still parsed.
    let out = dssj(&[
        "cluster",
        "--input",
        input,
        "--backend",
        "inprocess",
        "--chaos-seed",
        "not-a-number",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("chaos-seed"));
}

#[test]
fn scrub_passes_clean_checkpoints_and_flags_bit_rot() {
    let input = write_temp("scrub_input.txt", DOCS);
    let ckpt = std::env::temp_dir().join("dssj-cli-tests/scrub-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = dssj(&[
        "join",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-interval",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A freshly committed store scrubs clean.
    let out = dssj(&["scrub", ckpt.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 corrupt"), "{stdout}");

    // Rot one bit in every snapshot part: scrub must flag every epoch
    // and exit nonzero.
    let mut rotted = 0;
    for epoch in std::fs::read_dir(&ckpt).unwrap() {
        for f in std::fs::read_dir(epoch.unwrap().path()).unwrap() {
            let path = f.unwrap().path();
            if path.extension().is_some_and(|e| e == "snap") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&path, bytes).unwrap();
                rotted += 1;
            }
        }
    }
    assert!(rotted > 0, "join never committed a snapshot part");
    let out = dssj(&["scrub", ckpt.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CORRUPT"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("failed verification"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --verify-restore refuses to start from an all-corrupt store.
    let out = dssj(&[
        "join",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--restore-from",
        ckpt.to_str().unwrap(),
        "--verify-restore",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt"), "{stderr}");
}

#[test]
fn scrub_reports_an_empty_store() {
    let dir = std::env::temp_dir().join("dssj-cli-tests/scrub-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dssj(&["scrub", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("no committed epochs"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = dssj(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_required_flag_fails() {
    let out = dssj(&["join"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn bad_tau_rejected() {
    let input = write_temp("tau.txt", "a b c\n");
    let out = dssj(&["join", "--input", input.to_str().unwrap(), "--tau", "1.5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("tau"));
}
