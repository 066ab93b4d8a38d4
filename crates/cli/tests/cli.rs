//! End-to-end CLI tests driving the built `dssj` binary.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
fn a_reader_that_stops_early_ends_the_run_quietly() {
    // Two families of 100 similar lines: ~10k pair lines, several times
    // what a pipe buffers, so dssj is still writing when the reader goes.
    let input = write_temp("join_pipe.txt", &DOCS.repeat(50));
    let mut child = Command::new(env!("CARGO_BIN_EXE_dssj"))
        .args(["join", "--input", input.to_str().unwrap(), "--tau", "0.6"])
        .args(["--show-pairs", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("records"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
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

/// `bistream` prints its pairs sorted (similarity, then key), not in the
/// order a threaded run happened to collect them: two runs print the same
/// lines.
#[test]
fn bistream_prints_the_same_pairs_in_the_same_order_every_run() {
    let left: String = (0..60)
        .map(|i| format!("storm front {} over the bay area w{}\n", i % 7, i % 3))
        .collect();
    let right: String = (0..60)
        .map(|i| format!("storm front {} over the bay area w{}\n", i % 5, i % 4))
        .collect();
    let left = write_temp("bi_order_left.txt", &left);
    let right = write_temp("bi_order_right.txt", &right);
    let pair_lines = || {
        let out = dssj(&[
            "bistream",
            "--left",
            left.to_str().unwrap(),
            "--right",
            right.to_str().unwrap(),
            "--tau",
            "0.6",
            "--k",
            "4",
            "--show-pairs",
            "1000",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines = stdout.lines().filter(|l| l.contains(" <-> "));
        lines.map(str::to_owned).collect::<Vec<_>>()
    };
    let first = pair_lines();
    assert!(
        first.len() > 50,
        "too few pairs to show an order: {first:?}"
    );
    assert_eq!(first, pair_lines());
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
fn cluster_under_a_partition_finds_the_same_pairs() {
    let input = write_temp("cluster_partition.txt", DOCS);
    let out = dssj(&[
        "cluster",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--backend",
        "inprocess",
        "--fault",
        "partition:0:0:1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Node 0's first data frame is dropped: the detector respawns the
    // node, which gets the frame again, and the result set is identical
    // to the clean run's.
    assert!(stdout.contains("dropped by partitions"), "{stdout}");
    assert!(stdout.contains("node 0 restarted 1 time(s)"), "{stdout}");
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

/// A node that exhausts its recovery budget fails the run: the command
/// exits non-zero naming the task, and prints no partial answer.
#[test]
fn an_exhausted_recovery_budget_fails_the_cluster_run() {
    let input = write_temp("cluster_budget.txt", &DOCS.repeat(40));
    let out = dssj(&[
        "cluster",
        "--input",
        input.to_str().unwrap(),
        "--tau",
        "0.6",
        "--node-bin",
        env!("CARGO_BIN_EXE_ssj-node"),
        "--recovery-budget",
        "0",
        "--fault",
        "crash:1:1",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("task 1 exhausted its recovery budget of 0 respawn(s)"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("pairs"), "{stdout}");
}

/// A checkpoint store that cannot take a snapshot part fails the run on
/// every engine: threads, the simulator and the cluster each exit non-zero
/// naming the store write, and print no partial answer. The input is long
/// enough that later epochs are published after the write fails, so a
/// joiner meets the error while the dispatcher still sends to it, and the
/// dispatcher must not add a panic message of its own.
#[test]
fn a_failed_snapshot_write_fails_the_run_on_every_engine() {
    let dir = std::env::temp_dir().join("dssj-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("store_fault.txt");
    let input = input.to_str().unwrap();
    let out = dssj(&[
        "generate",
        "--profile",
        "tweet",
        "--n",
        "5000",
        "--seed",
        "3",
        "--out",
        input,
    ]);
    assert!(out.status.success());
    for (name, engine) in [
        ("threads", &["join"][..]),
        ("sim", &["join", "--sim", "3"][..]),
        ("cluster", &["cluster", "--backend", "inprocess"][..]),
    ] {
        // Epoch 2's staging file is a directory: its first store write
        // fails.
        let ckpt = dir.join(format!("store-fault-{name}"));
        let _ = std::fs::remove_dir_all(&ckpt);
        std::fs::create_dir_all(ckpt.join("epoch-2.tmp")).unwrap();
        let mut args = engine.to_vec();
        args.extend([
            "--input",
            input,
            "--tau",
            "0.6",
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-interval",
            "1000",
        ]);
        let out = dssj(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: {stderr}");
        assert!(
            stderr.contains("snapshot store write failed"),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("receiver alive"), "{name}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("pairs"), "{name}: {stdout}");
    }
}

/// A bi-stream cluster run takes a recovery budget like a self-join, and
/// a kill within it recovers.
#[test]
fn a_bistream_cluster_run_takes_a_recovery_budget() {
    let input = write_temp("cluster_budget_bistream.txt", &DOCS.repeat(40));
    let input = input.to_str().unwrap();
    let out = dssj(&[
        "cluster",
        "--left",
        input,
        "--right",
        input,
        "--tau",
        "0.6",
        "--backend",
        "inprocess",
        "--recovery-budget",
        "1",
        "--fault",
        "crash:0:1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairs       : 12800"), "{stdout}");
    assert!(stdout.contains("node 0 restarted 1 time(s)"), "{stdout}");
}

/// No command reads a link-chaos seed or a retransmission cap: both are
/// refused like any unread option, on `join` as on `cluster`.
#[test]
fn chaos_seed_and_retry_max_ms_are_refused_as_unread() {
    let input = write_temp("unread_flags.txt", "a b c\n");
    let input = input.to_str().unwrap();
    for command in ["join", "cluster --backend inprocess"] {
        for (option, value) in [("chaos-seed", "42"), ("retry-max-ms", "640")] {
            let line = format!("{command} --input {input} --{option} {value}");
            let out = dssj_line(&line);
            assert!(!out.status.success(), "{line}");
            let name = command.split(' ').next().unwrap();
            let refused = format!("--{option}: not an option of dssj {name}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&refused), "{line}: {stderr}");
        }
    }
}

/// `--fault` is the one fault option: the four it replaced are refused
/// like any unread option.
#[test]
fn the_replaced_fault_options_are_refused_as_unread() {
    let input = write_temp("unread_fault_flags.txt", "a b c\n");
    let input = input.to_str().unwrap();
    for (option, value) in [
        ("kill-task", "0"),
        ("kill-after", "5"),
        ("stall", "0:1:2"),
        ("partition", "0:1:2"),
    ] {
        let line = format!("cluster --backend inprocess --input {input} --{option} {value}");
        let out = dssj_line(&line);
        assert_eq!(out.status.code(), Some(2), "{line}");
        let refused = format!("--{option}: not an option of dssj cluster");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&refused), "{line}: {stderr}");
    }
}

/// A malformed `--fault` entry, or a window the topology cannot honour,
/// stops the command before it runs with one line and exit status 2.
#[test]
fn a_bad_fault_exits_2_with_one_line() {
    let input = write_temp("bad_fault.txt", DOCS);
    let input = input.to_str().unwrap();
    for (line, says) in [
        (
            "cluster --backend inprocess --k 2 --fault crash:2:5",
            "task 2 is not in 0..2",
        ),
        (
            "cluster --backend inprocess --fault stall:0:5:0",
            "a window needs a length > 0",
        ),
        (
            "cluster --backend inprocess --fault partition:0:5",
            "a window needs a length > 0",
        ),
        (
            "cluster --backend inprocess --fault crash:0:5:3",
            "a crash takes no length",
        ),
        (
            "cluster --backend inprocess --fault drop:0:5:3",
            "kind is one of crash|stall|",
        ),
        ("join --fault crash:0:x", "not a number"),
        (
            "join --fault stall:0:5:2",
            "fault Stall needs a wire; the topology engine honours only Crash",
        ),
    ] {
        let out = dssj_line(&format!("{line} --input {input}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{line}: {stderr}");
        assert!(stderr.contains(says), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran before refusing");
    }
}

/// A crash the topology honours changes nothing the join prints.
#[test]
fn a_crashed_joiner_prints_the_fault_free_pairs() {
    let input = std::env::temp_dir().join("dssj-cli-tests/crash_input.txt");
    std::fs::create_dir_all(input.parent().unwrap()).unwrap();
    let input = input.to_str().unwrap();
    let generated = dssj_line(&format!(
        "generate --profile tweet --n 2000 --seed 3 --out {input}"
    ));
    assert!(generated.status.success());
    let pairs = |fault: &str| {
        let out = dssj_line(&format!("join --sim 7 --input {input} {fault}"));
        assert!(out.status.success(), "{fault}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().find(|l| l.starts_with("pairs"));
        line.expect("a pairs line").to_owned()
    };
    let clean = pairs("");
    assert_ne!(clean, "pairs       : 0", "the input produced no pairs");
    assert_eq!(pairs("--fault crash:1:40"), clean);
}

/// Runs `dssj` on a whitespace-separated command line.
fn dssj_line(line: &str) -> Output {
    dssj(&line.split_whitespace().collect::<Vec<_>>())
}

/// A flag the command never reads stops it before the run, naming the
/// flag and the command — a misspelt one, or one only another command
/// reads — instead of running as if it had not been given.
#[test]
fn an_option_the_command_does_not_read_is_refused() {
    let input = write_temp("unread.txt", DOCS);
    let input = input.to_str().unwrap();
    for (line, refused) in [
        (
            "join --input {in} --kill-task 0 --kill-after 5",
            "--kill-after: not an option of dssj join",
        ),
        (
            "join --input {in} --windw 100",
            "--windw: not an option of dssj join",
        ),
        (
            "bistream --left {in} --right {in} --backend tcp",
            "--backend: not an option of dssj bistream",
        ),
        (
            "cluster --input {in} --backend inprocess --sim 3",
            "--sim: not an option of dssj cluster",
        ),
        (
            "cluster --input {in} --backend inprocess --verbose",
            "--verbose: not an option of dssj cluster",
        ),
        (
            "partition --input {in} --window 9",
            "--window: not an option of dssj partition",
        ),
    ] {
        let out = dssj_line(&line.replace("{in}", input));
        assert!(!out.status.success(), "{line}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(refused), "{line}: {stderr}");
        assert!(out.stdout.is_empty(), "{line} ran before refusing");
    }
    // Every option a usage line lists is one its command reads.
    let dir = std::env::temp_dir().join("dssj-cli-tests/unread");
    let _ = std::fs::remove_dir_all(&dir);
    for line in [
        "join --input {in} --qgram 3 --tau 0.6 --window 50 --algo ppjoin --k 2 --show-pairs 1 \
         --verbose --shed-watermark 64 --dispatch-batch 4 --checkpoint-dir {dir}/ckpt \
         --checkpoint-interval 2 --sim 1 --trace-out {dir}/trace --fault crash:1:0",
        "join --input {in} --k 2 --restore-from {dir}/ckpt --verify-restore \
         --chrome-out {dir}/chrome --metrics-out {dir}/metrics",
        "bistream --left {in} --right {in} --verbose --dispatch-batch 4 --source-rate 1000000",
        "cluster --input {in} --backend inprocess --node-bin /none --window 50 --qgram 3 \
         --logical-time --heartbeat-interval 25 --suspect-after 250 --fault stall:0:0:1",
    ] {
        let out = dssj_line(
            &line
                .replace("{in}", input)
                .replace("{dir}", dir.to_str().unwrap()),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{line}: {stderr}");
    }
}

/// `dssj join` and `dssj cluster` parse the join they share with one
/// parser, so they refuse a bad option of it in the same words.
#[test]
fn join_and_cluster_refuse_a_bad_join_option_alike() {
    let input = write_temp("spec.txt", DOCS);
    let dir = std::env::temp_dir().join("dssj-cli-tests/spec-ckpt");
    for bad in [
        "--checkpoint-interval 5".to_owned(),
        format!("--checkpoint-dir {} --checkpoint-interval 0", dir.display()),
        "--dispatch-batch 0".to_owned(),
        "--algo nope".to_owned(),
    ] {
        let refusal = |command: &str| {
            let out = dssj_line(&format!("{command} --input {} {bad}", input.display()));
            assert!(!out.status.success(), "{command} {bad}");
            String::from_utf8_lossy(&out.stderr).into_owned()
        };
        let join = refusal("join");
        assert!(join.starts_with("error: --"), "{bad}: {join}");
        assert_eq!(join, refusal("cluster --backend inprocess"), "{bad}");
    }
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

    // Rot one bit in the middle of every epoch file, among its snapshot
    // parts: scrub must flag every epoch and exit nonzero.
    let mut rotted = 0;
    for epoch in std::fs::read_dir(&ckpt).unwrap() {
        let path = epoch.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        rotted += 1;
    }
    assert!(rotted > 0, "join never committed an epoch");
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
