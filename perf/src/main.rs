//! The repo benchmark. One process measures one workload, either untraced
//! (end-to-end metrics) or traced (per-layer metrics), and prints one JSON
//! result object as the last line of its standard output. Without
//! `--workload` it runs every workload, each in a process of its own.
//!
//! It measures from outside: it links the library crates, times calls
//! into their public functions with its own clock and reads the counters
//! their result structs expose. `BENCHMARK.json` declares every workload
//! and metric name; see `perf/README.md`.

mod compare;
mod e2e;
mod host;
mod json;
mod layers;
mod span;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use spec::Spec;
use workloads::{Env, Score, WORKLOADS};

const DEFAULT_SEED: u64 = 20200401;

/// What one run, traced or not, hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit)` of every declared metric of this kind of run.
    pub metrics: Vec<(String, f64, String)>,
    pub score: Score,
    /// `(file name, contents)` to write under the output directory.
    pub files: Vec<(String, String)>,
}

impl Outcome {
    fn new(set: &spec::MetricSet, score: Score, files: Vec<(String, String)>) -> Self {
        let metrics = set
            .finish()
            .into_iter()
            .map(|(d, v)| (d.name.clone(), v, d.unit.clone()))
            .collect();
        Outcome {
            metrics,
            score,
            files,
        }
    }

    /// The metrics as one JSON object, for the output files.
    fn metrics_json(set: &spec::MetricSet) -> Json {
        Json::obj(
            set.finish()
                .into_iter()
                .map(|(d, v)| (d.name.clone(), Json::Num(v))),
        )
    }
}

const USAGE: &str =
    "usage: perf [--list] [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
            [--node-bin PATH] [--benchmark-json PATH] [--out DIR]
       perf --compare FIRST_DIR SECOND_DIR [--also DIR]";

#[derive(Debug)]
struct Args {
    list: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    node_bin: PathBuf,
    benchmark_json: PathBuf,
    out: PathBuf,
    /// Two output directories whose runs `--compare` judges.
    compare: Option<(PathBuf, PathBuf)>,
    also: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        list: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        node_bin: PathBuf::from("target/release/ssj-node"),
        benchmark_json: PathBuf::from("BENCHMARK.json"),
        out: PathBuf::from("perf/out"),
        compare: None,
        also: Vec::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        if flag == "--list" {
            args.list = true;
            continue;
        }
        if flag == "--trace" {
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            args.trace = match argv.get(i).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    false
                }
                Some("1") => {
                    i += 1;
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = argv
            .get(i)
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        i += 1;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                args.seconds = Some(s);
            }
            "--node-bin" => args.node_bin = PathBuf::from(value),
            "--benchmark-json" => args.benchmark_json = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            "--also" => args.also.push(PathBuf::from(value)),
            "--compare" => {
                let second = argv
                    .get(i)
                    .ok_or_else(|| format!("--compare needs two directories\n{USAGE}"))?;
                i += 1;
                args.compare = Some((PathBuf::from(value), PathBuf::from(second)));
            }
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The declared workloads and the compiled ones must be the same set: a
/// name in one and not the other would be run without a declared reason,
/// or declared and never run.
fn check_workloads(spec: &Spec) -> Result<(), String> {
    let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let compiled: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared == compiled {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json declares workloads {declared:?} but this binary implements {compiled:?}"
        ))
    }
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name])
            .status()
            .map_err(|e| format!("cannot start a child for {}: {e}", w.name))?;
        if !status.success() {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {failed:?}"))
    }
}

fn result_line(score: Score, metrics: &[(String, f64, String)]) -> String {
    Json::obj([
        ("correct", Json::Bool(score.failed == 0)),
        ("attempted", Json::Num(score.attempted as f64)),
        ("failed", Json::Num(score.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit.clone())),
                    ]),
                )
            })),
        ),
    ])
    .to_line()
}

fn real_main(started: Instant) -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = Spec::load(&args.benchmark_json)?;
    check_workloads(&spec)?;
    if args.list {
        print!("{}", spec.listing());
        return Ok(());
    }
    if let Some((first, second)) = &args.compare {
        let also: Vec<&std::path::Path> = args.also.iter().map(PathBuf::as_path).collect();
        print!("{}", compare::compare(&spec, first, second, &also)?);
        return Ok(());
    }
    let Some(name) = &args.workload else {
        return run_all(&argv);
    };
    // Both lists were just checked equal, so a compiled name is a declared one.
    let w = workloads::by_name(name)
        .ok_or_else(|| format!("workload '{name}' is not declared in BENCHMARK.json"))?;
    if !args.node_bin.is_file() {
        return Err(format!(
            "no ssj-node binary at {} (perf/run.sh builds it)",
            args.node_bin.display()
        ));
    }
    let env = Env {
        node_bin: args.node_bin.clone(),
        tmp: args.out.join("tmp"),
    };
    std::fs::create_dir_all(&env.tmp)
        .map_err(|e| format!("cannot create {}: {e}", env.tmp.display()))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);

    let out = if args.trace {
        layers::run(&w, &spec, args.seed, seconds, &env)?
    } else {
        e2e::run(&w, &spec, args.seed, seconds, &env, started)?
    };
    for (file, text) in &out.files {
        let path = args.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (name, value, unit) in &out.metrics {
        println!("{:<20} {name:<48} {value:>16.4} {unit}", w.name);
    }
    if out.score.failed > 0 {
        eprintln!(
            "perf: {}: INCORRECT — {} of {} pair operations failed",
            w.name, out.score.failed, out.score.attempted
        );
    }
    println!("{}", result_line(out.score, &out.metrics));
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    match real_main(started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where tests find the node binary and put scratch files: `PERF_NODE_BIN`
/// if set (`perf/run.sh --test` sets it), else the root workspace's
/// release directory.
#[cfg(test)]
fn test_env() -> Env {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    Env {
        node_bin: std::env::var_os("PERF_NODE_BIN").map_or_else(
            || manifest.join("../target/release/ssj-node"),
            PathBuf::from,
        ),
        tmp: manifest.join("out/tmp"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(!parse_args(&argv(&[])).unwrap().trace);
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        assert!(
            parse_args(&argv(&["--trace", "1", "--seed", "5"]))
                .unwrap()
                .trace
        );
        let a = parse_args(&argv(&["--trace", "0", "--workload", "aol-threads"])).unwrap();
        assert!(!a.trace);
        assert_eq!(a.workload.as_deref(), Some("aol-threads"));
        let a = parse_args(&argv(&["--trace", "--seconds", "2.5"])).unwrap();
        assert!(a.trace);
        assert_eq!(a.seconds, Some(2.5));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--seed", "x"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn the_committed_declaration_matches_the_compiled_workloads() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = Spec::load(&path).unwrap();
        check_workloads(&spec).unwrap();
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
