//! The experiment driver: regenerates every table and figure of the
//! evaluation (see EXPERIMENTS.md).
//!
//! ```text
//! experiments [--n N] [--quick] [--results DIR] <id>...
//!   ids: check t1 t2 f1 f2 f3 f4 f5 f6 f7 f8 f9 f11 f12 f13 f14 f15 f16 f18 a1 all
//! ```

use ssj_bench::{exps, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const IDS: &[&str] = &[
    "check", "t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f11", "f12", "f13",
    "f14", "f15", "f16", "f18", "a1",
];

fn usage() -> ExitCode {
    eprintln!("usage: experiments [--n N] [--quick] [--results DIR] <id>...");
    eprintln!("  ids: {} all", IDS.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::default();
    let mut results = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                scale.n = v;
            }
            "--quick" => scale.quick = true,
            "--results" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                results = PathBuf::from(v);
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            id if id.starts_with('-') => {
                eprintln!("unknown flag: {id}");
                return usage();
            }
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        return usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = IDS.iter().map(|s| (*s).to_owned()).collect();
    }

    println!(
        "# Distributed Streaming Set Similarity Join — experiments (n = {}, quick = {})\n",
        scale.n(),
        scale.quick
    );
    for id in &ids {
        let t0 = std::time::Instant::now();
        match id.as_str() {
            "check" => exps::check(&results),
            "t1" => exps::t1(scale, &results),
            "t2" => exps::t2(scale, &results),
            "f1" => exps::f1(scale, &results),
            "f2" => exps::f2(scale, &results),
            "f3" => exps::f3(scale, &results),
            "f4" => exps::f4(scale, &results),
            "f5" => exps::f5(scale, &results),
            "f6" => exps::f6(scale, &results),
            "f7" => exps::f7(scale, &results),
            "f8" => exps::f8(scale, &results),
            "f9" => exps::f9(scale, &results),
            "f11" => exps::f11(scale, &results),
            "f12" => exps::f12(scale, &results),
            "f13" => exps::f13(scale, &results),
            "f14" => exps::f14(scale, &results),
            "f15" => exps::f15(scale, &results),
            "f16" => exps::f16(scale, &results),
            "f18" => exps::f18(scale, &results),
            "a1" => exps::a1(scale, &results),
            other => {
                eprintln!("unknown experiment id: {other}");
                return usage();
            }
        }
        eprintln!("[{id} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
