//! The experiment driver: regenerates every table and figure of the
//! evaluation (see EXPERIMENTS.md).
//!
//! ```text
//! experiments [--n N] [--quick] [--results DIR] <id>...
//!   ids: t1 t2 f1 f2 f3 f4 f5 f6 f7 f8 f9 f11 a1 all
//! ```

use ssj_bench::{exps, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let ids: Vec<&str> = exps::ALL.iter().map(|(id, _)| *id).collect();
    eprintln!("usage: experiments [--n N] [--quick] [--results DIR] <id>...");
    eprintln!("  ids: {} all", ids.join(" "));
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
        ids = exps::ALL.iter().map(|(id, _)| (*id).to_owned()).collect();
    }

    println!(
        "# Distributed Streaming Set Similarity Join — experiments (n = {}, quick = {})\n",
        scale.n(),
        scale.quick
    );
    for id in &ids {
        let Some(&(_, run)) = exps::ALL.iter().find(|(known, _)| known == id) else {
            eprintln!("unknown experiment id: {id}");
            return usage();
        };
        let t0 = std::time::Instant::now();
        if let Err(e) = run(scale, &results) {
            eprintln!("error: {id}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[{id} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
