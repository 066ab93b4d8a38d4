//! `dssj` — the command-line interface.
//!
//! ```text
//! dssj join      --input FILE [--tau T] [--k K] [...]
//! dssj bistream  --left FILE --right FILE [--tau T] [--k K] [...]
//! dssj cluster   --input FILE [--k K] [--backend tcp|inprocess] [...]
//! dssj generate  --profile aol|dblp|enron|tweet --n N --out FILE [--seed S]
//! dssj partition --input FILE [--tau T] [--k K]
//! dssj scrub     DIR
//! ```
//!
//! `dssj` with no command prints every option; each command refuses an
//! option it does not read.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `dssj scrub DIR` reads naturally with a positional directory; the
    // flag parser only knows `--key value`, so rewrite it to `--dir DIR`.
    if argv.first().map(String::as_str) == Some("scrub")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        argv.insert(1, "--dir".to_owned());
    }
    let Some((command, rest)) = argv.split_first() else {
        return commands::usage();
    };
    let parsed = match args::Args::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return commands::usage();
        }
    };
    let result = match command.as_str() {
        "join" => commands::join(&parsed, false),
        "bistream" => commands::join(&parsed, true),
        "cluster" => commands::cluster(&parsed),
        "generate" => commands::generate(&parsed),
        "partition" => commands::partition(&parsed),
        "scrub" => commands::scrub(&parsed),
        "--help" | "-h" | "help" => {
            commands::usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'");
            return commands::usage();
        }
    };
    let broken_pipe = |e: &std::io::Error| e.kind() == std::io::ErrorKind::BrokenPipe;
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped early (`dssj join ... | head`) got its lines.
        Err(e) if e.downcast_ref().is_some_and(broken_pipe) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
