//! `ssj-node` — one joiner process of a `dssj cluster` run.
//!
//! The launcher (`dssj cluster --backend tcp`) spawns one of these per
//! joiner task; each connects back over localhost TCP and serves the
//! sequenced join protocol until end of stream. It is not meant to be
//! run by hand, but doing so is harmless: it connects, handshakes, and
//! exits when the launcher closes the wire.
//!
//! ```text
//! ssj-node --connect HOST:PORT --task N
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut connect: Option<String> = None;
    let mut task: Option<usize> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" if i + 1 < argv.len() => {
                connect = Some(argv[i + 1].clone());
                i += 2;
            }
            "--task" if i + 1 < argv.len() => {
                task = argv[i + 1].parse().ok();
                i += 2;
            }
            other => {
                eprintln!("ssj-node: unexpected argument '{other}'");
                eprintln!("usage: ssj-node --connect HOST:PORT --task N");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(addr), Some(task)) = (connect, task) else {
        eprintln!("usage: ssj-node --connect HOST:PORT --task N");
        return ExitCode::from(2);
    };
    match ssj_distrib::node_main(&addr, task) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ssj-node (task {task}): {e}");
            ExitCode::FAILURE
        }
    }
}
