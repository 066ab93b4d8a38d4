//! Host fingerprint written into every output file, so a trajectory of
//! results can be compared across machines: what the machine is, what
//! built the program, and how fast a fixed reference loop runs on it.

use std::hint::black_box;
use std::time::Instant;

use ssj_core::verify;
use ssj_text::TokenId;

use crate::json::Json;

/// The fixed machine-speed reference of `crates/bench`'s `local_join_gate`:
/// 256 sets of up to 16 tokens from a fixed LCG, all pairs intersected
/// with the scalar merge kernel. No joiner code, no allocation in the
/// timed loop. Returns the best of five passes in nanoseconds.
pub fn reference_loop_ns() -> u64 {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let sets: Vec<Vec<TokenId>> = (0..256)
        .map(|_| {
            let mut toks: Vec<u32> = (0..16).map(|_| next() % 4096).collect();
            toks.sort_unstable();
            toks.dedup();
            toks.into_iter().map(TokenId).collect()
        })
        .collect();
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut total = 0usize;
            for a in &sets {
                for b in &sets {
                    total += verify::overlap_merge(black_box(a), black_box(b), 0, 0).unwrap_or(0);
                }
            }
            black_box(total);
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("five passes")
}

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_owned())
    })
}

/// The fingerprint object. `rustc` and `commit` come from the environment
/// `run.sh` sets (`PERF_RUSTC`, `PERF_COMMIT`); a checkout that is not a
/// git repository reports `unknown`.
pub fn fingerprint(seed: u64, n: usize, repetitions: usize) -> Json {
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64)),
        ),
        (
            "cpu_model",
            Json::str(
                first_line_value("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            ),
        ),
        ("rustc", env("PERF_RUSTC")),
        ("commit", env("PERF_COMMIT")),
        ("seed", Json::Num(seed as f64)),
        ("n", Json::Num(n as f64)),
        ("repetitions", Json::Num(repetitions as f64)),
        ("reference_loop_ns", Json::Num(reference_loop_ns() as f64)),
    ])
}

/// Resets the kernel's peak-RSS watermark of this process to its current
/// RSS, so the next [`peak_rss_mib`] reads the peak since now. Returns
/// whether the kernel allowed it; where it does not, the watermark simply
/// keeps covering the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kb = first_line_value("/proc/self/status", "VmHWM")?;
    let kb: f64 = kb.trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
