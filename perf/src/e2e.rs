//! The untraced run: set-up, then timed repetitions of the whole public
//! call for the run length, every one checked against the reference.
//! End-to-end metrics come only from here.

use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::spec::{MetricSet, Spec};
use crate::stats;
use crate::workloads::{prepare, run_scored, Env, Score, Workload};
use crate::Outcome;

/// Set-up is done this many times per run and `setup_s` is the median, so
/// one slow page-cache or scheduler hiccup does not decide the metric.
const SETUPS: usize = 3;
/// At least this many timed repetitions, however short the run length.
const MIN_REPETITIONS: usize = 5;

fn secs(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

/// Runs workload `w` untraced for `seconds` and reports every end-to-end
/// metric; the document goes to `<out>/<workload>.json`. `started` is when
/// the process started: the first set-up is timed from there.
pub fn run(
    w: &Workload,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    env: &Env,
    started: Instant,
) -> Result<Outcome, String> {
    let mut total = Score::default();

    // Set-up: generate, reference join, naive prefix check, one warm-up
    // repetition (caches filled, allocator grown, node binary paged in).
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { started } else { Instant::now() };
        let p = prepare(w, seed)?;
        let (_, warm) = run_scored(w, &p.records, &p.expected, env);
        total.add(warm);
        setups.push(t0.elapsed());
        prepared = Some(p);
    }
    let prepared = prepared.expect("SETUPS >= 1");

    // Peak memory is read per repetition, right after the public call
    // returns and before the benchmark's own scoring allocates: a maximum
    // over a whole run would grow with the number of repetitions.
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut repetitions = 0;
    let mut peak_reset = true;
    let t0 = Instant::now();
    while repetitions < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
        peak_reset &= host::reset_peak_rss();
        let (rep, s) = run_scored(w, &prepared.records, &prepared.expected, env);
        total.add(s);
        repetitions += 1;
        if let Some(rep) = rep {
            walls.push(rep.wall);
            peaks.push(rep.peak_rss_mib);
        }
    }
    if walls.len() < 2 {
        return Err(format!(
            "{}: {} of {repetitions} repetitions completed; nothing to report",
            w.name,
            walls.len()
        ));
    }

    let rates: Vec<f64> = walls.iter().map(|d| w.n as f64 / d.as_secs_f64()).collect();
    let (q1, q3) = stats::quartiles(&rates);
    let mut set = MetricSet::new(&spec.end_to_end);
    set.set("records_per_s", stats::median(&rates));
    set.set("setup_s", stats::median(&secs(&setups)));
    set.set("peak_rss_mb", stats::median(&peaks));
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let file = Json::obj([
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(false)),
        ("host", host::fingerprint(seed, w.n, walls.len())),
        ("run_seconds", Json::Num(seconds)),
        ("setup_s_each", nums(&secs(&setups))),
        (
            "setup_parts_s",
            Json::obj([
                ("generate", Json::Num(prepared.generate.as_secs_f64())),
                (
                    "reference_join",
                    Json::Num(prepared.reference.as_secs_f64()),
                ),
                ("naive_check", Json::Num(prepared.naive_check.as_secs_f64())),
            ]),
        ),
        ("wall_s_each", nums(&secs(&walls))),
        ("peak_rss_mb_each", nums(&peaks)),
        ("peak_rss_reset_per_repetition", Json::Bool(peak_reset)),
        (
            "records_per_s",
            Json::obj([
                ("median", Json::Num(stats::median(&rates))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("iqr_share_of_median", Json::Num(stats::spread(&rates))),
                ("samples", Json::Num(rates.len() as f64)),
            ]),
        ),
        ("expected_pairs", Json::Num(prepared.expected.len() as f64)),
        ("attempted", Json::Num(total.attempted as f64)),
        ("failed", Json::Num(total.failed as f64)),
        ("metrics", Outcome::metrics_json(&set)),
    ]);
    let files = vec![(format!("{}.json", w.name), file.to_line() + "\n")];
    Ok(Outcome::new(&set, total, files))
}
