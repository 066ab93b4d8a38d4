//! `perf/check.sh`'s judgement: do two complete sets of untraced runs of
//! one commit agree within the benchmark's own bounds?

use std::path::Path;

use crate::json::Json;
use crate::spec::Spec;

fn load(dir: &Path, workload: &str) -> Result<Json, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn number(doc: &Json, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("output file lacks number {}", path.join(".")))
}

/// Compares the output files of two sets of runs, and checks that every
/// run in the `also` directories (other seeds) was correct. Returns the
/// report; `Err` carries the report too when a bound is exceeded or a run
/// failed pair operations.
pub fn compare(spec: &Spec, first: &Path, second: &Path, also: &[&Path]) -> Result<String, String> {
    let mut report = String::new();
    let mut bad = 0;
    for (workload, _) in &spec.workloads {
        let (a, b) = (load(first, workload)?, load(second, workload)?);
        for (set, doc) in [("first", &a), ("second", &b)] {
            let failed = number(doc, &["failed"])?;
            if failed > 0.0 {
                bad += 1;
                report.push_str(&format!(
                    "{workload}: {failed} failed operations in the {set} set\n"
                ));
            }
        }
        for m in &spec.end_to_end {
            let (va, vb) = (
                number(&a, &["metrics", &m.name])?,
                number(&b, &["metrics", &m.name])?,
            );
            let bound = m.bound.unwrap_or(0.0);
            let diff = (va - vb).abs() / va;
            let verdict = if diff <= bound { "ok" } else { "DIFFERS" };
            if diff > bound {
                bad += 1;
            }
            report.push_str(&format!(
                "{workload:<22} {:<14} {va:>14.4} {vb:>14.4} {:<6} diff {:>5.1}%  bound {:>4.0}%  {verdict}\n",
                m.name,
                m.unit,
                diff * 100.0,
                bound * 100.0
            ));
        }
    }
    for dir in also {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                let doc = Json::parse(&text)?;
                let failed = number(&doc, &["failed"])?;
                let seed = number(&doc, &["host", "seed"])?;
                report.push_str(&format!(
                    "{}: seed {seed}, {failed} failed operations\n",
                    path.display()
                ));
                if failed > 0.0 {
                    bad += 1;
                }
            }
        }
    }
    if bad == 0 {
        Ok(report)
    } else {
        Err(format!("{report}{bad} checks failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"run_seconds": 1,
        "workloads": [{"name": "w", "why": "only one"}],
        "end_to_end": [{"name": "records_per_s", "unit": "rec/s", "better": "higher", "bound": 0.07}],
        "per_layer": []}"#;

    fn write(dir: &Path, rate: f64, failed: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let doc = Json::obj([
            ("failed", Json::Num(failed as f64)),
            ("host", Json::obj([("seed", Json::Num(1.0))])),
            ("metrics", Json::obj([("records_per_s", Json::Num(rate))])),
        ]);
        std::fs::write(dir.join("w.json"), doc.to_line()).unwrap();
    }

    #[test]
    fn sets_within_the_bound_agree_and_others_do_not() {
        let spec = Spec::parse(SPEC).unwrap();
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/tmp/compare-test");
        let (a, b, c, d) = (
            base.join("a"),
            base.join("b"),
            base.join("c"),
            base.join("d"),
        );
        write(&a, 1000.0, 0);
        write(&b, 1050.0, 0);
        write(&c, 1100.0, 0);
        write(&d, 1000.0, 3);
        assert!(compare(&spec, &a, &b, &[]).unwrap().contains("ok"));
        assert!(compare(&spec, &a, &b, &[&a]).is_ok());
        assert!(compare(&spec, &a, &c, &[]).unwrap_err().contains("DIFFERS"));
        assert!(compare(&spec, &a, &d, &[])
            .unwrap_err()
            .contains("failed operations"));
        assert!(compare(&spec, &a, &b, &[&d]).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
