//! `BENCHMARK.json` as the single declaration of what this benchmark may
//! run and report: the binary reads it at start-up, lists from it, and
//! refuses to emit a workload or metric name it does not declare.

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// `(name, why)` per workload, in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
    pub run_seconds: f64,
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string field '{key}'"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?;
    items
        .iter()
        .map(|m| {
            let decl = MetricDecl {
                name: field(m, "name")?.to_owned(),
                unit: field(m, "unit")?.to_owned(),
                better: field(m, "better")?.to_owned(),
                bound: m.get("bound").and_then(Json::as_f64),
            };
            if !name_ok(&decl.name) {
                return Err(format!("BENCHMARK.json: bad metric name '{}'", decl.name));
            }
            if !matches!(decl.better.as_str(), "higher" | "lower") {
                return Err(format!(
                    "BENCHMARK.json: metric '{}' has direction '{}'",
                    decl.name, decl.better
                ));
            }
            Ok(decl)
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing array 'workloads'")?
            .iter()
            .map(|w| {
                let name = field(w, "name")?;
                if !name_ok(name) {
                    return Err(format!("BENCHMARK.json: bad workload name '{name}'"));
                }
                Ok((name.to_owned(), field(w, "why")?.to_owned()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let spec = Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing number 'run_seconds'")?,
        };
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("BENCHMARK.json: name '{}' is used twice", dup[0]));
        }
        Ok(spec)
    }

    /// Reads and parses `path`.
    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// The `--list` text: every workload with its reason and every metric
    /// with unit, direction and bound.
    pub fn listing(&self) -> String {
        let mut out = String::from("workloads:\n");
        for (name, why) in &self.workloads {
            out.push_str(&format!("  {name:<22} {why}\n"));
        }
        for (title, decls) in [
            ("end-to-end metrics (tracing off):", &self.end_to_end),
            ("per-layer metrics (traced run):", &self.per_layer),
        ] {
            out.push_str(title);
            out.push('\n');
            for m in decls {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
                out.push_str(&format!(
                    "  {:<48} {:<10} {} is better{bound}\n",
                    m.name, m.unit, m.better
                ));
            }
        }
        out
    }
}

/// The values of one run, accepted only under declared names.
#[derive(Debug)]
pub struct MetricSet<'a> {
    decls: &'a [MetricDecl],
    values: Vec<Option<f64>>,
}

impl<'a> MetricSet<'a> {
    pub fn new(decls: &'a [MetricDecl]) -> Self {
        Self {
            decls,
            values: vec![None; decls.len()],
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics if `name` is not declared in `BENCHMARK.json`, is set twice,
    /// or `value` is not finite — each is a bug in the benchmark, and a
    /// silently dropped or renamed metric would corrupt a comparison.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in BENCHMARK.json"));
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        assert!(self.values[slot].is_none(), "metric '{name}' set twice");
        self.values[slot] = Some(value);
    }

    /// Every declared metric with its value, in declaration order.
    ///
    /// # Panics
    /// Panics if a declared metric was never set: a run reports all of
    /// them or fails.
    pub fn finish(&self) -> Vec<(&'a MetricDecl, f64)> {
        self.decls
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                (
                    d,
                    v.unwrap_or_else(|| panic!("declared metric '{}' was not measured", d.name)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "command": ["bash", "perf/run.sh"], "paths": ["perf"], "run_seconds": 8,
        "workloads": [{"name": "a-b", "why": "first"}, {"name": "c", "why": "second"}],
        "end_to_end": [{"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.07},
                       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
        "per_layer": [{"name": "core.verify.ns_per_call", "unit": "ns", "better": "lower"}]
    }"#;

    #[test]
    fn parses_and_lists_every_declared_name() {
        let spec = Spec::parse(DOC).unwrap();
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.end_to_end[0].bound, Some(0.07));
        assert_eq!(spec.per_layer[0].bound, None);
        let listing = spec.listing();
        for needle in [
            "a-b",
            "second",
            "records_per_s",
            "1/s",
            "bound 7%",
            "core.verify.ns_per_call",
        ] {
            assert!(listing.contains(needle), "{needle} missing from\n{listing}");
        }
    }

    #[test]
    fn rejects_bad_and_duplicate_names() {
        assert!(Spec::parse(&DOC.replace("a-b", "a b")).is_err());
        assert!(Spec::parse(&DOC.replace("\"c\"", "\"a-b\"")).is_err());
        assert!(Spec::parse(&DOC.replace("\"higher\"", "\"up\"")).is_err());
    }

    #[test]
    fn metric_set_reports_declared_values_in_order() {
        let spec = Spec::parse(DOC).unwrap();
        let mut set = MetricSet::new(&spec.end_to_end);
        set.set("setup_s", 1.5);
        set.set("records_per_s", 1000.0);
        let done = set.finish();
        assert_eq!(done[0].0.name, "records_per_s");
        assert_eq!(done[1].1, 1.5);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn metric_set_refuses_undeclared_names() {
        let spec = Spec::parse(DOC).unwrap();
        MetricSet::new(&spec.end_to_end).set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn metric_set_refuses_to_finish_incomplete() {
        let spec = Spec::parse(DOC).unwrap();
        let mut set = MetricSet::new(&spec.end_to_end);
        set.set("setup_s", 1.0);
        set.finish();
    }
}
