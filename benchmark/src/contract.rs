//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down. It is compiled in; every result line is checked
//! against it, so a run can neither drop a listed metric nor emit an unlisted
//! one.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    EndToEnd,
    PerLayer,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

fn list<'a>(value: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
}

fn metrics(root: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let root =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Contract {
            workloads: list(&root, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    pub fn section(&self, section: Section) -> &[Metric] {
        match section {
            Section::EndToEnd => &self.end_to_end,
            Section::PerLayer => &self.per_layer,
        }
    }

    /// The `"metrics"` object of a result line: every metric of `section`
    /// exactly once, in `BENCHMARK.json` order, each with its unit.
    ///
    /// # Errors
    ///
    /// Names the first listed metric that `values` lacks or holds twice, and
    /// the first value whose name is not listed.
    pub fn metrics_object(
        &self,
        section: Section,
        values: &[(String, f64)],
    ) -> Result<Value, String> {
        let listed = self.section(section);
        if let Some((name, _)) = values
            .iter()
            .find(|(name, _)| !listed.iter().any(|m| m.name == *name))
        {
            return Err(format!("metric {name:?} is not listed in BENCHMARK.json"));
        }
        let mut object = Vec::with_capacity(listed.len());
        for metric in listed {
            let mut found = values.iter().filter(|(name, _)| *name == metric.name);
            let (Some((_, value)), None) = (found.next(), found.next()) else {
                return Err(format!(
                    "metric {:?} must be emitted exactly once",
                    metric.name
                ));
            };
            if !value.is_finite() {
                return Err(format!("metric {:?} is not a finite number", metric.name));
            }
            object.push((
                metric.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::from(*value)),
                    ("unit".to_string(), Value::from(metric.unit.as_str())),
                ]),
            ));
        }
        Ok(Value::Object(object))
    }
}

/// The one-line JSON object a run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".to_string(), Value::from(correct)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        ("metrics".to_string(), metrics),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let c = Contract::load().unwrap();
        assert_eq!(c.workloads.len(), 6);
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .map(String::as_str)
            .chain(
                c.end_to_end
                    .iter()
                    .chain(&c.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        // 4 + 22 runs per workload, inside the driver's 3420 s with room for
        // set-up, the output check and two builds.
        let runs = 4.0 + 22.0 * c.workloads.len() as f64;
        assert!(runs * c.run_seconds * 1.6 < 3420.0 - 300.0);
    }

    #[test]
    fn a_result_line_carries_every_listed_metric_once_and_nothing_else() {
        let c = Contract::load().unwrap();
        let full: Vec<(String, f64)> = c.end_to_end.iter().map(|m| (m.name.clone(), 1.5)).collect();
        let object = c.metrics_object(Section::EndToEnd, &full).unwrap();
        assert_eq!(object.as_object().unwrap().len(), c.end_to_end.len());
        assert_eq!(
            object.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );

        let mut missing = full.clone();
        missing.pop();
        assert!(c.metrics_object(Section::EndToEnd, &missing).is_err());
        let mut twice = full.clone();
        twice.push(full[0].clone());
        assert!(c.metrics_object(Section::EndToEnd, &twice).is_err());
        let mut unlisted = full.clone();
        unlisted.push(("not_a_metric".to_string(), 1.0));
        assert!(c.metrics_object(Section::EndToEnd, &unlisted).is_err());
        // End-to-end names are not per-layer names.
        assert!(c.metrics_object(Section::PerLayer, &full).is_err());

        let line = result_line(true, 10, 0, object);
        let parsed = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
    }
}
