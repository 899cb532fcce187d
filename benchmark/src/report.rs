//! What one workload run reports, and its JSON form (the run happens in a
//! child process; this is what crosses the pipe).

use crate::json::Json;
use crate::stats::median;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Result of one run of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Operations attempted: reasoning calls, requests, and output checks.
    pub attempted: u64,
    /// Operations that failed: an `Err`, a response other than
    /// `Answers`/`Appended`, or a check that did not hold.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further numbers that only some workloads have; informational.
    pub detail: Vec<Metric>,
    /// Digests computed from inputs and outputs, keyed as in
    /// `expected.json`.
    pub pins: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Count one attempted operation; `Err` is a failed one.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    pub fn pin(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.pins.push((key.into(), value.into()));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.detail)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Combine the reports of several processes that ran the same workload:
    /// operations and problems add up, every number becomes the median of
    /// the processes that reported it, pins are the first report's.
    pub fn merge(reports: &[Report]) -> Report {
        let medians = |pick: fn(&Report) -> &Vec<Metric>| -> Vec<Metric> {
            let Some(first) = reports.first() else {
                return Vec::new();
            };
            pick(first)
                .iter()
                .map(|m| {
                    let values: Vec<f64> = reports
                        .iter()
                        .filter_map(|r| pick(r).iter().find(|other| other.name == m.name))
                        .map(|other| other.value)
                        .collect();
                    Metric {
                        value: median(&values),
                        ..m.clone()
                    }
                })
                .collect()
        };
        Report {
            attempted: reports.iter().map(|r| r.attempted).sum(),
            failed: reports.iter().map(|r| r.failed).sum(),
            problems: reports.iter().flat_map(|r| r.problems.clone()).collect(),
            metrics: medians(|r| &r.metrics),
            detail: medians(|r| &r.detail),
            pins: reports.first().map(|r| r.pins.clone()).unwrap_or_default(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("metrics", metrics_json(&self.metrics)),
            ("detail", metrics_json(&self.detail)),
            (
                "pins",
                Json::obj(self.pins.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Report, String> {
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            json.get(key)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("missing `{key}`"))?
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    Ok(Metric {
                        name: name.clone(),
                        value,
                        unit: unit.to_string(),
                    })
                })
                .collect()
        };
        Ok(Report {
            attempted: count("attempted")?,
            failed: count("failed")?,
            problems: json
                .get("problems")
                .and_then(Json::as_array)
                .ok_or("missing `problems`")?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            metrics: metrics("metrics")?,
            detail: metrics("detail")?,
            pins: json
                .get("pins")
                .and_then(Json::as_object)
                .ok_or("missing `pins`")?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
        })
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` — the shape the contract's result
/// line uses.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_survive_the_pipe() {
        let mut r = Report::default();
        r.metric("op_p50_ms", 1203.4567, "ms");
        r.metric("ops_per_s", 0.83, "1/s");
        r.detail("engine.join_probes", 12_075_599.0, "count");
        r.check(Ok(()));
        r.check(Err("digest mismatch: \"x\"".into()));
        r.pin("full/reason.links/input", "00ff");
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        let back = Report::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert!(!back.correct());
        assert_eq!(back.value("ops_per_s"), Some(0.83));
        assert_eq!(back.value("engine.join_probes"), Some(12_075_599.0));
    }

    #[test]
    fn merging_takes_medians_and_adds_up_operations() {
        let process = |p50: f64, failed: bool| {
            let mut r = Report::default();
            r.metric("op_p50_ms", p50, "ms");
            r.detail("samples", 4.0, "count");
            r.check(if failed { Err("boom".into()) } else { Ok(()) });
            r.pin("k", "v");
            r
        };
        let mut odd_one = process(9.0, true);
        odd_one.detail("only.here", 1.0, "count");
        let merged = Report::merge(&[process(3.0, false), odd_one, process(5.0, false)]);
        assert_eq!(merged.value("op_p50_ms"), Some(5.0));
        assert_eq!(merged.value("samples"), Some(4.0));
        assert_eq!(merged.value("only.here"), None);
        assert_eq!((merged.attempted, merged.failed), (3, 1));
        assert_eq!(merged.problems, ["boom"]);
        assert_eq!(merged.pins, [("k".to_string(), "v".to_string())]);
        assert!(!merged.correct());
    }
}
