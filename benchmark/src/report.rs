//! Run accounting and the result document.

use std::collections::BTreeMap;

use thor_obs::Json;

use crate::stats::Summary;

/// Shown correctness failures per run; the rest are only counted.
const SHOWN_FAILURES: usize = 20;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// The samples the value was taken from, when it is a median or a
    /// mean of repetitions.
    pub summary: Option<Summary>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub header: BTreeMap<String, Json>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Per-phase / per-step / per-swap-window accounting.
    pub phases: Vec<Json>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (wrong bytes, diverging outputs).
    pub wrong: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                summary: None,
            },
        );
    }

    /// Report the median of `samples`, keeping count and quartiles.
    pub fn median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        let summary = Summary::of(samples);
        self.metrics.insert(
            name,
            Metric {
                value: summary.median,
                unit,
                summary: Some(summary),
            },
        );
    }

    /// Report the mean of `samples`, keeping count and quartiles.
    pub fn mean(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.metrics.insert(
            name,
            Metric {
                value: samples.iter().sum::<f64>() / samples.len() as f64,
                unit,
                summary: Some(Summary::of(samples)),
            },
        );
    }

    /// Count one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one correctness check; a mismatch is a failed operation
    /// and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.wrong += 1;
            if self.failures.len() < SHOWN_FAILURES {
                self.failures.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    fn metrics_json(&self, detail: bool) -> Json {
        Json::Object(
            self.metrics
                .iter()
                .map(|(name, m)| {
                    let mut o = BTreeMap::from([
                        ("value".to_string(), Json::Float(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]);
                    if let (true, Some(s)) = (detail, m.summary) {
                        o.insert("n".into(), Json::UInt(s.n as u64));
                        o.insert("q1".into(), Json::Float(s.q1));
                        o.insert("median".into(), Json::Float(s.median));
                        o.insert("q3".into(), Json::Float(s.q3));
                    }
                    (name.to_string(), Json::Object(o))
                })
                .collect(),
        )
    }

    /// The full report: header, metrics with sample counts and
    /// quartiles, phase accounting and failures.
    pub fn detail_json(&self) -> String {
        let mut o = self.header.clone();
        o.insert("metrics".into(), self.metrics_json(true));
        o.insert("phases".into(), Json::Array(self.phases.clone()));
        o.insert("attempted".into(), Json::UInt(self.attempted));
        o.insert("failed".into(), Json::UInt(self.failed));
        o.insert("correct".into(), Json::Bool(self.correct()));
        o.insert(
            "failures".into(),
            Json::Array(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        Json::Object(o).render()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value + unit).
    pub fn result_json(&self) -> String {
        Json::Object(BTreeMap::from([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::UInt(self.attempted.max(1))),
            ("failed".to_string(), Json::UInt(self.failed)),
            ("metrics".to_string(), self.metrics_json(false)),
        ]))
        .render()
    }
}

/// A phase's accounting entry.
pub fn phase(name: &str, fields: &[(&str, Json)]) -> Json {
    let mut o = BTreeMap::from([("phase".to_string(), Json::Str(name.to_string()))]);
    for (k, v) in fields {
        o.insert(k.to_string(), v.clone());
    }
    Json::Object(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.median("p50_ms", &[3.0, 1.0, 2.0], "ms");
        r.mean("setup_s", &[1.0, 2.0, 6.0], "s");
        r.set("f1", 0.75, "ratio");
        r.check(true, String::new);
        r.check(false, || "bytes differ".into());
        let Json::Object(o) = Json::parse(&r.result_json()).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = o.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(o["attempted"], Json::UInt(2));
        assert_eq!(o["failed"], Json::UInt(1));
        assert_eq!(o["correct"], Json::Bool(false));
        let p50 = o["metrics"].get("p50_ms").unwrap();
        assert_eq!(p50.get("value"), Some(&Json::Float(2.0)));
        assert_eq!(p50.get("unit"), Some(&Json::Str("ms".into())));
        assert_eq!(p50.get("n"), None, "detail stays out of the result line");
        let setup = o["metrics"].get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Json::Float(3.0)));
    }
}
