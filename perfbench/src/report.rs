//! What one run measured, checked and noted, and how it is printed.

use std::collections::BTreeMap;

use vpd_report::Json;

/// Most failure messages kept verbatim; the rest are only counted.
const MAX_PROBLEMS: usize = 20;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (commands, requests, audit checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// Reasons the run is invalid (not merely slow).
    pub invalid: Vec<String>,
    /// Measured metrics: name -> (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Provenance, sample counts and other context.
    pub notes: BTreeMap<String, Json>,
    /// Program counters per operation (from `vpd_obs`).
    pub counters: BTreeMap<String, f64>,
    /// Highest peak resident set seen, MiB.
    pub peak_rss_mb: f64,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Records a note.
    pub fn note(&mut self, name: &str, value: impl Into<Json>) {
        self.notes.insert(name.to_owned(), value.into());
    }

    /// Failed over attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output was right and the run was valid.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// The full record: every metric, counter, note and problem.
    #[must_use]
    pub fn to_json(&self, header: Vec<(&str, Json)>) -> Json {
        let mut pairs: Vec<(String, Json)> =
            header.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        pairs.push(("correct".into(), Json::from(self.correct())));
        pairs.push(("attempted".into(), Json::Int(self.attempted as i64)));
        pairs.push(("failed".into(), Json::Int(self.failed as i64)));
        pairs.push(("error_rate".into(), Json::from(self.error_rate())));
        pairs.push((
            "metrics".into(),
            Json::Object(
                self.metrics
                    .iter()
                    .map(|(k, (v, _))| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ));
        pairs.push((
            "counters_per_op".into(),
            Json::Object(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ));
        pairs.push((
            "notes".into(),
            Json::Object(
                self.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        ));
        pairs.push((
            "invalid".into(),
            Json::array(self.invalid.iter().map(|s| Json::from(s.as_str()))),
        ));
        pairs.push((
            "problems".into(),
            Json::array(self.problems.iter().map(|s| Json::from(s.as_str()))),
        ));
        Json::Object(pairs)
    }

    /// The result line a run prints last: `correct`, `attempted`, `failed`, and the
    /// metrics named in `names`, each with its unit.
    ///
    /// # Errors
    ///
    /// Names a metric the run did not produce.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let (value, _) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push((
                name.to_owned(),
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string())
    }
}

/// Sums the `counters` objects of `vpd_obs` NDJSON snapshot lines.
#[must_use]
pub fn sum_counters(ndjson: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in ndjson.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        if let Some(Json::Object(pairs)) = doc.get("counters") {
            for (k, v) in pairs {
                let n = v.as_i64().and_then(|n| u64::try_from(n).ok()).unwrap_or(0);
                *out.entry(k.clone()).or_insert(0) += n;
            }
        }
    }
    out
}
