//! Comparison mode: two result sets (parent and change) side by side,
//! with a verdict per (metric, workload) by these rules:
//!
//! * **win** — the change is better in at least 9/10 of the runs paired
//!   by seed, and the medians differ by more than the parent's own
//!   spread (the distance between its quartiles);
//! * **unresolved** — the run-to-run spread exceeds the metric's bound,
//!   unless every change run beats every parent run;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound;
//! * otherwise **same**.
//!
//! Each workload gets its own rows and its own summary row; there is
//! no combined score.

use std::collections::BTreeMap;
use std::path::Path;

use vpd_report::Json;

use crate::stats::{median, quartiles};

/// One run's record, as appended to the results file.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: i64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Whether its outputs were all correct.
    pub correct: bool,
    /// Failed operations.
    pub failed: i64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// A metric's bound and direction, as `BENCHMARK.json` gives them.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
    /// Whether higher is better.
    pub higher: bool,
}

/// Parses result records from NDJSON text (lines that are not records
/// are skipped).
#[must_use]
pub fn parse_records(text: &str) -> Vec<Record> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let (Some(workload), Some(Json::Object(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics"),
        ) else {
            continue;
        };
        out.push(Record {
            workload: workload.to_owned(),
            seed: doc.get("seed").and_then(Json::as_i64).unwrap_or(-1),
            trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
            correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
            failed: doc.get("failed").and_then(Json::as_i64).unwrap_or(0),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                .collect(),
        });
    }
    out
}

/// Reads records from a results file, or from every file in a
/// directory.
///
/// # Errors
///
/// When the path cannot be read.
pub fn load(path: &Path) -> std::io::Result<Vec<Record>> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        entries.sort();
        let mut out = Vec::new();
        for p in entries {
            out.extend(parse_records(&std::fs::read_to_string(p)?));
        }
        Ok(out)
    } else {
        Ok(parse_records(&std::fs::read_to_string(path)?))
    }
}

/// Reads the end-to-end bounds from a `BENCHMARK.json` text.
///
/// # Errors
///
/// When the text is not a benchmark definition.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| e.to_string())?;
    let Some(Json::Array(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        out.insert(
            name.to_owned(),
            Bound {
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
                higher: m.get("better").and_then(Json::as_str) == Some("higher"),
            },
        );
    }
    Ok(out)
}

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the 9/10 rule.
    Win,
    /// Worse by more than the bound.
    Regression,
    /// Spread too wide to tell.
    Unresolved,
    /// Within the bound.
    Same,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Self::Win => "win",
            Self::Regression => "regression",
            Self::Unresolved => "unresolved",
            Self::Same => "same",
        }
    }
}

/// Judges `change` against `parent`, values paired by index.
#[must_use]
pub fn judge(parent: &[f64], change: &[f64], pairs: &[(f64, f64)], b: &Bound) -> Verdict {
    let better = |c: f64, p: f64| if b.higher { c > p } else { c < p };
    let (pm, cm) = (median(parent), median(change));
    let (pq1, pq3) = quartiles(parent);
    let (cq1, cq3) = quartiles(change);
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Win;
    }
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > b.bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = if b.higher {
        (pm - cm) / pm
    } else {
        (cm - pm) / pm
    };
    if worse > b.bound {
        Verdict::Regression
    } else {
        Verdict::Same
    }
}

/// The comparison table, as text.
#[must_use]
pub fn render(parent: &[Record], change: &[Record], bounds: &BTreeMap<String, Bound>) -> String {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<16} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}  {:>5}  verdict\n",
        "workload", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "wins"
    ));
    for w in workloads {
        let p: Vec<&Record> = parent
            .iter()
            .filter(|r| r.workload == w && !r.trace)
            .collect();
        let c: Vec<&Record> = change
            .iter()
            .filter(|r| r.workload == w && !r.trace)
            .collect();
        if c.is_empty() {
            out.push_str(&format!("{w:<12} (no change runs)\n"));
            continue;
        }
        let mut verdicts = Vec::new();
        for (name, b) in bounds {
            let pv: Vec<f64> = p
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let cv: Vec<f64> = c
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|pr| {
                    let cr = c.iter().find(|cr| cr.seed == pr.seed)?;
                    Some((*pr.metrics.get(name)?, *cr.metrics.get(name)?))
                })
                .collect();
            let v = judge(&pv, &cv, &pairs, b);
            verdicts.push(v);
            let (pq1, pq3) = quartiles(&pv);
            let (cq1, cq3) = quartiles(&cv);
            let better = |(a, b2): &(f64, f64)| if b.higher { b2 > a } else { b2 < a };
            out.push_str(&format!(
                "{w:<12} {name:<16} {pq1:>12.6} {:>12.6} {pq3:>12.6}   {cq1:>12.6} {:>12.6} {cq3:>12.6}  {:>2}/{:<2}  {}\n",
                median(&pv),
                median(&cv),
                pairs.iter().filter(|x| better(x)).count(),
                pairs.len(),
                v.as_str()
            ));
        }
        let failures = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<i64>();
        let incorrect = c.iter().any(|r| !r.correct) || failures(&c) > failures(&p);
        let summary = if incorrect {
            "incorrect: the change fails more operations or fails its audit"
        } else if verdicts.contains(&Verdict::Regression) {
            "regression"
        } else if verdicts.contains(&Verdict::Unresolved) {
            "unresolved"
        } else if verdicts.contains(&Verdict::Win) {
            "win, no regression"
        } else {
            "no regression"
        };
        out.push_str(&format!("{w:<12} => {summary}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        bound: 0.1,
        higher: false,
    };

    #[test]
    fn a_clear_drop_in_a_lower_is_better_metric_wins() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let c: Vec<f64> = p.iter().map(|x| x * 0.8).collect();
        let pairs: Vec<(f64, f64)> = p.iter().copied().zip(c.iter().copied()).collect();
        assert_eq!(judge(&p, &c, &pairs, &LOWER), Verdict::Win);
        assert_eq!(
            judge(
                &c,
                &p,
                &pairs.iter().map(|(a, b)| (*b, *a)).collect::<Vec<_>>(),
                &LOWER
            ),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let p = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0];
        let c = [11.0, 9.0, 13.0, 10.0, 14.0, 8.0];
        let pairs: Vec<(f64, f64)> = p.iter().copied().zip(c.iter().copied()).collect();
        assert_eq!(judge(&p, &c, &pairs, &LOWER), Verdict::Unresolved);
    }
}
