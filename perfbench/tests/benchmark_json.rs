//! `BENCHMARK.json` lists exactly the workloads and metrics the
//! benchmark reports, with the same units and directions.

use perfbench::metrics::{end_to_end, per_layer, MetricDef};
use perfbench::WORKLOADS;
use vpd_report::Json;

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks `{key}`");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn table(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter()
        .map(|m| (m.name, m.unit.to_owned(), m.better.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = perfbench::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(listed(&doc, "end_to_end"), table(end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), table(per_layer()));
    let Some(Json::Array(workloads)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    let bounds = perfbench::compare::bounds(&text).expect("bounds");
    let largest = bounds.values().map(|b| b.bound).fold(0.0, f64::max);
    assert!(bounds.values().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    assert_eq!(
        bounds["setup_s"].bound, largest,
        "setup_s carries the largest bound"
    );
}
