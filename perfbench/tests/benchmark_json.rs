//! `BENCHMARK.json` names exactly the metrics the benchmark reports,
//! with the same units.

use mlpsim_telemetry::Json;
use perfbench::output::{END_TO_END, PER_LAYER};

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let own = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
}
