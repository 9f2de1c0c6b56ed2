//! `BENCHMARK.json` at the repository root must describe exactly what the
//! benchmark prints: its workloads, and every metric with its unit and
//! direction.

use cgpa_obs::json::Json;
use cgpa_perfbench::metrics::{valid_name, valid_unit, MetricDef, END_TO_END, PER_LAYER};
use cgpa_perfbench::workload::Kind;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn keys(j: &Json) -> Vec<&str> {
    j.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

fn assert_same_metrics(declared: &[Json], printed: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = declared.iter().map(|m| str_of(m, "name")).collect();
    let expected: Vec<&str> = printed.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "declared and printed metric sets differ");
    for (m, d) in declared.iter().zip(printed) {
        let mut want = vec!["name", "unit", "better"];
        if with_bound {
            want.push("bound");
        }
        assert_eq!(keys(m), want, "{}", d.name);
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}", d.name);
        assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
        if with_bound {
            let bound = m.get("bound").and_then(Json::as_f64).expect("numeric bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
    }
}

#[test]
fn top_level_keys_and_command() {
    let j = benchmark_json();
    assert_eq!(
        keys(&j),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let paths: Vec<&str> = list(&j, "paths").iter().map(|p| p.as_str().expect("path")).collect();
    assert_eq!(paths, ["perfbench"]);
    let command: Vec<&str> = list(&j, "command").iter().map(|c| c.as_str().expect("arg")).collect();
    assert!(command.len() <= 32);
    assert!(command.iter().all(|c| !c.starts_with('/') && !c.contains("..")));
    assert!(command.contains(&"perfbench/Cargo.toml"));
    let secs = j.get("run_seconds").and_then(Json::as_u64).expect("whole seconds");
    assert!((1..=60).contains(&secs));
}

#[test]
fn workloads_match_the_runner() {
    let j = benchmark_json();
    let names: Vec<&str> = list(&j, "workloads").iter().map(|w| str_of(w, "name")).collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, ours);
    for w in list(&j, "workloads") {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(valid_name(str_of(w, "name")));
    }
}

#[test]
fn end_to_end_metrics_match_the_printed_set() {
    let j = benchmark_json();
    assert_same_metrics(list(&j, "end_to_end"), END_TO_END, true);
    let setup = list(&j, "end_to_end").iter().find(|m| str_of(m, "name") == "setup_s");
    let setup = setup.expect("setup_s is declared");
    assert_eq!((str_of(setup, "unit"), str_of(setup, "better")), ("s", "lower"));
    let largest = list(&j, "end_to_end")
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
}

#[test]
fn per_layer_metrics_match_the_printed_set() {
    let j = benchmark_json();
    assert_same_metrics(list(&j, "per_layer"), PER_LAYER, false);
}
