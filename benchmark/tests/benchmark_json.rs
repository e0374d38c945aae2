//! `BENCHMARK.json` at the repository root names exactly what
//! `dynabench::spec` defines, within the limits of the driver's contract.

use dynabench::json::Json;
use dynabench::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("valid JSON")
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string `{key}`"))
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_keys_command_and_paths() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = m
        .get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = m
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command.contains(&"benchmark/Cargo.toml") && command.last() == Some(&"run"));
    let secs = m.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

#[test]
fn workloads_match_the_spec() {
    let m = manifest();
    let listed = m.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, (name, why)) in listed.iter().zip(WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(str_of(entry, "name"), name);
        assert_eq!(str_of(entry, "why"), why);
        assert!(valid_name(name) && why.len() <= 200);
    }
}

#[test]
fn end_to_end_metrics_match_the_spec() {
    let m = manifest();
    let listed = m.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, spec) in listed.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "unit"), spec.unit);
        assert_eq!(str_of(entry, "better"), spec.better.as_str());
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(bound, spec.kind.bound());
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(valid_name(spec.name) && valid_unit(spec.unit));
    }
    let setup = listed
        .iter()
        .find(|e| str_of(e, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let widest = END_TO_END
        .iter()
        .map(|m| m.kind.bound())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64().unwrap(), widest);
}

#[test]
fn per_layer_metrics_match_the_spec() {
    let m = manifest();
    let listed = m.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for (entry, spec) in listed.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "unit"), spec.unit);
        assert_eq!(str_of(entry, "better"), spec.better.as_str());
        assert!(valid_name(spec.name) && valid_unit(spec.unit));
        assert!(seen.insert(spec.name), "{} listed twice", spec.name);
        assert!(!spec.moves.is_empty());
    }
    for spec in END_TO_END {
        assert!(seen.insert(spec.name), "{} used twice", spec.name);
    }
}
