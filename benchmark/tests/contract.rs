//! `BENCHMARK.json`, the binary's names and the driver's limits agree.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use wcc_benchmark::json::{self, Value};
use wcc_benchmark::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> (String, Value) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    let value = json::parse(&text).expect("BENCHMARK.json is JSON");
    (text, value)
}

fn names(value: &Value, key: &str) -> Vec<String> {
    value
        .get(key)
        .expect("key present")
        .as_array()
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
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
fn committed_manifest_is_the_generated_one() {
    let (text, _) = manifest();
    assert_eq!(
        text,
        metrics::manifest_json(),
        "regenerate with `wcc-benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn manifest_keeps_the_drivers_limits() {
    let (text, value) = manifest();
    assert!(text.len() <= 64 * 1024);
    let Value::Obj(map) = &value else {
        panic!("an object")
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = value
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 x workloads runs and two builds must fit in 3420 s; a run is
    // the measuring time plus set-up, warm-up and (traced) kernels.
    let runs = 4.0 + 22.0 * WORKLOADS.len() as f64;
    assert!(
        runs * (seconds + 12.0) + 2.0 * 120.0 <= 3420.0,
        "run_seconds leaves no room"
    );

    assert!((2..=8).contains(&WORKLOADS.len()) && WORKLOADS.len() <= 4);
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
    {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(["higher", "lower"].contains(&m.better), "{}", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "set-up gets the largest bound");

    let paths = value.get("paths").expect("paths").as_array();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    for part in value.get("command").expect("command").as_array() {
        let part = part.as_str().expect("strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

#[test]
fn the_binary_prints_the_manifests_names_and_no_others() {
    let (_, value) = manifest();
    let out = Command::new(env!("CARGO_BIN_EXE_wcc-benchmark"))
        .arg("names")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let printed = String::from_utf8(out.stdout).expect("utf-8");
    for (kind, key) in [
        ("workload", "workloads"),
        ("end_to_end", "end_to_end"),
        ("per_layer", "per_layer"),
    ] {
        let from_binary: Vec<String> = printed
            .lines()
            .filter_map(|l| {
                l.strip_prefix(kind)?
                    .split_whitespace()
                    .next()
                    .map(str::to_string)
            })
            .collect();
        assert_eq!(from_binary, names(&value, key), "{kind}");
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_wcc-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on refusal");
}
