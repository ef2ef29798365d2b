//! The benchmark's own checks: each workload reports exactly the metrics
//! `BENCHMARK.json` declares, every output check passes, and the exact
//! counts of a traced run repeat exactly across two runs with one seed.
//!
//! Each case runs the release binary several times; run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::process::Command;

/// Counts that must not depend on timing.
const EXACT: [&str; 7] = [
    "core.steps",
    "core.benefit_evals",
    "core.chains",
    "simgpu.simulate_calls",
    "models.unique_ops",
    "served.bytes.compile",
    "served.bytes.compiled",
];

/// Per-request fabric outcome shares. Where every fabric request is a
/// banked hit (hit-mix, and zoo-cold's hit probe) they are exactly 1 and 0.
const ALL_HITS: [(&str, f64); 6] = [
    ("fabric.hits", 1.0),
    ("fabric.misses", 0.0),
    ("fabric.failovers", 0.0),
    ("fabric.local_fallbacks", 0.0),
    ("fabric.rejected", 0.0),
    ("fabric.repairs", 0.0),
];

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let mut names: Vec<String> = doc
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

/// Run one workload; return its result line's metrics after checking the
/// line's shape and that every output check passed.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, Value)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .clone();
    let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    names.sort();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        names,
        declared(section),
        "{workload}: metrics differ from {section}"
    );
    metrics
}

fn exact_counts(metrics: &[(String, Value)]) -> Vec<(String, u64)> {
    EXACT
        .iter()
        .map(|name| {
            let v = metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{name} is not an integer"));
            (name.to_string(), v)
        })
        .collect()
}

fn value(metrics: &[(String, Value)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, m)| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} is not a number"))
}

fn check(workload: &str) {
    let e2e = run(workload, 7, false);
    for (name, m) in &e2e {
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v > 0.0, "{workload}: {name} = {v}");
    }
    let traced = [run(workload, 7, true), run(workload, 7, true)];
    let [a, b] = [&traced[0], &traced[1]].map(|m| exact_counts(m));
    assert_eq!(a, b, "{workload}: exact counts moved between runs");
    if workload != "dyn-serve" {
        for m in &traced {
            for (name, want) in ALL_HITS {
                assert_eq!(value(m, name), want, "{workload}: {name}");
            }
        }
    }
}

#[test]
fn zoo_cold_repeats() {
    check("zoo-cold");
}

#[test]
fn hit_mix_repeats() {
    check("hit-mix");
}

#[test]
fn dyn_serve_repeats() {
    check("dyn-serve");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
