//! Self-tests of the benchmark: tiny-size runs of every workload print
//! every metric `BENCHMARK.json` names, with its unit, and a planted
//! reference mismatch is counted as a failure.
//!
//! Run with `cargo test --manifest-path mixbench/Cargo.toml`.

use std::process::Command;

use obs::json::{parse, JsonValue};

const WORKLOADS: [&str; 3] = ["fig4", "c1_dies_journaled", "adc_yield"];

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to mixbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark in a scratch working directory and returns the
/// parsed result line and the full standard output.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (JsonValue, String) {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mixbench"))
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    (parse(last).expect("last line is JSON"), stdout)
}

fn metric_names(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    let JsonValue::Arr(items) = bench.get(key).expect(key) else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_metrics(result: &JsonValue, expected: &[(String, String)], stdout: &str) {
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing:\n{stdout}"));
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name} value"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name} unit"
        );
    }
    let JsonValue::Obj(all) = metrics else {
        panic!("metrics is not an object");
    };
    assert_eq!(
        all.len(),
        expected.len(),
        "exactly the named metrics:\n{stdout}"
    );
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let end_to_end = metric_names(&bench, "end_to_end");
    let per_layer = metric_names(&bench, "per_layer");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (result, stdout) = run(workload, trace, &[]);
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{workload} trace {trace}:\n{stdout}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
            assert_metrics(
                &result,
                if trace { &per_layer } else { &end_to_end },
                &stdout,
            );
        }
    }
}

#[test]
fn planted_reference_mismatch_raises_failed_pct() {
    let (result, stdout) = run("fig4", false, &["--plant-mismatch"]);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(false),
        "{stdout}"
    );
    assert!(
        result.get("failed").and_then(JsonValue::as_f64) > Some(0.0),
        "{stdout}"
    );
    assert!(stdout.contains("FAIL pass 1 reference:"), "{stdout}");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_mixbench"))
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
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
