//! Runs every workload at smoke size, untraced and traced, and checks
//! that the run passes its own correctness checks and reports exactly the
//! metrics `BENCHMARK.json` names, each with its unit.

#[path = "../../crates/bench/src/minijson.rs"]
#[allow(dead_code)]
mod minijson;

use minijson::JsonValue as Json;
use std::process::Command;

/// The workloads `BENCHMARK.json` gates.
const GATED: [&str; 2] = ["fleet-steady", "fleet-chaos"];
/// Runnable but left out of `BENCHMARK.json`: their host time swings too
/// widely between runs to gate (see README.md).
const UNGATED: [&str; 2] = ["chip-ideal", "chip-noisy"];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    minijson::parse(&text).expect("BENCHMARK.json parses")
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

fn str_of<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get(key).and_then(Json::as_str)
}

fn num_of(doc: &Json, key: &str) -> Option<f64> {
    doc.get(key).and_then(Json::as_num)
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    items(doc, list)
        .iter()
        .map(|m| {
            let name = str_of(m, "name").expect("metric has a name").to_string();
            let unit = str_of(m, "unit").expect("metric has a unit").to_string();
            (name, unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn check(workload: &str, trace: &str, expected: &[(String, String)]) {
    let (ok, stdout) = run(workload, trace);
    assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
    assert!(stdout.starts_with("== perfbench"), "{workload}: no header");
    assert!(
        stdout
            .lines()
            .nth(1)
            .is_some_and(|l| l.starts_with("env: nproc ") && l.contains("host.ref_ms")),
        "{workload}: no environment line"
    );
    let failed_frac = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("failed_frac "))
        .unwrap_or_else(|| panic!("{workload}: failed_frac not printed"));
    let value: f64 = failed_frac
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(value, 0.0, "{workload}: {failed_frac}");

    let last = stdout.lines().last().expect("output is not empty");
    let summary = minijson::parse(last).expect("the last line is JSON");
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(num_of(&summary, "failed"), Some(0.0));
    assert!(num_of(&summary, "attempted").unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = summary.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                num_of(m, "value").is_some_and(f64::is_finite),
                "{workload}: {name} has no value"
            );
            (
                name.clone(),
                str_of(m, "unit").unwrap_or_default().to_string(),
            )
        })
        .collect();
    let mut want = expected.to_vec();
    let mut got = reported.clone();
    want.sort();
    got.sort();
    assert_eq!(
        got, want,
        "{workload} --trace {trace}: metrics differ from BENCHMARK.json"
    );
    for (name, unit) in &reported {
        let printed = stdout.lines().any(|l| {
            let mut cols = l.split_whitespace();
            cols.next() == Some(name) && cols.nth(1) == Some(unit)
        });
        assert!(
            printed,
            "{workload}: {name} not printed with its unit {unit}"
        );
    }
    if trace == "1" {
        let path = format!(
            "{}/out/trace-{workload}-seed3.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("the traced run writes its spans");
        let doc = minijson::parse(&text).expect("the trace file is JSON");
        assert!(
            items(&doc, "traceEvents").len() > 2,
            "{workload}: empty trace"
        );
        assert!(
            stdout.contains("top self-time layer: "),
            "{workload}: no self-time table"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_with_zero_failures() {
    let doc = benchmark_json();
    let names: Vec<&str> = items(&doc, "workloads")
        .iter()
        .filter_map(|w| str_of(w, "name"))
        .collect();
    assert_eq!(names, GATED);
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for workload in GATED.into_iter().chain(UNGATED) {
        check(workload, "0", &end_to_end);
        check(workload, "1", &per_layer);
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "chip-ideal",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "chip-ideal",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
