//! `perfbench` — host-time benchmark of the RED simulator and its
//! serving fleet.
//!
//! ```text
//! perfbench --workload <chip-ideal|chip-noisy|fleet-steady|fleet-chaos>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run sets the workload up several times (the median is
//! `setup_s`), runs one untimed warm-up iteration, then repeats timed
//! iterations for `--seconds` and reports medians, checking every
//! output on the way. With `--trace 1` it alternates untraced and traced
//! iterations, reports the per-layer metrics instead of the end-to-end
//! ones, and writes the spans to `perfbench/out/` as a Chrome trace. The
//! last line of standard output is a JSON summary; the exit code is
//! non-zero when any check failed. See `README.md` for the workloads and
//! the metric map.

mod chip;
mod fleet;
// The repository's own reader for its `BENCH_*.json` baselines.
#[path = "../../crates/bench/src/minijson.rs"]
#[allow(dead_code)]
mod minijson;
mod report;
mod stats;
mod sys;
mod trace;

use minijson::JsonValue;
use report::{Metric, Outcome};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads and why each is measured. `BENCHMARK.json` gates the
/// fleet workloads; the chip workloads' host time swings too widely
/// between runs to gate.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "chip-ideal",
        "exact VMM path and engine gather/scatter of all three designs; no analog kernels, no server",
    ),
    (
        "chip-noisy",
        "the same chips on the full non-ideal preset: analog kernels dominate",
    ),
    (
        "fleet-steady",
        "model-only serving control plane at 600k rps: batch former, admission, autoscaler, dispatch",
    ),
    (
        "fleet-chaos",
        "the fleet at 960k rps with brownout and five planned faults: chaos dispatch, repricing, bound recompute",
    ),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes for the benchmark's own smoke test.
    pub smoke: bool,
}

impl Params {
    /// Builds the workload's set-up repeatedly, dropping each build
    /// before the next: at least five times and until two seconds of
    /// set-up have been timed, at most 200 times (once for a smoke run).
    /// The two seconds spread a short set-up over more of the host's
    /// speed swings. Returns the last build and every set-up time in
    /// seconds; `setup_s` is their median.
    pub fn repeat_setup<T>(&self, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut times = Vec::new();
        let mut last = None;
        loop {
            drop(last.take());
            let started = Instant::now();
            last = Some(build());
            times.push(started.elapsed().as_secs_f64());
            let enough = times.len() >= 5 && times.iter().sum::<f64>() >= 2.0;
            if self.smoke || enough || times.len() == 200 {
                return (last.expect("built at least once"), times);
            }
        }
    }

    /// Timed iterations a run makes even when `--seconds` ran out (a
    /// traced run needs both kinds of iteration).
    pub fn min_iters(&self) -> u64 {
        if self.smoke {
            2
        } else {
            4
        }
    }
}

/// The `rows` of a committed baseline at the repository root.
pub fn baseline_rows(file: &str) -> Result<Vec<JsonValue>, String> {
    let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = minijson::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("rows")
        .and_then(JsonValue::as_arr)
        .map(<[JsonValue]>::to_vec)
        .ok_or_else(|| format!("{path}: no rows"))
}

/// The number or string member `key` of a baseline row.
pub fn row_num(row: &JsonValue, key: &str) -> Option<f64> {
    row.get(key).and_then(JsonValue::as_num)
}

pub fn row_str<'a>(row: &'a JsonValue, key: &str) -> Option<&'a str> {
    row.get(key).and_then(JsonValue::as_str)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        WORKLOADS.map(|w| w.0).join("|")
    );
    ExitCode::from(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Span groups left out of the self-time table: measurements beside the
/// workload rather than parts of it (the batched entry point repeats the
/// stage-by-stage drive's work; the ideal twins and VMM probes are
/// comparators).
const NOT_WORKLOAD: [&str; 4] = ["runtime.batch", "runtime.error_bound", "arch.twin", "xbar."];

/// Prints self time per span group, with the derived rows carved out of
/// their parent groups, and names the top one.
fn print_self_time(tracer: &Tracer, out: &Outcome) {
    let mut rows: Vec<(String, f64)> = tracer
        .self_time_ms()
        .into_iter()
        .filter(|(group, _)| !NOT_WORKLOAD.iter().any(|p| group.starts_with(p)))
        .collect();
    for (name, ms, parent) in &out.derived_self_ms {
        if let Some(row) = rows.iter_mut().find(|r| &r.0 == parent) {
            row.1 -= ms;
        }
        rows.push((format!("{name} [derived]"), *ms));
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("self time by layer over the traced iterations:");
    for (name, ms) in &rows {
        println!(
            "  {:>12.3} ms {:>6.1}%  {name}",
            ms,
            100.0 * ms / total.max(1e-12)
        );
    }
    if let Some((name, _)) = rows.first() {
        println!("top self-time layer: {name}");
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<44} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The Chrome trace of the run: the workload's spans as process 1, the
/// side sweep's as process 2.
fn chrome_trace(workload: &str, tracer: &Tracer, side: &Tracer) -> String {
    let mut events = vec![
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
        ),
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"side sweep\"}}"
            .to_string(),
    ];
    events.extend(tracer.chrome_events(1));
    events.extend(side.chrome_events(2));
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = flag(&args, "--workload") else {
        return usage();
    };
    let Some((_, why)) = WORKLOADS.iter().find(|w| w.0 == workload) else {
        return usage();
    };
    let (Some(Ok(seed)), Some(Ok(seconds)), Some(traced)) = (
        flag(&args, "--seed").map(str::parse::<u64>),
        flag(&args, "--seconds").map(str::parse::<f64>),
        flag(&args, "--trace").and_then(|t| match t {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return usage();
    }
    let params = Params {
        seed,
        seconds,
        smoke: args.iter().any(|a| a == "--smoke"),
    };

    let mut ref_ms: Vec<f64> = (0..5).map(|_| sys::reference_kernel_ms()).collect();
    println!("== perfbench: RED simulator host-time benchmark ==");
    println!(
        "env: nproc {}, cpu {}, {}, host.ref_ms {:.4}",
        sys::nproc(),
        sys::cpu_model(),
        sys::RUSTC,
        median(&ref_ms)
    );
    println!(
        "workload {workload} (seed {seed}, {seconds} s, trace {}): {why}",
        u8::from(traced)
    );

    let mut tracer = Tracer::new(traced);
    let mut side = Tracer::new(traced);
    let mut out = match workload {
        "chip-ideal" => chip::run(false, &params, &mut tracer, &mut side),
        "chip-noisy" => chip::run(true, &params, &mut tracer, &mut side),
        "fleet-steady" => fleet::run(false, &params, &mut tracer, &mut side),
        _ => fleet::run(true, &params, &mut tracer, &mut side),
    };
    ref_ms.extend((0..5).map(|_| sys::reference_kernel_ms()));
    out.info.push(
        Metric::new(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "frac",
        )
        .note(format!("{} of {} checked ops", out.failed, out.attempted)),
    );

    print_metrics("end-to-end, gated (untraced iterations)", &out.end_to_end);
    print_metrics("end-to-end, reported only", &out.info);
    if traced {
        out.per_layer.push(
            Metric::new("host.ref_ms", median(&ref_ms), "ms")
                .note("reference kernel, never scales other numbers"),
        );
        print_metrics("per-layer (traced run)", &out.per_layer);
        print_self_time(&tracer, &out);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{workload}-seed{seed}.json");
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(workload, &tracer, &side)));
        match written {
            Ok(()) => println!(
                "(wrote {path}: {} spans)",
                tracer.spans().len() + side.spans().len()
            ),
            Err(e) => out.check(1, false, || format!("trace write to {path} failed: {e}")),
        }
    }

    let reported = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let mut metrics = String::new();
    for (i, m) in reported.iter().enumerate() {
        let value = if m.value.is_finite() {
            m.value
        } else {
            out.failures
                .push(format!("metric {} is not finite", m.name));
            out.failed += 1;
            0.0
        };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
