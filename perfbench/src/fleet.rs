//! The fleet workloads: model-only `red_server::drive` sessions of the
//! three-network mix fleet, with `BENCH_loadgen.json`'s weighted-fair
//! configuration, plus one untimed functional session on fleet-chaos.

use crate::chip::{setup_lineup, NETS, SCALE};
use crate::report::{Metric, Outcome};
use crate::stats::{median, Summary};
use crate::sys::{process_cpu_ns, user_sys_us};
use crate::trace::Tracer;
use crate::{baseline_rows, row_num, row_str, Params};
use red_core::prelude::*;
use red_core::workloads::networks;
use red_server::{
    drive, policy_for, AutoscaleConfig, BrownoutConfig, ChipFleet, FaultPlan, LoadMode,
    LoadgenConfig, ServerConfig, ServerReport, TenantClass,
};
use std::hint::black_box;
use std::time::Instant;

/// Open-loop rate of `fleet-steady`, requests per virtual second.
const STEADY_RPS: f64 = 600_000.0;
/// Open-loop rate of `fleet-chaos`.
const CHAOS_RPS: f64 = 960_000.0;
/// The CI chaos smoke's five-event fault plan.
const FAULT_PLAN: &str =
    "crash:800:0:1,drift:2000:1:2592000,crash:5000:2:0,stall:9000:1:1:400,strike:12000:0:0:512";
/// Requests of fleet-chaos's functional brownout session.
const FUNCTIONAL_REQUESTS: usize = 1_000;
/// Requests and seed of `BENCH_loadgen.json`.
const BASELINE_REQUESTS: usize = 1_000_000;
const BASELINE_SEED: u64 = 7;

/// The fleet: every lineup network compiled for RED on ideal crossbars,
/// two replicas per partition.
fn build_fleet(seed: u64) -> ChipFleet {
    let red = [Design::red(RedLayoutPolicy::Auto)];
    let parts = setup_lineup(XbarConfig::ideal(), &red, 1, seed)
        .into_iter()
        .map(|c| (c.chip, 2))
        .collect();
    ChipFleet::multi(parts).expect("replica counts are positive")
}

/// The fleet's server configuration; `model_only` skips executing the
/// chips.
fn server_config(chaos: bool, model_only: bool, seed: u64) -> ServerConfig {
    let tenants: Vec<TenantClass> = ["interactive:4:0:200", "standard:2:1:800", "batch:1:2:0"]
        .iter()
        .map(|spec| TenantClass::parse(spec).expect("tenant specs parse"))
        .collect();
    let policy = policy_for("weighted-fair", &tenants, 50_000).expect("weighted-fair exists");
    let mut cfg = ServerConfig::new()
        .max_batch(8)
        .max_wait_ns(50_000)
        .policy_arc(policy)
        .tenants(tenants)
        .autoscale(AutoscaleConfig {
            min_replicas: 1,
            cooldown_ns: 500_000,
            ..AutoscaleConfig::default()
        });
    if model_only {
        cfg = cfg.model_only();
    }
    if chaos {
        cfg = cfg
            .brownout(BrownoutConfig::default())
            .fault_plan(FaultPlan::parse(FAULT_PLAN, seed).expect("the fault plan parses"));
    }
    cfg
}

fn session(
    fleet: &ChipFleet,
    cfg: &ServerConfig,
    rps: f64,
    requests: usize,
    seed: u64,
    traffic: &[Vec<FeatureMap<i64>>],
) -> ServerReport {
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps },
        clients: 12,
        requests,
        horizon_ns: None,
        slo_ns: None,
        seed,
        stream: true,
    };
    drive(fleet, cfg, &load, traffic).expect("the session runs")
}

/// Every modeled statistic a replay must reproduce exactly.
fn fingerprint(r: &ServerReport) -> String {
    let parts: Vec<String> = r
        .partition_reports
        .iter()
        .map(|p| {
            format!(
                "{}/{}/{}/{}/{}/{:?}/{}",
                p.offered,
                p.served,
                p.batches,
                p.modeled_busy_ns,
                p.scale_events.len(),
                p.served_by_tier,
                p.brownout_events.len()
            )
        })
        .collect();
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {:?} {}",
        r.offered,
        r.served,
        r.shed,
        r.batches,
        r.total.p50(),
        r.total.p99(),
        r.total.count(),
        r.last_completion_ns,
        r.retries,
        r.hedges,
        r.reprograms,
        r.sheds_by_reason,
        parts.join(";")
    )
}

/// The per-session correctness checks; with `expected`, the session's
/// modeled statistics must also equal that fingerprint.
fn check_session(r: &ServerReport, expected: Option<&str>, out: &mut Outcome) {
    let lost = r.offered.saturating_sub(r.served + r.shed);
    let replayed = expected.is_none_or(|e| fingerprint(r) == e);
    let ok = r.reconciles() && r.failed == 0 && lost == 0 && replayed;
    out.check(r.offered, ok, || {
        format!(
            "session: reconciles {}, failed {}, lost {lost}, replays the reference {replayed}",
            r.reconciles(),
            r.failed
        )
    });
}

/// Brownout's error bound, checked where it is metered: model-only
/// workers execute nothing, so one short functional session of the chaos
/// configuration runs the chips, and its workers re-run every degraded
/// batch at full precision and record the worst deviation. The session
/// must degrade some images, or the check would be vacuous.
fn check_brownout_functional(fleet: &ChipFleet, seed: u64, out: &mut Outcome) {
    let lineup = networks::serving_lineup(SCALE).expect("the serving lineup builds");
    let traffic: Vec<_> = lineup
        .iter()
        .map(|stack| networks::request_stream(stack, 16, 64, seed))
        .collect();
    let cfg = server_config(true, false, seed);
    let r = session(fleet, &cfg, CHAOS_RPS, FUNCTIONAL_REQUESTS, seed, &traffic);
    check_session(&r, None, out);
    let degraded: u64 = r.served_by_tier[1..].iter().map(|&(_, n)| n).sum();
    let ok = degraded > 0 && r.max_observed_error <= r.precision_error_bound;
    println!(
        "functional brownout session: {} requests, {degraded} degraded images, \
         max observed error {} within bound {}",
        r.offered, r.max_observed_error, r.precision_error_bound
    );
    out.check(degraded, ok, || {
        format!(
            "functional brownout: {degraded} degraded images, observed error {} over bound {}",
            r.max_observed_error, r.precision_error_bound
        )
    });
}

/// fleet-steady's modeled p99 and served count against the
/// weighted-fair row of `BENCH_loadgen.json`, at its seed and size.
fn check_loadgen_baseline(fleet: &ChipFleet, out: &mut Outcome) {
    let row = baseline_rows("BENCH_loadgen.json").and_then(|rows| {
        rows.into_iter()
            .find(|r| row_str(r, "policy") == Some("weighted-fair"))
            .ok_or_else(|| "no weighted-fair row".to_string())
    });
    let row = match row {
        Ok(row) => row,
        Err(e) => {
            out.check(1, false, || format!("BENCH_loadgen.json unusable: {e}"));
            return;
        }
    };
    let r = session(
        fleet,
        &server_config(false, true, BASELINE_SEED),
        STEADY_RPS,
        BASELINE_REQUESTS,
        BASELINE_SEED,
        &[],
    );
    check_session(&r, None, out);
    let p99_us = r.total.p99() as f64 / 1e3;
    let ok = row_num(&row, "served") == Some(r.served as f64)
        && row_num(&row, "p99_us").is_some_and(|w| (w - p99_us).abs() < 5e-4);
    out.check(1, ok, || {
        format!(
            "weighted-fair replay: served {} p99 {p99_us:.3} us, BENCH_loadgen.json served {:?} p99 {:?}",
            r.served,
            row_num(&row, "served"),
            row_num(&row, "p99_us")
        )
    });
}

/// Per-session host measurements.
#[derive(Default)]
struct Sessions {
    wall_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    user_us: u64,
    sys_us: u64,
}

impl Sessions {
    fn timed(&mut self, f: impl FnOnce() -> ServerReport) -> ServerReport {
        let (u0, s0) = user_sys_us();
        let (w0, c0) = (Instant::now(), process_cpu_ns());
        let r = f();
        self.wall_ns.push(w0.elapsed().as_nanos() as f64);
        self.cpu_ns.push((process_cpu_ns() - c0) as f64);
        let (u1, s1) = user_sys_us();
        self.user_us += u1 - u0;
        self.sys_us += s1 - s0;
        r
    }
}

/// Times `Chip::truncation_error_bound` at eco on each partition's chip,
/// one span each.
fn error_bound_pass(fleet: &ChipFleet, tracer: &mut Tracer, iter: u64) {
    for (net, part) in NETS.iter().zip(fleet.partitions()) {
        let span = tracer.begin(format!("runtime.error_bound.{net}"), iter);
        black_box(part.chip().truncation_error_bound(ExecPrecision::Eco));
        tracer.end(span);
    }
}

fn error_bound_us(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    NETS.iter()
        .map(|net| {
            (
                *net,
                median(&tracer.durations_ms(&format!("runtime.error_bound.{net}"))) * 1e3,
            )
        })
        .collect()
}

/// The server per-layer metrics of one configuration: the report of a
/// session (identical across sessions), its host timings, and the
/// error-bound cost per partition.
fn server_metrics(r: &ServerReport, s: &Sessions, bound_us: &[(&str, f64)]) -> Vec<Metric> {
    let wall_us = median(&s.wall_ns) / 1e3;
    let degraded = |tiers: &[u64]| tiers.iter().skip(1).sum::<u64>();
    let degraded_images: u64 = r
        .partition_reports
        .iter()
        .map(|p| degraded(&p.served_by_tier))
        .sum();
    // Degraded batches per partition, estimated from its mean batch.
    let bound_total_us: f64 = r
        .partition_reports
        .iter()
        .zip(bound_us)
        .map(|(p, (_, us))| {
            let mean_batch = p.served as f64 / p.batches.max(1) as f64;
            degraded(&p.served_by_tier) as f64 / mean_batch.max(1.0) * us
        })
        .sum();
    let cpu_us = (s.user_us + s.sys_us).max(1) as f64;
    let cpu_session_us = median(&s.cpu_ns) / 1e3;
    let scale_events: usize = r
        .partition_reports
        .iter()
        .map(|p| p.scale_events.len())
        .sum();
    let transitions: usize = r
        .partition_reports
        .iter()
        .map(|p| p.brownout_events.len())
        .sum();
    vec![
        Metric::new(
            "server.host_us_per_batch",
            wall_us / r.batches.max(1) as f64,
            "us",
        ),
        Metric::new("server.sys_frac", s.sys_us as f64 / cpu_us, "frac"),
        Metric::new("server.retries", r.retries as f64, "count"),
        Metric::new("server.hedges", r.hedges as f64, "count"),
        Metric::new("server.reprograms", r.reprograms as f64, "count"),
        Metric::new("server.degraded_images", degraded_images as f64, "count"),
        Metric::new(
            "server.bound_share_est",
            bound_total_us / cpu_session_us,
            "frac",
        )
        .note("degraded batches x runtime.error_bound_us over the session CPU time"),
        Metric::new("server.batches", r.batches as f64, "count"),
        Metric::new("server.mean_batch", r.mean_batch(), "count"),
        Metric::new(
            "server.shed_frac",
            r.shed as f64 / r.offered.max(1) as f64,
            "frac",
        ),
        Metric::new("server.scale_events", scale_events as f64, "count"),
        Metric::new("server.tier_transitions", transitions as f64, "count"),
    ]
}

/// Runs the `fleet-steady` (`chaos == false`) or `fleet-chaos` workload.
pub fn run(chaos: bool, p: &Params, tracer: &mut Tracer, side: &mut Tracer) -> Outcome {
    let rps = if chaos { CHAOS_RPS } else { STEADY_RPS };
    let requests = match (p.smoke, chaos) {
        (true, _) => 5_000,
        (false, false) => 200_000,
        (false, true) => 25_000,
    };
    let mut out = Outcome::default();

    let ((fleet, cfg), setup) =
        p.repeat_setup(|| (build_fleet(p.seed), server_config(chaos, true, p.seed)));

    // Warm-up session: checked, untimed, and the modeled reference.
    let reference = session(&fleet, &cfg, rps, requests, p.seed, &[]);
    check_session(&reference, None, &mut out);
    let expected = fingerprint(&reference);

    let (mut untraced, mut traced) = (Sessions::default(), Sessions::default());
    let started = Instant::now();
    let mut iter = 0u64;
    while iter < p.min_iters() || started.elapsed().as_secs_f64() < p.seconds {
        iter += 1;
        let r = if tracer.is_on() && iter.is_multiple_of(2) {
            let span = tracer.begin("server.drive", iter);
            let r = traced.timed(|| session(&fleet, &cfg, rps, requests, p.seed, &[]));
            tracer.end(span);
            error_bound_pass(&fleet, tracer, iter);
            r
        } else {
            untraced.timed(|| session(&fleet, &cfg, rps, requests, p.seed, &[]))
        };
        check_session(&r, Some(&expected), &mut out);
    }
    let peak_rss = Metric::peak_rss();
    if chaos {
        check_brownout_functional(&fleet, p.seed, &mut out);
    } else {
        check_loadgen_baseline(&fleet, &mut out);
    }

    let wall = Summary::of(&untraced.wall_ns);
    let per_session: Vec<f64> = untraced
        .wall_ns
        .iter()
        .map(|w| requests as f64 * 1e9 / w)
        .collect();
    let cpu_per_op: Vec<f64> = untraced
        .cpu_ns
        .iter()
        .map(|c| c / requests as f64 / 1e3)
        .collect();
    let setup_summary = Summary::of(&setup);
    out.end_to_end = vec![
        Metric::new(
            "cpu_us_per_op",
            median(&untraced.cpu_ns) / requests as f64 / 1e3,
            "us",
        )
        .spread(&Summary::of(&cpu_per_op)),
        Metric::new("setup_s", setup_summary.median, "s").spread(&setup_summary),
        peak_rss,
    ];
    out.info = vec![
        Metric::new("ops_per_s", requests as f64 * 1e9 / wall.median, "1/s")
            .spread(&Summary::of(&per_session)),
        Metric::new("modeled_p99_us", reference.total.p99() as f64 / 1e3, "us")
            .note(format!("virtual clock, n {}", reference.total.count())),
        Metric::new(
            "modeled_served_frac",
            reference.served as f64 / reference.offered as f64,
            "frac",
        )
        .note(format!("{} of {}", reference.served, reference.offered)),
    ];
    if tracer.is_on() {
        let bound_us = error_bound_us(tracer);
        let traced_ops = requests as f64 * 1e9 / median(&traced.wall_ns);
        out.per_layer = server_metrics(&reference, &untraced, &bound_us);
        out.per_layer.extend(
            bound_us
                .iter()
                .map(|(net, us)| Metric::new(format!("runtime.error_bound_us.{net}"), *us, "us")),
        );
        out.per_layer.push(Metric::new(
            "trace.overhead_frac",
            1.0 - traced_ops / (requests as f64 * 1e9 / wall.median),
            "frac",
        ));
        let share = out
            .per_layer
            .iter()
            .find(|m| m.name == "server.bound_share_est")
            .map_or(0.0, |m| m.value);
        out.derived_self_ms.push((
            "runtime.error_bound (degraded batches x bound time, inside server.drive)".into(),
            share * traced.wall_ns.iter().sum::<f64>() / 1e6,
            "server.drive".into(),
        ));
        let chip_layers = crate::chip::side_chip_metrics(p, side, &mut out);
        out.per_layer.extend(
            chip_layers
                .into_iter()
                .filter(|m| !m.name.starts_with("runtime.error_bound_us")),
        );
    }
    out
}

/// Server-layer metrics for a workload that runs no fleet itself: three
/// short fleet-steady sessions, recorded on `side`.
pub fn side_server_metrics(p: &Params, side: &mut Tracer) -> Vec<Metric> {
    let fleet = build_fleet(p.seed);
    let cfg = server_config(false, true, p.seed);
    let requests = 20_000;
    let reference = session(&fleet, &cfg, STEADY_RPS, requests, p.seed, &[]);
    let mut s = Sessions::default();
    for iter in 1..=3 {
        let span = side.begin("server.drive", iter);
        s.timed(|| session(&fleet, &cfg, STEADY_RPS, requests, p.seed, &[]));
        side.end(span);
    }
    let mut bound = Tracer::new(true);
    error_bound_pass(&fleet, &mut bound, 0);
    server_metrics(&reference, &s, &error_bound_us(&bound))
}
