//! Chaos acceptance tests for the self-healing serving layer: under a
//! deterministic fault plan (replica crashes, stalls, retention drift,
//! stuck-at strikes) the server must lose **zero** requests — every
//! request completes exactly once or sheds with an attributed reason —
//! outputs stay bit-exact, the canary prober quarantines drifted
//! replicas, interactive latency re-converges under the SLO once the
//! last repair lands, and the whole faulted session replays
//! byte-identically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_sim::red_core::prelude::*;
use red_sim::red_core::workloads::networks;
use red_sim::red_runtime::ChipBuilder;
use red_sim::red_server::{
    drive, policy_for, AutoscaleConfig, BrownoutConfig, ChipFleet, ClientMode, FaultPlan, Fifo,
    HealthConfig, LoadMode, LoadgenConfig, Outcome, Server, ServerConfig, ServerError, TenantClass,
};
use red_sim::red_telemetry::Telemetry;
use std::sync::OnceLock;

const SCALE: usize = 16; // DCGAN at 64 base channels: fast but non-trivial

/// One compiled RED fleet (2 replicas) plus its fill latency, shared
/// across proptest cases — compilation dominates otherwise.
fn shared_fleet() -> &'static (ChipFleet, u64) {
    static FLEET: OnceLock<(ChipFleet, u64)> = OnceLock::new();
    FLEET.get_or_init(|| {
        let stack = networks::dcgan_generator(SCALE).unwrap();
        let chip = ChipBuilder::new()
            .design(Design::red(RedLayoutPolicy::Auto))
            .compile_seeded(&stack, 5, 42)
            .unwrap();
        let fill = chip.pipeline_report().fill_latency_ns() as u64;
        (ChipFleet::new(chip, 2).unwrap(), fill)
    })
}

/// A seeded arbitrary fault plan against partition 0: always at least
/// one crash (the event class that orphans in-flight requests), plus a
/// random tail of crashes, stalls, drift advances, and strike batches.
fn random_plan(seed: u64, extra: usize, span_ns: u64, replicas: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = || rng.gen_range(1..span_ns.max(2));
    let mut plan = FaultPlan::new(seed).crash(at(), 0, 0);
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    for _ in 0..extra {
        let t = at();
        plan = match rng2.gen_range(0..4u32) {
            0 => plan.crash(t, 0, rng2.gen_range(0..replicas)),
            1 => plan.stall(
                t,
                0,
                rng2.gen_range(0..replicas),
                rng2.gen_range(1..200_000),
            ),
            2 => plan.drift(t, 0, rng2.gen_range(1.0e3..1.0e7)),
            _ => plan.strikes(t, 0, rng2.gen_range(0..replicas), rng2.gen_range(1..512)),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The no-lost-request invariant: under an arbitrary fault plan,
    /// every submitted request is answered **exactly once** — modeled
    /// completion or attributed shed — the report's dual ledgers still
    /// reconcile, and every scheduled fault is eventually injected.
    #[test]
    fn no_request_is_lost_under_arbitrary_fault_plans(
        seed in any::<u64>(),
        extra in 0usize..=4,
        with_deadlines in any::<bool>(),
    ) {
        let (fleet, fill) = shared_fleet();
        let fill = *fill;
        let n = 40usize;
        let span = n as u64 * fill;
        let plan = random_plan(seed, extra, span, 2);
        let planned = plan.len() as u64;
        let config = ServerConfig::new()
            .max_batch(4)
            .max_wait_ns(fill / 2)
            .policy(Fifo)
            .model_only()
            .fault_plan(plan);
        let (server, mut clients) =
            Server::start(fleet, &config, &[ClientMode::Open, ClientMode::Open]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut clock = 0u64;
        let mut submitted = vec![0u64; clients.len()];
        for i in 0..n {
            clock += rng.gen_range(0..fill);
            let deadline = (with_deadlines && rng.gen_bool(0.5))
                .then(|| clock + rng.gen_range(2 * fill..10 * fill));
            let c = i % clients.len();
            clients[c].submit_modeled(0, clock, deadline).unwrap();
            submitted[c] += 1;
        }
        for client in clients.iter_mut() {
            client.finish();
        }
        let mut shed = 0u64;
        for (c, client) in clients.iter_mut().enumerate() {
            let mut answered = vec![0u32; submitted[c] as usize];
            for _ in 0..submitted[c] {
                let completion = client.recv().unwrap();
                answered[completion.meta.seq as usize] += 1;
                match completion.outcome {
                    Outcome::Modeled => {}
                    Outcome::Shed => shed += 1,
                    other => prop_assert!(false, "unexpected outcome {other:?}"),
                }
            }
            prop_assert!(
                answered.iter().all(|&k| k == 1),
                "client {c}: every seq answered exactly once, got {answered:?}"
            );
        }
        drop(clients);
        let report = server.finish();
        prop_assert_eq!(report.offered, n as u64);
        prop_assert_eq!(report.served + report.shed, n as u64);
        prop_assert_eq!(report.shed, shed);
        prop_assert!(report.reconciles(), "chaos must not break the busy-time ledgers");
        prop_assert_eq!(report.faults_injected, planned);
    }
}

/// The canary prober catches a partition-wide retention-drift advance:
/// both replicas quarantine and re-program, yet — because the witness
/// ages in place of the serving arrays — every served output stays
/// bit-exact against the offline sequential golden path.
#[test]
fn probe_quarantines_drifted_partition_and_outputs_stay_bit_exact() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let inputs: Vec<_> = (0..8)
        .map(|i| synth::input_dense(&stack.layers[0], 64, 9_000 + i as u64))
        .collect();
    let golden = chip.run_sequential(&inputs).unwrap();
    let fleet = ChipFleet::new(chip, 2).unwrap();
    // A month of 3% drift fires at 30 µs; probes run every 10 µs, so the
    // prober sees the aged witness within one cadence of the event.
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(2_000)
        .fault_plan(FaultPlan::new(3).drift(30_000, 0, 2_592_000.0))
        .health(HealthConfig::default().probe_interval_ns(10_000));
    let (server, mut clients) = Server::start(&fleet, &config, &[ClientMode::Open]).unwrap();
    for (i, input) in inputs.iter().enumerate() {
        clients[0]
            .submit(input.clone(), 20_000 * i as u64, None)
            .unwrap();
    }
    clients[0].finish();
    let mut got = vec![None; golden.outputs.len()];
    for _ in 0..golden.outputs.len() {
        let completion = clients[0].recv().unwrap();
        let Outcome::Served(output) = completion.outcome else {
            panic!("deadline-free requests are always served");
        };
        got[completion.meta.seq as usize] = Some(output);
    }
    for (i, (output, expected)) in got.iter().zip(&golden.outputs).enumerate() {
        assert_eq!(
            output.as_ref().expect("every seq answered"),
            expected,
            "request {i} must stay bit-exact under drift"
        );
    }
    drop(clients);
    let report = server.finish();
    assert_eq!(report.served, 8);
    assert_eq!(report.faults_injected, 1);
    assert!(
        report.reprograms >= 1,
        "the prober must quarantine and repair the drifted partition"
    );
    assert!(report.reconciles());
}

/// After the last repair, the interactive tail re-converges: every
/// request arriving once the crashed replica is back serves within its
/// deadline, so the tail-window p99 sits under the SLO.
#[test]
fn interactive_p99_reconverges_under_slo_after_repair() {
    let (fleet, fill) = shared_fleet();
    let (fill, n) = (*fill, 300usize);
    let slo = 8 * fill;
    let crash_at = 50 * fill;
    // The repair outage is reprogram_cells * write_time — far shorter
    // than the 150-fill gap between the crash and the tail window.
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(fill / 2)
        .policy(Fifo)
        .model_only()
        .fault_plan(FaultPlan::new(11).crash(crash_at, 0, 0))
        .health(HealthConfig::default().reprogram_cells(512));
    let (server, mut clients) = Server::start(fleet, &config, &[ClientMode::Open]).unwrap();
    for i in 0..n {
        let arrival = i as u64 * fill;
        clients[0]
            .submit_modeled(0, arrival, Some(arrival + slo))
            .unwrap();
    }
    clients[0].finish();
    let tail_start = 200 * fill;
    let mut tail_latencies = Vec::new();
    for _ in 0..n {
        let completion = clients[0].recv().unwrap();
        if completion.meta.arrival_ns < tail_start {
            continue; // mid-outage requests may retry, hedge, or shed
        }
        let Outcome::Modeled = completion.outcome else {
            panic!(
                "request arriving at {} (post-repair) must serve, got {:?}",
                completion.meta.arrival_ns, completion.outcome
            );
        };
        tail_latencies.push(completion.timing.completion_ns - completion.meta.arrival_ns);
    }
    drop(clients);
    let report = server.finish();
    assert_eq!(
        report.faults_injected, 1,
        "the crash must have fired before the tail"
    );
    assert!(
        report.reprograms >= 1,
        "the crashed replica must have repaired"
    );
    assert!(report.reconciles());
    tail_latencies.sort_unstable();
    let p99 = tail_latencies[(tail_latencies.len() * 99) / 100 - 1];
    assert!(
        p99 <= slo,
        "post-repair p99 {p99} ns must re-converge under the {slo} ns SLO"
    );
}

/// A faulted session is a pure function of (trace, plan, seed): two
/// independent runs of the same chaos configuration produce identical
/// modeled reports **and** byte-identical telemetry timelines.
#[test]
fn faulted_session_replays_byte_identically() {
    let (fleet, fill) = shared_fleet();
    let fill = *fill;
    let load = LoadgenConfig {
        mode: LoadMode::Open {
            rps: 3.0e9 / fill as f64,
        },
        clients: 4,
        requests: 5_000,
        horizon_ns: None,
        slo_ns: Some(6 * fill),
        seed: 21,
        stream: true,
    };
    let plan = FaultPlan::new(9)
        .crash(40 * fill, 0, 1)
        .drift(200 * fill, 0, 2_592_000.0)
        .stall(400 * fill, 0, 0, 10 * fill)
        .strikes(600 * fill, 0, 1, 256);
    let run = || {
        let telemetry = Telemetry::enabled();
        let config = ServerConfig::new()
            .max_batch(8)
            .max_wait_ns(fill / 2)
            .model_only()
            .fault_plan(plan.clone())
            .telemetry(telemetry.clone());
        let report = drive(fleet, &config, &load, &[]).expect("chaos load runs");
        (report, telemetry.export_chrome_trace())
    };
    let (a, trace_a) = run();
    let (b, trace_b) = run();
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.served, b.served);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.modeled_busy_ns, b.modeled_busy_ns);
    assert_eq!(a.last_completion_ns, b.last_completion_ns);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.reprograms, b.reprograms);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.hedges, b.hedges);
    assert_eq!(a.sheds_by_reason, b.sheds_by_reason);
    assert_eq!(a.faults_injected, 4, "every planned event fires");
    assert!(a.reconciles() && b.reconciles());
    assert_eq!(
        trace_a, trace_b,
        "the faulted telemetry timeline must replay byte-for-byte"
    );
}

/// Fault targets are validated, not clamped: a plan naming a partition
/// the fleet does not host, or a replica beyond its partition's
/// provisioned count, is rejected at start with the offending event.
#[test]
fn out_of_range_fault_targets_are_rejected_at_start() {
    let (fleet, _) = shared_fleet();
    let start = |plan: FaultPlan| {
        let config = ServerConfig::new().model_only().fault_plan(plan);
        Server::start(fleet, &config, &[ClientMode::Open]).map(|_| ())
    };
    let err = start(FaultPlan::parse("crash:10:99:7", 1).unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            ServerError::FaultTarget {
                event: 0,
                kind: "crash",
                partition: 99,
                replica: None,
                available: 1,
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("targets partition 99"), "{err}");
    let plan = FaultPlan::new(1)
        .crash(10, 0, 1)
        .strikes(20, 0, 2, 8)
        .stall(30, 0, 5, 100);
    let err = start(plan).unwrap_err();
    assert!(
        matches!(
            err,
            ServerError::FaultTarget {
                event: 1,
                kind: "strike",
                partition: 0,
                replica: Some(2),
                available: 2,
            }
        ),
        "{err:?}"
    );
    assert!(start(FaultPlan::new(1).crash(10, 0, 1).stall(30, 0, 0, 100)).is_ok());
}

/// An armed but empty fault plan serves exactly like no plan: the one
/// dispatch path's chaos branches (routable-replica pick, crash
/// lookahead, retry-aware lifecycle spans, canary probes of healthy
/// witnesses) must not move a single modeled figure. Drives the
/// three-network weighted-fair fleet of the committed loadgen baseline,
/// at its offered load and at ~1.6x that load with brownout armed.
#[test]
fn an_empty_fault_plan_serves_exactly_like_no_plan() {
    let lineup = networks::serving_lineup(8).unwrap();
    let parts = lineup
        .iter()
        .map(|stack| {
            let chip = ChipBuilder::new()
                .design(Design::red(RedLayoutPolicy::Auto))
                .compile_seeded(stack, 5, 42)
                .unwrap();
            (chip, 2)
        })
        .collect();
    let fleet = ChipFleet::multi(parts).unwrap();
    let tenants: Vec<TenantClass> = ["interactive:4:0:200", "standard:2:1:800", "batch:1:2:0"]
        .iter()
        .map(|spec| TenantClass::parse(spec).unwrap())
        .collect();
    let policy = policy_for("weighted-fair", &tenants, 50_000).unwrap();
    for (rps, brownout) in [(600_000.0, false), (960_000.0, true)] {
        let mut config = ServerConfig::new()
            .max_batch(8)
            .max_wait_ns(50_000)
            .policy_arc(policy.clone())
            .tenants(tenants.clone())
            .model_only()
            .autoscale(AutoscaleConfig {
                min_replicas: 1,
                cooldown_ns: 500_000,
                ..AutoscaleConfig::default()
            });
        if brownout {
            config = config.brownout(BrownoutConfig::default());
        }
        let load = LoadgenConfig {
            mode: LoadMode::Open { rps },
            clients: 12,
            requests: 50_000,
            horizon_ns: None,
            slo_ns: None,
            seed: 7,
            stream: true,
        };
        let no_plan = drive(&fleet, &config, &load, &[]).unwrap();
        let empty = drive(&fleet, &config.fault_plan(FaultPlan::new(7)), &load, &[]).unwrap();
        assert!(no_plan.shed > 0, "the load must exercise admission sheds");
        let (a, b) = (format!("{no_plan:?}"), format!("{empty:?}"));
        let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y);
        assert!(
            a == b,
            "rps {rps}, brownout {brownout}: reports diverge at byte {at:?}: \
             no plan `{}` vs empty plan `{}`",
            &a[at.unwrap_or(0).saturating_sub(80)..(at.unwrap_or(0) + 80).min(a.len())],
            &b[at.unwrap_or(0).saturating_sub(80)..(at.unwrap_or(0) + 80).min(b.len())],
        );
    }
}
