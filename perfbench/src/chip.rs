//! The chip workloads: the scale-8 serving lineup compiled for all three
//! paper designs and executed on the benchmark's own thread through
//! `Chip::run_batched_with_scratch`.

use crate::report::{Metric, Outcome};
use crate::stats::{median, Summary};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;
use crate::{baseline_rows, row_num, row_str, Params};
use red_arch::{DesignGeometry, ExecutionStats};
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::{Chip, ChipBuilder, ChipScratch};
use red_xbar::{CrossbarArray, VmmScratch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Channel scale of the serving lineup (`BENCH_serve.json`'s `scale`).
pub const SCALE: usize = 8;
/// Short names of the lineup's networks, in `serving_lineup` order.
pub const NETS: [&str; 3] = ["dcgan", "sngan", "fcn"];
/// Short names of the paper designs, in `Design::paper_lineup` order.
pub const DESIGNS: [&str; 3] = ["zp", "pf", "red"];
/// Inputs per VMM probe call.
const PROBE_BATCH: usize = 8;

fn design_key(design: Design) -> &'static str {
    match design {
        Design::ZeroPadding => "zp",
        Design::PaddingFree => "pf",
        Design::Red { .. } => "red",
    }
}

/// Seed of input `image` of network `net` for benchmark seed `seed`.
fn input_seed(seed: u64, net: usize, image: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((net as u64) << 32 | image as u64)
}

/// One compiled chip with its seeded batch and working memory.
pub struct ChipCase {
    pub net: &'static str,
    pub network: &'static str,
    pub design: Design,
    pub chip: Chip,
    pub inputs: Vec<FeatureMap<i64>>,
    pub scratch: ChipScratch,
    pub compile_s: f64,
    /// Outputs of `Chip::run_sequential` on `inputs`.
    pub golden: Vec<FeatureMap<i64>>,
}

impl ChipCase {
    pub fn key(&self) -> String {
        format!("{}.{}", self.net, design_key(self.design))
    }
}

/// Compiles the lineup for `designs` on `cfg` with `BENCH_serve.json`'s
/// programming seeds, and draws each network's seeded dense input batch.
pub fn setup_lineup(cfg: XbarConfig, designs: &[Design], batch: usize, seed: u64) -> Vec<ChipCase> {
    let lineup = networks::serving_lineup(SCALE).expect("the serving lineup builds");
    let mut cases = Vec::new();
    for (n, stack) in lineup.iter().enumerate() {
        let inputs: Vec<_> = (0..batch)
            .map(|i| synth::input_dense(&stack.layers[0], 64, input_seed(seed, n, i)))
            .collect();
        for &design in designs {
            let started = Instant::now();
            let chip = ChipBuilder::new()
                .design(design)
                .xbar_config(cfg)
                .compile_seeded(stack, 5, 77)
                .expect("the lineup compiles onto the chip");
            let compile_s = started.elapsed().as_secs_f64();
            let scratch = chip.make_scratch();
            cases.push(ChipCase {
                net: NETS[n],
                network: stack.name,
                design,
                chip,
                inputs: inputs.clone(),
                scratch,
                compile_s,
                golden: Vec::new(),
            });
        }
    }
    cases
}

/// Computes each chip's reference outputs with `Chip::run_sequential`.
fn set_golden(cases: &mut [ChipCase]) {
    for case in cases {
        case.golden = case
            .chip
            .run_sequential(&case.inputs)
            .expect("the sequential golden path runs")
            .outputs;
    }
}

/// Per-stage state of the traced stage-by-stage drive.
struct StageDrive {
    scratch: Vec<LayerScratch>,
    /// The same network compiled on ideal crossbars (noisy workload
    /// only): its stage times, on the same stage inputs, are what the
    /// noisy stages would cost without the analog path.
    twin: Option<(Chip, Vec<LayerScratch>)>,
}

/// Counts from `ExecutionStats`, per design, summed over the lineup.
#[derive(Default, Clone, Copy)]
struct DesignCounts {
    vector_ops: u64,
    nonzero_rows: u128,
    row_slots: u128,
    images: u64,
}

/// Drives every stage of `case` through `CompiledLayer::run_batch_with_at`
/// plus `Activation::apply`, one span per stage, and checks the result
/// against the golden outputs.
fn drive_stages(
    case: &ChipCase,
    drive: &mut StageDrive,
    tracer: &mut Tracer,
    iter: u64,
    counts: &mut BTreeMap<&'static str, DesignCounts>,
    out: &mut Outcome,
) {
    let key = case.key();
    let depth = case.chip.depth();
    let outer = tracer.begin(format!("arch.drive.{key}"), iter);
    let mut fms = case.inputs.clone();
    let mut stats = ExecutionStats::default();
    for (k, stage) in case.chip.stages().iter().enumerate() {
        let span = tracer.begin(format!("arch.stage.{key}.s{k}"), iter);
        let execs = stage
            .compiled()
            .run_batch_with_at(&fms, &mut drive.scratch[k], ExecPrecision::Full)
            .expect("stage accepts its input");
        let next: Vec<_> = execs
            .iter()
            .map(|e| {
                if k + 1 < depth {
                    case.chip.activation().apply(&e.output)
                } else {
                    e.output.clone()
                }
            })
            .collect();
        tracer.end(span);
        for e in &execs {
            stats.vector_ops += e.stats.vector_ops;
            stats.nonzero_row_activations += e.stats.nonzero_row_activations;
            stats.total_row_slots += e.stats.total_row_slots;
        }
        if let Some((twin, scratch)) = &mut drive.twin {
            let span = tracer.begin(format!("arch.twin.{key}.s{k}"), iter);
            let execs = twin.stages()[k]
                .compiled()
                .run_batch_with_at(&fms, &mut scratch[k], ExecPrecision::Full)
                .expect("twin stage accepts its input");
            black_box(execs);
            tracer.end(span);
        }
        fms = next;
    }
    tracer.end(outer);
    let c = counts.entry(design_key(case.design)).or_default();
    c.vector_ops += stats.vector_ops;
    c.nonzero_rows += stats.nonzero_row_activations;
    c.row_slots += stats.total_row_slots;
    c.images += case.inputs.len() as u64;
    out.check(case.inputs.len() as u64, fms == case.golden, || {
        format!("{key}: stage-by-stage outputs differ from run_sequential")
    });
}

/// Runs one batch through every chip's public batched entry point and
/// checks it; returns per-chip (wall ns, process CPU ns).
fn run_pass(
    cases: &mut [ChipCase],
    tracer: &mut Tracer,
    iter: u64,
    out: &mut Outcome,
) -> Vec<(f64, f64)> {
    let mut times = Vec::with_capacity(cases.len());
    for case in cases.iter_mut() {
        let span = tracer.begin(format!("runtime.batch.{}", case.key()), iter);
        let (w0, c0) = (Instant::now(), process_cpu_ns());
        let run = case
            .chip
            .run_batched_with_scratch(&case.inputs, &mut case.scratch);
        let wall = w0.elapsed().as_nanos() as f64;
        let cpu = (process_cpu_ns() - c0) as f64;
        tracer.end(span);
        let ok = match &run {
            Ok(run) => {
                run.outputs == case.golden
                    && run.report.reconciles_with(&case.chip.pipeline_report())
            }
            Err(_) => false,
        };
        out.check(case.inputs.len() as u64, ok, || {
            format!(
                "{}: batched outputs differ from run_sequential or the schedule does not reconcile",
                case.key()
            )
        });
        times.push((wall, cpu));
    }
    times
}

/// Checks each chip's modeled fill, interval and energy against the
/// `BENCH_serve.json` row of the same network, design and crossbar.
fn check_serve_baseline(cases: &[ChipCase], xbar: &str, out: &mut Outcome) {
    let rows = match baseline_rows("BENCH_serve.json") {
        Ok(rows) => rows,
        Err(e) => {
            out.check(1, false, || format!("BENCH_serve.json unusable: {e}"));
            return;
        }
    };
    for case in cases {
        let row = rows.iter().find(|r| {
            row_str(r, "network") == Some(case.network)
                && row_str(r, "design") == Some(case.design.label())
                && row_str(r, "xbar") == Some(xbar)
        });
        let analytic = case.chip.pipeline_report();
        let measured = [
            ("fill_us", analytic.fill_latency_ns() / 1e3),
            ("interval_us", analytic.steady_interval_ns() / 1e3),
            ("energy_per_image_uj", case.chip.energy_per_image_pj() / 1e6),
        ];
        for (field, value) in measured {
            let want = row.and_then(|r| row_num(r, field));
            let ok = want.is_some_and(|w| (w - value).abs() <= 1e-6 * w.abs().max(1.0));
            out.check(1, ok, || {
                format!(
                    "{} {} ({xbar}): modeled {field} {value:.6} != BENCH_serve.json {want:?}",
                    case.network,
                    case.design.label()
                )
            });
        }
    }
}

/// The modeled RED-vs-zero-padding ratios over the lineup.
fn modeled_ratios(cases: &[ChipCase]) -> (f64, f64) {
    let sum = |design: &str, f: &dyn Fn(&Chip) -> f64| -> f64 {
        cases
            .iter()
            .filter(|c| design_key(c.design) == design)
            .map(|c| f(&c.chip))
            .sum()
    };
    let interval = |c: &Chip| c.pipeline_report().steady_interval_ns();
    let energy = |c: &Chip| c.energy_per_image_pj();
    (
        sum("zp", &interval) / sum("red", &interval),
        1.0 - sum("red", &energy) / sum("zp", &energy),
    )
}

/// The VMM probe: arrays the benchmark programs itself at the shape of
/// the DCGAN zero-padding chip's largest crossbar (taps·C rows × M
/// columns), on ideal and on `full` crossbars, fed dense seeded inputs.
/// The pipeline bottleneck stage is the 1-filter output layer, whose
/// one-column array would time call overhead rather than the kernels.
struct XbarProbe {
    exact: CrossbarArray,
    analog: CrossbarArray,
    inputs: Vec<i64>,
    out: Vec<i64>,
    scratch: VmmScratch,
}

impl XbarProbe {
    fn new(cases: &[ChipCase], seed: u64) -> Self {
        let zp = cases
            .iter()
            .find(|c| c.net == "dcgan" && c.design == Design::ZeroPadding)
            .expect("the lineup holds the DCGAN zero-padding chip");
        let (rows, cols) = zp
            .chip
            .stages()
            .iter()
            .map(|s| (s.layer().taps() * s.layer().channels(), s.layer().filters()))
            .max_by_key(|(rows, cols)| rows * cols)
            .expect("the chip has stages");
        let mut x = seed | 1;
        let mut next = move |span: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % span
        };
        let weights: Vec<i64> = (0..rows * cols).map(|_| next(11) as i64 - 5).collect();
        let inputs = (0..rows * PROBE_BATCH)
            .map(|_| 1 + next(88) as i64)
            .collect();
        let noisy = XbarConfig::preset("full").expect("the full preset exists");
        Self {
            exact: CrossbarArray::program_flat(&XbarConfig::ideal(), rows, cols, weights.clone())
                .expect("probe weights are in range"),
            analog: CrossbarArray::program_flat(&noisy, rows, cols, weights)
                .expect("probe weights are in range"),
            inputs,
            out: vec![0; cols * PROBE_BATCH],
            scratch: VmmScratch::new(),
        }
    }

    /// Times each VMM entry point on the probe batch, one span each.
    fn run(&mut self, tracer: &mut Tracer, iter: u64) {
        let (rows, cols) = (self.exact.rows(), self.exact.weight_cols());
        let per_input = |tracer: &mut Tracer, name: &str, p: &mut Self, analog: bool| {
            let span = tracer.begin(name, iter);
            for (input, o) in p
                .inputs
                .chunks_exact(rows)
                .zip(p.out.chunks_exact_mut(cols))
            {
                if analog {
                    p.analog.vmm_analog_into(input, &mut p.scratch, o);
                } else {
                    p.exact.vmm_exact_into(input, o);
                }
            }
            tracer.end(span);
        };
        per_input(tracer, "xbar.exact_x8", self, false);
        let span = tracer.begin("xbar.exact_batch8", iter);
        self.exact
            .vmm_batch(&self.inputs, PROBE_BATCH, &mut self.scratch, &mut self.out);
        tracer.end(span);
        per_input(tracer, "xbar.analog_x8", self, true);
        let span = tracer.begin("xbar.analog_batch8", iter);
        self.analog
            .vmm_analog_batch(&self.inputs, PROBE_BATCH, &mut self.scratch, &mut self.out);
        tracer.end(span);
        black_box(&self.out);
    }

    fn metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let m = |name: &str| median(&tracer.durations_ms(name));
        let per_vmm = |name: &str| m(name) * 1e6 / PROBE_BATCH as f64;
        let shape = format!(
            "{} x {} array, dense inputs",
            self.exact.rows(),
            self.exact.weight_cols()
        );
        vec![
            Metric::new("xbar.vmm_exact_ns", per_vmm("xbar.exact_x8"), "ns").note(&shape),
            Metric::new("xbar.vmm_analog_ns", per_vmm("xbar.analog_x8"), "ns").note(&shape),
            Metric::new(
                "xbar.vmm_batch_gain",
                m("xbar.exact_x8") / m("xbar.exact_batch8"),
                "x",
            ),
            Metric::new(
                "xbar.analog_batch_gain",
                m("xbar.analog_x8") / m("xbar.analog_batch8"),
                "x",
            ),
        ]
    }
}

/// How many of the lineup's crossbar instances pass each batching gate
/// on `cfg`: one array per stage is programmed at the stage's geometry.
fn gate_counts(cases: &[ChipCase], cfg: &XbarConfig) -> Vec<Metric> {
    let (mut blocked, mut analog, mut any) = (0usize, 0usize, 0usize);
    for case in cases {
        for stage in case.chip.stages() {
            let geom =
                DesignGeometry::derive(case.design, stage.layer(), cfg.phys_cols_per_weight())
                    .expect("stage geometry derives");
            let shape = geom.array;
            let array = CrossbarArray::program_flat(
                cfg,
                shape.rows,
                shape.weight_cols,
                vec![0; shape.rows * shape.weight_cols],
            )
            .expect("zero weights are in range");
            blocked += shape.instances * usize::from(array.batching_pays());
            analog += shape.instances * usize::from(array.analog_batching_pays());
            any += shape.instances * usize::from(array.vmm_batch_pays());
        }
    }
    vec![
        Metric::new("xbar.gate.batching_pays", blocked as f64, "count"),
        Metric::new("xbar.gate.analog_batching_pays", analog as f64, "count"),
        Metric::new("xbar.gate.vmm_batch_pays", any as f64, "count"),
    ]
}

/// State of a traced run over the chip layers.
pub struct LayerTrace {
    drives: Vec<StageDrive>,
    probe: XbarProbe,
    counts: BTreeMap<&'static str, DesignCounts>,
}

impl LayerTrace {
    /// Prepares the traced drive; with `twins`, compiles the lineup on
    /// ideal crossbars as the comparator for the analog path.
    pub fn new(cases: &[ChipCase], twins: bool, seed: u64) -> Self {
        let lineup = networks::serving_lineup(SCALE).expect("the serving lineup builds");
        let drives = cases
            .iter()
            .map(|case| {
                let scratch = case
                    .chip
                    .stages()
                    .iter()
                    .map(|s| s.compiled().make_scratch())
                    .collect();
                let twin = twins.then(|| {
                    let stack =
                        &lineup[NETS.iter().position(|n| *n == case.net).expect("known net")];
                    let chip = ChipBuilder::new()
                        .design(case.design)
                        .compile_seeded(stack, 5, 77)
                        .expect("the lineup compiles onto the chip");
                    let scratch = chip
                        .stages()
                        .iter()
                        .map(|s| s.compiled().make_scratch())
                        .collect();
                    (chip, scratch)
                });
                StageDrive { scratch, twin }
            })
            .collect();
        Self {
            drives,
            probe: XbarProbe::new(cases, seed),
            counts: BTreeMap::new(),
        }
    }

    /// One traced pass: the stage-by-stage drive of every chip, the
    /// error-bound evaluation of every RED chip, and the VMM probe.
    pub fn pass(&mut self, cases: &[ChipCase], tracer: &mut Tracer, iter: u64, out: &mut Outcome) {
        // The counts are exact, so every pass yields the same map.
        let mut counts = BTreeMap::new();
        for (case, drive) in cases.iter().zip(&mut self.drives) {
            drive_stages(case, drive, tracer, iter, &mut counts, out);
            if design_key(case.design) == "red" {
                let span = tracer.begin(format!("runtime.error_bound.{}", case.net), iter);
                black_box(case.chip.truncation_error_bound(ExecPrecision::Eco));
                tracer.end(span);
            }
        }
        self.counts = counts;
        self.probe.run(tracer, iter);
    }

    /// The runtime, arch and xbar per-layer metrics from the spans.
    pub fn metrics(
        &self,
        cases: &[ChipCase],
        compile_s: &BTreeMap<String, Vec<f64>>,
        cfg: &XbarConfig,
        tracer: &Tracer,
    ) -> Vec<Metric> {
        let mut m = Vec::new();
        for case in cases {
            let key = case.key();
            m.push(Metric::new(
                format!("runtime.compile_s.{key}"),
                median(&compile_s[&key]),
                "s",
            ));
        }
        let (mut batch_total, mut stage_total) = (0.0, 0.0);
        for case in cases {
            let key = case.key();
            let batch = median(&tracer.durations_ms(&format!("runtime.batch.{key}")));
            batch_total += batch;
            m.push(Metric::new(format!("runtime.batch_ms.{key}"), batch, "ms"));
        }
        for case in cases {
            let key = case.key();
            for k in 0..case.chip.depth() {
                let stage = median(&tracer.durations_ms(&format!("arch.stage.{key}.s{k}")));
                stage_total += stage;
                m.push(Metric::new(
                    format!("arch.stage_ms.{key}.s{k}"),
                    stage,
                    "ms",
                ));
            }
        }
        m.push(
            Metric::new(
                "runtime.unattributed_frac",
                1.0 - stage_total / batch_total,
                "frac",
            )
            .note("batch time not covered by stage spans, from medians"),
        );
        for net in NETS {
            let ms = median(&tracer.durations_ms(&format!("runtime.error_bound.{net}")));
            m.push(Metric::new(
                format!("runtime.error_bound_us.{net}"),
                ms * 1e3,
                "us",
            ));
        }
        for design in DESIGNS {
            let c = self.counts.get(design).copied().unwrap_or_default();
            m.push(Metric::new(
                format!("arch.vector_ops_per_image.{design}"),
                c.vector_ops as f64 / c.images.max(1) as f64,
                "count",
            ));
            m.push(Metric::new(
                format!("arch.zero_slot_frac.{design}"),
                1.0 - c.nonzero_rows as f64 / c.row_slots.max(1) as f64,
                "frac",
            ));
        }
        m.extend(self.probe.metrics(tracer));
        m.extend(gate_counts(cases, cfg));
        m
    }
}

/// Images per second from per-chip medians of `wall` (ns), and the same
/// rate per pass for the spread.
fn rate(per_chip: &[Vec<f64>], images: f64) -> (f64, Summary) {
    let total: f64 = per_chip.iter().map(|w| median(w)).sum();
    let passes = per_chip.first().map_or(0, Vec::len);
    let per_pass: Vec<f64> = (0..passes)
        .map(|j| images * 1e9 / per_chip.iter().map(|w| w[j]).sum::<f64>())
        .collect();
    (images * 1e9 / total, Summary::of(&per_pass))
}

/// The crossbar preset name, its configuration and the images per chip
/// of chip-noisy (`noisy`) or chip-ideal.
fn lineup_config(noisy: bool) -> (&'static str, XbarConfig, usize) {
    if noisy {
        (
            "full",
            XbarConfig::preset("full").expect("the full preset exists"),
            2,
        )
    } else {
        ("ideal", XbarConfig::ideal(), 4)
    }
}

/// Runs the `chip-ideal` (`noisy == false`) or `chip-noisy` workload.
pub fn run(noisy: bool, p: &Params, tracer: &mut Tracer, side: &mut Tracer) -> Outcome {
    let (xbar, cfg, batch) = lineup_config(noisy);
    let mut out = Outcome::default();

    let mut compile_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut cases, setup) = p.repeat_setup(|| {
        let cases = setup_lineup(cfg, &Design::paper_lineup(), batch, p.seed);
        for c in &cases {
            compile_s.entry(c.key()).or_default().push(c.compile_s);
        }
        cases
    });

    // Correctness references, outside the timed region.
    set_golden(&mut cases);
    check_serve_baseline(&cases, xbar, &mut out);
    let mut layers = tracer
        .is_on()
        .then(|| LayerTrace::new(&cases, noisy, p.seed));

    // Warm-up pass (checked, untimed), then the timed region.
    run_pass(&mut cases, &mut Tracer::new(false), 0, &mut out);
    let images = (cases.len() * batch) as f64;
    // Per chip and pass: (wall ns, CPU ns) untraced, wall ns traced.
    let mut untraced: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cases.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let started = Instant::now();
    let mut iter = 0u64;
    while iter < p.min_iters() || started.elapsed().as_secs_f64() < p.seconds {
        iter += 1;
        // A traced run alternates untraced and traced passes, so both
        // see the same host conditions.
        if let (Some(layers), true) = (&mut layers, iter.is_multiple_of(2)) {
            let times = run_pass(&mut cases, tracer, iter, &mut out);
            for (t, (wall, _)) in traced.iter_mut().zip(times) {
                t.push(wall);
            }
            layers.pass(&cases, tracer, iter, &mut out);
        } else {
            let times = run_pass(&mut cases, &mut Tracer::new(false), iter, &mut out);
            for (t, time) in untraced.iter_mut().zip(times) {
                t.push(time);
            }
        }
    }
    let peak_rss = Metric::peak_rss();

    let wall: Vec<Vec<f64>> = untraced
        .iter()
        .map(|t| t.iter().map(|x| x.0).collect())
        .collect();
    let cpu_ns: f64 = untraced
        .iter()
        .map(|t| median(&t.iter().map(|x| x.1).collect::<Vec<_>>()))
        .sum();
    let passes = untraced.first().map_or(0, Vec::len);
    let cpu_per_pass: Vec<f64> = (0..passes)
        .map(|j| untraced.iter().map(|t| t[j].1).sum::<f64>() / images / 1e3)
        .collect();
    let (ops_per_s, spread) = rate(&wall, images);
    let setup_summary = Summary::of(&setup);
    out.end_to_end = vec![
        Metric::new("cpu_us_per_op", cpu_ns / images / 1e3, "us")
            .spread(&Summary::of(&cpu_per_pass)),
        Metric::new("setup_s", setup_summary.median, "s").spread(&setup_summary),
        peak_rss,
    ];
    out.info
        .push(Metric::new("ops_per_s", ops_per_s, "1/s").spread(&spread));
    if !noisy {
        let (speedup, saving) = modeled_ratios(&cases);
        out.info.push(
            Metric::new("modeled_speedup_red_vs_zp", speedup, "x")
                .note("modeled: summed steady intervals over the lineup"),
        );
        out.info.push(
            Metric::new("modeled_energy_saving_red_vs_zp", saving, "frac")
                .note("modeled: summed energy per image over the lineup"),
        );
    }
    if let Some(layers) = &layers {
        let (traced_ops_per_s, _) = rate(&traced, images);
        out.per_layer = layers.metrics(&cases, &compile_s, &cfg, tracer);
        out.per_layer.push(Metric::new(
            "trace.overhead_frac",
            1.0 - traced_ops_per_s / ops_per_s,
            "frac",
        ));
        out.per_layer
            .extend(crate::fleet::side_server_metrics(p, side));
        if noisy {
            let sum = |prefix: &str| -> f64 {
                tracer
                    .spans()
                    .iter()
                    .filter(|s| s.name.starts_with(prefix))
                    .map(|s| s.dur_ns() as f64 / 1e6)
                    .sum()
            };
            out.derived_self_ms.push((
                "xbar.analog_path (noisy stage time minus its ideal twin)".into(),
                sum("arch.stage.") - sum("arch.twin."),
                "arch.stage".into(),
            ));
        }
    }
    out
}

/// Chip-layer metrics for a workload that runs no chips itself: a short
/// traced sweep over chip-noisy's lineup, where the simulator spends
/// its time, recorded on `side`.
pub fn side_chip_metrics(p: &Params, side: &mut Tracer, out: &mut Outcome) -> Vec<Metric> {
    let (_, cfg, batch) = lineup_config(true);
    let mut cases = setup_lineup(cfg, &Design::paper_lineup(), batch, p.seed);
    let compile_s = cases.iter().map(|c| (c.key(), vec![c.compile_s])).collect();
    set_golden(&mut cases);
    let mut layers = LayerTrace::new(&cases, false, p.seed);
    run_pass(&mut cases, &mut Tracer::new(false), 0, out);
    for iter in 1..=3 {
        run_pass(&mut cases, side, iter, out);
        layers.pass(&cases, side, iter, out);
    }
    layers.metrics(&cases, &compile_s, &cfg, side)
}
