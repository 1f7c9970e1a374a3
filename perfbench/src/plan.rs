//! The `plan-resnet34` workload: the in-process user
//! pipeline — load, Ω sweep, PSD projection, IQP at the Table 1 grid, PTQ
//! accuracy — followed by deployment of the 3.0-bit plan on the integer
//! kernels.

use crate::layers;
use crate::report::{fnv1a, mean, median, Golden, Report};
use clado_core::{
    assign_bits, measure_sensitivities, quantized_accuracy, sensitivities_to_bytes,
    solve_with_matrix, AssignOptions, BitAssignment, SensitivityMatrix, SensitivityOptions,
    SensitivityStats,
};
use clado_models::{evaluate_batched, pretrained, DataSplit, ModelKind, Pretrained};
use clado_nn::{top1_accuracy, Network};
use clado_quant::{BitWidth, BitWidthSet, LayerSizes, QuantScheme};
use clado_solver::{SolverConfig, Termination};
use clado_telemetry::Telemetry;
use std::path::Path;
use std::time::Instant;

/// The Table 1 budget grid (average bits per weight).
pub const GRID: [f64; 3] = [2.5, 3.0, 3.5];
/// Index of the 3.0-bit budget in [`GRID`]: the plan that is deployed.
pub const DEPLOY_BUDGET: usize = 1;
/// Deployment batch size.
pub const DEPLOY_BATCH: usize = 64;
/// Integer inference passes over the val split per deployment.
const DEPLOY_PASSES: usize = 2;
/// Plan queries answered from the in-memory Ω after each pass.
const HIT_QUERIES: usize = 64;
/// Operations per pass: the grid queries, the other plan queries and the
/// deployment.
const OPS_PER_PASS: u64 = (GRID.len() + HIT_QUERIES + 1) as u64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
pub const SCHEME: QuantScheme = QuantScheme::PerTensorSymmetric;

const NAME: &str = "plan-resnet34";
const MODEL: ModelKind = ModelKind::ResNet34;
const SET_SIZE: usize = 128;
/// Nominal seconds of one pass on a 2-core host. A run makes
/// `seconds / PASS_SECONDS` passes (at least 2), so the sets a run covers
/// depend only on the seed and the run length, not on the host's speed.
const PASS_SECONDS: f64 = 6.0;

/// One deployment of a plan on the integer kernels.
pub struct Deploy {
    /// Per batch: images per second of the integer forward pass and of
    /// its float twin, timed back to back on the same batch.
    pub int_images_per_s: Vec<f64>,
    pub float_images_per_s: Vec<f64>,
    pub accuracy: f64,
    pub int_layers: usize,
    pub prepare_s: f64,
}

/// Installs `bits` on the integer kernels and runs the val split
/// `DEPLOY_PASSES` times at batch [`DEPLOY_BATCH`]. Each batch also runs
/// through a float copy of the network just before, so every integer
/// batch has a float twin timed on the same core a few milliseconds
/// apart. Float execution is restored at the end.
pub fn deploy(net: &mut Network, bits: &[BitWidth], val: &DataSplit, tel: &Telemetry) -> Deploy {
    let mut float_net = net.clone();
    float_net.set_telemetry(Telemetry::disabled());
    let t = Instant::now();
    let int_layers = {
        let _s = tel.span("nn.set_integer_assignment");
        net.set_integer_assignment(bits, SCHEME)
    };
    let prepare_s = t.elapsed().as_secs_f64();
    let batches = DEPLOY_PASSES * val.len().div_ceil(DEPLOY_BATCH);
    let mut int_images_per_s = Vec::with_capacity(batches);
    let mut float_images_per_s = Vec::with_capacity(batches);
    let mut accuracy = f64::NAN;
    for _ in 0..DEPLOY_PASSES {
        let _s = tel.span("nn.evaluate_integer");
        // `evaluate_batched`, with a clock around each batch.
        let mut correct = 0.0;
        for (x, labels) in val.batches(DEPLOY_BATCH) {
            let n = labels.len() as f64;
            let twin = x.clone();
            let t = Instant::now();
            let _ = float_net.forward(twin, false);
            float_images_per_s.push(n / t.elapsed().as_secs_f64());
            let t = Instant::now();
            let logits = net.forward(x, false);
            int_images_per_s.push(n / t.elapsed().as_secs_f64());
            correct += top1_accuracy(&logits, &labels) * n;
        }
        accuracy = correct / val.len() as f64;
    }
    net.clear_integer_assignment();
    Deploy {
        int_images_per_s,
        float_images_per_s,
        accuracy,
        int_layers,
        prepare_s,
    }
}

/// Integer images per second and integer-over-float speedup of every
/// deployed batch.
pub fn deploy_batches<'a>(deploys: impl Iterator<Item = &'a Deploy>) -> (Vec<f64>, Vec<f64>) {
    let (mut rate, mut speedup) = (Vec::new(), Vec::new());
    for d in deploys {
        for (int, float) in d.int_images_per_s.iter().zip(&d.float_images_per_s) {
            rate.push(*int);
            speedup.push(int / float);
        }
    }
    (rate, speedup)
}

/// Digest of Ω with the wall-clock stats block cleared, so two equal
/// matrices hash equally however long they took.
pub fn omega_digest(sm: &SensitivityMatrix) -> u64 {
    let mut c = sm.clone();
    c.stats = SensitivityStats {
        provenance: c.stats.provenance,
        ..Default::default()
    };
    fnv1a(&sensitivities_to_bytes(&c))
}

pub fn bits_digest(plans: &[Vec<u8>]) -> u64 {
    let flat: Vec<u8> = plans
        .iter()
        .flat_map(|p| p.iter().copied().chain([0]))
        .collect();
    fnv1a(&flat)
}

/// The sensitivity set of each pass: a seeded sample of the train split.
struct SetSequence {
    train: DataSplit,
    size: usize,
    seed: u64,
}

impl SetSequence {
    fn get(&self, pass: usize) -> DataSplit {
        self.train.sample_subset(
            self.size,
            self.seed.wrapping_mul(1000).wrapping_add(pass as u64),
        )
    }
}

/// What one pass of the pipeline measured.
struct Iteration {
    pass: usize,
    plan_s: f64,
    miss_s: f64,
    hit_s: Vec<f64>,
    ptq_acc: Vec<f64>,
    ptq_eval_s: f64,
    psd_s: f64,
    solve_s: Vec<f64>,
    nodes: Vec<u64>,
    max_gap: f64,
    stats: SensitivityStats,
    sweep_s: f64,
    deploy: Deploy,
    omega: u64,
    plans: u64,
}

struct Phase {
    iterations: Vec<Iteration>,
    attempted: u64,
    failed: u64,
    /// Ω and the deployed plan of the last pass, for the checks and
    /// replays that follow the timed passes.
    last: Option<(SensitivityMatrix, Vec<BitWidth>)>,
}

pub fn run(seed: u64, seconds: f64, trace: bool, state: &Path, report: &mut Report) {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut p: Option<Pretrained> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let loaded = pretrained(MODEL);
        setup_s.push(t.elapsed().as_secs_f64());
        p = Some(loaded);
    }
    let mut p = p.expect("SETUPS > 0");
    // Pass k measures its own sensitivity set, so one run averages over
    // several sets and the traced pass k repeats the untraced pass k.
    let sets = SetSequence {
        train: p.data.train.clone(),
        size: SET_SIZE,
        seed,
    };
    let layers_count = p.network.quantizable_layers().len();
    let sizes = LayerSizes::new(p.network.layer_param_counts());
    // Lazy kernel selection and thread-local scratch settle here.
    let _ = evaluate_batched(&mut p.network, &p.data.val, DEPLOY_BATCH);

    let mut golden = Golden::open(&state.join("golden"), NAME, seed);
    let passes = ((seconds / PASS_SECONDS).round() as usize).max(2);
    let untraced = run_phase(
        &mut p,
        &sets,
        &sizes,
        passes,
        &Telemetry::disabled(),
        report,
    );
    if let Some((sm, _)) = &untraced.last {
        sanity_unbounded(&mut p, sm, &sizes, report);
    }

    let traced = if trace {
        let tel = Telemetry::new();
        tel.set_trace_enabled(true);
        p.network.set_telemetry(tel.clone());
        let phase = run_phase(&mut p, &sets, &sizes, passes, &tel, report);
        p.network.set_telemetry(Telemetry::disabled());
        Some((phase, tel))
    } else {
        None
    };

    // Determinism: pass k must produce the same Ω and plans traced or not,
    // and in every earlier run with this seed.
    let all: Vec<&Iteration> = untraced
        .iterations
        .iter()
        .chain(traced.iter().flat_map(|(ph, _)| ph.iterations.iter()))
        .collect();
    if all.is_empty() {
        report.check("pipeline_completed", false, "no pipeline pass completed");
    }
    for it in &all {
        let omega = golden.agree(&format!("omega/{}", it.pass), it.omega);
        let plans = golden.agree(&format!("plans/{}", it.pass), it.plans);
        report.check(
            "omega_bitwise_repeatable",
            omega,
            format!("pass {}: Ω digest {:016x}", it.pass, it.omega),
        );
        report.check(
            "plans_bitwise_repeatable",
            plans,
            format!("pass {}: plan digest {:016x}", it.pass, it.plans),
        );
    }
    if let Err(e) = golden.save() {
        eprintln!("perfbench: could not record golden digests: {e}");
    }
    for it in &all {
        let dep_ptq = it.ptq_acc[DEPLOY_BUDGET];
        report.check(
            "int_layers_equal_quantizable",
            it.deploy.int_layers == layers_count,
            format!(
                "{}/{layers_count} layers on integer kernels",
                it.deploy.int_layers
            ),
        );
        report.check(
            "deploy_acc_within_1pp_of_ptq",
            (it.deploy.accuracy - dep_ptq).abs() <= 0.01 + 1e-12,
            format!("integer {:.4} vs PTQ {:.4}", it.deploy.accuracy, dep_ptq),
        );
    }

    report.attempted = untraced.attempted + traced.as_ref().map_or(0, |(ph, _)| ph.attempted);
    report.failed = untraced.failed + traced.as_ref().map_or(0, |(ph, _)| ph.failed);

    match traced {
        None => end_to_end(&untraced, &setup_s, report),
        Some((phase, tel)) => {
            report.set_median("models.load_s", &setup_s, "s");
            per_layer(&phase, &untraced, &tel, report);
            layers::gemm_rates(&tel, report);
            let plan3 = untraced.last.as_ref().map(|(_, bits)| bits.as_slice());
            layers::stage_replays(&mut p.network, &p.data.val, plan3, &tel, report);
            layers::write_trace(&tel, state, NAME, seed, report);
        }
    }
}

fn opts(telemetry: Telemetry) -> SensitivityOptions {
    SensitivityOptions {
        scheme: SCHEME,
        threads: crate::report::nproc(),
        telemetry,
        ..Default::default()
    }
}

fn run_phase(
    p: &mut Pretrained,
    sets: &SetSequence,
    sizes: &LayerSizes,
    passes: usize,
    tel: &Telemetry,
    report: &mut Report,
) -> Phase {
    let bits = BitWidthSet::standard();
    let mut phase = Phase {
        iterations: Vec::new(),
        attempted: 0,
        failed: 0,
        last: None,
    };
    for pass in 0..passes {
        phase.attempted += OPS_PER_PASS;
        match iteration(p, pass, &sets.get(pass), sizes, &bits, tel, report) {
            Some((it, sm, deployed)) => {
                phase.iterations.push(it);
                phase.last = Some((sm, deployed));
            }
            None => phase.failed += OPS_PER_PASS,
        }
    }
    phase
}

fn iteration(
    p: &mut Pretrained,
    pass: usize,
    sens: &DataSplit,
    sizes: &LayerSizes,
    bits: &BitWidthSet,
    tel: &Telemetry,
    report: &mut Report,
) -> Option<(Iteration, SensitivityMatrix, Vec<BitWidth>)> {
    let solver = SolverConfig {
        telemetry: tel.clone(),
        ..SolverConfig::default()
    };
    let t_plan = Instant::now();
    let sm = {
        let _s = tel.span("core.measure_sensitivities");
        measure_sensitivities(&mut p.network, sens, bits, &opts(tel.clone()))
    };
    let sm = match sm {
        Ok(sm) => sm,
        Err(e) => {
            eprintln!("perfbench: sweep failed: {e}");
            return None;
        }
    };
    let sweep_s = t_plan.elapsed().as_secs_f64();
    let t = Instant::now();
    let proj = {
        let _s = tel.span("solver.psd_projected");
        sm.psd_projected()
    };
    let psd_s = t.elapsed().as_secs_f64();
    let mut miss_s = 0.0;
    let mut plans: Vec<BitAssignment> = Vec::new();
    let mut ptq_acc = Vec::new();
    let mut solve_s = Vec::new();
    let mut ptq_eval_s = 0.0;
    for (i, &avg) in GRID.iter().enumerate() {
        let t_query = Instant::now();
        let a = {
            let _s = tel.span("solver.solve_with_matrix");
            solve_with_matrix(
                &proj,
                sm.bits(),
                sizes,
                sizes.budget_from_avg_bits(avg),
                &solver,
            )
        };
        solve_s.push(t_query.elapsed().as_secs_f64());
        if i == 0 {
            miss_s = t_plan.elapsed().as_secs_f64();
        }
        let a = match a {
            Ok(a) => a,
            Err(e) => {
                eprintln!("perfbench: IQP at {avg} bits failed: {e}");
                return None;
            }
        };
        let t_eval = Instant::now();
        let acc = {
            let _s = tel.span("core.quantized_accuracy");
            quantized_accuracy(&mut p.network, &a.bits, SCHEME, &p.data.val)
        };
        ptq_eval_s += t_eval.elapsed().as_secs_f64();
        report.check(
            "iqp_terminates_proved",
            a.solution.termination == Termination::Proved,
            format!("{avg} bits: {}", a.solution.termination.label()),
        );
        ptq_acc.push(acc);
        plans.push(a);
    }
    let plan_s = t_plan.elapsed().as_secs_f64();
    let deploy = deploy(&mut p.network, &plans[DEPLOY_BUDGET].bits, &p.data.val, tel);

    // Plan queries answered from the in-memory Ω, as the daemon answers a
    // cache hit (`assign_bits`: PSD projection and IQP), at budgets spread
    // evenly over [2.5, 4.0) bits.
    let mut hit_s = Vec::with_capacity(HIT_QUERIES);
    let assign = AssignOptions {
        solver: solver.clone(),
        telemetry: tel.clone(),
        ..AssignOptions::default()
    };
    for q in 0..HIT_QUERIES {
        let avg = GRID[0] + 1.5 * (q as f64 + 0.5) / HIT_QUERIES as f64;
        let t = Instant::now();
        let a = {
            let _s = tel.span("core.assign_bits");
            assign_bits(&sm, sizes, sizes.budget_from_avg_bits(avg), &assign)
        };
        hit_s.push(t.elapsed().as_secs_f64());
        match a {
            Ok(a) => report.check(
                "iqp_terminates_proved",
                a.solution.termination == Termination::Proved,
                format!("query at {avg} bits: {}", a.solution.termination.label()),
            ),
            Err(e) => {
                eprintln!("perfbench: plan query at {avg} bits failed: {e}");
                return None;
            }
        }
    }
    let plan_bytes: Vec<Vec<u8>> = plans
        .iter()
        .map(|a| a.bits.iter().map(|b| b.bits()).collect())
        .collect();
    let it = Iteration {
        pass,
        plan_s,
        miss_s,
        hit_s,
        ptq_acc,
        ptq_eval_s,
        psd_s,
        solve_s,
        nodes: plans.iter().map(|a| a.solution.nodes_explored).collect(),
        max_gap: plans.iter().map(|a| a.solution.gap).fold(0.0, f64::max),
        stats: sm.stats,
        sweep_s,
        deploy,
        omega: omega_digest(&sm),
        plans: bits_digest(&plan_bytes),
    };
    let deployed = plans.swap_remove(DEPLOY_BUDGET).bits;
    Some((it, sm, deployed))
}

/// SNIPPETS.md §1: with no budget constraint the IQP should return an
/// all-8-bit model, or one with close-to-FP accuracy. The count of layers
/// below 8 bits is reported either way.
fn sanity_unbounded(
    p: &mut Pretrained,
    sm: &SensitivityMatrix,
    sizes: &LayerSizes,
    report: &mut Report,
) {
    match solve_with_matrix(
        &sm.psd_projected(),
        sm.bits(),
        sizes,
        u64::MAX,
        &SolverConfig::default(),
    ) {
        Ok(a) => {
            let below = a.bits.iter().filter(|b| b.bits() < 8).count();
            let acc = quantized_accuracy(&mut p.network, &a.bits, SCHEME, &p.data.val);
            report.check(
                "iqp_terminates_proved",
                a.solution.termination == Termination::Proved,
                format!("unbounded: {}", a.solution.termination.label()),
            );
            report.check(
                "unbounded_plan_is_8bit_or_fp_accurate",
                below == 0 || (acc - p.val_accuracy).abs() <= 0.01,
                format!(
                    "{below} layer(s) below 8 bits, PTQ {acc:.4} vs FP32 {:.4}: {}",
                    p.val_accuracy,
                    a.bitmap()
                ),
            );
            report.set("solver.unbounded_below8_layers", below as f64, "count", 1);
        }
        Err(e) => report.check(
            "unbounded_plan_is_8bit_or_fp_accurate",
            false,
            format!("IQP failed: {e}"),
        ),
    }
}

fn end_to_end(phase: &Phase, setup_s: &[f64], report: &mut Report) {
    let its = &phase.iterations;
    let col = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(f).collect::<Vec<f64>>();
    let plan_s = col(&|it| it.plan_s);
    let miss_ms = col(&|it| it.miss_s * 1e3);
    let (int_rate, int_speedup) = deploy_batches(its.iter().map(|it| &it.deploy));
    // Each pass answers one miss and HIT_QUERIES hits.
    let query_rate =
        col(&|it| (1 + it.hit_s.len()) as f64 / (it.miss_s + it.hit_s.iter().sum::<f64>()));
    let hit_ms: Vec<f64> = its
        .iter()
        .flat_map(|it| it.hit_s.iter().map(|s| s * 1e3))
        .collect();
    report.note_median("plan_s", &plan_s, "s");
    report.note_median("miss_ms", &miss_ms, "ms");
    report.note_median("hit_ms", &hit_ms, "ms");
    report.note_median("req_per_s", &query_rate, "1/s");
    report.note_median("deploy_images_per_s", &int_rate, "images/s");
    report.note_median("deploy_int_speedup", &int_speedup, "ratio");
    report.set_median("setup_s", setup_s, "s");
    report.set("peak_rss_mb", crate::report::peak_rss_mb(), "MB", 1);
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.attempted as usize,
    );
    report.set_time_tail("plan_p90_s", &plan_s, "s");
    report.set(
        "plan_val_acc",
        100.0
            * mean(&col(&|it| {
                it.ptq_acc.iter().sum::<f64>() / it.ptq_acc.len() as f64
            })),
        "%",
        its.len(),
    );
    report.set_rate_tail("deploy_p10_int_speedup", &int_speedup, "ratio");
    report.set(
        "deploy_val_acc",
        100.0 * mean(&col(&|it| it.deploy.accuracy)),
        "%",
        its.len(),
    );
    report.set_rate_tail("req_p10_per_s", &query_rate, "1/s");
    report.set_time_tail("miss_p90_ms", &miss_ms, "ms");
}

fn per_layer(phase: &Phase, untraced: &Phase, tel: &Telemetry, report: &mut Report) {
    let its = &phase.iterations;
    let n = its.len().max(1) as f64;
    let col = |f: &dyn Fn(&Iteration) -> f64| its.iter().map(f).collect::<Vec<f64>>();
    let span_mean = |path: &str| {
        tel.span_stats(path)
            .map_or(0.0, |s| s.total.as_secs_f64() / s.count.max(1) as f64)
    };
    report.set_median("core.sweep_s", &col(&|it| it.sweep_s), "s");
    report.set("core.base_s", span_mean("measure.base"), "s", its.len());
    report.set(
        "core.diagonal_s",
        span_mean("measure.diagonal"),
        "s",
        its.len(),
    );
    report.set(
        "core.pairwise_s",
        span_mean("measure.pairwise"),
        "s",
        its.len(),
    );
    report.set_median("core.ptq_eval_s", &col(&|it| it.ptq_eval_s), "s");
    let evals = col(&|it| it.stats.evaluations as f64);
    report.set("core.evaluations", median(&evals), "count", its.len());
    report.set_median(
        "core.probes_per_s",
        &col(&|it| it.stats.evaluations as f64 / it.sweep_s),
        "1/s",
    );
    let probe = tel
        .histograms()
        .into_iter()
        .find(|(k, _)| k == "probe.eval")
        .map(|(_, h)| h);
    report.set(
        "core.probe_eval_p50_us",
        probe.map_or(0.0, |h| h.p50_us as f64),
        "us",
        probe.map_or(0, |h| h.count as usize),
    );
    report.set(
        "core.prefix_hit_ratio",
        median(&col(&|it| {
            it.stats.prefix_cache_hits as f64 / it.stats.evaluations.max(1) as f64
        })),
        "ratio",
        its.len(),
    );
    report.set(
        "core.prefix_builds",
        median(&col(&|it| it.stats.prefix_cache_builds as f64)),
        "count",
        its.len(),
    );
    report.set(
        "core.prefix_advances",
        tel.counter_value("measure.prefix_cache_advances") as f64 / n,
        "count",
        its.len(),
    );
    report.set(
        "core.retries",
        its.iter().map(|it| it.stats.retried as f64).sum(),
        "count",
        its.len(),
    );
    report.set(
        "core.quarantined",
        its.iter().map(|it| it.stats.quarantined as f64).sum(),
        "count",
        its.len(),
    );

    report.set_median("solver.psd_s", &col(&|it| it.psd_s), "s");
    let solves: Vec<f64> = its
        .iter()
        .flat_map(|it| it.solve_s.iter().copied())
        .collect();
    report.set_median("solver.solve_s", &solves, "s");
    let nodes: Vec<f64> = its
        .iter()
        .flat_map(|it| it.nodes.iter().map(|&x| x as f64))
        .collect();
    report.set(
        "solver.nodes",
        nodes.iter().sum::<f64>() / nodes.len().max(1) as f64,
        "count",
        nodes.len(),
    );
    report.set(
        "solver.max_gap",
        its.iter().map(|it| it.max_gap).fold(0.0, f64::max),
        "loss",
        its.len(),
    );

    report.set(
        "nn.int_layers",
        its.first().map_or(0.0, |it| it.deploy.int_layers as f64),
        "count",
        1,
    );
    report.set_median("nn.int_prepare_s", &col(&|it| it.deploy.prepare_s), "s");

    let traced_plan = median(&col(&|it| it.plan_s));
    let untraced_plan = median(
        &untraced
            .iterations
            .iter()
            .map(|it| it.plan_s)
            .collect::<Vec<_>>(),
    );
    report.set(
        "telemetry.overhead_ratio",
        traced_plan / untraced_plan,
        "ratio",
        its.len(),
    );
}
