//! The `serve-mixed` workload: an in-process planning daemon on loopback
//! with two pooled workers attached through `run_pool_worker`, driven by
//! two closed-loop clients. Reads hit pre-warmed hot configs (memory or
//! disk cache); writes measure never-seen sensitivity sets on the pool.
//! Between traffic segments, a daemon user's plan steps: a cold sweep over
//! the Table 1 grid, PTQ accuracy of the served plans, and deployment of
//! the 3.0-bit plan on the integer kernels.

use crate::plan::{self, DEPLOY_BUDGET, GRID, SETUPS};
use crate::report::{fnv1a, mean, median, percentile, Golden, Report, SplitMix};
use clado_core::{
    quantized_accuracy, sensitivities_from_bytes, sensitivities_to_bytes, SensitivityStats,
};
use clado_dist::{run_pool_worker, DistError, JobSpec, WorkerOptions, WorkerReport};
use clado_estim::EstimatorKind;
use clado_models::{pretrained, DataSplit, ModelKind};
use clado_nn::Network;
use clado_quant::BitWidth;
use clado_serve::{
    submit, MeasureSpec, ModelProvider, Op, ServeError, ServeMessage, ServeOptions, ServeReport,
    Server, SubmitRequest,
};
use clado_telemetry::Telemetry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The traffic follows `clado chaos` with its defaults: bit-widths {4, 8},
// 4 configs picked uniformly (odd ones `blocktopk`-estimated), and an even
// measure/assign/sweep split with assign at 6.0 bits and sweep over
// 6.0–7.0 in 0.5 steps. Two changes: a measure is a write on a never-seen
// set, so a run has enough misses, and the split is a fixed rotation
// rather than a random roll, so the request rate does not vary with the
// seed.
const MODEL: &str = "resnet20";
const SET_SIZE: u64 = 32;
const TRAFFIC_BITS: [u8; 2] = [4, 8];
const HOT_CONFIGS: usize = 4;
const ASSIGN: Op = Op::Assign { avg_bits: 6.0 };
const SWEEP: Op = Op::Sweep {
    from: 6.0,
    to: 7.0,
    step: 0.5,
};
/// Memory Ω cache capacity: smaller than the hot set, so some reads and
/// every eviction by a write go to the disk cache.
const MEM_CACHE: usize = 2;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Cold plan steps of a phase.
const PLAN_STEPS: u64 = 10;
/// The traffic runs in this many equal segments, each followed by
/// `PLAN_STEPS / SEGMENTS` plan steps: the host's speed drifts over tens of
/// seconds, so plan steps spread over the run sample it as the traffic does.
const SEGMENTS: u64 = 5;
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// The served model, loaded once per set-up and cloned per request.
struct Base {
    network: Mutex<Network>,
    train: DataSplit,
    val: DataSplit,
}

impl Base {
    fn model(
        &self,
        model: &str,
        set_size: u64,
        set_seed: u64,
    ) -> Result<(Network, DataSplit), String> {
        if model != MODEL {
            return Err(format!("unknown model {model}"));
        }
        let n = (set_size as usize).min(self.train.len());
        let net = self
            .network
            .lock()
            .map_err(|_| "model lock poisoned")?
            .clone();
        Ok((net, self.train.sample_subset(n, set_seed)))
    }
}

struct Daemon {
    addr: String,
    drain: Arc<AtomicBool>,
    server: JoinHandle<Result<ServeReport, ServeError>>,
    workers: Vec<JoinHandle<Result<WorkerReport, DistError>>>,
}

/// Binds the daemon, attaches the pool workers and waits until both are
/// live: the serve part of `setup_s`.
fn start(base: &Arc<Base>, tel: &Telemetry, cache_dir: PathBuf) -> Result<Daemon, String> {
    let b = Arc::clone(base);
    let provider: ModelProvider =
        Arc::new(move |spec: &MeasureSpec| b.model(&spec.model, spec.set_size, spec.set_seed));
    let server = {
        let _s = tel.span("serve.bind");
        Server::bind(
            "127.0.0.1:0",
            "127.0.0.1:0",
            provider,
            ServeOptions {
                queue_depth: 16,
                executors: 2,
                cache_capacity: MEM_CACHE,
                cache_dir: Some(cache_dir),
                telemetry: tel.clone(),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?
    };
    let worker_addr = server.worker_addr().to_string();
    let workers = (0..WORKERS)
        .map(|_| {
            let b = Arc::clone(base);
            let addr = worker_addr.clone();
            let opts = WorkerOptions {
                telemetry: tel.clone(),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || {
                run_pool_worker(
                    &addr,
                    |job: &JobSpec| b.model(&job.model, job.set_size, job.set_seed),
                    &opts,
                )
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.live_workers() < WORKERS {
        if Instant::now() > deadline {
            return Err("pool workers did not connect".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let addr = server.client_addr().to_string();
    let drain = server.drain_flag();
    let server = std::thread::spawn(move || server.run());
    Ok(Daemon {
        addr,
        drain,
        server,
        workers,
    })
}

impl Daemon {
    fn stop(self) -> Result<ServeReport, String> {
        self.drain.store(true, Ordering::SeqCst);
        let report = self
            .server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        for w in self.workers {
            w.join()
                .map_err(|_| "pool worker panicked".to_string())?
                .map_err(|e| format!("pool worker: {e}"))?;
        }
        Ok(report)
    }
}

fn spec(set_seed: u64, bits: &[u8], estimated: bool) -> MeasureSpec {
    MeasureSpec {
        model: MODEL.into(),
        set_size: SET_SIZE,
        set_seed,
        batch_size: SET_SIZE,
        bits: bits.to_vec(),
        scheme: clado_dist::scheme_to_u8(plan::SCHEME),
        use_prefix_cache: true,
        estimator: if estimated {
            EstimatorKind::BlockTopK.tag()
        } else {
            0
        },
        probe_budget: 0,
        estimator_seed: u64::from(estimated),
    }
}

fn op_label(op: &Op) -> String {
    match op {
        Op::Measure => "measure".into(),
        Op::Assign { avg_bits } => format!("assign:{avg_bits}"),
        Op::Sweep { from, to, step } => format!("sweep:{from}:{to}:{step}"),
    }
}

/// Digest of a reply with its identity fields and, for measures, its
/// wall-clock stats block cleared — the comparison `clado chaos` makes.
fn reply_digest(msg: &ServeMessage) -> Option<u64> {
    let mut m = msg.clone();
    match &mut m {
        ServeMessage::MeasureDone {
            request_id,
            cache_hit,
            evaluations,
            clsm,
        } => {
            if let Ok(mut sens) = sensitivities_from_bytes(clsm) {
                sens.stats = SensitivityStats {
                    provenance: sens.stats.provenance,
                    ..Default::default()
                };
                *clsm = sensitivities_to_bytes(&sens);
            }
            (*request_id, *cache_hit, *evaluations) = (0, false, 0);
        }
        ServeMessage::AssignDone {
            request_id,
            cache_hit,
            evaluations,
            ..
        }
        | ServeMessage::SweepDone {
            request_id,
            cache_hit,
            evaluations,
            ..
        } => (*request_id, *cache_hit, *evaluations) = (0, false, 0),
        _ => return None,
    }
    Some(fnv1a(&m.encode()))
}

/// Shared answer book: the first reply digest per (config, op), plus the
/// violations found against it.
#[derive(Default)]
struct Answers {
    first: HashMap<String, u64>,
    mismatches: Vec<String>,
    nonzero_hit_evals: u64,
    not_proved: Vec<String>,
    /// Plan rows received and the largest IQP gap among them.
    rows: usize,
    max_gap: f64,
}

impl Answers {
    fn record(&mut self, key: String, msg: &ServeMessage) {
        let rows: &[clado_serve::AssignRow] = match msg {
            ServeMessage::AssignDone { row, .. } => std::slice::from_ref(row),
            ServeMessage::SweepDone { rows, .. } => rows,
            _ => &[],
        };
        self.rows += rows.len();
        self.max_gap = rows.iter().map(|r| r.gap).fold(self.max_gap, f64::max);
        for r in rows.iter().filter(|r| r.termination != "proved") {
            self.not_proved
                .push(format!("{key} at {} bits: {}", r.avg_bits, r.termination));
        }
        if let ServeMessage::MeasureDone {
            cache_hit: true,
            evaluations,
            ..
        }
        | ServeMessage::AssignDone {
            cache_hit: true,
            evaluations,
            ..
        }
        | ServeMessage::SweepDone {
            cache_hit: true,
            evaluations,
            ..
        } = msg
        {
            if *evaluations != 0 {
                self.nonzero_hit_evals += 1;
            }
        }
        if let Some(d) = reply_digest(msg) {
            let first = *self.first.entry(key.clone()).or_insert(d);
            if first != d {
                self.mismatches.push(key);
            }
        }
    }
}

/// One completed or failed request, as the client saw it.
struct Sample {
    ms: f64,
    ok: bool,
    cache_hit: bool,
    /// Fingerprint of the requested config.
    config: u64,
    /// Evaluations and Ω of a write, for the per-layer metrics.
    measured: Option<(bool, u64, Vec<u8>)>,
}

fn hot_specs(seed: u64) -> Vec<MeasureSpec> {
    (0..HOT_CONFIGS)
        .map(|h| {
            spec(
                seed.wrapping_mul(100).wrapping_add(h as u64),
                &TRAFFIC_BITS,
                h % 2 == 1,
            )
        })
        .collect()
}

/// One closed-loop client: each request waits for the previous reply.
/// `stream` numbers the (segment, client) pairs of a phase; it seeds the
/// client's choices and keeps its writes apart from every other stream's.
fn client(
    stream: u64,
    addr: &str,
    seed: u64,
    until: Instant,
    hot: &[MeasureSpec],
    answers: &Mutex<Answers>,
    tel: &Telemetry,
) -> Vec<Sample> {
    let mut rng = SplitMix(seed ^ (stream + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut samples = Vec::new();
    let mut writes = 0u64;
    let first_op = rng.next() % 3;
    while Instant::now() < until {
        let mut read = |op| (hot[(rng.next() % HOT_CONFIGS as u64) as usize].clone(), op);
        let (spec, op) = match (samples.len() as u64 + first_op) % 3 {
            0 => {
                writes += 1;
                // Never-seen sets: seeds no hot config and no other stream
                // uses. Odd writes are estimated, as odd configs are.
                let set_seed = seed
                    .wrapping_mul(100_000)
                    .wrapping_add(1_000_000 + stream * 50_000 + writes);
                (spec(set_seed, &TRAFFIC_BITS, writes % 2 == 1), Op::Measure)
            }
            1 => read(ASSIGN),
            _ => read(SWEEP),
        };
        let config = spec.fingerprint();
        let key = format!("{config:016x}/{}", op_label(&op));
        let estimated = spec.estimator != 0;
        let req = SubmitRequest {
            spec,
            op,
            deadline_ms: 0,
        };
        let t = Instant::now();
        let outcome = {
            let _s = tel.span("serve.submit");
            submit(addr, &req, Some(RESPONSE_TIMEOUT))
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let sample = match outcome {
            Ok(o) => {
                let (ok, cache_hit, measured) = match &o.response {
                    ServeMessage::MeasureDone {
                        cache_hit,
                        evaluations,
                        clsm,
                        ..
                    } => (
                        true,
                        *cache_hit,
                        Some((estimated, *evaluations, clsm.clone())),
                    ),
                    ServeMessage::AssignDone { cache_hit, .. }
                    | ServeMessage::SweepDone { cache_hit, .. } => (true, *cache_hit, None),
                    _ => (false, false, None),
                };
                if ok {
                    answers
                        .lock()
                        .expect("answer book lock")
                        .record(key, &o.response);
                } else {
                    eprintln!("perfbench: request failed: {:?}", o.response);
                }
                Sample {
                    ms,
                    ok,
                    cache_hit,
                    config,
                    measured: measured.filter(|_| !cache_hit),
                }
            }
            Err(e) => {
                eprintln!("perfbench: request refused or lost: {e}");
                Sample {
                    ms,
                    ok: false,
                    cache_hit: false,
                    config,
                    measured: None,
                }
            }
        };
        samples.push(sample);
    }
    samples
}

/// A daemon user's plan step on a never-seen set: a cold sweep over the
/// Table 1 grid, PTQ accuracy of the three served plans, deployment of
/// the 3.0-bit plan.
struct PlanStep {
    plan_s: f64,
    ptq_acc: Vec<f64>,
    ptq_eval_s: f64,
    deploy: plan::Deploy,
    deployed: Vec<BitWidth>,
}

fn plan_step(
    addr: &str,
    set_seed: u64,
    net: &mut Network,
    val: &DataSplit,
    answers: &Mutex<Answers>,
    tel: &Telemetry,
) -> Result<PlanStep, String> {
    let (from, to) = (GRID[0], GRID[GRID.len() - 1]);
    let op = Op::Sweep {
        from,
        to,
        step: GRID[1] - GRID[0],
    };
    let req = SubmitRequest {
        spec: spec(set_seed, &[2, 4, 8], false),
        op,
        deadline_ms: 0,
    };
    let key = format!("{:016x}/{}", req.spec.fingerprint(), op_label(&req.op));
    let t = Instant::now();
    let outcome = {
        let _s = tel.span("serve.submit");
        submit(addr, &req, Some(RESPONSE_TIMEOUT)).map_err(|e| format!("plan sweep: {e}"))?
    };
    let rows = match &outcome.response {
        ServeMessage::SweepDone { rows, .. } if rows.len() == GRID.len() => rows.clone(),
        other => return Err(format!("plan sweep answered {other:?}")),
    };
    answers
        .lock()
        .expect("answer book lock")
        .record(key, &outcome.response);
    let t_eval = Instant::now();
    let mut ptq_acc = Vec::new();
    let plans: Vec<Vec<BitWidth>> = rows
        .iter()
        .map(|r| r.bits.iter().map(|&b| BitWidth::of(b)).collect())
        .collect();
    for bits in &plans {
        let _s = tel.span("core.quantized_accuracy");
        ptq_acc.push(quantized_accuracy(net, bits, plan::SCHEME, val));
    }
    let ptq_eval_s = t_eval.elapsed().as_secs_f64();
    let plan_s = t.elapsed().as_secs_f64();
    let deployed = plans[DEPLOY_BUDGET].clone();
    let deploy = plan::deploy(net, &deployed, val, tel);
    Ok(PlanStep {
        plan_s,
        ptq_acc,
        ptq_eval_s,
        deploy,
        deployed,
    })
}

/// One phase: a fresh daemon, pre-warm, timed traffic, plan steps, drain.
struct Phase {
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    samples: Vec<Sample>,
    /// Completed requests per second of each traffic segment.
    segment_rates: Vec<f64>,
    steps: Vec<PlanStep>,
    failed_steps: u64,
    daemon: ServeReport,
    base: Arc<Base>,
}

fn run_phase(
    seed: u64,
    seconds: f64,
    scratch: &Path,
    tel: &Telemetry,
    answers: &Mutex<Answers>,
) -> Result<Phase, String> {
    let t_setup = Instant::now();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut load_s = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    let mut base = None;
    for i in 0..SETUPS {
        // Each set-up gets a fresh disk cache; only the last one serves.
        let dir = scratch.join(format!(
            "omega-cache-{}-{i}",
            if tel.is_enabled() {
                "traced"
            } else {
                "untraced"
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let p = {
            let _s = tel.span("models.pretrained");
            pretrained(ModelKind::ResNet20)
        };
        load_s.push(t.elapsed().as_secs_f64());
        let b = Arc::new(Base {
            network: Mutex::new(p.network),
            train: p.data.train,
            val: p.data.val,
        });
        let d = start(&b, tel, dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = daemon.replace(d) {
            Daemon::stop(old)?;
        }
        base = Some(b);
    }
    let daemon = daemon.expect("SETUPS > 0");
    let base = base.expect("SETUPS > 0");
    let t_warm = Instant::now();

    // Pre-warm: every hot config measured once (committed to memory and
    // disk) before timing starts.
    let hot = hot_specs(seed);
    for s in &hot {
        let req = SubmitRequest {
            spec: s.clone(),
            op: Op::Measure,
            deadline_ms: 0,
        };
        let o = submit(&daemon.addr, &req, Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("pre-warm: {e}"))?;
        let key = format!("{:016x}/measure", s.fingerprint());
        answers
            .lock()
            .expect("answer book lock")
            .record(key, &o.response);
    }

    let warm_s = t_warm.elapsed().as_secs_f64();
    let mut net = base
        .network
        .lock()
        .map_err(|_| "model lock poisoned")?
        .clone();
    let (mut samples, mut steps) = (Vec::new(), Vec::new());
    let (mut segment_rates, mut traffic_s, mut steps_s, mut failed_steps) =
        (Vec::new(), 0.0, 0.0, 0);
    for segment in 0..SEGMENTS {
        let start_traffic = Instant::now();
        let until = start_traffic + Duration::from_secs_f64(seconds / SEGMENTS as f64);
        let before = samples.len();
        samples.extend(std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|id| {
                    let (addr, hot) = (&daemon.addr, &hot);
                    let stream = segment * CLIENTS as u64 + id;
                    scope.spawn(move || client(stream, addr, seed, until, hot, answers, tel))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        }));
        let segment_s = start_traffic.elapsed().as_secs_f64();
        traffic_s += segment_s;
        let completed = samples[before..].iter().filter(|s| s.ok).count();
        segment_rates.push(completed as f64 / segment_s);

        let t_steps = Instant::now();
        let per_segment = PLAN_STEPS / SEGMENTS;
        for k in segment * per_segment..(segment + 1) * per_segment {
            match plan_step(
                &daemon.addr,
                seed.wrapping_mul(10).wrapping_add(500_000 + k),
                &mut net,
                &base.val,
                answers,
                tel,
            ) {
                Ok(s) => steps.push(s),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    failed_steps += 1;
                }
            }
        }
        steps_s += t_steps.elapsed().as_secs_f64();
    }
    let t_drain = Instant::now();
    let report = daemon.stop()?;
    eprintln!(
        "perfbench: serve phase: set-ups {:.2} s, pre-warm {warm_s:.2} s, traffic {traffic_s:.2} s, \
         plan steps {steps_s:.2} s, drain {:.2} s",
        t_warm.duration_since(t_setup).as_secs_f64(),
        t_drain.elapsed().as_secs_f64()
    );
    Ok(Phase {
        setup_s,
        load_s,
        samples,
        segment_rates,
        steps,
        failed_steps,
        daemon: report,
        base,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, state: &Path, report: &mut Report) {
    let scratch = state.join("serve");
    let answers = Mutex::new(Answers::default());
    let untraced = match run_phase(seed, seconds, &scratch, &Telemetry::disabled(), &answers) {
        Ok(p) => p,
        Err(e) => {
            report.check("serve_phase_completed", false, e);
            return;
        }
    };
    let traced = if trace {
        let tel = Telemetry::new();
        tel.set_trace_enabled(true);
        match run_phase(seed, seconds, &scratch, &tel, &answers) {
            Ok(p) => Some((p, tel)),
            Err(e) => {
                report.check("serve_phase_completed", false, e);
                return;
            }
        }
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let answers = answers.into_inner().expect("answer book lock");
    let mut golden = Golden::open(&state.join("golden"), "serve-mixed", seed);
    let hot_keys: HashSet<String> = hot_specs(seed)
        .iter()
        .map(|s| format!("{:016x}", s.fingerprint()))
        .collect();
    let mut cross_run = true;
    for (key, &d) in &answers.first {
        let config = key.split('/').next().unwrap_or_default();
        if hot_keys.contains(config) {
            cross_run &= golden.agree(key, d);
        }
    }
    if let Err(e) = golden.save() {
        eprintln!("perfbench: could not record golden digests: {e}");
    }
    report.check(
        "serve_replies_bitwise_repeatable",
        answers.mismatches.is_empty() && cross_run,
        format!(
            "{} configs answered; {} differ from their first reply; earlier runs agree: {cross_run}",
            answers.first.len(),
            answers.mismatches.len()
        ),
    );
    report.check(
        "cache_hits_report_zero_evaluations",
        answers.nonzero_hit_evals == 0,
        format!("{} hit(s) with evaluations", answers.nonzero_hit_evals),
    );
    report.check(
        "iqp_terminates_proved",
        answers.not_proved.is_empty(),
        answers
            .not_proved
            .first()
            .cloned()
            .unwrap_or_else(|| "all served solves proved".into()),
    );
    let layers = untraced
        .base
        .network
        .lock()
        .map_or(0, |n| n.quantizable_layers().len());
    let phases = std::iter::once(&untraced).chain(traced.iter().map(|(p, _)| p));
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in phases {
        attempted += p.samples.len() as u64 + 2 * PLAN_STEPS;
        failed += p.samples.iter().filter(|s| !s.ok).count() as u64 + 2 * p.failed_steps;
        for s in &p.steps {
            report.check(
                "int_layers_equal_quantizable",
                s.deploy.int_layers == layers,
                format!("{}/{layers} layers on integer kernels", s.deploy.int_layers),
            );
            let ptq = s.ptq_acc[DEPLOY_BUDGET];
            report.check(
                "deploy_acc_within_1pp_of_ptq",
                (s.deploy.accuracy - ptq).abs() <= 0.01 + 1e-12,
                format!("integer {:.4} vs PTQ {ptq:.4}", s.deploy.accuracy),
            );
        }
        if p.steps.is_empty() {
            report.check("plan_steps_completed", false, "no plan step completed");
        }
    }
    report.attempted = attempted;
    report.failed = failed;

    match traced {
        None => end_to_end(&untraced, report),
        Some((phase, tel)) => {
            per_layer(&phase, &untraced, &tel, layers, &answers, report);
            crate::layers::gemm_rates(&tel, report);
            let mut net = phase.base.network.lock().map(|n| n.clone()).ok();
            if let Some(net) = net.as_mut() {
                let plan3 = phase.steps.first().map(|s| s.deployed.as_slice());
                crate::layers::stage_replays(net, &phase.base.val, plan3, &tel, report);
            }
            crate::layers::write_trace(&tel, state, "serve-mixed", seed, report);
        }
    }
}

fn latencies(p: &Phase, hit: bool) -> Vec<f64> {
    p.samples
        .iter()
        .filter(|s| s.ok && s.cache_hit == hit)
        .map(|s| s.ms)
        .collect()
}

fn end_to_end(p: &Phase, report: &mut Report) {
    let (attempted, failed) = (report.attempted, report.failed);
    let misses = latencies(p, false);
    let steps = &p.steps;
    let plan_s: Vec<f64> = steps.iter().map(|s| s.plan_s).collect();
    let (int_rate, int_speedup) = plan::deploy_batches(steps.iter().map(|s| &s.deploy));
    report.note_median("plan_s", &plan_s, "s");
    report.note_median("miss_ms", &misses, "ms");
    report.note_median("hit_ms", &latencies(p, true), "ms");
    report.note_median("req_per_s", &p.segment_rates, "1/s");
    report.note_median("deploy_images_per_s", &int_rate, "images/s");
    report.note_median("deploy_int_speedup", &int_speedup, "ratio");
    report.set_median("setup_s", &p.setup_s, "s");
    report.set("peak_rss_mb", crate::report::peak_rss_mb(), "MB", 1);
    report.set(
        "ok_ratio",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );
    report.set_rate_tail("req_p10_per_s", &p.segment_rates, "1/s");
    report.set_time_tail("miss_p90_ms", &misses, "ms");
    report.set_time_tail("plan_p90_s", &plan_s, "s");
    let acc: Vec<f64> = steps
        .iter()
        .map(|s| 100.0 * s.ptq_acc.iter().sum::<f64>() / s.ptq_acc.len() as f64)
        .collect();
    report.set("plan_val_acc", mean(&acc), "%", acc.len());
    report.set_rate_tail("deploy_p10_int_speedup", &int_speedup, "ratio");
    report.set(
        "deploy_val_acc",
        mean(
            &steps
                .iter()
                .map(|s| 100.0 * s.deploy.accuracy)
                .collect::<Vec<_>>(),
        ),
        "%",
        steps.len(),
    );
}

fn per_layer(
    p: &Phase,
    untraced: &Phase,
    tel: &Telemetry,
    layers: usize,
    answers: &Answers,
    report: &mut Report,
) {
    report.set_median("models.load_s", &p.load_s, "s");
    let hist = |name: &str| {
        tel.histograms()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    };
    let hist_ms = |name: &str, report: &mut Report, metric: &str| {
        let h = hist(name);
        report.set(
            metric,
            h.map_or(0.0, |h| h.p50_us as f64 / 1e3),
            "ms",
            h.map_or(0, |h| h.count as usize),
        );
    };
    let span_mean = |path: &str| {
        tel.span_stats(path).map_or((0.0, 0), |s| {
            (
                s.total.as_secs_f64() / s.count.max(1) as f64,
                s.count as usize,
            )
        })
    };

    // Writes: core work done on the pool, read back from the CLSM stats.
    let mut exact = Vec::new();
    let mut estimated_evals = Vec::new();
    for s in &p.samples {
        if let Some((estimated, evals, clsm)) = &s.measured {
            if *estimated {
                estimated_evals.push(*evals as f64);
            } else if let Ok(sm) = sensitivities_from_bytes(clsm) {
                exact.push(sm.stats);
            }
        }
    }
    let col = |f: &dyn Fn(&SensitivityStats) -> f64| exact.iter().map(f).collect::<Vec<f64>>();
    let n = exact.len();
    report.set("core.sweep_s", median(&col(&|s| s.seconds)), "s", n);
    report.set(
        "core.evaluations",
        median(&col(&|s| s.evaluations as f64)),
        "count",
        n,
    );
    report.set(
        "core.probes_per_s",
        median(&col(&|s| s.evaluations as f64 / s.seconds)),
        "1/s",
        n,
    );
    report.set(
        "core.prefix_hit_ratio",
        median(&col(&|s| {
            s.prefix_cache_hits as f64 / s.evaluations.max(1) as f64
        })),
        "ratio",
        n,
    );
    report.set(
        "core.prefix_builds",
        median(&col(&|s| s.prefix_cache_builds as f64)),
        "count",
        n,
    );
    report.set(
        "core.retries",
        col(&|s| s.retried as f64).iter().sum(),
        "count",
        n,
    );
    report.set(
        "core.quarantined",
        col(&|s| s.quarantined as f64).iter().sum(),
        "count",
        n,
    );
    let probe = hist("probe.eval");
    report.set(
        "core.probe_eval_p50_us",
        probe.map_or(0.0, |h| h.p50_us as f64),
        "us",
        probe.map_or(0, |h| h.count as usize),
    );
    report.set_median(
        "core.ptq_eval_s",
        &p.steps.iter().map(|s| s.ptq_eval_s).collect::<Vec<_>>(),
        "s",
    );

    // The full exact sweep for the traffic configs: 1 + k·I + ½k²·I(I−1).
    let (k, i) = (TRAFFIC_BITS.len() as f64, layers as f64);
    let full = 1.0 + k * i + 0.5 * k * k * i * (i - 1.0);
    let spent = median(&estimated_evals);
    report.set("estim.probes_spent", spent, "count", estimated_evals.len());
    report.set(
        "estim.probe_fraction",
        spent / full,
        "ratio",
        estimated_evals.len(),
    );

    let (psd, psd_n) = span_mean("assign.psd_project");
    report.set("solver.psd_s", psd, "s", psd_n);
    let (solve, solve_n) = span_mean("assign.solve");
    report.set("solver.solve_s", solve, "s", solve_n);
    report.set(
        "solver.nodes",
        tel.counter_value("solver.iqp.nodes") as f64 / solve_n.max(1) as f64,
        "count",
        solve_n,
    );
    report.set("solver.max_gap", answers.max_gap, "loss", answers.rows);

    report.set(
        "dist.pool.shards",
        tel.counter_value("dist.shards_evaluated") as f64,
        "count",
        1,
    );
    report.set(
        "dist.pool.local_shards",
        tel.counter_value("serve.pool.local_shards") as f64,
        "count",
        1,
    );
    hist_ms(
        "serve.pool.shard_service",
        report,
        "dist.pool.shard_service_p50_ms",
    );
    report.set(
        "dist.pool.evictions",
        tel.counter_value("serve.pool.evictions") as f64,
        "count",
        1,
    );

    hist_ms("serve.queue_wait", report, "serve.queue_wait_p50_ms");
    hist_ms("serve.request", report, "serve.service_p50_ms");
    let d = &p.daemon;
    let answered = (d.cache_hits + d.cache_misses).max(1) as f64;
    let disk_hits = tel.counter_value("serve.disk_cache.hits") as f64;
    report.set(
        "serve.mem_hit_ratio",
        (d.cache_hits as f64 - disk_hits) / answered,
        "ratio",
        answered as usize,
    );
    report.set(
        "serve.disk_hit_ratio",
        disk_hits / answered,
        "ratio",
        answered as usize,
    );
    let distinct: HashSet<u64> = p
        .samples
        .iter()
        .filter(|s| s.ok && !s.cache_hit)
        .map(|s| s.config)
        .collect();
    // Pre-warm and plan steps measure distinct configs too.
    let measured = distinct.len() + HOT_CONFIGS + p.steps.len();
    report.set(
        "serve.measure_useful_ratio",
        measured as f64 / d.cache_misses.max(1) as f64,
        "ratio",
        d.cache_misses as usize,
    );
    let shed = d.shed_overload + d.shed_deadline + d.shed_draining + d.shed_malformed;
    report.set("serve.shed", shed as f64, "count", d.requests as usize);

    let steps = &p.steps;
    report.set(
        "nn.int_layers",
        steps.first().map_or(0.0, |s| s.deploy.int_layers as f64),
        "count",
        steps.len(),
    );
    report.set_median(
        "nn.int_prepare_s",
        &steps.iter().map(|s| s.deploy.prepare_s).collect::<Vec<_>>(),
        "s",
    );

    let traced = percentile(&latencies(p, true), 0.5);
    let base = percentile(&latencies(untraced, true), 0.5);
    report.set(
        "telemetry.overhead_ratio",
        traced / base,
        "ratio",
        latencies(p, true).len(),
    );
}
