//! Per-layer measurements taken from outside the crates: the metric
//! catalogue, fixed-shape GEMM rates, per-stage forward replays, and the
//! traced run's span file with each layer's self time.

use crate::plan::{DEPLOY_BATCH, SCHEME};
use crate::report::{json_num, json_str, Report};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidth;
use clado_telemetry::{Telemetry, TraceEvent, PH_COMPLETE};
use clado_tensor::{igemm, matmul, Tensor};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, reported by every workload in untraced runs.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("plan_p90_s", "s"),
    ("plan_val_acc", "%"),
    ("deploy_p10_int_speedup", "ratio"),
    ("deploy_val_acc", "%"),
    ("req_p10_per_s", "1/s"),
    ("miss_p90_ms", "ms"),
];

/// Root stages of ResNet-34; ResNet-20 has the same stages but `layer4`.
pub const STAGES: [&str; 9] = [
    "conv1", "bn1", "relu", "layer1", "layer2", "layer3", "layer4", "avgpool", "fc",
];

const LAYER_METRICS: [(&str, &str); 37] = [
    ("models.load_s", "s"),
    ("tensor.sgemm_gflops", "GFLOP/s"),
    ("tensor.igemm_i8_gops", "GOP/s"),
    ("tensor.igemm_i4_gops", "GOP/s"),
    ("nn.int_layers", "count"),
    ("nn.int_prepare_s", "s"),
    ("core.sweep_s", "s"),
    ("core.base_s", "s"),
    ("core.diagonal_s", "s"),
    ("core.pairwise_s", "s"),
    ("core.ptq_eval_s", "s"),
    ("core.evaluations", "count"),
    ("core.probes_per_s", "1/s"),
    ("core.probe_eval_p50_us", "us"),
    ("core.prefix_hit_ratio", "ratio"),
    ("core.prefix_builds", "count"),
    ("core.prefix_advances", "count"),
    ("core.retries", "count"),
    ("core.quarantined", "count"),
    ("solver.psd_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.nodes", "count"),
    ("solver.max_gap", "loss"),
    ("solver.unbounded_below8_layers", "count"),
    ("estim.probes_spent", "count"),
    ("estim.probe_fraction", "ratio"),
    ("dist.pool.shards", "count"),
    ("dist.pool.local_shards", "count"),
    ("dist.pool.shard_service_p50_ms", "ms"),
    ("dist.pool.evictions", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.mem_hit_ratio", "ratio"),
    ("serve.disk_hit_ratio", "ratio"),
    ("serve.measure_useful_ratio", "ratio"),
    ("serve.shed", "count"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Every per-layer metric with its unit, reported by every workload in
/// traced runs. A layer a workload bypasses reads 0 with 0 samples.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for s in STAGES {
        out.push((format!("nn.stage.{s}.float_us"), "us"));
        out.push((format!("nn.stage.{s}.int_us"), "us"));
    }
    out
}

/// The layer a span or counter belongs to, from its dotted name.
fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    match head {
        "models" => "models",
        "tensor" => "tensor",
        "nn" | "forward" => "nn",
        "core" | "measure" | "shard" | "probe" => "core",
        "solver" | "assign" => "solver",
        "estim" => "estim",
        "dist" => "dist",
        "serve" if name.starts_with("serve.pool") => "dist",
        "serve" => "serve",
        "telemetry" => "telemetry",
        _ => "bench",
    }
}

/// Rates of the `clado_tensor` GEMM entry points on one fixed shape: the
/// largest quantizable layer of the plan models (ResNet-34's `layer4`
/// 3×3 conv, 16→16 channels, 2×2 outputs per image) at batch 64.
/// Operation counts are computed as 2·m·k·n per call.
pub fn gemm_rates(tel: &Telemetry, report: &mut Report) {
    const COUT: usize = 16;
    const K: usize = 16 * 9;
    const POSITIONS: usize = DEPLOY_BATCH * 4;
    let ops = 2.0 * (COUT * K * POSITIONS) as f64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let w: Vec<f32> = (0..COUT * K)
        .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
        .collect();
    let cols: Vec<f32> = (0..K * POSITIONS)
        .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
        .collect();
    let wt = Tensor::from_vec([COUT, K], w).expect("weight shape");
    let ct = Tensor::from_vec([K, POSITIONS], cols).expect("column shape");
    let sgemm = rate(ops, || {
        let _s = tel.span("tensor.matmul");
        std::hint::black_box(matmul(std::hint::black_box(&wt), std::hint::black_box(&ct)));
    });
    report.set_median("tensor.sgemm_gflops", &sgemm, "GFLOP/s");

    // Integer kernels take activations as rows (m = positions) against
    // weight rows (n = output channels).
    let a: Vec<i8> = (0..POSITIONS * K).map(|_| (next() % 255) as i8).collect();
    let b8: Vec<i8> = (0..COUT * K).map(|_| (next() % 255) as i8).collect();
    let b4: Vec<i8> = (0..COUT * K).map(|_| ((next() % 15) as i8) - 7).collect();
    let b4 = igemm::pack_i4(&b4);
    let mut c = vec![0i32; POSITIONS * COUT];
    let i8_rates = rate(ops, || {
        let _s = tel.span("tensor.igemm_i8_a_bt");
        igemm::igemm_i8_a_bt(std::hint::black_box(&a), &b8, &mut c, POSITIONS, K, COUT);
        std::hint::black_box(&c);
    });
    report.set_median("tensor.igemm_i8_gops", &i8_rates, "GOP/s");
    let i4_rates = rate(ops, || {
        let _s = tel.span("tensor.igemm_i4_a_bt");
        igemm::igemm_i4_a_bt(std::hint::black_box(&a), &b4, &mut c, POSITIONS, K, COUT);
        std::hint::black_box(&c);
    });
    report.set_median("tensor.igemm_i4_gops", &i4_rates, "GOP/s");
}

/// Nine timed chunks of at least 20 ms each; one rate (G per second) per
/// chunk.
fn rate(ops_per_call: f64, mut call: impl FnMut()) -> Vec<f64> {
    call();
    let mut rates = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let mut calls = 0u64;
        while calls < 4 || t.elapsed().as_secs_f64() < 0.02 {
            call();
            calls += 1;
        }
        rates.push(ops_per_call * calls as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    rates
}

/// Replays each root stage alone (`forward_range(s, s + 1)`) on one val
/// batch of [`DEPLOY_BATCH`], first in float and then with `plan` on the
/// integer kernels.
pub fn stage_replays(
    net: &mut Network,
    val: &DataSplit,
    plan: Option<&[BitWidth]>,
    tel: &Telemetry,
    report: &mut Report,
) {
    let (x, _) = val
        .batches(DEPLOY_BATCH)
        .next()
        .expect("val split is not empty");
    let stages = net.num_stages();
    let mut inputs = vec![x];
    let mut names = Vec::with_capacity(stages);
    for s in 0..stages {
        // A fresh registry per stage: the one `forward.<stage>` span it
        // records names the stage.
        let probe = Telemetry::new();
        net.set_telemetry(probe.clone());
        let y = net.forward_range(s, s + 1, inputs[s].clone(), false);
        net.set_telemetry(Telemetry::disabled());
        let name = probe
            .spans()
            .into_iter()
            .find_map(|(path, _)| path.strip_prefix("forward.").map(str::to_string))
            .unwrap_or_else(|| format!("{s}"));
        names.push(name);
        inputs.push(y);
    }
    let time_all = |net: &mut Network, suffix: &str, report: &mut Report| {
        for s in 0..stages {
            let mut us = Vec::new();
            let start = Instant::now();
            while us.len() < 7 || (us.len() < 200 && start.elapsed().as_secs_f64() < 0.05) {
                let input = inputs[s].clone();
                let _span = tel.span("nn.forward_range");
                let t = Instant::now();
                std::hint::black_box(net.forward_range(s, s + 1, input, false));
                us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            report.set_median(&format!("nn.stage.{}.{suffix}", names[s]), &us, "us");
        }
    };
    time_all(net, "float_us", report);
    if let Some(bits) = plan {
        net.set_integer_assignment(bits, SCHEME);
        time_all(net, "int_us", report);
        net.clear_integer_assignment();
    }
}

/// Self time per span: its duration minus the part of it that spans
/// nested on the same thread cover.
fn self_times(events: &[TraceEvent]) -> Vec<(String, u64, u64)> {
    let mut spans: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == PH_COMPLETE).collect();
    spans.sort_by_key(|e| (e.pid, e.tid, e.ts_us, std::cmp::Reverse(e.dur_us)));
    let mut own: Vec<u64> = spans.iter().map(|e| e.dur_us).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let e = spans[i];
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if (t.pid, t.tid) != (e.pid, e.tid) || t.ts_us + t.dur_us <= e.ts_us {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(e.dur_us);
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(own)
        .map(|(e, s)| (e.name.clone(), e.dur_us, s))
        .collect()
}

/// Writes the traced run's spans when the benchmark ends: a Chrome trace of
/// every span, and a summary with each layer's self time and the counters
/// the crates emitted, grouped by layer.
pub fn write_trace(tel: &Telemetry, state: &Path, workload: &str, seed: u64, report: &Report) {
    clado_telemetry::flush_thread_local();
    let dir = state.join("out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return;
    }
    let stem = dir.join(format!("{workload}-seed{seed}"));
    let trace_path = stem.with_extension("trace.json");
    if let Err(e) = tel.write_chrome_trace(&trace_path) {
        eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
    }
    let events = tel.take_trace_events();
    let mut by_span: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (name, dur, own) in self_times(&events) {
        let slot = by_span.entry(name).or_default();
        slot.0 += 1;
        slot.1 += dur;
        slot.2 += own;
    }
    let mut by_layer: BTreeMap<&str, (u64, Vec<String>)> = BTreeMap::new();
    for (name, &(_, _, own)) in &by_span {
        let slot = by_layer.entry(layer_of(name)).or_default();
        slot.0 += own;
        slot.1.push(name.clone());
    }
    let counters = tel.counters();
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"host\": {}, \"dropped_events\": {}, \"layers\": {{",
        json_str(workload),
        crate::report::host_json(),
        tel.trace_dropped()
    );
    eprintln!("perfbench: traced self time by layer ({workload}, seed {seed}):");
    for (i, (layer, (own, names))) in by_layer.iter().enumerate() {
        eprintln!("  {layer:<10} {:>12.3} ms", *own as f64 / 1e3);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"self_us\": {own}, \"spans\": {{",
            json_str(layer)
        );
        for (j, name) in names.iter().enumerate() {
            let (count, total, own) = by_span[name];
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"count\": {count}, \"total_us\": {total}, \"self_us\": {own}}}",
                json_str(name)
            );
        }
        out.push_str("}, \"counters\": {");
        let mut first = true;
        for (name, v) in counters.iter().filter(|(n, _)| layer_of(n) == *layer) {
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(out, "{sep}{}: {v}", json_str(name));
        }
        out.push_str("}}");
    }
    out.push_str("}, \"histograms_us\": {");
    for (i, (name, h)) in tel.histograms().iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
            json_str(name),
            h.count,
            h.p50_us,
            h.p90_us,
            h.p99_us,
            h.max_us
        );
    }
    out.push_str("}, \"per_layer_metrics\": {");
    for (i, (name, m)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: {}", json_str(name), json_num(m.value));
    }
    out.push_str("}}\n");
    let path = stem.with_extension("layers.json");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} and {}",
            path.display(),
            trace_path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
