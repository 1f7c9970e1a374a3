//! The clado-rs benchmark: two workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run, and output checks.
//!
//! ```text
//! clado-perfbench --workload plan-resnet34 --seed 1 --seconds 40 --trace 0 --state-dir DIR
//! clado-perfbench --prepare --state-dir DIR
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it holds the host block, sample counts and every check. The process
//! exits 1 when a check fails. `perfbench/run.py`, the command
//! `BENCHMARK.json` names, builds this binary and runs it.

mod layers;
mod plan;
mod report;
mod serve;

use clado_models::{pretrained, ModelKind};
use report::Report;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: clado-perfbench --workload <plan-resnet34|serve-mixed> --seed N \
         --seconds S --trace 0|1 --state-dir DIR\n       clado-perfbench --prepare --state-dir DIR"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(state) = value("--state-dir").map(PathBuf::from) else {
        usage()
    };
    if args.iter().any(|a| a == "--prepare") {
        // Pretrains every benchmark model into the weight cache, so no
        // timed run pays for training.
        for kind in [ModelKind::ResNet34, ModelKind::ResNet20] {
            let p = pretrained(kind);
            eprintln!(
                "perfbench: {kind} ready (FP32 val accuracy {:.2}%)",
                p.val_accuracy * 100.0
            );
        }
        return;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace"),
    ) else {
        usage()
    };
    let trace = match trace.as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let mut report = Report::default();
    match workload.as_str() {
        "plan-resnet34" => plan::run(seed, seconds, trace, &state, &mut report),
        "serve-mixed" => serve::run(seed, seconds, trace, &state, &mut report),
        _ => usage(),
    }
    finish(&workload, seed, trace, report);
}

/// Keeps exactly the catalogue for this run kind, checks that every
/// end-to-end metric was measured, prints the detail and result lines, and
/// exits 1 when a check failed.
fn finish(workload: &str, seed: u64, trace: bool, mut report: Report) {
    let catalogue: Vec<(String, &'static str)> = if trace {
        layers::per_layer_catalogue()
    } else {
        layers::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut kept = std::collections::BTreeMap::new();
    let mut missing = Vec::new();
    for (name, unit) in catalogue {
        match report.metrics.remove(&name) {
            Some(m) if m.value.is_finite() => {
                kept.insert(name, m);
            }
            // A layer this workload bypasses did no work and took no time.
            _ if trace => {
                kept.insert(
                    name,
                    report::Metric {
                        value: 0.0,
                        unit,
                        samples: 0,
                    },
                );
            }
            _ => missing.push(name),
        }
    }
    report.metrics = kept;
    if !trace {
        report.check(
            "every_end_to_end_metric_measured",
            missing.is_empty(),
            format!("missing: {missing:?}"),
        );
    }
    for c in report.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: CHECK FAILED {}: {}", c.name, c.detail);
    }
    println!("{}", report.detail_json(workload, seed, trace));
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
