//! Result bookkeeping: metrics with units and sample counts, output
//! checks, percentiles, the host block, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises (1 for a count).
    pub samples: usize,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Medians of the end-to-end timings, printed in the detail line
    /// only: the result reports their tails (see [`TIME_TAIL`]).
    pub medians: BTreeMap<String, Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed (refused, errored or quarantined).
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a timing as the median of `values` (seconds or ms, as given).
    pub fn set_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.set(name, median(values), unit, values.len());
    }

    /// Records the median of `values` for the detail line.
    pub fn note_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let m = Metric {
            value: median(values),
            unit,
            samples: values.len(),
        };
        self.medians.insert(name.to_string(), m);
    }

    /// Records a timing at its 90th percentile ([`TIME_TAIL`]).
    pub fn set_time_tail(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.set(name, percentile(values, TIME_TAIL), unit, values.len());
    }

    /// Records a rate at its 10th percentile (1 − [`TIME_TAIL`]).
    pub fn set_rate_tail(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.set(
            name,
            percentile(values, 1.0 - TIME_TAIL),
            unit,
            values.len(),
        );
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if let Some(c) = self.checks.iter_mut().find(|c| c.name == name) {
            // A check repeated across iterations keeps its first failure.
            if c.ok && !ok {
                c.ok = false;
                c.detail = detail;
            }
            return;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The percentile at which end-to-end timings are reported (rates at
/// 1 − this). A shared host moves each core between a fast and a slow
/// speed, up to 2× apart, for seconds at a time. A run's median follows
/// the mix of the two it happened to get, while the slow level recurs in
/// nearly every run, so a timing's slow tail and a rate's slow tail are
/// what repeat from run to run.
pub const TIME_TAIL: f64 = 0.90;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted values; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block: every number in a run belongs to this host.
pub fn host_json() -> String {
    format!(
        "{{\"nproc\": {}, \"kernel\": {}, \"cpu_features\": {}, \"backend\": {}, \"git_revision\": {}}}",
        nproc(),
        json_str(clado_tensor::kernel_name()),
        json_str(&clado_tensor::cpu_features()),
        json_str(&format!("{:?}", clado_tensor::active_backend())),
        json_str(clado_telemetry::GIT_HASH),
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `null`, which the
/// caller treats as a missing measurement).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Report {
    /// The detail line printed before the result: host, sample counts,
    /// the medians of the end-to-end timings and every check with its
    /// outcome.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host\": {}, \"metrics\": {{",
            json_str(workload),
            host_json()
        );
        write_metrics(&mut out, &self.metrics);
        out.push_str("}, \"medians\": {");
        write_metrics(&mut out, &self.medians);
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            );
        }
        out.push_str("]}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit per metric).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Writes `"name": {value, unit, samples}` entries, comma-separated.
fn write_metrics(out: &mut String, metrics: &BTreeMap<String, Metric>) {
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(m.unit),
            m.samples
        );
    }
}

/// SplitMix64: the seeded generator behind every benchmark input choice.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a over bytes: a stable digest for determinism checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The code under test: the git revision plus a digest of the running
/// binary, so a build compares only with runs of the same build.
fn build_id() -> String {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv1a(&bytes));
    format!("{}-{exe:016x}", clado_telemetry::GIT_HASH)
}

/// Digests recorded by earlier runs of the same build with the same
/// workload and seed, so determinism is checked across processes and not
/// only within one. Another build (a changed kernel may reorder float
/// sums) starts its own record.
pub struct Golden {
    path: std::path::PathBuf,
    entries: BTreeMap<String, u64>,
}

impl Golden {
    pub fn open(dir: &std::path::Path, workload: &str, seed: u64) -> Self {
        let path = dir
            .join(build_id())
            .join(format!("{workload}-seed{seed}.txt"));
        let entries = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), u64::from_str_radix(v, 16).ok()?))
            })
            .collect();
        Golden { path, entries }
    }

    /// Compares `digest` with the recorded one for `key`, recording it when
    /// new. Returns false on a mismatch.
    pub fn agree(&mut self, key: &str, digest: u64) -> bool {
        match self.entries.get(key) {
            Some(&d) => d == digest,
            None => {
                self.entries.insert(key.to_string(), digest);
                true
            }
        }
    }

    pub fn save(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut text = String::new();
        for (k, v) in &self.entries {
            let _ = writeln!(text, "{k} {v:016x}");
        }
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(tmp, &self.path)
    }
}
