//! Summary statistics and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// What one invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Statements attempted (warm-up and verification replays included).
    pub attempted: u64,
    /// Failed, refused or wrong replies.
    pub failed: u64,
    /// The metrics of the result line (end-to-end, or per-layer if traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the report line only.
    pub report: Vec<Metric>,
    /// Provenance key/value pairs.
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().chain(&self.report).find(|m| m.name == name).map(|m| m.value)
    }

    /// The report line: provenance, error rate and workload-specific figures.
    pub fn report_line(&self, workload: &str) -> String {
        let mut out = format!("{{\"perfbench\": {{\"workload\": {}", json_str(workload));
        out.push_str(", \"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}: {}", json_str(k), json_str(v));
        }
        let _ = write!(out, "}}, \"error_rate\": {}", json_num(self.error_rate()));
        let _ = write!(out, ", \"report\": {}}}}}", metrics_json(&self.report));
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`
    /// (printed last).
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push('}');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quantile `q` in `[0, 1]` by nearest rank over unsorted samples
/// (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive samples (0 for none).
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let logs: f64 = samples.iter().map(|s| s.max(1e-9).ln()).sum();
    (logs / samples.len() as f64).exp()
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}
