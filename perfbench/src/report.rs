//! Samples, metrics and the result the benchmark prints: percentiles with
//! failures counted as +∞, quartile spreads computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them, and run metadata.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric with its sample count and quartile spread.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// (Q3 − Q1) / median of the samples; 0 with fewer than two.
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: samples.len(),
            spread: spread(samples),
        }
    }

    /// The `p`-th percentile (nearest rank) of `samples`.
    pub fn percentile(name: &str, unit: &'static str, samples: &[f64], p: f64) -> Self {
        Metric::new(name, unit, percentile(samples, p), samples)
    }

    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        Metric::percentile(name, unit, samples, 50.0)
    }

    /// The mean of `samples` (per-layer times: means add up across layers,
    /// medians do not).
    pub fn mean(name: &str, unit: &'static str, samples: &[f64]) -> Self {
        Metric::new(name, unit, mean(samples), samples)
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile; +∞ samples (failed ops) sort last.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Quartiles by the "exclusive" method of Python's `statistics.quantiles`.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

pub fn spread(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, med, q3)) if med != 0.0 && (q3 - q1).is_finite() => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Attempts, failures and latencies of one kind of operation. A failed op
/// is recorded with latency +∞, so it counts beyond every percentile.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    /// Milliseconds per op, +∞ for failures.
    pub latency_ms: Vec<f64>,
    /// Completion time of each op, seconds since the timed phase began.
    pub done_at_s: Vec<f64>,
    /// Error messages by kind, for the metadata (first of each kind).
    pub errors: BTreeMap<String, u64>,
}

impl OpLog {
    pub fn ok(&mut self, ms: f64, done_at_s: f64) {
        self.attempted += 1;
        self.latency_ms.push(ms);
        self.done_at_s.push(done_at_s);
    }

    pub fn fail(&mut self, kind: &str, done_at_s: f64) {
        self.attempted += 1;
        self.failed += 1;
        self.latency_ms.push(f64::INFINITY);
        self.done_at_s.push(done_at_s);
        *self.errors.entry(kind.to_string()).or_insert(0) += 1;
    }

    pub fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.done_at_s.extend(other.done_at_s);
        for (k, n) in other.errors {
            *self.errors.entry(k).or_insert(0) += n;
        }
    }

    /// Completed (successful) ops per second, from the phase's start to
    /// its last completion, with the rates of its whole seconds as samples.
    pub fn rate(&self, name: &str) -> Metric {
        let ok = self.latency_ms.iter().filter(|l| l.is_finite()).count();
        let elapsed = self.done_at_s.iter().copied().fold(0.0, f64::max);
        let windows = elapsed.floor().max(1.0) as usize;
        let mut per_window = vec![0.0; windows];
        for (&t, &l) in self.done_at_s.iter().zip(&self.latency_ms) {
            if l.is_finite() {
                per_window[(t as usize).min(windows - 1)] += 1.0;
            }
        }
        Metric::new(name, "1/s", ok as f64 / elapsed.max(1e-9), &per_window)
    }
}

/// Named per-layer samples gathered by the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
    fixed: Vec<Metric>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples
            .entry(name)
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    /// A ratio or a derived value that has no per-call samples.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.fixed.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            spread: 0.0,
        });
    }

    pub fn merge(&mut self, other: Layers) {
        for (name, (v, unit)) in other.samples {
            self.samples
                .entry(name)
                .or_insert_with(|| (Vec::new(), unit))
                .0
                .extend(v);
        }
        self.fixed.extend(other.fixed);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |(v, _)| v.as_slice())
    }

    /// Every layer metric: means of the per-call samples, then the fixed
    /// values.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out: Vec<Metric> = self
            .samples
            .iter()
            .map(|(name, (v, unit))| Metric::mean(name, unit, v))
            .collect();
        out.extend(self.fixed.iter().cloned());
        out
    }
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's CPU time counters from `/proc/stat`, in ticks: (steal,
/// total). Guest time is already counted in user time, so the total is the
/// sum of the first eight fields.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// work tree; "unknown" otherwise (the benchmark reads, never runs, git).
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{refname}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == refname).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// +∞ (a percentile past failed ops) becomes the largest finite double.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "null".into()
    }
}

pub fn json_str(s: &str) -> String {
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

/// `{"name": {"value": …, "unit": …}, …}` — the contract's metric map.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Sample counts and spreads, keyed like [`metrics_json`].
pub fn metric_details_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"spread\": {}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit),
                m.samples,
                num(m.spread)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
