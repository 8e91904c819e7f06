//! The four workloads and what they share: the run context, the outcome
//! each returns, result hashing, and the served-read client used by both
//! `serve-read` and `serve-write`.

pub mod bytes_to_rows;
pub mod catalog;
pub mod serve_read;
pub mod serve_write;

use crate::inputs::{Rng, Size};
use crate::report::{percentile, Layers, Metric, OpLog};
use crate::trace::{Span, Tracer};
use gtpquery::{parse_twig, serialize, CancelToken, Cell, ResultSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;
use twig2stack::{enumerate, try_match_indexed, IndexedPlan, MatchOptions};
use twigserve::{QueryService, ServeError};
use xmlindex::PruningPolicy;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Time zero of every span the run records.
    pub epoch: Instant,
}

impl Ctx {
    /// Length of the untraced phase: the whole run, or half of it in a
    /// traced run (whose untraced medians give the tracing overhead).
    pub fn untraced_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One measured call kind's untraced and traced median latency; their gap
/// is the tracing overhead.
#[derive(Debug, Clone)]
pub struct Overhead {
    pub call: &'static str,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
}

impl Overhead {
    pub fn new(call: &'static str, untraced: &OpLog, traced: &OpLog) -> Self {
        Overhead::of(call, &untraced.latency_ms, &traced.latency_ms)
    }

    pub fn of(call: &'static str, untraced_ms: &[f64], traced_ms: &[f64]) -> Self {
        Overhead {
            call,
            untraced_p50_ms: percentile(untraced_ms, 50.0),
            traced_p50_ms: percentile(traced_ms, 50.0),
        }
    }

    pub fn pct(&self) -> f64 {
        (self.traced_p50_ms - self.untraced_p50_ms) / self.untraced_p50_ms * 100.0
    }
}

/// What a workload run returns to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Output mismatches found by the correctness gate.
    pub mismatches: Vec<String>,
    /// Attempts and failures per op kind (timed phase and boots).
    pub ops: BTreeMap<&'static str, OpLog>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Traced run only: every span, and the measured calls' overheads.
    pub spans: Vec<Span>,
    pub overhead: Vec<Overhead>,
    /// Workload facts worth recording next to the metrics.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("mismatch: {what}");
        }
        self.mismatches.push(what);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}

/// Order-sensitive hash of a result set: columns, then every row's cells.
pub fn hash_rows(rs: &ResultSet) -> u64 {
    let mut h = DefaultHasher::new();
    rs.columns.len().hash(&mut h);
    for row in &rs.rows {
        for cell in row {
            match cell {
                Cell::Node(n) => (0u8, n.index()).hash(&mut h),
                Cell::Null => 1u8.hash(&mut h),
                Cell::Group(g) => {
                    2u8.hash(&mut h);
                    for n in g {
                        n.index().hash(&mut h);
                    }
                }
            }
        }
    }
    rs.rows.len().hash(&mut h);
    h.finish()
}

/// Boots per run: `setup_s` is their median, and the last one serves the
/// timed phase. A boot takes 0.1–0.4 s, and the host's speed moves by up
/// to a quarter from one second to the next, so a run boots at least
/// `BOOTS` times and, at Full size, for at least `BOOT_SECONDS`: the
/// median then spans several seconds of host conditions.
pub const BOOTS: usize = 21;
pub const BOOT_SECONDS: f64 = 8.0;

impl Ctx {
    /// Whether to boot again after `done` boots that began at `since`.
    pub fn another_boot(&self, done: usize, since: Instant) -> bool {
        done < BOOTS
            || (matches!(self.size, Size::Full) && since.elapsed().as_secs_f64() < BOOT_SECONDS)
    }
}

/// Time one boot: its duration joins `secs` (the `setup_s` samples) and
/// the attempt is counted under the `boot` op kind.
pub fn timed_boot<T>(
    secs: &mut Vec<f64>,
    out: &mut Outcome,
    boot: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    let t0 = Instant::now();
    let booted = boot();
    let log = out.ops.entry("boot").or_default();
    match booted {
        Ok(v) => {
            let s = t0.elapsed().as_secs_f64();
            secs.push(s);
            log.ok(s * 1e3, 0.0);
            Some(v)
        }
        Err(e) => {
            eprintln!("boot failed: {e}");
            log.fail(&e, 0.0);
            None
        }
    }
}

/// The name of a `ServeError` variant, for per-kind failure counts.
pub fn serve_error_kind(e: &ServeError) -> &'static str {
    match e {
        ServeError::Parse(_) => "ServeError::Parse",
        ServeError::Overloaded { .. } => "ServeError::Overloaded",
        ServeError::Query(_) => "ServeError::Query",
        ServeError::Panicked(_) => "ServeError::Panicked",
        ServeError::Edit(_) => "ServeError::Edit",
    }
}

/// The served-read client of `serve-read` and `serve-write`: a closed loop
/// of `QueryService::execute` calls drawn from the read mix. Traced, it
/// replays after each call, on its own thread, what `execute` does inside:
/// `parse_twig` → `serialize` → `IndexedPlan::compute` (only when the
/// service's plan-miss counter moved during the call) →
/// `try_match_indexed` → `enumerate`.
pub struct ReadClient<'a> {
    pub svc: &'a QueryService,
    pub rng: Rng,
    pub log: OpLog,
    pub layers: Layers,
    pub tracer: Option<Tracer>,
    /// Row hash of the first response to each distinct query, for the
    /// correctness gate (hashed between requests, so no result is held).
    pub first: Option<HashMap<String, u64>>,
    /// Row counts of first responses (every later response must agree).
    rows: HashMap<String, usize>,
    /// Latencies of successful responses by query text.
    pub by_query: HashMap<String, Vec<f64>>,
    /// The client's own plans, keyed by (snapshot version, canonical
    /// query), so replays do not recompute plans the service had cached.
    plans: HashMap<(u64, String), IndexedPlan>,
    thread: u64,
    reqs: u64,
}

impl<'a> ReadClient<'a> {
    pub fn new(
        svc: &'a QueryService,
        seed: u64,
        thread: u32,
        tracer: Option<Tracer>,
        keep_first: bool,
    ) -> Self {
        ReadClient {
            svc,
            rng: Rng::new(seed),
            log: OpLog::default(),
            layers: Layers::default(),
            tracer,
            first: keep_first.then(HashMap::new),
            rows: HashMap::new(),
            by_query: HashMap::new(),
            plans: HashMap::new(),
            thread: u64::from(thread),
            reqs: 0,
        }
    }

    /// One request; `query` drawn by the caller.
    pub fn request(&mut self, query: &str, phase_start: Instant, out: &mut Vec<String>) {
        self.reqs += 1;
        let req = (self.thread << 32) | self.reqs;
        let misses_before = self
            .tracer
            .is_some()
            .then(|| self.svc.stats().plan_cache_misses);
        let (result, ms, span) = match self.tracer.as_mut() {
            Some(t) => {
                let id = t.open("twigserve.execute", req, 0);
                let r = self.svc.execute(query);
                let ms = t.close(id);
                (r, ms, id)
            }
            None => {
                let t0 = Instant::now();
                let r = self.svc.execute(query);
                (r, t0.elapsed().as_secs_f64() * 1e3, 0)
            }
        };
        let done = phase_start.elapsed().as_secs_f64();
        match result {
            Ok(rs) => {
                self.log.ok(ms, done);
                match self.by_query.get_mut(query) {
                    Some(v) => v.push(ms),
                    None => {
                        self.by_query.insert(query.to_string(), vec![ms]);
                    }
                }
                if let Some(first) = self.first.as_mut() {
                    match self.rows.get(query) {
                        Some(&n) if n != rs.len() => out.push(format!(
                            "{query}: {} rows, earlier response had {n}",
                            rs.len()
                        )),
                        Some(_) => {}
                        None => {
                            self.rows.insert(query.to_string(), rs.len());
                            first.insert(query.to_string(), hash_rows(&rs));
                        }
                    }
                }
                if let Some(before) = misses_before {
                    let missed = self.svc.stats().plan_cache_misses > before;
                    self.replay(query, req, span, missed);
                }
            }
            Err(e) => self.log.fail(serve_error_kind(&e), done),
        }
    }

    fn replay(&mut self, query: &str, req: u64, parent: u64, missed: bool) {
        let t = self.tracer.as_mut().expect("replay runs traced");
        let (gtp, ms) = t.span("gtpquery.parse_twig", req, parent, || parse_twig(query));
        self.layers.add("gtpquery.parse_us", "us", ms * 1e3);
        let Ok(gtp) = gtp else { return };
        let (key, ms) = t.span("gtpquery.serialize", req, parent, || serialize(&gtp));
        self.layers.add("gtpquery.serialize_us", "us", ms * 1e3);
        let snap = self.svc.snapshot();
        let slot = (snap.version(), key);
        if missed || !self.plans.contains_key(&slot) {
            let compute = || {
                IndexedPlan::compute(
                    &gtp,
                    snap.index(),
                    snap.doc().labels(),
                    PruningPolicy::Enabled,
                )
            };
            let plan = if missed {
                let (plan, ms) = t.span("twig2stack.plan", req, parent, compute);
                self.layers.add("twig2stack.plan_us", "us", ms * 1e3);
                plan
            } else {
                compute()
            };
            if self.plans.len() > 4096 || self.plans.keys().any(|(v, _)| *v != slot.0) {
                self.plans.clear();
            }
            self.plans.insert(slot.clone(), plan);
        }
        let plan = &self.plans[&slot];
        let (matched, ms) = t.span("twig2stack.try_match_indexed", req, parent, || {
            try_match_indexed(
                snap.doc(),
                snap.index(),
                &gtp,
                MatchOptions::default(),
                plan,
                None,
                &CancelToken::never(),
            )
        });
        self.layers.add("twig2stack.match_ms", "ms", ms);
        let Ok((tm, stats)) = matched else { return };
        let (rs, ms) = t.span("twig2stack.enumerate", req, parent, || enumerate(&tm));
        self.layers.add("twig2stack.enumerate_ms", "ms", ms);
        add_match_stats(&mut self.layers, &stats, rs.len());
    }
}

/// Per-call engine counts from `MatchStats` and the result size.
pub fn add_match_stats(layers: &mut Layers, stats: &twig2stack::MatchStats, rows: usize) {
    layers.add(
        "twig2stack.considered",
        "count",
        stats.elements_considered as f64,
    );
    layers.add("twig2stack.pushed", "count", stats.elements_pushed as f64);
    layers.add("twig2stack.edges", "count", stats.edges_created as f64);
    layers.add("twig2stack.rows", "count", rows as f64);
    layers.add("twig2stack.peak_kb", "kB", stats.peak_bytes as f64 / 1024.0);
}

/// `pushed / considered` over every traced match, from the summed counts.
pub fn push_ratio(layers: &mut Layers) {
    let considered: f64 = layers.get("twig2stack.considered").iter().sum();
    let pushed: f64 = layers.get("twig2stack.pushed").iter().sum();
    let n = layers.get("twig2stack.pushed").len();
    if considered > 0.0 {
        layers.set("twig2stack.push_ratio", "ratio", pushed / considered, n);
    }
}

/// The names of the end-to-end metrics of a workload's own op.
pub const OP_METRICS: [&str; 3] = ["ops_per_s", "p50_ms", "tail_ms"];

/// Completions per second, median latency and the `tail`-th percentile
/// latency of `log`'s ops, under `names`. Each workload fixes its tail
/// percentile: the highest with at least ten samples beyond it in a run.
pub fn op_metrics(names: [&str; 3], log: &OpLog, tail: f64, outcome: &mut Outcome) {
    outcome.metrics.push(log.rate(names[0]));
    outcome
        .metrics
        .push(Metric::median(names[1], "ms", &log.latency_ms));
    outcome
        .metrics
        .push(Metric::percentile(names[2], "ms", &log.latency_ms, tail));
}

/// Notes `<prefix> <query>` = median latency for each of `queries` that has
/// samples in `by_query`.
pub fn note_query_p50s(
    out: &mut Outcome,
    prefix: &str,
    queries: &[String],
    by_query: &HashMap<String, Vec<f64>>,
) {
    for q in queries {
        if let Some(v) = by_query.get(q) {
            out.note(
                &format!("{prefix} {q}"),
                format!("{:.3}", percentile(v, 50.0)),
            );
        }
    }
}
