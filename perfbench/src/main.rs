//! The repository's benchmark: XML bytes to result rows, served reads,
//! served edits with standing subscriptions, and catalog scatter-gather,
//! each driven through the public APIs the way a user would. See
//! `perfbench/README.md` for the workloads, the metrics and what moves them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bytes-to-rows|serve-read|serve-write|catalog|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; any wrong output makes the command
//! exit non-zero.

mod inputs;
mod report;
mod trace;
mod workloads;

use inputs::Size;
use report::{json_str, metric_details_json, metrics_json, num, Metric};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Outcome};

const WORKLOADS: [&str; 4] = ["bytes-to-rows", "serve-read", "serve-write", "catalog"];

/// The end-to-end metrics every workload reports on an untraced run, with
/// their units, in the order `BENCHMARK.json` lists them. `ops_per_s`,
/// `p50_ms` and `tail_ms` describe the workload's own op (see
/// `perfbench/README.md`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "fraction"),
];

/// The workloads `BENCHMARK.json` lists. Each must report every metric of
/// both lists; the others report those they measure and the figures of
/// their own layers.
const GATED: [&str; 2] = ["serve-read", "serve-write"];

/// The per-layer metrics every gated workload reports on a traced run, in
/// the order `BENCHMARK.json` lists them. A workload's traced record holds
/// these and the metrics of the layers only it goes through.
const PER_LAYER: [(&str, &str); 16] = [
    ("xmldom.parse_ms", "ms"),
    ("xmlindex.boot_ms", "ms"),
    ("gtpquery.parse_us", "us"),
    ("gtpquery.serialize_us", "us"),
    ("twig2stack.plan_us", "us"),
    ("twig2stack.match_ms", "ms"),
    ("twig2stack.enumerate_ms", "ms"),
    ("twig2stack.considered", "count"),
    ("twig2stack.pushed", "count"),
    ("twig2stack.push_ratio", "ratio"),
    ("twig2stack.edges", "count"),
    ("twig2stack.rows", "count"),
    ("twig2stack.peak_kb", "kB"),
    ("twigserve.self_ms", "ms"),
    ("twigserve.plan_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: perfbench --workload <bytes-to-rows|serve-read|serve-write|catalog|all> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let started = Instant::now();
    let ticks = report::cpu_ticks();
    let ctx = Ctx {
        size: Size::Full,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: started,
    };
    let outcome = match run_workload(&args.workload, &ctx, &out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    finish(&args, &ctx, outcome, (started, ticks), &out_dir)
}

fn run_workload(workload: &str, ctx: &Ctx, out_dir: &Path) -> Result<Outcome, String> {
    Ok(match workload {
        "bytes-to-rows" => workloads::bytes_to_rows::run(ctx),
        "serve-read" => {
            let scratch = workloads::serve_read::scratch_dir(out_dir)
                .map_err(|e| format!("scratch directory: {e}"))?;
            let out = workloads::serve_read::run(ctx, &scratch);
            let _ = std::fs::remove_dir_all(&scratch);
            out
        }
        "serve-write" => workloads::serve_write::run(ctx),
        "catalog" => workloads::catalog::run(ctx),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The end-to-end metrics every workload reports besides its own: peak
/// resident memory and the share of attempted ops that succeeded.
fn common_metrics(outcome: &mut Outcome) {
    let (attempted, failed) = totals(outcome);
    if let Some(mb) = report::peak_rss_mb() {
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", "MB", mb, &[mb]));
    }
    let ok = (attempted - failed) as f64 / attempted.max(1) as f64;
    outcome
        .metrics
        .push(Metric::new("success_ratio", "fraction", ok, &[]));
}

fn totals(outcome: &Outcome) -> (u64, u64) {
    outcome
        .ops
        .values()
        .fold((0, 0), |(a, f), log| (a + log.attempted, f + log.failed))
}

/// Completes a workload's metrics: the common end-to-end ones on an
/// untraced run; on a traced run, the tracing overhead of the workload's
/// main measured call.
fn complete_metrics(ctx: &Ctx, outcome: &mut Outcome) {
    if ctx.trace {
        if let Some(o) = outcome.overhead.first() {
            let pct = o.pct();
            outcome
                .metrics
                .push(Metric::new("trace.overhead_pct", "%", pct, &[]));
        }
    } else {
        common_metrics(outcome);
    }
}

fn finish(
    args: &Args,
    ctx: &Ctx,
    mut outcome: Outcome,
    started: (Instant, Option<(u64, u64)>),
    out_dir: &Path,
) -> ExitCode {
    complete_metrics(ctx, &mut outcome);
    let (attempted, failed) = totals(&outcome);
    let correct = outcome.mismatches.is_empty() && attempted > 0;
    let (listed, missing) = listed_metrics(ctx, &outcome);

    for m in &outcome.metrics {
        println!(
            "{:<42} {:>14} {:<8} samples={:<6} spread={:.4}",
            m.name,
            format!("{:.4}", m.value),
            m.unit,
            m.samples,
            m.spread
        );
    }
    let meta = meta_json(args, started);
    let mut ops = String::from("{");
    for (i, (kind, log)) in outcome.ops.iter().enumerate() {
        let errors: Vec<String> = log
            .errors
            .iter()
            .map(|(k, n)| format!("{}: {n}", json_str(k)))
            .collect();
        let _ = write!(
            ops,
            "{}{}: {{\"attempted\": {}, \"failed\": {}, \"errors\": {{{}}}}}",
            if i > 0 { ", " } else { "" },
            json_str(kind),
            log.attempted,
            log.failed,
            errors.join(", ")
        );
    }
    ops.push('}');
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"meta\": {meta}, \"correct\": {correct}, \"mismatches\": {}, \"ops\": {ops}, \"notes\": {{{}}}, \"metrics\": {}}}",
        outcome.mismatches.len(),
        notes.join(", "),
        metric_details_json(&outcome.metrics)
    );
    println!("{record}");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let result_path = out_dir.join(format!("{stem}-trace{}.json", u8::from(ctx.trace)));
    if let Err(e) = std::fs::write(&result_path, format!("{record}\n")) {
        eprintln!("cannot write {}: {e}", result_path.display());
    }
    if ctx.trace {
        if let Err(e) = write_trace(out_dir, &stem, &meta, &outcome) {
            eprintln!("cannot write trace artifacts: {e}");
        }
    }
    if !missing.is_empty() && GATED.contains(&args.workload.as_str()) {
        eprintln!("{}: not measured: {}", args.workload, missing.join(", "));
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&listed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} output mismatches", outcome.mismatches.len());
        ExitCode::from(1)
    }
}

/// The metrics of the result line: those of the end-to-end list on an
/// untraced run, or of the per-layer list on a traced one, in listed
/// order; and the listed names the run did not measure in their unit.
fn listed_metrics(ctx: &Ctx, outcome: &Outcome) -> (Vec<Metric>, Vec<&'static str>) {
    let list: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut listed = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in list {
        match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && !m.value.is_nan() => listed.push(m.clone()),
            _ => missing.push(name),
        }
    }
    (listed, missing)
}

/// The run's metadata. `host_steal_pct` is the share of the host's CPU
/// time stolen by the hypervisor over the run (`null` without
/// `/proc/stat`): runs taken while it is high are slower as a whole.
fn meta_json(args: &Args, (started, ticks): (Instant, Option<(u64, u64)>)) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal = match (ticks, report::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            num(s1.saturating_sub(s0) as f64 / (t1 - t0) as f64 * 100.0)
        }
        _ => "null".to_string(),
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"commit\": {}, \"profile\": {}, \"wall_s\": {}, \"host_steal_pct\": {steal}}}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        json_str(&report::commit()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        num(started.elapsed().as_secs_f64())
    )
}

/// The span file and the per-workload trace summary: every per-layer
/// metric, each span's self time, and the tracing overhead per measured
/// call.
fn write_trace(out_dir: &Path, stem: &str, meta: &str, outcome: &Outcome) -> std::io::Result<()> {
    let spans_path: PathBuf = out_dir.join(format!("{stem}.spans.jsonl"));
    trace::write_spans(&spans_path, &outcome.spans)?;
    let self_times: Vec<String> = trace::self_times(&outcome.spans)
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"calls\": {}, \"mean_ms\": {}, \"p50_ms\": {}}}",
                json_str(name),
                v.len(),
                num(report::mean(v)),
                num(report::percentile(v, 50.0))
            )
        })
        .collect();
    let overhead: Vec<String> = outcome
        .overhead
        .iter()
        .map(|o| {
            format!(
                "{{\"call\": {}, \"untraced_p50_ms\": {}, \"traced_p50_ms\": {}, \"overhead_pct\": {}}}",
                json_str(o.call),
                num(o.untraced_p50_ms),
                num(o.traced_p50_ms),
                num(o.pct())
            )
        })
        .collect();
    let summary = format!(
        "{{\"meta\": {meta},\n \"per_layer\": {},\n \"self_time\": {{{}}},\n \"spans\": {},\n \"overhead\": [{}],\n \"span_file\": {}}}\n",
        metric_details_json(&outcome.metrics),
        self_times.join(", "),
        trace::span_table_json(&outcome.spans),
        overhead.join(", "),
        json_str(&spans_path.file_name().map_or(String::new(), |f| f.to_string_lossy().into_owned()))
    );
    std::fs::write(out_dir.join(format!("{stem}.summary.json")), summary)
}

/// `--workload all`: every workload in its own child process (so each has
/// its own peak RSS), one after another; exits non-zero if any did.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let v = it.next();
        if a != "--workload" {
            rest.push(a.clone());
            rest.extend(v.cloned());
        }
    }
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in WORKLOADS {
        println!("== {w}");
        let child = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{w}: cannot run: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        ok &= output.status.success();
        if let Some(last) = stdout.lines().last() {
            attempted += field_u64(last, "\"attempted\": ");
            failed += field_u64(last, "\"failed\": ");
        }
    }
    println!(
        "{{\"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {}}}",
        WORKLOADS.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    line.split_once(key)
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    //! The self-test: every workload at tiny size, untraced and traced,
    //! through the same code as a measured run, must pass its correctness
    //! gate and emit every metric of its own, and a gated workload every
    //! listed metric; and `BENCHMARK.json` must list exactly the gated
    //! workloads and the metrics the result line carries, with the same
    //! units.

    use super::*;

    /// The metrics a workload's record holds besides the listed ones:
    /// (untraced, traced).
    fn own(workload: &str) -> (Vec<&'static str>, Vec<&'static str>) {
        match workload {
            "bytes-to-rows" => (
                vec!["xml_mb_s", "stream_mb_s"],
                vec!["xmldom.events_ms", "twig2stack.streaming_ms"],
            ),
            "serve-read" => (vec![], vec![]),
            "serve-write" => (
                vec!["read_qps", "read_p50_ms", "read_p99_ms"],
                vec![
                    "twigserve.register_ms",
                    "xmldom.apply_op_ms",
                    "xmldom.renumber_ratio",
                    "xmlindex.apply_edit_ms",
                    "xmlindex.patched_ratio",
                    "twig2stack.subscribe_ms",
                    "twig2stack.feed_ratio",
                    "twigserve.edit_self_ms",
                    "twigserve.invalidations_per_edit",
                ],
            ),
            "catalog" => (
                vec![],
                vec![
                    "xmlindex.build_ms",
                    "twigserve.catalog.build_ms",
                    "twigserve.catalog.route_us",
                    "twigserve.catalog.skip_ratio",
                    "twigserve.catalog.route_precision",
                    "twigserve.catalog.schema_plans_per_query",
                    "twigserve.catalog.doc_eval_ms",
                    "twigserve.catalog.scatter_efficiency",
                ],
            ),
            other => panic!("no expectations for {other}"),
        }
    }

    /// The (name, unit) pairs listed under `key` in BENCHMARK.json.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        list.split('{')
            .skip(1)
            .map(|item| {
                let field = |f: &str| {
                    item.split(&format!("\"{f}\""))
                        .nth(1)
                        .and_then(|rest| rest.split('"').nth(1))
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_result_line_metrics() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(root.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&json, key), want, "{key}");
        }
        let listed: Vec<String> = declared(&json, "workloads")
            .into_iter()
            .map(|(w, _)| w)
            .collect();
        assert_eq!(listed, GATED, "workloads");
    }

    #[test]
    fn every_workload_emits_every_named_metric_at_tiny_size() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let out_dir = root.join("out").join("selftest");
        std::fs::create_dir_all(&out_dir).expect("self-test output directory");
        for workload in WORKLOADS {
            let (e2e, layers) = own(workload);
            for trace in [false, true] {
                let ctx = Ctx {
                    size: Size::Tiny,
                    seed: 7,
                    seconds: 2.0,
                    trace,
                    epoch: Instant::now(),
                };
                let mut outcome = run_workload(workload, &ctx, &out_dir).expect("known workload");
                complete_metrics(&ctx, &mut outcome);
                assert!(
                    outcome.mismatches.is_empty(),
                    "{workload}: {:?}",
                    outcome.mismatches
                );
                let (attempted, failed) = totals(&outcome);
                assert!(
                    attempted > 0 && failed == 0,
                    "{workload}: {failed}/{attempted} failed"
                );
                let (listed, missing) = listed_metrics(&ctx, &outcome);
                assert!(
                    missing.is_empty() || !GATED.contains(&workload),
                    "{workload} trace={trace}: {missing:?} missing"
                );
                let mine = if trace { &layers } else { &e2e };
                let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
                for name in mine {
                    assert!(
                        emitted.contains(name),
                        "{workload} trace={trace}: {name} missing"
                    );
                }
                for m in &outcome.metrics {
                    assert!(
                        mine.contains(&m.name.as_str()) || listed.iter().any(|l| l.name == m.name),
                        "{workload} trace={trace}: unexpected {}",
                        m.name
                    );
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                }
            }
        }
    }
}
