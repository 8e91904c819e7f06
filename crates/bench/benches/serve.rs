//! Criterion bench for the query-service layer: single-request latency
//! through the service (plan cache hit vs miss path) and batch vs
//! one-by-one submission.
//!
//! Besides the console report, the run exports `BENCH_serve.json` at the
//! repo root (schema `twig2stack.bench/v1`) with best-of-3 wall-clock
//! numbers plus the Figure T throughput rows at quick scale, so future
//! changes have a recorded trajectory to compare against:
//!
//! ```text
//! cargo bench -p twigbench --bench serve
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use twigbench::workload::{dblp, dblp_queries, Profile};
use twigbench::{figt, FigTRow};
use twigserve::{QueryService, ServiceConfig};

fn hit_service() -> QueryService {
    let ds = dblp(Profile::Quick);
    QueryService::new(ds.doc, ds.index, ServiceConfig::default())
}

fn miss_service() -> QueryService {
    let ds = dblp(Profile::Quick);
    let config = ServiceConfig { plan_cache_capacity: 0, ..ServiceConfig::default() };
    QueryService::new(ds.doc, ds.index, config)
}

/// Cache-hit vs cache-miss request latency on DBLP-Q1.
fn request_path(c: &mut Criterion) {
    let queries = dblp_queries();
    let q = queries[0].text;
    let hit = hit_service();
    hit.execute(q).expect("warm the cache");
    let miss = miss_service();
    let mut group = c.benchmark_group("serve/request");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    group.bench_with_input(BenchmarkId::new("plan", "cached"), &hit, |b, svc| {
        b.iter(|| svc.execute(q).expect("cached request").len())
    });
    group.bench_with_input(BenchmarkId::new("plan", "uncached"), &miss, |b, svc| {
        b.iter(|| svc.execute(q).expect("uncached request").len())
    });
    group.finish();
}

/// Batch submission (one shared scan for same-label-set queries) vs the
/// same queries one by one.
fn batch_vs_single(c: &mut Criterion) {
    let queries = dblp_queries();
    let texts: Vec<&str> = queries.iter().map(|nq| nq.text).collect();
    let svc = hit_service();
    let mut group = c.benchmark_group("serve/batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(400));
    group.bench_function("batched", |b| {
        b.iter(|| {
            svc.execute_batch(&texts)
                .into_iter()
                .map(|r| r.expect("batch member").len())
                .sum::<usize>()
        })
    });
    group.bench_function("one_by_one", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|q| svc.execute(q).expect("single request").len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn best_of_3(mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

/// Export `BENCH_serve.json` at the repo root: best-of-3 request
/// latencies plus the quick-scale Figure T rows.
fn export_json(_c: &mut Criterion) {
    let mut json = String::from("{\n  \"schema\": \"twig2stack.bench/v1\",\n");
    json.push_str("  \"name\": \"serve\",\n  \"profile\": \"quick\",\n");

    let queries = dblp_queries();
    let q = queries[0].text;
    let hit = hit_service();
    hit.execute(q).expect("warm the cache");
    let miss = miss_service();
    let cached = best_of_3(|| {
        std::hint::black_box(hit.execute(q).expect("cached request"));
    });
    let uncached = best_of_3(|| {
        std::hint::black_box(miss.execute(q).expect("uncached request"));
    });
    json.push_str(&format!(
        "  \"request\": {{\"query\": \"DBLP-Q1\", \"cached_ns\": {}, \"uncached_ns\": {}}},\n",
        cached.as_nanos(),
        uncached.as_nanos()
    ));

    json.push_str("  \"figT\": [\n");
    let (rows, _) = figt(Profile::Quick, &[1, 4]);
    for (i, r) in rows.iter().enumerate() {
        let FigTRow { dataset, threads, cache_on, queries_run, qps, plan_cache_misses, .. } = r;
        json.push_str(&format!(
            "    {{\"dataset\": \"{dataset}\", \"threads\": {threads}, \"cache\": {cache_on}, \
             \"queries\": {queries_run}, \"qps\": {qps:.0}, \"analyses\": {plan_cache_misses}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, request_path, batch_vs_single, export_json);
criterion_main!(benches);
