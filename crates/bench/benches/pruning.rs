//! Criterion bench for the path-summary pruning subsystem: summary
//! construction cost per dataset, and pruned vs full stream evaluation on
//! representative Figure 16 queries.
//!
//! Besides the console report, the run exports `BENCH_pruning.json` at the
//! repo root (schema `twig2stack.bench/v1`) with its own best-of-3
//! wall-clock numbers and the stream read counters from Figure S, so
//! future changes have a recorded trajectory to compare against:
//!
//! ```text
//! cargo bench -p twigbench --bench pruning
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::{Duration, Instant};
use twig2stack::evaluate_indexed;
use twigbench::workload::{dblp, treebank, xmark, Dataset, Profile};
use twigbench::{figs, Algo};
use xmlindex::{PathSummary, PruningPolicy};

fn datasets() -> Vec<Dataset> {
    vec![
        dblp(Profile::Quick),
        xmark(Profile::Quick, 1),
        treebank(Profile::Quick),
    ]
}

/// Summary construction: one pre-order pass over the document.
fn summary_build(c: &mut Criterion) {
    for ds in datasets() {
        let mut group = c.benchmark_group("pruning/summary_build");
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400))
            .throughput(Throughput::Elements(ds.doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("dataset", &ds.name), &ds, |b, ds| {
            b.iter(|| PathSummary::build(&ds.doc).len())
        });
        group.finish();
    }
}

/// Pruned vs full stream evaluation, Twig²Stack indexed driver, on one
/// representative query per dataset (the one with the deepest pruning
/// opportunity: labels that occur outside the query's feasible paths).
fn queries() -> Vec<(Dataset, &'static str, usize)> {
    // (dataset, query-set name, query index): DBLP-Q2, XMark-Q2, TreeBank-Q2.
    vec![
        (dblp(Profile::Quick), "DBLP-Q2", 1),
        (xmark(Profile::Quick, 1), "XMark-Q2", 1),
        (treebank(Profile::Quick), "TreeBank-Q2", 1),
    ]
}

fn query_for(ds: &Dataset, idx: usize) -> gtpquery::Gtp {
    use twigbench::workload::{dblp_queries, treebank_queries, xmark_queries};
    let set = if ds.name.starts_with("DBLP") {
        dblp_queries()
    } else if ds.name.starts_with("XMark") {
        xmark_queries()
    } else {
        treebank_queries()
    };
    set[idx].gtp.clone()
}

fn pruned_vs_full(c: &mut Criterion) {
    for (ds, qname, idx) in queries() {
        let gtp = query_for(&ds, idx);
        let mut group = c.benchmark_group(format!("pruning/evaluate/{qname}"));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400));
        group.bench_with_input(BenchmarkId::new("streams", "full"), &ds, |b, ds| {
            b.iter(|| evaluate_indexed(&ds.doc, &ds.index, &gtp, PruningPolicy::Disabled).len())
        });
        group.bench_with_input(BenchmarkId::new("streams", "pruned"), &ds, |b, ds| {
            b.iter(|| evaluate_indexed(&ds.doc, &ds.index, &gtp, PruningPolicy::Enabled).len())
        });
        group.finish();
    }
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

/// Export `BENCH_pruning.json` at the repo root. The vendored criterion
/// stand-in keeps its measurements private, so this takes its own
/// best-of-3 numbers (same estimator) and folds in the Figure S counters.
fn export_json(_c: &mut Criterion) {
    let mut json = String::from("{\n  \"schema\": \"twig2stack.bench/v1\",\n");
    json.push_str("  \"name\": \"pruning\",\n  \"profile\": \"quick\",\n");

    json.push_str("  \"summary_build\": [\n");
    let sets = datasets();
    for (i, ds) in sets.iter().enumerate() {
        let mut len = 0usize;
        let best = best_of_3(|| len = std::hint::black_box(PathSummary::build(&ds.doc)).len());
        json.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"doc_nodes\": {}, \"summary_nodes\": {}, \"best_ns\": {}}}{}\n",
            ds.name,
            ds.doc.len(),
            len,
            best.as_nanos(),
            if i + 1 < sets.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    json.push_str("  \"evaluate\": [\n");
    let qs = queries();
    for (i, (ds, qname, idx)) in qs.iter().enumerate() {
        let gtp = query_for(ds, *idx);
        let full = best_of_3(|| {
            std::hint::black_box(evaluate_indexed(
                &ds.doc,
                &ds.index,
                &gtp,
                PruningPolicy::Disabled,
            ));
        });
        let pruned = best_of_3(|| {
            std::hint::black_box(evaluate_indexed(
                &ds.doc,
                &ds.index,
                &gtp,
                PruningPolicy::Enabled,
            ));
        });
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"full_ns\": {}, \"pruned_ns\": {}}}{}\n",
            qname,
            full.as_nanos(),
            pruned.as_nanos(),
            if i + 1 < qs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    // Stream read counters for the whole Figure 16 workload (Twig²Stack
    // rows of Figure S); zero when the obs feature is compiled out.
    json.push_str("  \"figS_twig2stack\": [\n");
    let (rows, _, _) = figs(Profile::Quick);
    let t2s: Vec<_> = rows
        .iter()
        .filter(|r| r.algo == Algo::Twig2Stack)
        .collect();
    for (i, r) in t2s.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"scanned_full\": {}, \"scanned_pruned\": {}, \"elements_pruned\": {}, \"stream_skips\": {}, \"results\": {}}}{}\n",
            r.query,
            r.scanned_full,
            r.scanned_pruned,
            r.elements_pruned,
            r.stream_skips,
            r.results,
            if i + 1 < t2s.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pruning.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, summary_build, pruned_vs_full, export_json);
criterion_main!(benches);
