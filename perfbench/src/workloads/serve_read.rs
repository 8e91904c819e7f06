//! `serve-read`: two closed-loop clients on one `QueryService` with the
//! default `ServiceConfig`, booted with `open_mapped` from a v3 index file
//! of the Full DBLP document. Requests mix the analytic DBLP twigs with
//! Zipf-drawn value-predicate lookups whose distinct plans outnumber the
//! plan cache.

use super::{
    hash_rows, note_query_p50s, push_ratio, timed_boot, Ctx, Outcome, Overhead, ReadClient,
};
use crate::inputs::{self, stream_seed, ReadMix};
use crate::report::{Layers, Metric, OpLog};
use crate::trace::Tracer;
use gtpquery::parse_twig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use twig2stack::evaluate;
use twigserve::{QueryService, ServiceConfig};
use xmldom::Document;
use xmlindex::MappedIndex;

pub fn run(ctx: &Ctx, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let gen = inputs::dblp(ctx.size, stream_seed(ctx.seed, "dblp"), 8);
    out.note(
        "doc.DBLP",
        format!("{} elements, {} bytes", gen.doc.len(), gen.xml.len()),
    );
    let index_path = scratch.join("dblp.v3");
    let written = xmldom::parse(&gen.xml)
        .map_err(|e| e.to_string())
        .and_then(|doc| xmlindex::write_mapped_index(&doc, &index_path).map_err(|e| e.to_string()));
    if let Err(e) = written {
        out.ops.entry("boot").or_default().fail(&e, 0.0);
        return out;
    }

    let mix = ReadMix::new(ctx.seed);
    let mut boot_tracer = Tracer::new(ctx.epoch, 9);
    let mut layers = Layers::default();
    let mut boots = Vec::new();
    let mut svc = None;
    let since = Instant::now();
    let mut b = 0u64;
    while ctx.another_boot(b as usize, since) {
        b += 1;
        drop(svc.take());
        svc = timed_boot(&mut boots, &mut out, || {
            if ctx.trace {
                boot_traced(&mut boot_tracer, &mut layers, &gen.xml, &index_path, b)
            } else {
                let doc = xmldom::parse(&gen.xml).map_err(|e| format!("ParseError: {e}"))?;
                QueryService::open_mapped(doc, &index_path, ServiceConfig::default())
                    .map_err(|e| format!("MappedOpenError: {e}"))
            }
        });
    }
    let Some(svc) = svc else { return out };
    warm_up(&svc);
    let mut first = HashMap::new();
    let mut untraced = Clients::default();
    let mut traced = Clients::default();
    untraced.merge(
        clients(&svc, &mix, ctx, ctx.untraced_s(), false),
        &mut first,
        &mut out,
    );
    let (mut hits, mut misses) = (0, 0);
    if ctx.trace {
        let before = svc.stats();
        traced.merge(
            clients(&svc, &mix, ctx, ctx.seconds, true),
            &mut first,
            &mut out,
        );
        let after = svc.stats();
        hits = after.plan_cache_hits - before.plan_cache_hits;
        misses = after.plan_cache_misses - before.plan_cache_misses;
    }
    gate(&gen.doc, &first, &mut out);
    let analytic = inputs::dblp_analytic();
    note_query_p50s(&mut out, "served_p50_ms", &analytic, &untraced.by_query);
    if !ctx.trace {
        out.metrics.push(Metric::median("setup_s", "s", &boots));
        // Tail: p99, with about 2,000 reads or more in a 30 s run.
        super::op_metrics(super::OP_METRICS, &untraced.log, 99.0, &mut out);
        out.ops.insert("read", untraced.log);
        return out;
    }
    layers.merge(traced.layers);
    push_ratio(&mut layers);
    layers.set(
        "twigserve.plan_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    let mut spans = boot_tracer.spans;
    spans.extend(traced.spans);
    out.overhead = vec![Overhead::new("execute", &untraced.log, &traced.log)];
    add_self_times(
        &mut layers,
        &spans,
        "twigserve.execute",
        "twigserve.self_ms",
    );
    out.metrics = layers.metrics();
    out.spans = spans;
    out.ops.insert("read", traced.log);
    out
}

/// One boot with spans: `xmldom::parse`, then `open_mapped` with a replayed
/// `MappedIndex::open` as its child.
fn boot_traced(
    t: &mut Tracer,
    layers: &mut Layers,
    xml: &str,
    path: &Path,
    boot: u64,
) -> Result<QueryService, String> {
    let span = t.open("boot", boot, 0);
    let (doc, ms) = t.span("xmldom.parse", boot, span, || xmldom::parse(xml));
    layers.add("xmldom.parse_ms", "ms", ms);
    let doc = doc.map_err(|e| format!("ParseError: {e}"))?;
    let open = t.open("twigserve.open_mapped", boot, span);
    let svc = QueryService::open_mapped(doc, path, ServiceConfig::default())
        .map_err(|e| format!("MappedOpenError: {e}"));
    t.close(open);
    let (index, ms) = t.span("xmlindex.open", boot, open, || MappedIndex::open(path));
    layers.add("xmlindex.boot_ms", "ms", ms);
    drop(index);
    t.close(span);
    svc
}

/// Run every analytic twig once so the context pool and page cache are warm.
pub fn warm_up(svc: &QueryService) {
    for q in inputs::dblp_analytic() {
        let _ = svc.execute(&q);
    }
}

/// The merged logs of the reader clients.
#[derive(Default)]
struct Clients {
    log: OpLog,
    layers: Layers,
    spans: Vec<crate::trace::Span>,
    by_query: HashMap<String, Vec<f64>>,
}

/// What the two readers of a phase return: their clients and any
/// responses that disagreed with an earlier response to the same query.
type Readers<'a> = Vec<(ReadClient<'a>, Vec<String>)>;

impl Clients {
    /// Fold one phase in. A query's first-response hash must be the same
    /// in every phase.
    fn merge(&mut self, readers: Readers, first: &mut HashMap<String, u64>, out: &mut Outcome) {
        for (client, bad) in readers {
            for b in bad {
                out.mismatch(b);
            }
            self.log.merge(client.log);
            self.layers.merge(client.layers);
            for (q, v) in client.by_query {
                self.by_query.entry(q).or_default().extend(v);
            }
            if let Some(t) = client.tracer {
                self.spans.extend(t.spans);
            }
            for (q, h) in client.first.unwrap_or_default() {
                match first.get(&q) {
                    Some(&earlier) if earlier != h => {
                        out.mismatch(format!("served {q}: responses differ between phases"))
                    }
                    Some(_) => {}
                    None => {
                        first.insert(q, h);
                    }
                }
            }
        }
    }
}

/// Two closed-loop readers for `seconds`.
fn clients<'a>(
    svc: &'a QueryService,
    mix: &'a ReadMix,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
) -> Readers<'a> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|c| {
                s.spawn(move || {
                    let seed = stream_seed(ctx.seed, &format!("reader-{c}-{traced}"));
                    let tracer = traced.then(|| Tracer::new(ctx.epoch, c + 1));
                    let mut client = ReadClient::new(svc, seed, c + 1, tracer, true);
                    let mut bad = Vec::new();
                    let mut queue = Vec::new();
                    while Instant::now() < deadline {
                        if queue.is_empty() {
                            queue = mix.cycle(&mut client.rng);
                        }
                        let q = queue.pop().expect("cycles are non-empty");
                        client.request(q, start, &mut bad);
                    }
                    (client, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

/// Correctness gate: each distinct query's rows hash equal to
/// `twig2stack::evaluate` on the generated document (computed on both
/// cores).
fn gate(doc: &Document, first: &HashMap<String, u64>, out: &mut Outcome) {
    let todo: Vec<&String> = first.keys().collect();
    let halves: Vec<Vec<(String, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = todo
            .chunks(todo.len().div_ceil(2).max(1))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|q| {
                            let gtp = parse_twig(q).expect("benchmark queries parse");
                            ((*q).clone(), hash_rows(&evaluate(doc, &gtp)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let oracle: HashMap<String, u64> = halves.into_iter().flatten().collect();
    let mut queries: Vec<&String> = first.keys().collect();
    queries.sort();
    for q in queries {
        if first[q] != oracle[q] {
            out.mismatch(format!("served {q}: rows differ from evaluate"));
        }
    }
    out.note("distinct_queries_checked", first.len());
}

/// `name`'s self time (span minus replayed children) as a per-call metric.
pub fn add_self_times(
    layers: &mut Layers,
    spans: &[crate::trace::Span],
    span: &str,
    name: &'static str,
) {
    if let Some(v) = crate::trace::self_times(spans).get(span) {
        for &ms in v {
            layers.add(name, "ms", ms);
        }
    }
}

/// The scratch directory for this run's index file, inside the checkout.
pub fn scratch_dir(out_dir: &Path) -> std::io::Result<PathBuf> {
    let dir = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
