//! `catalog`: two closed-loop clients on `CatalogService::build_heap` with
//! two shards over 600 small documents, 200 each from the DBLP, XMark and
//! TreeBank generators. The mix is the nine Figure 15 queries, DBLP author
//! lookups (routed to every DBLP member, most of which return nothing), and
//! one query over labels no member has.

use super::{
    add_match_stats, note_query_p50s, push_ratio, serve_error_kind, timed_boot, Ctx, Outcome,
    Overhead,
};
use crate::inputs::{self, stream_seed, CatalogMix, Rng};
use crate::report::{Layers, Metric, OpLog};
use crate::trace::{Span, Tracer};
use gtpquery::{parse_twig, CancelToken};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use twig2stack::{enumerate, try_match_indexed, IndexedPlan, MatchOptions};
use twigserve::{CatalogConfig, CatalogService, CatalogStats, DocHit};
use xmldom::Document;
use xmlindex::{ElementIndex, PruningPolicy};

/// Catalog scatter workers (one per shard).
const WORKERS: f64 = 2.0;

/// Boots per run (each parses 600 documents and builds their indexes).
const CATALOG_BOOTS: usize = 3;

fn config() -> CatalogConfig {
    CatalogConfig {
        shards: 2,
        ..CatalogConfig::default()
    }
}

/// The traced run's own copy of every member with its index, for replaying
/// the per-document evaluation the catalog does on its workers.
type Replica = Vec<(Document, ElementIndex)>;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let gens = inputs::catalog_docs(ctx.size, ctx.seed);
    for family in ["DBLP", "XMark", "TreeBank"] {
        let members = gens.iter().filter(|g| g.name == family);
        let (n, elements, bytes) = members.fold((0, 0, 0), |(n, e, b), g| {
            (n + 1, e + g.doc.len(), b + g.xml.len())
        });
        out.note(
            &format!("docs.{family}"),
            format!("{n} documents, {elements} elements, {bytes} bytes"),
        );
    }
    let xmls: Vec<&str> = gens.iter().map(|g| g.xml.as_str()).collect();

    let mix = CatalogMix::new(ctx.seed);
    let mut boot_tracer = Tracer::new(ctx.epoch, 9);
    let mut layers = Layers::default();
    let mut boots = Vec::new();
    let mut booted = None;
    for b in 0..CATALOG_BOOTS as u64 {
        drop(booted.take());
        booted = timed_boot(&mut boots, &mut out, || {
            let t = ctx.trace.then_some(&mut boot_tracer);
            boot(t, &mut layers, &xmls, b)
        });
    }
    drop(gens);
    let Some((cat, replica)) = booted else {
        return out;
    };
    warm_up(&cat, &mix);
    let mut untraced = Clients::default();
    untraced.merge(clients(&cat, &mix, None, ctx, ctx.untraced_s()), &mut out);
    // The traced phase's responses are checked against the untraced ones.
    let mut traced = Clients {
        first: std::mem::take(&mut untraced.first),
        ..Clients::default()
    };
    let (mut before, mut after) = (CatalogStats::default(), CatalogStats::default());
    if ctx.trace {
        before = cat.stats();
        traced.merge(
            clients(&cat, &mix, replica.as_ref(), ctx, ctx.seconds),
            &mut out,
        );
        after = cat.stats();
    }
    gate(&cat, &traced.first, &mut out);
    let classes: Vec<String> = untraced.by_class.keys().cloned().collect();
    note_query_p50s(&mut out, "p50_ms", &classes, &untraced.by_class);
    if !ctx.trace {
        out.metrics.push(Metric::median("setup_s", "s", &boots));
        super::op_metrics(super::OP_METRICS, &untraced.log, 99.0, &mut out);
        out.ops.insert("read", untraced.log);
        return out;
    }
    layers.merge(std::mem::take(&mut traced.layers));
    push_ratio(&mut layers);
    let queries = after.queries - before.queries;
    let routed = after.docs_routed - before.docs_routed;
    let skipped = after.docs_skipped - before.docs_skipped;
    layers.set(
        "twigserve.catalog.skip_ratio",
        "ratio",
        skipped as f64 / (routed + skipped).max(1) as f64,
        (routed + skipped) as usize,
    );
    layers.set(
        "twigserve.catalog.schema_plans_per_query",
        "count",
        (after.schema_plans - before.schema_plans) as f64 / queries.max(1) as f64,
        queries as usize,
    );
    let (hit_docs, routed_docs) = (
        layers.get("catalog.hit_docs").iter().sum::<f64>(),
        layers.get("catalog.routed").iter().sum::<f64>(),
    );
    layers.set(
        "twigserve.catalog.route_precision",
        "ratio",
        hit_docs / routed_docs.max(1.0),
        routed_docs as usize,
    );
    let eval: f64 = layers.get("twigserve.catalog.doc_eval_ms").iter().sum();
    let exec: f64 = traced.log.latency_ms.iter().filter(|l| l.is_finite()).sum();
    layers.set(
        "twigserve.catalog.scatter_efficiency",
        "ratio",
        eval / (exec * WORKERS).max(f64::MIN_POSITIVE),
        traced.log.latency_ms.len(),
    );
    // No `twigserve.self_ms` here: the replayed children run one document
    // after another on this thread, while the service spreads them over its
    // workers, so span minus children says nothing about the layer itself.
    // `scatter_efficiency` is the catalog's measure of that overlap.
    let mut spans = boot_tracer.spans;
    spans.append(&mut traced.spans);
    out.overhead = vec![Overhead::new("catalog.execute", &untraced.log, &traced.log)];
    out.metrics = layers
        .metrics()
        .into_iter()
        .filter(|m| !m.name.starts_with("catalog."))
        .collect();
    out.spans = spans;
    out.ops.insert("read", traced.log);
    out
}

/// XML text to the first servable request: parse every member, then
/// `build_heap`. Traced, each parse is a span, and `build_heap` gets the
/// members' `ElementIndex::build` replayed on copies as its children; the
/// copies are kept for the request replays.
fn boot(
    t: Option<&mut Tracer>,
    layers: &mut Layers,
    xmls: &[&str],
    b: u64,
) -> Result<(CatalogService, Option<Replica>), String> {
    let Some(t) = t else {
        let docs = xmls
            .iter()
            .map(|x| xmldom::parse(x).map_err(|e| format!("ParseError: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok((CatalogService::build_heap(docs, config()), None));
    };
    let root = t.open("boot", b, 0);
    let mut docs = Vec::with_capacity(xmls.len());
    for x in xmls {
        let (doc, ms) = t.span("xmldom.parse", b, root, || xmldom::parse(x));
        layers.add("xmldom.parse_ms", "ms", ms);
        docs.push(doc.map_err(|e| format!("ParseError: {e}"))?);
    }
    let copies = docs.clone();
    let build = t.open("twigserve.catalog.build_heap", b, root);
    let cat = CatalogService::build_heap(docs, config());
    let ms = t.close(build);
    layers.add("twigserve.catalog.build_ms", "ms", ms);
    let mut replica = Vec::with_capacity(copies.len());
    for doc in copies {
        let (index, ms) = t.span("xmlindex.build", b, build, || ElementIndex::build(&doc));
        layers.add("xmlindex.build_ms", "ms", ms);
        replica.push((doc, index));
    }
    t.close(root);
    Ok((cat, Some(replica)))
}

#[derive(Default)]
struct Clients {
    log: OpLog,
    layers: Layers,
    spans: Vec<Span>,
    first: HashMap<String, Vec<DocHit>>,
    /// Latencies by query class: each twig, the miss query, "lookup".
    by_class: HashMap<String, Vec<f64>>,
}

impl Clients {
    /// Fold one phase in. A query's first response must be the same in
    /// every phase.
    fn merge(&mut self, phase: Vec<(Clients, Vec<String>)>, out: &mut Outcome) {
        for (c, bad) in phase {
            for b in bad {
                out.mismatch(b);
            }
            self.log.merge(c.log);
            self.layers.merge(c.layers);
            self.spans.extend(c.spans);
            for (q, v) in c.by_class {
                self.by_class.entry(q).or_default().extend(v);
            }
            for (q, hits) in c.first {
                match self.first.get(&q) {
                    Some(earlier) if *earlier != hits => {
                        out.mismatch(format!("catalog {q}: responses differ between phases"))
                    }
                    Some(_) => {}
                    None => {
                        self.first.insert(q, hits);
                    }
                }
            }
        }
    }
}

/// Run every twig and the miss query once, so per-schema plans exist
/// before timing.
fn warm_up(cat: &CatalogService, mix: &CatalogMix) {
    for q in mix.cycle(&mut Rng::new(0)) {
        let _ = cat.execute(q);
    }
}

/// Two closed-loop clients for `seconds`.
fn clients(
    cat: &CatalogService,
    mix: &CatalogMix,
    replica: Option<&Replica>,
    ctx: &Ctx,
    seconds: f64,
) -> Vec<(Clients, Vec<String>)> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u32)
            .map(|c| s.spawn(move || client(cat, mix, replica, ctx, c, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("catalog client panicked"))
            .collect()
    })
}

/// Hit count and total rows: the cheap per-response check against the
/// first response of the same query.
fn shape(hits: &[DocHit]) -> (usize, usize) {
    (hits.len(), hits.iter().map(|h| h.rows.len()).sum())
}

#[allow(clippy::too_many_arguments)]
fn client(
    cat: &CatalogService,
    mix: &CatalogMix,
    replica: Option<&Replica>,
    ctx: &Ctx,
    c: u32,
    start: Instant,
    deadline: Instant,
) -> (Clients, Vec<String>) {
    let traced = replica.is_some();
    let mut rng = Rng::new(stream_seed(
        ctx.seed,
        &format!("catalog-client-{c}-{traced}"),
    ));
    let mut tracer = traced.then(|| Tracer::new(ctx.epoch, c + 1));
    let mut me = Clients::default();
    let mut shapes: HashMap<String, (usize, usize)> = HashMap::new();
    let mut bad = Vec::new();
    let mut req = u64::from(c + 1) << 32;
    let mut queue = Vec::new();
    while Instant::now() < deadline {
        if queue.is_empty() {
            queue = mix.cycle(&mut rng);
        }
        let q = queue.pop().expect("cycles are non-empty").to_string();
        req += 1;
        let (result, ms, span) = match tracer.as_mut() {
            Some(t) => {
                let id = t.open("twigserve.catalog.execute", req, 0);
                let r = cat.execute(&q);
                (r, t.close(id), id)
            }
            None => {
                let t0 = Instant::now();
                let r = cat.execute(&q);
                (r, t0.elapsed().as_secs_f64() * 1e3, 0)
            }
        };
        let done = start.elapsed().as_secs_f64();
        match result {
            Ok(hits) => {
                me.log.ok(ms, done);
                let class = if q.contains("[author='") {
                    "lookup"
                } else {
                    q.as_str()
                };
                match me.by_class.get_mut(class) {
                    Some(v) => v.push(ms),
                    None => {
                        me.by_class.insert(class.to_string(), vec![ms]);
                    }
                }
                match shapes.get(&q) {
                    Some(&s) if s != shape(&hits) => {
                        bad.push(format!("catalog {q}: response differs from an earlier one"))
                    }
                    Some(_) => {}
                    None => {
                        shapes.insert(q.clone(), shape(&hits));
                        me.first.insert(q.clone(), hits);
                    }
                }
                if let (Some(t), Some(replica)) = (tracer.as_mut(), replica) {
                    replay(t, &mut me.layers, cat, replica, &q, req, span);
                }
            }
            Err(e) => me.log.fail(serve_error_kind(&e), done),
        }
    }
    me.spans = tracer.map(|t| t.spans).unwrap_or_default();
    (me, bad)
}

/// What one catalog request does inside, replayed on this thread: the Bloom
/// routing pass (`routed_docs`), then plan + match + enumerate over each
/// routed document's own index (the Twig²Stack pipeline with pruning on).
fn replay(
    t: &mut Tracer,
    layers: &mut Layers,
    cat: &CatalogService,
    replica: &Replica,
    query: &str,
    req: u64,
    parent: u64,
) {
    let (routed, ms) = t.span("twigserve.catalog.routed_docs", req, parent, || {
        cat.routed_docs(query)
    });
    layers.add("twigserve.catalog.route_us", "us", ms * 1e3);
    let (gtp, ms) = t.span("gtpquery.parse_twig", req, parent, || parse_twig(query));
    layers.add("gtpquery.parse_us", "us", ms * 1e3);
    let (Ok(routed), Ok(gtp)) = (routed, gtp) else {
        return;
    };
    let eval = t.open("twigserve.catalog.doc_eval", req, parent);
    let mut hit_docs = 0usize;
    for &id in &routed {
        let (doc, index) = &replica[id as usize];
        let t0 = Instant::now();
        let plan = IndexedPlan::compute(&gtp, index, doc.labels(), PruningPolicy::Enabled);
        let t1 = Instant::now();
        let matched = try_match_indexed(
            doc,
            index,
            &gtp,
            MatchOptions::default(),
            &plan,
            None,
            &CancelToken::never(),
        );
        let t2 = Instant::now();
        let Ok((tm, stats)) = matched else { continue };
        let rows = enumerate(&tm).len();
        let t3 = Instant::now();
        hit_docs += usize::from(rows > 0);
        layers.add("twig2stack.plan_us", "us", (t1 - t0).as_secs_f64() * 1e6);
        layers.add("twig2stack.match_ms", "ms", (t2 - t1).as_secs_f64() * 1e3);
        layers.add(
            "twig2stack.enumerate_ms",
            "ms",
            (t3 - t2).as_secs_f64() * 1e3,
        );
        add_match_stats(layers, &stats, rows);
    }
    let ms = t.close(eval);
    layers.add("twigserve.catalog.doc_eval_ms", "ms", ms);
    layers.add("catalog.hit_docs", "count", hit_docs as f64);
    layers.add("catalog.routed", "count", routed.len() as f64);
}

/// Correctness gate: every distinct query's hits equal `execute_serial`.
fn gate(cat: &CatalogService, first: &HashMap<String, Vec<DocHit>>, out: &mut Outcome) {
    let mut queries: Vec<&String> = first.keys().collect();
    queries.sort();
    for q in queries {
        match cat.execute_serial(q) {
            Ok(serial) if serial == first[q] => {}
            Ok(_) => out.mismatch(format!("catalog {q}: hits differ from execute_serial")),
            Err(e) => out.mismatch(format!("catalog {q}: execute_serial failed: {e}")),
        }
    }
    out.note("distinct_queries_checked", first.len());
}
