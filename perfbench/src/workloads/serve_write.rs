//! `serve-write`: one writer and one reader on a `SubscriptionService` that
//! wraps a heap-built `QueryService` over a DBLP document 1/8 the Full
//! size, with 32 standing subscriptions. The writer sends a seeded record
//! churn (appends, deletes, replaces) that keeps the document's size
//! steady; the reader sends the `serve-read` mix.

use super::serve_read::{add_self_times, warm_up};
use super::{
    hash_rows, push_ratio, serve_error_kind, timed_boot, Ctx, Outcome, Overhead, ReadClient,
};
use crate::inputs::{self, record_xml, stream_seed, ReadMix, Rng};
use crate::report::{Layers, Metric, OpLog};
use crate::trace::{Span, Tracer};
use gtpquery::{parse_twig, Gtp};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twig2stack::{evaluate, run_subscriptions_doc, MatchOptions, SharedAutomaton};
use twigserve::{QueryService, ServeIndex, ServiceConfig, SubscriptionId, SubscriptionService};
use xmldom::{apply_op, EditOp, NodeId};
use xmlindex::ElementIndex;

const SUBSCRIPTIONS: usize = 32;

struct Booted {
    subs: SubscriptionService,
    ids: Vec<SubscriptionId>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let gen = inputs::dblp(ctx.size, stream_seed(ctx.seed, "dblp-small"), 1);
    out.note(
        "doc.DBLP",
        format!("{} elements, {} bytes", gen.doc.len(), gen.xml.len()),
    );
    let queries = inputs::subscriptions(ctx.seed, SUBSCRIPTIONS);
    let gtps: Vec<Gtp> = queries
        .iter()
        .map(|q| parse_twig(q).expect("benchmark queries parse"))
        .collect();

    let mix = ReadMix::new(ctx.seed);
    let auto = SharedAutomaton::build(gtps.clone());
    let mut boot_tracer = Tracer::new(ctx.epoch, 9);
    let mut layers = Layers::default();
    let mut boots = Vec::new();
    let mut booted = None;
    let since = Instant::now();
    let mut b = 0u64;
    while ctx.another_boot(b as usize, since) {
        b += 1;
        drop(booted.take());
        booted = timed_boot(&mut boots, &mut out, || {
            let t = ctx.trace.then_some(&mut boot_tracer);
            boot(t, &mut layers, &gen.xml, &queries, b)
        });
    }
    let Some(Booted { subs, ids }) = booted else {
        return out;
    };
    let svc = Arc::clone(subs.service());
    warm_up(&svc);
    let untraced = phase(&subs, &mix, &auto, ctx, ctx.untraced_s(), false);
    let mut seen = untraced.seen.clone();
    let (mut hits, mut misses, mut edits, mut invalidated) = (0, 0, 0, 0);
    let mut traced = Phase::default();
    if ctx.trace {
        let before = svc.stats();
        traced = phase(&subs, &mix, &auto, ctx, ctx.seconds, true);
        seen.extend(traced.seen.iter().cloned());
        let after = svc.stats();
        hits = after.plan_cache_hits - before.plan_cache_hits;
        misses = after.plan_cache_misses - before.plan_cache_misses;
        edits = after.edits_applied - before.edits_applied;
        invalidated = after.plan_cache_invalidations - before.plan_cache_invalidations;
    }
    gate(&subs, &ids, &gtps, &seen, &mut out);
    if !ctx.trace {
        out.metrics.push(Metric::median("setup_s", "s", &boots));
        // The op is the edit; tail: p90, with about 200 edits or more in a 30 s
        // run. The reader's figures are the record's own.
        super::op_metrics(super::OP_METRICS, &untraced.edits, 90.0, &mut out);
        super::op_metrics(
            ["read_qps", "read_p50_ms", "read_p99_ms"],
            &untraced.reads,
            99.0,
            &mut out,
        );
        out.note("notifications", untraced.notifications);
        out.ops.insert("read", untraced.reads);
        out.ops.insert("edit", untraced.edits);
        return out;
    }
    layers.merge(std::mem::take(&mut traced.layers));
    push_ratio(&mut layers);
    layers.set(
        "twigserve.plan_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    layers.set(
        "twigserve.invalidations_per_edit",
        "count",
        invalidated as f64 / edits.max(1) as f64,
        edits as usize,
    );
    let mut spans = boot_tracer.spans;
    spans.append(&mut traced.spans);
    add_self_times(
        &mut layers,
        &spans,
        "twigserve.execute",
        "twigserve.self_ms",
    );
    add_self_times(
        &mut layers,
        &spans,
        "twigserve.apply_edit",
        "twigserve.edit_self_ms",
    );
    out.overhead = vec![
        Overhead::new("apply_edit", &untraced.edits, &traced.edits),
        Overhead::new("execute", &untraced.reads, &traced.reads),
    ];
    out.metrics = layers.metrics();
    out.spans = spans;
    out.ops.insert("read", traced.reads);
    out.ops.insert("edit", traced.edits);
    out
}

/// XML text to the first servable request: parse, index build, service
/// construction, and the standing subscriptions' registration.
fn boot(
    mut t: Option<&mut Tracer>,
    layers: &mut Layers,
    xml: &str,
    queries: &[String],
    b: u64,
) -> Result<Booted, String> {
    let root = t.as_deref_mut().map_or(0, |t| t.open("boot", b, 0));
    let mut timed =
        |name: &'static str, metric: &'static str, f: &mut dyn FnMut()| match t.as_deref_mut() {
            Some(t) => {
                let ((), ms) = t.span(name, b, root, f);
                layers.add(metric, "ms", ms);
            }
            None => f(),
        };
    let mut doc = None;
    timed("xmldom.parse", "xmldom.parse_ms", &mut || {
        doc = Some(xmldom::parse(xml));
    });
    let doc = doc.expect("ran").map_err(|e| format!("ParseError: {e}"))?;
    let mut index = None;
    timed("xmlindex.build", "xmlindex.boot_ms", &mut || {
        index = Some(ElementIndex::build(&doc));
    });
    let svc = Arc::new(QueryService::new(
        doc,
        index.expect("ran"),
        ServiceConfig::default(),
    ));
    let subs = SubscriptionService::new(svc);
    let mut ids = Vec::with_capacity(queries.len());
    for q in queries {
        let mut id = None;
        timed("twigserve.register", "twigserve.register_ms", &mut || {
            id = Some(subs.register(q));
        });
        ids.push(
            id.expect("ran")
                .map_err(|e| format!("{}: {e}", serve_error_kind(&e)))?,
        );
    }
    if let Some(t) = t {
        t.close(root);
    }
    Ok(Booted { subs, ids })
}

#[derive(Default)]
struct Phase {
    reads: OpLog,
    edits: OpLog,
    layers: Layers,
    spans: Vec<Span>,
    seen: BTreeSet<String>,
    notifications: u64,
}

/// The writer and the reader, side by side, for `seconds`.
fn phase(
    subs: &SubscriptionService,
    mix: &ReadMix,
    auto: &SharedAutomaton,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let svc = subs.service();
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let seed = stream_seed(ctx.seed, &format!("reader-{traced}"));
            let tracer = traced.then(|| Tracer::new(ctx.epoch, 1));
            let mut client = ReadClient::new(svc, seed, 1, tracer, false);
            let mut seen = BTreeSet::new();
            let mut bad = Vec::new();
            let mut queue = Vec::new();
            while Instant::now() < deadline {
                if queue.is_empty() {
                    queue = mix.cycle(&mut client.rng);
                }
                let q = queue.pop().expect("cycles are non-empty");
                client.request(q, start, &mut bad);
                seen.insert(q.to_string());
            }
            (client, seen)
        });
        let writer = s.spawn(move || writer(subs, auto, ctx, start, deadline, traced));
        let (client, seen) = reader.join().expect("reader thread panicked");
        let (edits, layers, spans, notifications) = writer.join().expect("writer thread panicked");
        let mut all_layers = client.layers;
        all_layers.merge(layers);
        let mut all_spans = client.tracer.map(|t| t.spans).unwrap_or_default();
        all_spans.extend(spans);
        Phase {
            reads: client.log,
            edits,
            layers: all_layers,
            spans: all_spans,
            seen,
            notifications,
        }
    })
}

/// The record churn: append, delete and replace in turn (seeded targets
/// and records), forced toward the initial record count whenever the
/// document drifts more than 16 records from it. Traced, each `apply_edit` is followed by replays of
/// `apply_op` on the pre-edit document, `ElementIndex::apply_edit` on the
/// pre-edit index, and the subscription pass over the post-edit document.
fn writer(
    subs: &SubscriptionService,
    auto: &SharedAutomaton,
    ctx: &Ctx,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> (OpLog, Layers, Vec<Span>, u64) {
    let svc = subs.service();
    let mut rng = Rng::new(stream_seed(ctx.seed, &format!("edit-script-{traced}")));
    let mut tracer = traced.then(|| Tracer::new(ctx.epoch, 2));
    let mut log = OpLog::default();
    let mut layers = Layers::default();
    let target = svc
        .snapshot()
        .doc()
        .children(svc.snapshot().doc().root())
        .count();
    let mut key = 1_000_000 + if traced { 500_000 } else { 0 };
    let mut notifications = 0u64;
    let mut req = 2u64 << 32;
    while Instant::now() < deadline {
        let pre = svc.snapshot();
        let root = pre.doc().root();
        let records: Vec<NodeId> = pre.doc().children(root).collect();
        let n = records.len();
        let kind = if n > target + 16 {
            1
        } else if n + 16 < target || n == 0 {
            0
        } else {
            key % 3
        };
        key += 1;
        let op = match kind {
            0 => xmldom::parse(&record_xml(&mut rng, key)).map(|subtree| EditOp::InsertSubtree {
                parent: Some(root),
                position: n,
                subtree,
            }),
            1 => Ok(EditOp::DeleteSubtree {
                target: records[rng.below(n)],
            }),
            _ => {
                let target = records[rng.below(n)];
                xmldom::parse(&record_xml(&mut rng, key))
                    .map(|subtree| EditOp::ReplaceSubtree { target, subtree })
            }
        };
        // A record the parser rejects is a failed edit, not a harness panic.
        let Ok(op) = op else {
            log.fail("xmldom::ParseError", start.elapsed().as_secs_f64());
            continue;
        };
        req += 1;
        let (result, ms, span) = match tracer.as_mut() {
            Some(t) => {
                let id = t.open("twigserve.apply_edit", req, 0);
                let r = subs.apply_edit(&op);
                (r, t.close(id), id)
            }
            None => {
                let t0 = Instant::now();
                let r = subs.apply_edit(&op);
                (r, t0.elapsed().as_secs_f64() * 1e3, 0)
            }
        };
        let done = start.elapsed().as_secs_f64();
        match result {
            Ok((receipt, notes)) => {
                log.ok(ms, done);
                notifications += notes.len() as u64;
                if let Some(t) = tracer.as_mut() {
                    let renumbered = f64::from(u8::from(receipt.delta.renumbered));
                    layers.add("xmldom.renumber_ratio", "ratio", renumbered);
                    let patched = f64::from(u8::from(!receipt.rebuilt));
                    layers.add("xmlindex.patched_ratio", "ratio", patched);
                    replay_edit(t, &mut layers, &pre, &op, auto, req, span);
                }
            }
            Err(e) => log.fail(serve_error_kind(&e), done),
        }
    }
    let spans = tracer.map(|t| t.spans).unwrap_or_default();
    (log, layers, spans, notifications)
}

fn replay_edit(
    t: &mut Tracer,
    layers: &mut Layers,
    pre: &twigserve::Snapshot,
    op: &EditOp,
    auto: &SharedAutomaton,
    req: u64,
    parent: u64,
) {
    let (applied, ms) = t.span("xmldom.apply_op", req, parent, || apply_op(pre.doc(), op));
    layers.add("xmldom.apply_op_ms", "ms", ms);
    let Ok((post, delta)) = applied else { return };
    if let ServeIndex::Heap(index) = pre.index() {
        let (_, ms) = t.span("xmlindex.apply_edit", req, parent, || {
            index.apply_edit(&post, &delta)
        });
        layers.add("xmlindex.apply_edit_ms", "ms", ms);
    }
    let ((_, stats), ms) = t.span("twig2stack.run_subscriptions_doc", req, parent, || {
        run_subscriptions_doc(&post, auto, MatchOptions::default())
    });
    layers.add("twig2stack.subscribe_ms", "ms", ms);
    layers.add(
        "twig2stack.feed_ratio",
        "ratio",
        stats.matcher_feeds as f64 / (stats.elements as f64 * SUBSCRIPTIONS as f64).max(1.0),
    );
}

/// Correctness gate on the final snapshot: every query the reader sent and
/// every subscription's `matches()` equal `twig2stack::evaluate` on the
/// final document.
fn gate(
    subs: &SubscriptionService,
    ids: &[SubscriptionId],
    gtps: &[Gtp],
    seen: &BTreeSet<String>,
    out: &mut Outcome,
) {
    let snap = subs.service().snapshot();
    for q in seen {
        let gtp = parse_twig(q).expect("benchmark queries parse");
        let expected = hash_rows(&evaluate(snap.doc(), &gtp));
        match subs.service().execute(q) {
            Ok(rs) if hash_rows(&rs) == expected => {}
            Ok(_) => out.mismatch(format!("final snapshot {q}: rows differ from evaluate")),
            Err(e) => out.mismatch(format!("final snapshot {q}: {e}")),
        }
    }
    for (id, gtp) in ids.iter().zip(gtps) {
        let expected = hash_rows(&evaluate(snap.doc(), gtp));
        match subs.matches(*id) {
            Some(rs) if hash_rows(&rs) == expected => {}
            _ => out.mismatch(format!(
                "subscription {}: matches() differ from evaluate",
                id.index()
            )),
        }
    }
    out.note("distinct_queries_checked", seen.len());
}
