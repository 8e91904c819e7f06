//! `bytes-to-rows`: one thread answers the Figure 15 queries and the
//! Figure 18/19 GTP variants straight from query text and XML text, as
//! `twigql` does, on two paths: the DOM path (`parse_twig`, then
//! `xmldom::parse` → `match_document` → `enumerate`) and the streaming path
//! (`parse_twig`, then `evaluate_streaming`, `twigql --stream`). The op is
//! one query on one path. No index and no service is involved.

use super::{add_match_stats, hash_rows, note_query_p50s, push_ratio, Ctx, Outcome, Overhead};
use crate::inputs::{self, stream_seed, GenDoc, Rng};
use crate::report::{ms_since, Layers, Metric, OpLog};
use crate::trace::Tracer;
use gtpquery::parse_twig;
use std::collections::HashMap;
use std::time::Instant;
use twig2stack::{enumerate, evaluate, evaluate_streaming, match_document, MatchOptions};
use xmldom::EventParser;

struct Op {
    query: &'static str,
    doc: usize,
    oracle: u64,
}

/// Timings of one phase: per-op logs and per-round throughputs (input
/// bytes over the round's time on each path).
#[derive(Default)]
struct Phase {
    dom: OpLog,
    stream: OpLog,
    dom_mb_s: Vec<f64>,
    stream_mb_s: Vec<f64>,
    /// Each round's total time on each path: the per-op latencies mix
    /// 1 MB and 7.7 MB inputs, so rounds are what traced and untraced
    /// phases compare for the tracing overhead.
    dom_round_ms: Vec<f64>,
    stream_round_ms: Vec<f64>,
    /// DOM-path latency by query.
    by_query: HashMap<String, Vec<f64>>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let docs: Vec<GenDoc> = vec![
        inputs::dblp(ctx.size, stream_seed(ctx.seed, "dblp"), 8),
        inputs::xmark(ctx.size, stream_seed(ctx.seed, "xmark")),
        inputs::treebank(ctx.size, stream_seed(ctx.seed, "treebank")),
    ];
    let by_doc: [(usize, Vec<&'static str>); 3] = [
        (
            0,
            [&inputs::DBLP_FIG15[..], &inputs::DBLP_FIG18[..]].concat(),
        ),
        (
            1,
            [&inputs::XMARK_FIG15[..], &inputs::XMARK_FIG19[..]].concat(),
        ),
        (2, inputs::TREEBANK_FIG15.to_vec()),
    ];
    let mut ops = Vec::new();
    for (doc, queries) in by_doc {
        for query in queries {
            let gtp = parse_twig(query).expect("benchmark queries parse");
            let oracle = hash_rows(&evaluate(&docs[doc].doc, &gtp));
            ops.push(Op { query, doc, oracle });
        }
    }
    for d in &docs {
        out.note(
            &format!("doc.{}", d.name),
            format!("{} elements, {} bytes", d.doc.len(), d.xml.len()),
        );
    }

    // Set-up: XML text in memory to queryable DOMs for all three inputs.
    let mut boots = Vec::new();
    let since = Instant::now();
    let mut done = 0;
    while ctx.another_boot(done, since) {
        done += 1;
        super::timed_boot(&mut boots, &mut out, || {
            for d in &docs {
                xmldom::parse(&d.xml).map_err(|e| format!("ParseError: {e}"))?;
            }
            Ok(())
        });
    }

    let mut layers = Layers::default();
    let untraced = phase(
        &docs,
        &ops,
        ctx,
        ctx.untraced_s(),
        0,
        None,
        &mut out,
        &mut layers,
    );
    let all: Vec<String> = ops.iter().map(|op| op.query.to_string()).collect();
    note_query_p50s(&mut out, "dom_op_p50_ms", &all, &untraced.by_query);
    if !ctx.trace {
        out.metrics.push(Metric::median("setup_s", "s", &boots));
        // The op is one query on either path; tail: p90, with about 200
        // ops or more in a 30 s run.
        let mut both = untraced.dom.clone();
        both.merge(untraced.stream.clone());
        super::op_metrics(super::OP_METRICS, &both, 90.0, &mut out);
        out.metrics
            .push(Metric::median("xml_mb_s", "MB/s", &untraced.dom_mb_s));
        out.metrics
            .push(Metric::median("stream_mb_s", "MB/s", &untraced.stream_mb_s));
        out.ops.insert("dom_op", untraced.dom);
        out.ops.insert("stream_op", untraced.stream);
        return out;
    }
    let mut tracer = Tracer::new(ctx.epoch, 0);
    let traced = phase(
        &docs,
        &ops,
        ctx,
        ctx.seconds,
        1,
        Some(&mut tracer),
        &mut out,
        &mut layers,
    );
    // `match_document` + `enumerate` per DOM-path op, by query: what a
    // served request of the same query is compared against.
    let mut matched: HashMap<String, Vec<f64>> = HashMap::new();
    for span in tracer.spans.iter().filter(|s| s.name == "twigql.dom") {
        let query = ops[(span.req % ops.len() as u64) as usize].query;
        let ms: f64 = tracer
            .spans
            .iter()
            .filter(|c| {
                c.parent == span.id
                    && matches!(c.name, "twig2stack.match_document" | "twig2stack.enumerate")
            })
            .map(|c| c.ms())
            .sum();
        matched.entry(query.to_string()).or_default().push(ms);
    }
    push_ratio(&mut layers);
    out.overhead = vec![
        Overhead::of("dom_round", &untraced.dom_round_ms, &traced.dom_round_ms),
        Overhead::of(
            "stream_round",
            &untraced.stream_round_ms,
            &traced.stream_round_ms,
        ),
    ];
    let dblp: Vec<String> = ops
        .iter()
        .filter(|op| op.doc == 0)
        .map(|op| op.query.to_string())
        .collect();
    note_query_p50s(&mut out, "dom_match_enumerate_ms", &dblp, &matched);
    out.metrics = layers.metrics();
    out.spans = tracer.spans;
    out.ops.insert("dom_op", traced.dom);
    out.ops.insert("stream_op", traced.stream);
    out
}

/// Whole rounds over every op in a seeded order until `seconds` pass (a
/// started round is finished, so every round weighs each op once).
#[allow(clippy::too_many_arguments)]
fn phase(
    docs: &[GenDoc],
    ops: &[Op],
    ctx: &Ctx,
    seconds: f64,
    stream_id: u64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Phase {
    let mut rng = Rng::new(stream_seed(ctx.seed, &format!("b2r-order-{stream_id}")));
    let mut p = Phase::default();
    let start = Instant::now();
    let mut order: Vec<usize> = (0..ops.len()).collect();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let (mut db, mut dm, mut sb, mut sm) = (0.0, 0.0, 0.0, 0.0);
        for &i in &order {
            let op = &ops[i];
            let xml = docs[op.doc].xml.as_str();
            let bytes = xml.len() as f64;
            // Request ids name the op: round × ops + op index.
            let req = round * ops.len() as u64 + i as u64;
            // DOM path.
            let t0 = Instant::now();
            let dom = match tracer.as_deref_mut() {
                Some(t) => dom_traced(t, xml, op.query, req, layers),
                None => parse_twig(op.query)
                    .map_err(|_| "gtpquery::ParseError")
                    .and_then(|gtp| {
                        let doc = xmldom::parse(xml).map_err(|_| "xmldom::ParseError")?;
                        let (tm, _) = match_document(&doc, &gtp, MatchOptions::default());
                        Ok(enumerate(&tm))
                    }),
            };
            let ms = ms_since(t0);
            let done = start.elapsed().as_secs_f64();
            match dom {
                Ok(rs) => {
                    p.dom.ok(ms, done);
                    p.by_query.entry(op.query.to_string()).or_default().push(ms);
                    db += bytes;
                    dm += ms;
                    if hash_rows(&rs) != op.oracle {
                        out.mismatch(format!("DOM path {}: rows differ from evaluate", op.query));
                    }
                }
                Err(kind) => p.dom.fail(kind, done),
            }
            // Streaming path.
            let (streamed, ms) = match tracer.as_deref_mut() {
                Some(t) => stream_traced(t, xml, op.query, req, layers),
                None => {
                    let t0 = Instant::now();
                    let r = parse_twig(op.query)
                        .map_err(|_| "gtpquery::ParseError")
                        .and_then(|gtp| {
                            evaluate_streaming(xml, &gtp, MatchOptions::default())
                                .map(|(rs, _)| rs)
                                .map_err(|_| "xmldom::ParseError")
                        });
                    (r, ms_since(t0))
                }
            };
            let done = start.elapsed().as_secs_f64();
            match streamed {
                Ok(rs) => {
                    p.stream.ok(ms, done);
                    sb += bytes;
                    sm += ms;
                    if hash_rows(&rs) != op.oracle {
                        out.mismatch(format!(
                            "streaming path {}: rows differ from evaluate",
                            op.query
                        ));
                    }
                }
                Err(kind) => p.stream.fail(kind, done),
            }
        }
        p.dom_mb_s.push(db / 1e6 / (dm / 1e3));
        p.stream_mb_s.push(sb / 1e6 / (sm / 1e3));
        p.dom_round_ms.push(dm);
        p.stream_round_ms.push(sm);
        round += 1;
    }
    p
}

/// The DOM path with a span around each of its four public calls.
fn dom_traced(
    t: &mut Tracer,
    xml: &str,
    query: &str,
    req: u64,
    layers: &mut Layers,
) -> Result<gtpquery::ResultSet, &'static str> {
    let op = t.open("twigql.dom", req, 0);
    let result = dom_calls(t, xml, query, req, op, layers);
    t.close(op);
    result
}

fn dom_calls(
    t: &mut Tracer,
    xml: &str,
    query: &str,
    req: u64,
    op: u64,
    layers: &mut Layers,
) -> Result<gtpquery::ResultSet, &'static str> {
    let (gtp, ms) = t.span("gtpquery.parse_twig", req, op, || parse_twig(query));
    layers.add("gtpquery.parse_us", "us", ms * 1e3);
    let gtp = gtp.map_err(|_| "gtpquery::ParseError")?;
    let (doc, ms) = t.span("xmldom.parse", req, op, || xmldom::parse(xml));
    layers.add("xmldom.parse_ms", "ms", ms);
    let doc = doc.map_err(|_| "xmldom::ParseError")?;
    let ((tm, stats), ms) = t.span("twig2stack.match_document", req, op, || {
        match_document(&doc, &gtp, MatchOptions::default())
    });
    layers.add("twig2stack.match_ms", "ms", ms);
    let (rs, ms) = t.span("twig2stack.enumerate", req, op, || enumerate(&tm));
    layers.add("twig2stack.enumerate_ms", "ms", ms);
    add_match_stats(layers, &stats, rs.len());
    Ok(rs)
}

/// The streaming path: `parse_twig` and `evaluate_streaming` as the op's
/// children; then, as the child of `evaluate_streaming`, one replayed
/// drain of `EventParser` over the same input (the tokenizer's share).
/// Returns the result and the op's own duration.
fn stream_traced(
    t: &mut Tracer,
    xml: &str,
    query: &str,
    req: u64,
    layers: &mut Layers,
) -> (Result<gtpquery::ResultSet, &'static str>, f64) {
    let op = t.open("twigql.stream", req, 0);
    let (gtp, ms) = t.span("gtpquery.parse_twig", req, op, || parse_twig(query));
    layers.add("gtpquery.parse_us", "us", ms * 1e3);
    let Ok(gtp) = gtp else {
        return (Err("gtpquery::ParseError"), t.close(op));
    };
    let call = t.open("twig2stack.evaluate_streaming", req, op);
    let result = evaluate_streaming(xml, &gtp, MatchOptions::default());
    layers.add("twig2stack.streaming_ms", "ms", t.close(call));
    let op_ms = t.close(op);
    let (_, ms) = t.span("xmldom.events", req, call, || {
        let mut events = EventParser::new(xml);
        let mut n = 0u64;
        while let Ok(Some(_)) = events.next_event() {
            n += 1;
        }
        std::hint::black_box(n)
    });
    layers.add("xmldom.events_ms", "ms", ms);
    let result = result.map(|(rs, _)| rs).map_err(|_| "xmldom::ParseError");
    (result, op_ms)
}
