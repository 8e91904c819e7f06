//! Index-backed, path-summary-pruned Twig²Stack evaluation.
//!
//! [`evaluate_indexed`] drives the [`Matcher`] from an [`xmlindex::ElementIndex`]
//! instead of a DOM walk. The planner side lives in
//! [`gtpquery::SummaryFeasibility`]: the GTP is evaluated over the
//! document's path summary (strong DataGuide), yielding per query node the
//! set of summary ids any match projection can use. From that
//! [`IndexedPlan::compute`] builds, per distinct query label, the filter of
//! an [`xmlindex::PrunedStream`] that
//!
//! * drops elements whose summary id is infeasible for **every** query
//!   node dispatched to the label, and
//! * gallops (skip-scan) past document regions that no candidate root
//!   element spans, using the feasibility root cover.
//!
//! A pruned plan also probes the query's required `='…'` predicates
//! ([`Gtp::required_equalities`]): at match time the one with the fewest
//! hits in the document's text postings ([`Document::elements_with_text`])
//! narrows the cover to the regions of its hits' root-label
//! ancestors-or-self, so a lookup reads only the records that hold the
//! value.
//!
//! The plan is an owned, document-lifetime-free value, so callers that
//! evaluate the same query repeatedly (the `twigserve` plan cache) compute
//! it once and reuse it across requests.
//!
//! The streams are merged by `LeftPos` and the post-order close sequence
//! Figure 7 needs is reconstructed with one pending stack: an element is
//! closed as soon as a later element starts past its `RightPos`.
//!
//! Fallibility and cancellation: [`try_match_indexed`] (and the generic
//! [`try_match_streams`], which accepts disk-backed streams) return a
//! [`QueryError`] instead of a result when a stream fails mid-scan
//! ([`ElemStream::take_error`] is checked after the merge, so a truncated
//! index file can never pass as a short-but-plausible result) or when the
//! caller's [`CancelToken`] fires — the token is polled at stream-advance
//! granularity (every merge step checks the cancellation flag; the
//! deadline clock is consulted every 64 steps to keep `Instant::now` off
//! the per-element path).
//!
//! Soundness: the feasible sets over-approximate the summary ids of every
//! element that participates in or witnesses a result, so pruning removes
//! only provably-irrelevant elements and the outcome is byte-identical to
//! the unpruned evaluation (enforced by the `pruned_vs_unpruned` fuzz
//! invariant). The probe's cover is sound too: every match binds each
//! required node to an element whose text equals the value, and binds the
//! root to an ancestor-or-self of that element, so every element of the
//! match lies inside the region of some root-label ancestor-or-self of a
//! hit. A query node whose feasible set is empty can never be
//! satisfied; if it is mandatory the whole query is unsatisfiable and
//! evaluation short-circuits **without reading a single stream element**.
//! The same over-approximation argument makes the shared-scan batch driver
//! ([`try_match_indexed_group`]) sound: each matcher receives the union of
//! the group's feasible sets — a superset of its own — and supersets never
//! change a matcher's output (the unpruned stream is the largest superset
//! of all).

use crate::context::EvalContext;
use crate::enumerate::enumerate;
use crate::matcher::{MatchOptions, MatchStats, Matcher, TwigMatch};
use gtpquery::{CancelToken, Gtp, LabelDispatch, QNodeId, QueryError, ResultSet, SummaryFeasibility};
use xmldom::{Document, Label, LabelTable, NodeId, Region};
use xmlindex::{
    filter_worthwhile, ElemStream, IndexView, PruningPolicy, RegionCover, SummarySet,
};

/// A reusable, document-lifetime-free evaluation plan for one (query,
/// index) pair: per-label summary filters plus the candidate-root region
/// cover. Computing one runs the summary feasibility analysis — the cost
/// the `twigserve` plan cache amortizes across repeated queries.
#[derive(Debug, Clone)]
pub struct IndexedPlan {
    unsatisfiable: bool,
    streams: Vec<(Label, Option<SummarySet>)>,
    cover: Option<RegionCover>,
    /// Whether matching probes the text postings of the query's required
    /// `='…'` predicates (pruned, satisfiable plans only).
    probe: bool,
}

impl IndexedPlan {
    /// Analyze `gtp` against `index`'s path summary and build the stream
    /// plan. With [`PruningPolicy::Disabled`] the plan still lists the
    /// labels to scan but carries no filters, cover or value probe (the
    /// A/B baseline).
    pub fn compute<I: IndexView>(
        gtp: &Gtp,
        index: &I,
        labels: &LabelTable,
        policy: PruningPolicy,
    ) -> Self {
        let summary = index.summary();
        let dispatch = LabelDispatch::compile(gtp, labels);
        let feas = policy
            .is_enabled()
            .then(|| SummaryFeasibility::compute(gtp, summary, labels));
        let unsatisfiable = feas.as_ref().is_some_and(SummaryFeasibility::is_unsatisfiable);
        let cover = (!unsatisfiable)
            .then(|| feas.as_ref().map(|f| f.root_cover(gtp, summary)))
            .flatten();
        // One stream per label some query node dispatches to, restricted
        // to the union of the dispatched nodes' feasible summary ids.
        let streams = (0..labels.len())
            .map(Label::from_index)
            .filter(|&l| !dispatch.query_nodes(l).is_empty())
            .map(|l| {
                let filter = feas
                    .as_ref()
                    .map(|f| {
                        let mut set = SummarySet::empty(summary.len());
                        for &q in dispatch.query_nodes(l) {
                            set.union(f.feasible(q));
                        }
                        set
                    })
                    // A filter that admits (nearly) every posting of the
                    // label prunes nothing yet taxes every element with a
                    // sid lookup — drop it (widening a filter is always
                    // sound: supersets never change a matcher's output).
                    .filter(|set| {
                        filter_worthwhile(
                            set.element_count(summary),
                            index.count(l) as u64,
                        )
                    });
                (l, filter)
            })
            .collect();
        let probe = cover.is_some() && !gtp.required_equalities().is_empty();
        IndexedPlan { unsatisfiable, streams, cover, probe }
    }

    /// True iff some mandatory query node has no feasible root-to-node
    /// path anywhere in the document: the result is empty and evaluation
    /// short-circuits without reading a stream element.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    /// The labels this plan scans, with each label's summary filter
    /// (`None` = full label stream).
    pub fn stream_plan(&self) -> &[(Label, Option<SummarySet>)] {
        &self.streams
    }

    /// The labels this plan scans, in index order (the batch-grouping
    /// key: queries with equal label sets can share one merged scan).
    pub fn labels(&self) -> Vec<Label> {
        self.streams.iter().map(|&(l, _)| l).collect()
    }
}

/// Match `gtp` against `doc` by merging the index's label streams, pruned
/// according to `policy`. Equivalent to
/// [`match_document`](crate::match_document) (same stacks, same result
/// edges), but reads only summary-feasible elements inside candidate root
/// regions when pruning is enabled.
pub fn match_indexed<'g, I: IndexView>(
    doc: &'g Document,
    index: &I,
    gtp: &'g Gtp,
    options: MatchOptions,
    policy: PruningPolicy,
) -> (TwigMatch<'g>, MatchStats) {
    let plan = IndexedPlan::compute(gtp, index, doc.labels(), policy);
    try_match_indexed(doc, index, gtp, options, &plan, None, &CancelToken::never())
        .expect("in-memory streams cannot fail and the never-token cannot fire")
}

/// Fallible, cancellable [`match_indexed`] over a precomputed
/// [`IndexedPlan`], optionally drawing matcher arenas from a pooled
/// [`EvalContext`] (pass `Some` and [`EvalContext::recycle`] the returned
/// encoding to stop touching the allocator in steady state).
pub fn try_match_indexed<'g, I: IndexView>(
    doc: &'g Document,
    index: &I,
    gtp: &'g Gtp,
    options: MatchOptions,
    plan: &IndexedPlan,
    ctx: Option<&mut EvalContext>,
    cancel: &CancelToken,
) -> Result<(TwigMatch<'g>, MatchStats), QueryError> {
    let _span = twigobs::span(twigobs::Phase::Match);
    let mut fresh = EvalContext::new();
    let ctx = ctx.unwrap_or(&mut fresh);
    let matcher =
        Matcher::new_in(gtp, doc.labels(), options, &mut *ctx).with_text_source(doc);
    if plan.unsatisfiable {
        return Ok(matcher.finish_into(&mut *ctx));
    }
    let probed = match &plan.cover {
        Some(summary_cover) if plan.probe => {
            let cover = probe_cover(doc, gtp).intersect(summary_cover);
            if cover.is_empty() {
                // No candidate root holds the probed value: nothing can
                // match, and no posting is read.
                return Ok(matcher.finish_into(&mut *ctx));
            }
            Some(cover)
        }
        _ => None,
    };
    let cover = probed.as_ref().or(plan.cover.as_ref());
    let streams: Vec<_> = plan
        .streams
        .iter()
        .map(|(l, filter)| index.pruned_stream(*l, filter.as_ref(), cover))
        .collect();
    let mut matchers = [matcher];
    try_drive(&mut matchers, plan.labels(), streams, cancel)?;
    let [matcher] = matchers;
    Ok(matcher.finish_into(&mut *ctx))
}

/// The value probe: the regions of the topmost root-label ancestor-or-self
/// of each element that the most selective required `='…'` node of `gtp`
/// accepts. Every match lies inside one of them.
fn probe_cover(doc: &Document, gtp: &Gtp) -> RegionCover {
    let accepts = |q: QNodeId, n: NodeId| gtp.test(q).matches(doc.tag_name(n));
    let hits = gtp
        .required_equalities()
        .into_iter()
        .map(|(q, value)| {
            let mut hits = doc.elements_with_text(value);
            hits.retain(|&n| accepts(q, n));
            hits
        })
        .min_by_key(Vec::len)
        .unwrap_or_default();
    let root = gtp.root();
    let is_root = |n: NodeId| accepts(root, n) && (!gtp.is_rooted() || doc.region(n).level == 1);
    let mut spans: Vec<(u32, u32)> = Vec::new();
    for h in hits {
        // Hits come in document order, so a hit inside the last span has
        // that span's root as its topmost root ancestor too.
        if spans.last().is_some_and(|&(_, right)| doc.region(h).left < right) {
            continue;
        }
        let mut top = None;
        let mut cur = Some(h);
        while let Some(n) = cur {
            if is_root(n) {
                top = Some(n);
            }
            cur = doc.parent(n);
        }
        if let Some(t) = top {
            let r = doc.region(t);
            spans.push((r.left, r.right));
        }
    }
    RegionCover::from_spans(spans)
}

/// Drive the matcher from caller-supplied per-label streams — the entry
/// point for disk-backed evaluation ([`xmlindex::DiskRegionStream`]). A
/// stream that fails mid-scan surfaces as [`QueryError::Stream`] instead
/// of a silently truncated result; the `cancel` token is polled at
/// stream-advance granularity.
pub fn try_match_streams<'g, S: ElemStream>(
    doc: &'g Document,
    gtp: &'g Gtp,
    streams: Vec<(Label, S)>,
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<(ResultSet, MatchStats), QueryError> {
    let matcher = Matcher::new(gtp, doc.labels(), options).with_text_source(doc);
    let (labels, streams): (Vec<Label>, Vec<S>) = streams.into_iter().unzip();
    let mut matchers = [matcher];
    {
        let _span = twigobs::span(twigobs::Phase::Match);
        try_drive(&mut matchers, labels, streams, cancel)?;
    }
    let [matcher] = matchers;
    let (tm, stats) = matcher.finish();
    Ok((enumerate(&tm), stats))
}

/// Evaluate a batch of queries over **one shared scan**: the group's label
/// streams are merged once, each filtered by the union of the member
/// plans' summary filters, and every close event is offered to every
/// member's matcher. Callers group queries by equal
/// [`IndexedPlan::labels`] sets so no matcher is fed labels it never
/// dispatches on; the driver is nonetheless correct for any grouping
/// (matcher dispatch ignores foreign labels, and a superset of feasible
/// elements never changes a matcher's output). Unsatisfiable members cost
/// nothing and return empty encodings.
pub fn try_match_indexed_group<'g, I: IndexView>(
    doc: &'g Document,
    index: &I,
    queries: &[(&'g Gtp, &IndexedPlan)],
    options: MatchOptions,
    cancel: &CancelToken,
) -> Result<Vec<(TwigMatch<'g>, MatchStats)>, QueryError> {
    let _span = twigobs::span(twigobs::Phase::Match);
    let mut matchers: Vec<Matcher<'g>> = queries
        .iter()
        .map(|(gtp, _)| Matcher::new(gtp, doc.labels(), options).with_text_source(doc))
        .collect();
    // Union the satisfiable members' filters per label. `None` (full
    // stream) for a label absorbs every filter.
    let mut union: Vec<(Label, Option<SummarySet>)> = Vec::new();
    for (_, plan) in queries.iter().filter(|(_, p)| !p.is_unsatisfiable()) {
        for (l, filter) in &plan.streams {
            match union.iter_mut().find(|(ul, _)| ul == l) {
                None => union.push((*l, filter.clone())),
                Some((_, existing)) => match (existing.as_mut(), filter) {
                    (Some(e), Some(f)) => e.union(f),
                    _ => *existing = None,
                },
            }
        }
    }
    // The members' root covers are per-query; their union is rarely
    // tighter than nothing, so the shared scan runs uncovered (correct:
    // the cover only skips, never adds).
    let streams: Vec<_> = union
        .iter()
        .map(|(l, filter)| index.pruned_stream(*l, filter.as_ref(), None))
        .collect();
    let labels: Vec<Label> = union.iter().map(|&(l, _)| l).collect();
    try_drive(&mut matchers, labels, streams, cancel)?;
    Ok(matchers.into_iter().map(Matcher::finish).collect())
}

/// Merge label streams by `LeftPos` and feed every matcher post-order.
/// Checks `cancel` per merge step and sweeps [`ElemStream::take_error`]
/// when the merge ends, so stream failures win over truncated results.
fn try_drive<'g, S: ElemStream>(
    matchers: &mut [Matcher<'g>],
    labels: Vec<Label>,
    streams: Vec<S>,
    cancel: &CancelToken,
) -> Result<(), QueryError> {
    let mut streams: Vec<(Label, S)> = labels.into_iter().zip(streams).collect();
    // Elements still open at the merge head; popped (and closed) once the
    // head starts past their RightPos. Tops are innermost, so pop order is
    // exactly the post-order close order.
    let mut pending: Vec<(NodeId, Label, Region)> = Vec::new();
    let mut tick: u32 = 0;
    let result = loop {
        // Stream-advance-granularity cancellation: the flag is one atomic
        // load per step; the deadline clock is consulted on the first
        // step and every 64 thereafter (so even tiny scans observe an
        // already-expired deadline).
        tick = tick.wrapping_add(1);
        if tick & 0x3F == 1 {
            if let Err(e) = cancel.check() {
                break Err(e);
            }
        } else if cancel.is_cancelled() {
            break Err(QueryError::Cancelled);
        }
        let mut best: Option<(usize, xmlindex::IndexedElement)> = None;
        for (i, (_, s)) in streams.iter_mut().enumerate() {
            if let Some(e) = s.peek() {
                let better = match &best {
                    None => true,
                    Some((_, b)) => e.region.left < b.region.left,
                };
                if better {
                    best = Some((i, e));
                }
            }
        }
        let Some((i, e)) = best else { break Ok(()) };
        streams[i].1.advance();
        while pending
            .last()
            .is_some_and(|&(_, _, r)| r.right < e.region.left)
        {
            let (n, l, r) = pending.pop().expect("checked non-empty");
            for m in matchers.iter_mut() {
                m.on_element_close(n, l, r);
            }
        }
        pending.push((e.id, streams[i].0, e.region));
    };
    // Error sweep before results: any stream that failed reported EOF to
    // the merge above, so its "completion" may be a truncation.
    for (_, s) in streams.iter_mut() {
        if let Some(e) = s.take_error() {
            return Err(QueryError::Stream(e));
        }
    }
    result?;
    while let Some((n, l, r)) = pending.pop() {
        for m in matchers.iter_mut() {
            m.on_element_close(n, l, r);
        }
    }
    Ok(())
}

/// Match and enumerate from an index in one call with default options.
/// With [`PruningPolicy::Enabled`] this is the fully pruned pipeline; with
/// [`PruningPolicy::Disabled`] it reads the full label streams (the A/B
/// baseline) — both return exactly [`evaluate`](crate::evaluate)'s result.
pub fn evaluate_indexed<I: IndexView>(
    doc: &Document,
    index: &I,
    gtp: &Gtp,
    policy: PruningPolicy,
) -> ResultSet {
    let (tm, _) = match_indexed(doc, index, gtp, MatchOptions::default(), policy);
    enumerate(&tm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use gtpquery::parse_twig;
    use xmldom::parse;
    use xmlindex::ElementIndex;

    #[test]
    fn indexed_matches_dom_walk_on_and_off() {
        let xml = "<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d></a>";
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        for q in ["//a/b[c]", "//a//b", "//a!/b[c!]", "//a/b[?c@]", "//*[b]/c"] {
            let gtp = parse_twig(q).unwrap();
            let expected = evaluate(&doc, &gtp);
            for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
                let got = evaluate_indexed(&doc, &index, &gtp, policy);
                assert_eq!(got, expected, "query {q}, {policy:?}");
            }
        }
    }

    #[test]
    fn value_predicates_work_through_indexed_path() {
        let doc = parse("<a><b><y>2006</y></b><b><y>2007</y></b></a>").unwrap();
        let index = ElementIndex::build(&doc);
        let gtp = parse_twig("//a/b[y='2006']").unwrap();
        let expected = evaluate(&doc, &gtp);
        assert_eq!(expected.len(), 1);
        for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
            assert_eq!(evaluate_indexed(&doc, &index, &gtp, policy), expected);
        }
    }

    #[test]
    fn full_coverage_filter_is_dropped() {
        // Every <b> lies on a feasible path for //a//b, so a summary
        // filter would admit 100% of the label's postings while taxing
        // each with a sid lookup (the XMark-Q2 regression: pruned slower
        // than full scan with elements_pruned == 0). The plan must drop
        // such a filter: zero pruning ⇒ zero per-element extra work.
        let doc = parse("<a><b/><b/><b/><c><b/></c></a>").unwrap();
        let index = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let gtp = parse_twig("//a//b").unwrap();
        let plan = IndexedPlan::compute(&gtp, &index, doc.labels(), PruningPolicy::Enabled);
        for (l, filter) in plan.stream_plan() {
            if *l == b {
                assert!(filter.is_none(), "full-coverage filter must be dropped");
            }
        }
        assert_eq!(
            evaluate_indexed(&doc, &index, &gtp, PruningPolicy::Enabled),
            evaluate(&doc, &gtp)
        );
        // A selective query (1 of 4 b's feasible) must keep its filter.
        let gtp2 = parse_twig("//c/b").unwrap();
        let plan2 = IndexedPlan::compute(&gtp2, &index, doc.labels(), PruningPolicy::Enabled);
        assert!(
            plan2.stream_plan().iter().any(|(l, f)| *l == b && f.is_some()),
            "selective filter must be kept"
        );
        assert_eq!(
            evaluate_indexed(&doc, &index, &gtp2, PruningPolicy::Enabled),
            evaluate(&doc, &gtp2)
        );
    }

    #[test]
    fn equality_probe_reads_only_records_holding_the_value() {
        let xml = "<r><p><a>x</a><t/></p><p><a>y</a><t/></p>\
                   <p><a> x </a><a>z</a><t/><t/></p><q><p><a>x</a></p></q></r>";
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        for q in [
            "//p[a='x']/t",
            "//p[?a='x']/t",
            "//p[a='x' or a='y']/t",
            "//p[a~'x']/t",
            "//*[a='x']/t",
            "//a='x'",
            "/r[.//a='x']//t",
            "//p[a='x'][a='z']/t",
            "//p[a='nope']/t",
        ] {
            let gtp = parse_twig(q).unwrap();
            let expected = evaluate(&doc, &gtp);
            for policy in [PruningPolicy::Enabled, PruningPolicy::Disabled] {
                let got = evaluate_indexed(&doc, &index, &gtp, policy);
                assert_eq!(got, expected, "{q} {policy:?}");
            }
        }
        let considered = |q: &str, policy| {
            let gtp = parse_twig(q).unwrap();
            let opts = MatchOptions::default();
            match_indexed(&doc, &index, &gtp, opts, policy).1.elements_considered
        };
        // The two /r/p records holding "x" (p, a, t: 3 + 5), not all 13
        // p/a/t elements; the summary filter drops the third, whose path
        // has no t. The two-predicate lookup probes the rarer "z".
        assert_eq!(considered("//p[a='x']/t", PruningPolicy::Disabled), 13);
        assert_eq!(considered("//p[a='x']/t", PruningPolicy::Enabled), 8);
        assert_eq!(considered("//p[a='x'][a='z']/t", PruningPolicy::Enabled), 5);
        assert_eq!(considered("//p[a='nope']/t", PruningPolicy::Enabled), 0);
    }

    #[test]
    fn unsatisfiable_query_short_circuits_empty() {
        // The document has b and c elements, but never a c below a b.
        let doc = parse("<a><b/><b/><c/><c/></a>").unwrap();
        let index = ElementIndex::build(&doc);
        let gtp = parse_twig("//b//c").unwrap();
        let rs = evaluate_indexed(&doc, &index, &gtp, PruningPolicy::Enabled);
        assert!(rs.is_empty());
    }

    #[test]
    fn plan_reuse_with_pooled_context_matches_fresh() {
        let xml = "<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d></a>";
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        let mut ctx = EvalContext::new();
        for q in ["//a/b[c]", "//a//b", "//a/b[?c@]"] {
            let gtp = parse_twig(q).unwrap();
            let expected = evaluate(&doc, &gtp);
            let plan =
                IndexedPlan::compute(&gtp, &index, doc.labels(), PruningPolicy::Enabled);
            let mut stats = Vec::new();
            for _round in 0..3 {
                let (tm, s) = try_match_indexed(
                    &doc,
                    &index,
                    &gtp,
                    MatchOptions::default(),
                    &plan,
                    Some(&mut ctx),
                    &CancelToken::never(),
                )
                .unwrap();
                assert_eq!(enumerate(&tm), expected, "{q}");
                stats.push(s);
                ctx.recycle(tm);
            }
            assert_eq!(stats[0], stats[1], "pooled reuse must not change stats: {q}");
            assert_eq!(stats[1], stats[2], "pooled reuse must not change stats: {q}");
        }
    }

    #[test]
    fn cancelled_token_aborts_evaluation() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let index = ElementIndex::build(&doc);
        let gtp = parse_twig("//a/b[c]").unwrap();
        let plan = IndexedPlan::compute(&gtp, &index, doc.labels(), PruningPolicy::Enabled);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = match try_match_indexed(
            &doc,
            &index,
            &gtp,
            MatchOptions::default(),
            &plan,
            None,
            &cancel,
        ) {
            Ok(_) => panic!("cancelled evaluation must not produce a result"),
            Err(e) => e,
        };
        assert!(matches!(err, QueryError::Cancelled));
    }

    #[test]
    fn group_driver_matches_solo_evaluation() {
        let xml = "<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d></a>";
        let doc = parse(xml).unwrap();
        let index = ElementIndex::build(&doc);
        let queries = ["//a/b[c]", "//a//b", "//d/b/c", "//b//c"];
        let gtps: Vec<Gtp> = queries.iter().map(|q| parse_twig(q).unwrap()).collect();
        let plans: Vec<IndexedPlan> = gtps
            .iter()
            .map(|g| IndexedPlan::compute(g, &index, doc.labels(), PruningPolicy::Enabled))
            .collect();
        let group: Vec<(&Gtp, &IndexedPlan)> = gtps.iter().zip(plans.iter()).collect();
        let out = try_match_indexed_group(
            &doc,
            &index,
            &group,
            MatchOptions::default(),
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        for ((tm, _), (q, gtp)) in out.iter().zip(queries.iter().zip(&gtps)) {
            assert_eq!(enumerate(tm), evaluate(&doc, gtp), "{q}");
        }
    }
}
