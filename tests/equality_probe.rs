//! The equality probe: a pruned plan turns the query's most selective
//! required `='…'` predicate into a candidate-root cover from the
//! document's text postings (DESIGN.md §11), so a point lookup reads only
//! the records that hold the value. These tests pin what it reads and
//! that every GTP shape around it — optional edges, OR-groups, `~'…'`,
//! wildcard roots, root-step predicates, missing values, padded text —
//! answers exactly as the DOM evaluator does, on the heap and mapped
//! backends, through both services.

use gtpquery::{parse_twig, CancelToken};
use std::path::PathBuf;
use twig2stack::{evaluate, try_match_indexed, EvalContext, IndexedPlan, MatchOptions, MatchStats};
use twigserve::{CatalogConfig, CatalogDoc, CatalogService, QueryService, ServiceConfig};
use xmldom::{Document, NodeId};
use xmlgen::{generate_dblp, DblpConfig};
use xmlindex::{ElementIndex, PruningPolicy};

fn dblp() -> Document {
    generate_dblp(&DblpConfig::default())
}

/// Match `query` over `doc`'s heap index with an explicit pruning policy.
fn match_stats(
    doc: &Document,
    index: &ElementIndex,
    query: &str,
    policy: PruningPolicy,
) -> MatchStats {
    let gtp = parse_twig(query).unwrap();
    let plan = IndexedPlan::compute(&gtp, index, doc.labels(), policy);
    let (tm, stats) = try_match_indexed(
        doc,
        index,
        &gtp,
        MatchOptions::default(),
        &plan,
        None,
        &CancelToken::never(),
    )
    .unwrap();
    assert_eq!(
        twig2stack::enumerate(&tm),
        evaluate(doc, &gtp),
        "{query} {policy:?}"
    );
    stats
}

#[test]
fn lookup_considers_only_the_records_holding_the_value() {
    let doc = dblp();
    let index = ElementIndex::build(&doc);
    let name = |n: NodeId| doc.tag_name(n);
    for author in ["Author 5", "Author 321", "Author 996"] {
        let query = format!("//inproceedings[author='{author}']/title");
        // The records holding the value, and their inproceedings, author
        // and title elements: everything the lookup may read.
        let records: Vec<NodeId> = doc
            .iter()
            .filter(|&n| name(n) == "inproceedings")
            .filter(|&n| {
                doc.children(n)
                    .any(|c| name(c) == "author" && doc.text(c) == Some(author))
            })
            .collect();
        assert!(!records.is_empty(), "{author} writes some inproceedings");
        let inside: usize = records
            .iter()
            .map(|&r| {
                1 + doc
                    .children(r)
                    .filter(|&c| matches!(name(c), "author" | "title"))
                    .count()
            })
            .sum();
        let pruned = match_stats(&doc, &index, &query, PruningPolicy::Enabled);
        let full = match_stats(&doc, &index, &query, PruningPolicy::Disabled);
        assert_eq!(pruned.elements_considered, inside, "{query}");
        assert!(
            pruned.elements_considered * 100 < full.elements_considered,
            "{query}: pruned considered {} of {}",
            pruned.elements_considered,
            full.elements_considered
        );
    }
    // A value no element holds reads no posting at all.
    let missing = match_stats(
        &doc,
        &index,
        "//inproceedings[author='Nobody']/title",
        PruningPolicy::Enabled,
    );
    assert_eq!(missing.elements_considered, 0);
}

/// The shapes around the probe, over the DBLP document.
const CASES: [&str; 8] = [
    "//inproceedings[author='Author 5']/title",
    "//inproceedings[?author='Author 5']/title",
    "//inproceedings[author='Author 5' or year='1999']/title",
    "//inproceedings[author~'Author 5']/title",
    "//*[author='Author 5']/title",
    "//author='Author 5'",
    "//inproceedings[author='Nobody']/title",
    "/dblp[.//author='Author 5']//year='1995'",
];

/// Text with surrounding whitespace: `='…'` compares trimmed text.
const PADDED: &str = "<dblp>\
    <inproceedings><author>  Author 5\n</author><title> T1 </title></inproceedings>\
    <inproceedings><author>Author 5x</author><title>T2</title></inproceedings>\
    <article><author>\tAuthor 5</author><title>T3</title></article>\
    </dblp>";

const PADDED_CASES: [&str; 4] = [
    "//inproceedings[author='Author 5']/title",
    "//*[author='Author 5']/title='T1'",
    "//inproceedings[author=' Author 5']/title",
    "//author='Author 5'",
];

fn mapped_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "t2s-equality-probe-{tag}-{}.t2sidx",
        std::process::id()
    ))
}

/// Every case through `QueryService::execute` and
/// `CatalogService::execute`, on both backends, equals `evaluate`.
fn check_services(doc: &Document, cases: &[&str], tag: &str) {
    let path = mapped_path(tag);
    xmlindex::write_mapped_index(doc, &path).unwrap();
    let heap = QueryService::build(doc.clone(), ServiceConfig::default());
    let mapped = QueryService::open_mapped(doc.clone(), &path, ServiceConfig::default()).unwrap();
    let catalogs = [
        CatalogService::build(
            vec![CatalogDoc::Heap(doc.clone())],
            CatalogConfig::default(),
        )
        .unwrap(),
        CatalogService::build(
            vec![CatalogDoc::Mapped(doc.clone(), path.clone())],
            CatalogConfig::default(),
        )
        .unwrap(),
    ];
    for q in cases {
        let expected = evaluate(doc, &parse_twig(q).unwrap());
        for (backend, svc) in [("heap", &heap), ("mapped", &mapped)] {
            assert_eq!(heap.planned(q).unwrap(), svc.planned(q).unwrap(), "{q}");
            assert_eq!(
                svc.execute(q).unwrap(),
                expected,
                "QueryService {backend}: {q}"
            );
        }
        for (backend, cat) in ["heap", "mapped"].iter().zip(&catalogs) {
            let rows: Vec<_> = cat
                .execute(q)
                .unwrap()
                .into_iter()
                .map(|h| h.rows)
                .collect();
            let want = if expected.is_empty() {
                Vec::new()
            } else {
                vec![expected.clone()]
            };
            assert_eq!(rows, want, "CatalogService {backend}: {q}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn probe_shapes_match_evaluate_through_both_services_and_backends() {
    check_services(&dblp(), &CASES, "dblp");
    check_services(&xmldom::parse(PADDED).unwrap(), &PADDED_CASES, "padded");
}

#[test]
fn pooled_context_buffers_stay_flat_on_dblp() {
    let doc = dblp();
    let gtp = parse_twig("//dblp/inproceedings[title!]/author").unwrap();
    let expected = evaluate(&doc, &gtp);
    let mut ctx = EvalContext::new();
    let mut counts = Vec::new();
    for _ in 0..10 {
        assert_eq!(ctx.evaluate(&doc, &gtp), expected);
        counts.push(ctx.pooled_buffers());
    }
    assert_eq!(counts[9], counts[1], "pooled buffers grew: {counts:?}");
}
