//! Snapshot rotation under concurrency: an 8-thread query hammer runs
//! while a writer applies a chain of edits through
//! [`QueryService::apply_edit`]. Every result a reader observes must be
//! byte-equal to the oracle of *some* published snapshot version —
//! never a blend of two — and versions can only move forward within one
//! thread, because each request pins exactly one `Arc<Snapshot>` for
//! its whole evaluation. A second, deterministic test pins the
//! plan-cache side of the rotation protocol through the `plan_cache_*`
//! counters: every rotation flushes the cache.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use twigserve::{QueryService, ServiceConfig};
use xmldom::{apply_op, parse, Document, EditOp};

const THREADS: usize = 8;
const ROTATIONS: usize = 12;

/// Twelve `<book>` records plus a `<shelf>` of `<mag>`s the edits never
/// touch.
fn base_doc() -> Document {
    let mut xml = String::from("<lib>");
    for i in 0..12 {
        xml.push_str(&format!(
            "<book><author>a{}</author><title>t{i}</title></book>",
            i % 3
        ));
    }
    xml.push_str("<shelf><mag/><mag/></shelf></lib>");
    parse(&xml).unwrap()
}

/// The k-th edit against the document as it stands: two inserts of a
/// fresh `<book>` record at the front, then one delete of the *last*
/// surviving original record. Results carry node ids, so versions are
/// distinguished by shape: the k-th inserted book holds `k + 2` titles,
/// which (against single-title deletes) keeps every version's
/// `//lib/book/title` row count unique — a reader's observation maps to
/// exactly one snapshot version (asserted below).
fn edit_op(k: usize, cur: &Document) -> EditOp {
    let root = cur.root();
    if k % 3 == 2 {
        let children: Vec<_> = cur.children(root).collect();
        // The last child is <shelf>; the one before it is the oldest
        // surviving original book.
        let target = children[children.len() - 2];
        EditOp::DeleteSubtree { target }
    } else {
        let titles: String = (0..k + 2).map(|t| format!("<title>n{t}</title>")).collect();
        EditOp::InsertSubtree {
            parent: Some(root),
            position: 0,
            subtree: parse(&format!("<book><author>z{k}</author>{titles}</book>")).unwrap(),
        }
    }
}

#[test]
fn hammered_readers_never_observe_a_torn_snapshot() {
    let doc = base_doc();

    // Oracle chain: replay the same edits offline, one document per
    // published version.
    let mut docs = vec![doc.clone()];
    for k in 0..ROTATIONS {
        let cur = docs.last().unwrap();
        let (next, _) = apply_op(cur, &edit_op(k, cur)).expect("offline edit applies");
        docs.push(next);
    }
    let queries = ["//lib/book/title", "//shelf/mag"];
    let oracles: Vec<Vec<_>> = queries
        .iter()
        .map(|q| {
            let gtp = gtpquery::parse_twig(q).unwrap();
            docs.iter().map(|d| twig2stack::evaluate(d, &gtp)).collect()
        })
        .collect();
    // Every edit changes the book results, and no two versions coincide
    // — the monotonicity check below depends on unique observations.
    for v in 0..oracles[0].len() {
        for w in 0..v {
            assert_ne!(oracles[0][w], oracles[0][v], "versions {w} and {v} coincide");
        }
    }

    let svc = QueryService::build(
        doc,
        ServiceConfig {
            max_concurrency: THREADS,
            max_waiting: THREADS * 4,
            ..ServiceConfig::default()
        },
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = &svc;
            let done = &done;
            let queries = &queries;
            let oracles = &oracles;
            scope.spawn(move || {
                let mut last_version = 0usize;
                let mut rounds = 0u64;
                loop {
                    let finishing = done.load(Ordering::Acquire);
                    for (qi, q) in queries.iter().enumerate() {
                        let got = svc.execute(q).unwrap_or_else(|e| panic!("[{q}] {e}"));
                        let Some(v) = oracles[qi].iter().position(|o| *o == got) else {
                            panic!("[worker {t} {q}] torn snapshot: {} rows match no version oracle", got.len())
                        };
                        // The mag oracle is version-ambiguous (edits never
                        // touch it); only book observations order versions.
                        if qi == 0 {
                            assert!(
                                v >= last_version,
                                "[worker {t}] snapshot went backward: v{v} after v{last_version}"
                            );
                            last_version = v;
                        }
                    }
                    rounds += 1;
                    if finishing {
                        break;
                    }
                }
                assert!(rounds > 0, "worker {t} never completed a round");
                // The final round started after the writer finished, so
                // it must have seen the last version.
                assert_eq!(
                    last_version, ROTATIONS,
                    "worker {t} finished on a stale snapshot"
                );
            });
        }
        let svc = &svc;
        let done = &done;
        scope.spawn(move || {
            for k in 0..ROTATIONS {
                let snap = svc.snapshot();
                let receipt = svc
                    .apply_edit(&edit_op(k, snap.doc()))
                    .unwrap_or_else(|e| panic!("edit {k}: {e}"));
                assert_eq!(receipt.version, (k + 1) as u64, "versions are sequential");
                // Let readers drain a few requests on this snapshot so
                // the hammer spans the whole rotation history.
                std::thread::sleep(Duration::from_millis(3));
            }
            done.store(true, Ordering::Release);
        });
    });

    let stats = svc.stats();
    assert_eq!(stats.edits_applied, ROTATIONS as u64);
    assert_eq!(stats.snapshot_rotations, ROTATIONS as u64);
    assert!(
        stats.plan_cache_invalidations > 0,
        "rotations over cached book plans must invalidate"
    );
    assert_eq!(stats.queries_rejected, 0, "rotation must never shed readers");
    let snap = svc.snapshot();
    assert_eq!(snap.version(), ROTATIONS as u64);
    let gtp = gtpquery::parse_twig(queries[0]).unwrap();
    assert_eq!(twig2stack::evaluate(snap.doc(), &gtp), oracles[0][ROTATIONS]);
}

/// Deterministic half of the protocol: every rotation flushes the plan
/// cache, whichever labels the edit touched, visible through the
/// `plan_cache_*` counters.
#[test]
fn every_rotation_flushes_the_plan_cache() {
    let svc = QueryService::build(base_doc(), ServiceConfig::default());
    let book_q = "//lib/book/title";
    let mag_q = "//shelf/mag";

    svc.execute(book_q).unwrap();
    svc.execute(mag_q).unwrap();
    assert_eq!(svc.cached_plans(), 2, "both plans analyzed and cached");

    // The edit inserts a book; the mag plan scans nothing it touched,
    // and still goes.
    let receipt = svc
        .apply_edit(&edit_op(0, svc.snapshot().doc()))
        .unwrap();
    assert_eq!(receipt.invalidated_plans, 2, "the flush drops both plans");
    assert_eq!(svc.cached_plans(), 0);

    // Each query misses once on the rotated snapshot, then hits.
    for q in [book_q, mag_q] {
        let before = svc.stats();
        svc.execute(q).unwrap();
        let missed = svc.stats();
        assert_eq!(
            missed.plan_cache_misses,
            before.plan_cache_misses + 1,
            "{q} re-analyzed"
        );
        svc.execute(q).unwrap();
        let hit = svc.stats();
        assert_eq!(
            hit.plan_cache_hits,
            missed.plan_cache_hits + 1,
            "{q} cached again"
        );
    }

    let s = svc.stats();
    assert_eq!((s.plan_cache_misses, s.plan_cache_hits), (4, 2));
    assert_eq!(s.edits_applied, 1);
    assert_eq!(s.snapshot_rotations, 1);
    assert_eq!(s.plan_cache_invalidations, 2);

    // And the rotated snapshot answers from the edited document.
    let snap = svc.snapshot();
    for q in [book_q, mag_q] {
        let gtp = gtpquery::parse_twig(q).unwrap();
        assert_eq!(
            svc.execute(q).unwrap(),
            twig2stack::evaluate(snap.doc(), &gtp),
            "{q}"
        );
    }
}
