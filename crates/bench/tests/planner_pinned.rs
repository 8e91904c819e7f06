//! Pinned pruning decisions on the figure-16 workloads (DESIGN.md §14).
//!
//! The service's one planning decision is the pruning policy, taken from
//! the path summary. Two calls are measured, not assumed: on XMark-Q2
//! every `person` element sits inside the query's region cover, so
//! pruning scans the same 101 elements as the full streams and only adds
//! skip-probe overhead — the default service must plan it unpruned. On
//! TreeBank-Q1 pruning skips ~80% of the candidate elements — the default
//! service must keep it. These tests pin both calls so an estimate change
//! that flips either shows up as a test failure, not a silent slowdown.

use twigbench::workload::{treebank, treebank_queries, xmark, xmark_queries, Profile};
use twigbench::Dataset;
use twigserve::{QueryService, ServiceConfig};

fn service(ds: &Dataset) -> QueryService {
    QueryService::new(ds.doc.clone(), ds.index.clone(), ServiceConfig::default())
}

#[test]
fn xmark_q2_plans_unpruned() {
    let ds = xmark(Profile::Quick, 1);
    let q = &xmark_queries()[1];
    assert_eq!(q.name, "XMark-Q2");
    let policy = service(&ds).planned(q.text).expect("plan XMark-Q2");
    assert!(
        !policy.is_enabled(),
        "pruning hurts on XMark-Q2 (the cover holds every person element); \
         the summary rule must disable it, got {policy:?}"
    );
}

#[test]
fn treebank_q1_plans_pruned() {
    let ds = treebank(Profile::Quick);
    let q = &treebank_queries()[0];
    assert_eq!(q.name, "TreeBank-Q1");
    let policy = service(&ds).planned(q.text).expect("plan TreeBank-Q1");
    assert!(
        policy.is_enabled(),
        "pruning skips ~80% of TreeBank-Q1's candidate elements; \
         the summary rule must keep it, got {policy:?}"
    );
}

#[test]
fn pinned_decisions_survive_cache_round_trips_and_match_execution() {
    // planned() on a warm cache must return the policy the cold planning
    // pass chose, and executing afterwards must agree with the DOM
    // evaluation byte for byte.
    let ds = treebank(Profile::Quick);
    let svc = service(&ds);
    for q in treebank_queries() {
        let cold = svc.planned(q.text).expect("cold plan");
        let warm = svc.planned(q.text).expect("warm plan");
        assert_eq!(cold, warm, "{}: cached decision drifted", q.name);
        let got = svc.execute(q.text).expect("served execute");
        let want = twig2stack::evaluate(&ds.doc, &q.gtp);
        assert_eq!(
            got, want,
            "{}: served rows differ from the DOM evaluation",
            q.name
        );
    }
}
