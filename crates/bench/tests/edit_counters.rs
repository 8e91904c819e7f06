//! Pinned edit-path observability (obs is compiled in under twigbench's
//! default `obs` feature, so the counters are live here): the
//! service-level edit counters (`edits_applied`, `snapshot_rotations`,
//! `plan_cache_invalidations`) that Fig E's sidecar reads.

use twigobs::Counter;
use twigserve::{QueryService, ServiceConfig};
use xmldom::{parse, EditOp};

#[test]
fn service_edits_report_rotation_and_invalidation_counters() {
    twigobs::take();
    let svc = QueryService::build(
        parse("<a><b><c/></b><d/></a>").unwrap(),
        ServiceConfig::default(),
    );
    svc.execute("//b/c").unwrap();
    svc.execute("//d").unwrap();
    let root = svc.snapshot().doc().root();
    // Every rotation flushes the plan cache: both cached plans go.
    svc.apply_edit(&EditOp::InsertSubtree {
        parent: Some(root),
        position: 0,
        subtree: parse("<b><c/></b>").unwrap(),
    })
    .unwrap();
    let m = twigobs::take();
    assert_eq!(m.get(Counter::EditsApplied), 1);
    assert_eq!(m.get(Counter::SnapshotRotations), 1);
    assert_eq!(m.get(Counter::PlanCacheInvalidations), 2);
    // The obs counters and the always-live ServiceStats agree.
    let stats = svc.stats();
    assert_eq!(stats.edits_applied, 1);
    assert_eq!(stats.snapshot_rotations, 1);
    assert_eq!(stats.plan_cache_invalidations, 2);
}
