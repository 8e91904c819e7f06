//! Path-summary pruning estimate — the one planning decision the
//! serving layer makes.
//!
//! Every plan the services build runs Twig²Stack over indexed streams;
//! what remains to decide per plan is the
//! [`PruningPolicy`]: filter the streams by summary feasibility and
//! gallop past regions outside the root cover, or scan them whole.
//! Everything the decision needs is in the index's path summary (strong
//! DataGuide): per-sid element counts, per-sid region hulls, and the
//! [`SummaryFeasibility`] sets the pruned streams are built from. This
//! module turns those statistics into a [`QueryEstimate`] — predicted
//! full and pruned stream sizes — and [`pruning_policy`] applies the
//! rule (DESIGN.md §14).
//!
//! Everything here reads only the summary — never the element postings —
//! so estimating costs `O(summary nodes)`, the same order as the
//! feasibility analysis the plan cache already amortizes.

use crate::analysis::SummaryFeasibility;
use crate::gtp::Gtp;
use crate::LabelDispatch;
use xmldom::{Label, LabelTable};
use xmlindex::{filter_worthwhile, PruningPolicy, SummaryRef, SummarySet};

/// Per-query stream-size estimates derived from the path summary. Both
/// counts are exact *summary* aggregations of over-approximate feasible
/// sets: `scan_pruned ≤ scan_full` always, and both bound what a pruned /
/// full stream scan would actually deliver from above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryEstimate {
    /// Some mandatory query node has no feasible path: the result is
    /// empty and evaluation short-circuits without touching a stream.
    pub unsatisfiable: bool,
    /// Elements a full (unpruned) scan delivers: the summed postings of
    /// every label some query node dispatches to.
    pub scan_full: u64,
    /// Elements a pruned scan is estimated to deliver, honoring the
    /// same `filter_worthwhile` drop the real stream plan applies and
    /// counting filterless labels by the summary hulls the root cover
    /// intersects (the skip-scan savings estimate).
    pub scan_pruned: u64,
}

impl QueryEstimate {
    /// Estimate `gtp`'s full and pruned stream sizes against the path
    /// summary. Runs one [`SummaryFeasibility`] analysis — the same
    /// `O(query × summary)` pass `IndexedPlan::compute` runs once per
    /// plan-cache miss.
    pub fn compute(gtp: &Gtp, summary: SummaryRef<'_>, labels: &LabelTable) -> QueryEstimate {
        let dispatch = LabelDispatch::compile(gtp, labels);
        let feas = SummaryFeasibility::compute(gtp, summary, labels);
        if feas.is_unsatisfiable() {
            return QueryEstimate {
                unsatisfiable: true,
                scan_full: 0,
                scan_pruned: 0,
            };
        }

        // Full label postings, aggregated from the summary (per-sid
        // counts sum to the label's posting-list length).
        let mut label_counts = vec![0u64; labels.len()];
        for node in summary.nodes() {
            label_counts[node.label.index()] += u64::from(node.count);
        }

        let cover = feas.root_cover(gtp, summary);
        let mut scan_full = 0u64;
        let mut scan_pruned = 0u64;
        for (i, &full) in label_counts.iter().enumerate() {
            let l = Label::from_index(i);
            if dispatch.query_nodes(l).is_empty() {
                continue;
            }
            scan_full += full;
            // Mirror the stream plan: the filter is the union of the
            // dispatched nodes' feasible sets, dropped when it admits
            // (nearly) every posting.
            let mut set = SummarySet::empty(summary.len());
            for &q in dispatch.query_nodes(l) {
                set.union(feas.feasible(q));
            }
            let covered = set.element_count(summary);
            if filter_worthwhile(covered, full) {
                scan_pruned += covered;
            } else {
                // No per-element filter, but `skip_to` still gallops past
                // regions outside the candidate-root cover. Do NOT assume
                // uniform element density — on XMark-Q2 the cover spans
                // ~20% of the document yet holds *every* person element,
                // so a density-scaled estimate undershoots 5× and makes
                // pruning look profitable when it saves nothing. Instead
                // count per summary node: a sid whose region hull
                // intersects the cover contributes all its elements (the
                // gallop lands inside the hull and scans through it).
                scan_pruned += summary
                    .nodes()
                    .iter()
                    .filter(|n| n.label == l)
                    .filter(|n| {
                        cover
                            .spans()
                            .iter()
                            .any(|&(cl, cr)| cl <= n.max_right && n.min_left <= cr)
                    })
                    .map(|n| u64::from(n.count))
                    .sum::<u64>();
            }
        }
        QueryEstimate {
            unsatisfiable: false,
            scan_full,
            scan_pruned,
        }
    }
}

/// The pruning rule: prune when the query has a required `='…'`
/// predicate ([`Gtp::required_equalities`]: only a pruned plan probes the
/// document's text postings for it, and the probe reads just the records
/// that hold the value), or when the summary predicts pruning saves at
/// least 1/8 of the full scan (or proves the query unsatisfiable, which
/// short-circuits every stream). The feasibility sets are computed either
/// way, so the *runtime* overhead pruning must earn back is the
/// per-element sid probe and the cover gallop bookkeeping — on XMark-Q2
/// it saves ~0 and costs ~20%, on TreeBank it saves up to 93% (see
/// EXPERIMENTS.md Fig S).
///
/// Both services call this once per plan: `QueryService` per plan-cache
/// miss, `CatalogService` once per (query, schema).
pub fn pruning_policy(gtp: &Gtp, summary: SummaryRef<'_>, labels: &LabelTable) -> PruningPolicy {
    if !gtp.required_equalities().is_empty() {
        return PruningPolicy::Enabled;
    }
    let est = QueryEstimate::compute(gtp, summary, labels);
    if est.unsatisfiable || est.scan_full.saturating_sub(est.scan_pruned) * 8 >= est.scan_full {
        PruningPolicy::Enabled
    } else {
        PruningPolicy::Disabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_twig;
    use xmlindex::PathSummary;

    fn setup(xml: &str) -> (xmldom::Document, PathSummary) {
        let doc = xmldom::parse(xml).unwrap();
        let summary = PathSummary::build(&doc);
        (doc, summary)
    }

    #[test]
    fn full_scan_counts_every_dispatched_label_posting() {
        let (doc, summary) = setup("<a><b><c/></b><b/><d><b/></d></a>");
        let gtp = parse_twig("//a/b").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(!est.unsatisfiable);
        // Labels scanned: a (1 element) + b (3 elements).
        assert_eq!(est.scan_full, 4);
    }

    #[test]
    fn pruned_scan_respects_feasibility() {
        // Only the b under d is NOT reachable as /a/b; feasibility keeps
        // the a/b path and drops the a/d/b path.
        let (doc, summary) = setup("<a><b><c/></b><b/><d><b/></d></a>");
        let gtp = parse_twig("/a/b").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(
            est.scan_pruned < est.scan_full,
            "the d/b posting is prunable"
        );
        assert_eq!(
            pruning_policy(&gtp, summary.view(), doc.labels()),
            PruningPolicy::Enabled
        );
    }

    #[test]
    fn unsatisfiable_queries_estimate_zero_and_prune() {
        let (doc, summary) = setup("<a><b/></a>");
        let gtp = parse_twig("//a/z").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert!(est.unsatisfiable);
        assert_eq!(est.scan_full, 0);
        assert_eq!(
            pruning_policy(&gtp, summary.view(), doc.labels()),
            PruningPolicy::Enabled,
            "short-circuiting is free and total"
        );
    }

    #[test]
    fn required_equality_lookups_always_prune() {
        // The summary alone would disable pruning here (every b sits under
        // the only a); a required `='…'` predicate enables it so the plan
        // probes the text postings. Optional and OR-grouped ones do not.
        let (doc, summary) = setup("<a><b>x</b><b>y</b><b/></a>");
        for (q, policy) in [
            ("//a/b='x'", PruningPolicy::Enabled),
            ("//a[b='x']", PruningPolicy::Enabled),
            ("//a[?b='x']", PruningPolicy::Disabled),
            ("//a[b='x' or b='y']", PruningPolicy::Disabled),
            ("//a/b~'x'", PruningPolicy::Disabled),
        ] {
            let gtp = parse_twig(q).unwrap();
            assert_eq!(pruning_policy(&gtp, summary.view(), doc.labels()), policy, "{q}");
        }
    }

    #[test]
    fn pruning_that_saves_nothing_is_disabled() {
        // Every b sits under the only a: the filters pass every posting
        // and the cover spans the whole document.
        let (doc, summary) = setup("<a><b/><b/><b/></a>");
        let gtp = parse_twig("//a/b").unwrap();
        let est = QueryEstimate::compute(&gtp, summary.view(), doc.labels());
        assert_eq!(est.scan_pruned, est.scan_full);
        assert_eq!(
            pruning_policy(&gtp, summary.view(), doc.labels()),
            PruningPolicy::Disabled
        );
    }
}
