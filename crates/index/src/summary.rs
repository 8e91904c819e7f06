//! Structural path summary (strong DataGuide) and summary-id sets.
//!
//! A [`PathSummary`] is a tree with one node per *distinct* root-to-node
//! label path in the document. Real-world documents have few distinct
//! paths — DBLP has dozens, XMark ~500, and even the recursive TreeBank
//! stays in the hundreds — so the summary is a tiny side structure that
//! can answer "could an element on this path ever match this query node?"
//! without touching the element streams at all.
//!
//! Every document element is assigned the **summary id** (`sid`) of its
//! path; per-summary element counts and region spans come along for free
//! during construction. Query feasibility analysis (in `gtpquery`)
//! evaluates a GTP against this tree to produce a [`SummarySet`] per query
//! node; streams then filter by those sets (see [`crate::stream`]), which
//! is where the "stop reading elements the query can never match" win of
//! this index comes from.
//!
//! The summary is stored *flat*: fixed-width [`SummaryNode`] records with
//! child lists packed into one shared `u32` array. Consumers read it
//! through the borrowed [`SummaryRef`] view, which the heap-built
//! [`PathSummary`] and the memory-mapped v3 index (see [`crate::v3`])
//! produce identically — feasibility analysis cannot tell whether the
//! records live on the heap or in a mapped file.

use std::collections::HashMap;
use twigobs::Counter;
use xmldom::{Document, Label, LabelTable, NodeId, Region};

/// One node of the path summary: a distinct root-to-node label path.
///
/// A fixed-width, little-endian-safe record (`#[repr(C)]`, all-`u32`
/// fields) so a mapped v3 index can overlay a `&[SummaryNode]` directly on
/// file bytes. Child sids live in the summary's shared child array; use
/// [`SummaryRef::children`] (or [`PathSummary::children`]) to read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct SummaryNode {
    /// Label of the last step of the path.
    pub label: Label,
    /// Parent sid, or `u32::MAX` for depth-1 paths (see [`Self::parent`]).
    parent: u32,
    /// First index of this node's child list in the shared child array.
    children_start: u32,
    /// Length of this node's child list.
    children_len: u32,
    /// Path length; the document root element's path has depth 1.
    pub depth: u32,
    /// Number of document elements on this path.
    pub count: u32,
    /// Smallest `left` over the path's elements.
    pub min_left: u32,
    /// Largest `right` over the path's elements.
    pub max_right: u32,
}

impl SummaryNode {
    /// Parent path, `None` for depth-1 paths.
    #[inline]
    pub fn parent(&self) -> Option<u32> {
        (self.parent != u32::MAX).then_some(self.parent)
    }

    /// `(start, len)` of this node's child list in the shared child
    /// array — exposed so the v3 open path can bounds-check every node
    /// before any [`SummaryRef`] accessor trusts the ranges.
    #[inline]
    pub fn child_range(&self) -> (u32, u32) {
        (self.children_start, self.children_len)
    }
}

/// Borrowed view of a path summary: flat node records, the shared child
/// array, and the per-element sid map.
///
/// `Copy`, so it is passed by value. Both [`PathSummary::view`] (heap) and
/// the mapped v3 index produce this same type, which is what lets every
/// summary consumer run zero-copy over a mapped file.
#[derive(Debug, Clone, Copy)]
pub struct SummaryRef<'a> {
    nodes: &'a [SummaryNode],
    children: &'a [u32],
    sid_of: &'a [u32],
}

impl<'a> SummaryRef<'a> {
    /// Assemble a view from raw parts (the mapped-index entry point).
    ///
    /// `children` must contain every node's `[children_start,
    /// children_start + children_len)` range and `sid_of` must map every
    /// document node to a valid sid. [`PathSummary`] guarantees this by
    /// construction; the v3 open path verifies it (via
    /// [`SummaryNode::child_range`]) before handing out a view, so no
    /// assertion lives here — corrupt files must surface as typed open
    /// errors, not panics.
    pub fn from_raw_parts(
        nodes: &'a [SummaryNode],
        children: &'a [u32],
        sid_of: &'a [u32],
    ) -> Self {
        SummaryRef { nodes, children, sid_of }
    }

    /// Number of distinct label paths.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the summary is empty (only for an empty document).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The summary node for `sid`.
    #[inline]
    pub fn node(&self, sid: u32) -> &'a SummaryNode {
        &self.nodes[sid as usize]
    }

    /// All summary nodes, indexed by sid.
    #[inline]
    pub fn nodes(&self) -> &'a [SummaryNode] {
        self.nodes
    }

    /// Child sids of `sid`, in first-encountered order.
    #[inline]
    pub fn children(&self, sid: u32) -> &'a [u32] {
        let n = &self.nodes[sid as usize];
        &self.children[n.children_start as usize..(n.children_start + n.children_len) as usize]
    }

    /// Summary id of a document element.
    #[inline]
    pub fn sid(&self, node: NodeId) -> u32 {
        self.sid_of[node.index()]
    }

    /// Summary ids of all document elements, indexed by `NodeId::index()`.
    #[inline]
    pub fn sids(&self) -> &'a [u32] {
        self.sid_of
    }

    /// True iff `anc` is a proper ancestor path of `desc`.
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        let mut cur = self.nodes[desc as usize].parent();
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.nodes[p as usize].parent();
        }
        false
    }

    /// Structural fingerprint: an FNV-1a hash over every node's
    /// `(label name, parent sid, depth)` in sid order.
    ///
    /// Sids are assigned in first-occurrence preorder, so two documents
    /// with equal fingerprints have the *same* summary tree under the
    /// *same* sid numbering — schema-level verdicts (feasibility sets,
    /// unsatisfiability, planner decisions keyed on summary shape) computed
    /// against one transfer verbatim to the other. Element counts and
    /// region hulls are deliberately excluded: they vary with document
    /// size, not schema, and including them would shatter the
    /// one-plan-per-schema sharing the multi-document catalog relies on.
    /// Label *names* (not numeric `Label` ids) are hashed so documents
    /// built with independent label tables still compare.
    pub fn fingerprint(&self, labels: &LabelTable) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for n in self.nodes {
            mix(labels.name(n.label).as_bytes());
            mix(&[0xff]); // name terminator: ("ab","c") != ("a","bc")
            mix(&n.parent.to_le_bytes());
            mix(&n.depth.to_le_bytes());
        }
        h
    }
}

/// Strong DataGuide over a document: distinct label paths plus the mapping
/// from every element to its path's summary id.
///
/// ```
/// use xmlindex::PathSummary;
/// let doc = xmldom::parse("<a><b><c/></b><b/><c/></a>").unwrap();
/// let s = PathSummary::build(&doc);
/// // Paths: /a, /a/b, /a/b/c, /a/c — two distinct paths end in `c`.
/// assert_eq!(s.len(), 4);
/// assert_ne!(s.sid(xmldom::NodeId::from_index(2)), // the nested c
///            s.sid(xmldom::NodeId::from_index(4))); // the top-level c
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSummary {
    nodes: Vec<SummaryNode>,
    /// All child lists, packed; each node addresses its slice by
    /// `children_start`/`children_len`.
    children: Vec<u32>,
    /// Summary id per document node, indexed by `NodeId::index()`.
    sid_of: Vec<u32>,
}

impl PathSummary {
    /// Build the summary in one pre-order pass over `doc` (plus a final
    /// flattening of the per-node child lists into the shared array).
    pub fn build(doc: &Document) -> Self {
        let mut nodes: Vec<SummaryNode> = Vec::new();
        let mut kids: Vec<Vec<u32>> = Vec::new();
        let mut sid_of = vec![0u32; doc.len()];
        // (parent sid or u32::MAX for roots, label) -> sid
        let mut edge: HashMap<(u32, Label), u32> = HashMap::new();
        for n in doc.iter() {
            let label = doc.label(n);
            let region = doc.region(n);
            let parent_sid = doc.parent(n).map(|p| sid_of[p.index()]);
            let key = (parent_sid.unwrap_or(u32::MAX), label);
            let sid = *edge.entry(key).or_insert_with(|| {
                let sid = nodes.len() as u32;
                nodes.push(SummaryNode {
                    label,
                    parent: parent_sid.unwrap_or(u32::MAX),
                    children_start: 0,
                    children_len: 0,
                    depth: region.level,
                    count: 0,
                    min_left: region.left,
                    max_right: region.right,
                });
                kids.push(Vec::new());
                if let Some(p) = parent_sid {
                    kids[p as usize].push(sid);
                }
                sid
            });
            let node = &mut nodes[sid as usize];
            node.count += 1;
            node.min_left = node.min_left.min(region.left);
            node.max_right = node.max_right.max(region.right);
            sid_of[n.index()] = sid;
        }
        let mut children = Vec::with_capacity(nodes.len().saturating_sub(1));
        for (node, k) in nodes.iter_mut().zip(&kids) {
            node.children_start = children.len() as u32;
            node.children_len = k.len() as u32;
            children.extend_from_slice(k);
        }
        twigobs::add(Counter::SummaryNodes, nodes.len() as u64);
        PathSummary { nodes, children, sid_of }
    }

    /// Borrowed view over the summary's flat arrays.
    #[inline]
    pub fn view(&self) -> SummaryRef<'_> {
        SummaryRef {
            nodes: &self.nodes,
            children: &self.children,
            sid_of: &self.sid_of,
        }
    }

    /// Number of distinct label paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the summary is empty (only for an empty document).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The summary node for `sid`.
    pub fn node(&self, sid: u32) -> &SummaryNode {
        &self.nodes[sid as usize]
    }

    /// All summary nodes, indexed by sid.
    pub fn nodes(&self) -> &[SummaryNode] {
        &self.nodes
    }

    /// Child sids of `sid`, in first-encountered order.
    pub fn children(&self, sid: u32) -> &[u32] {
        self.view().children(sid)
    }

    /// Summary id of a document element.
    #[inline]
    pub fn sid(&self, node: NodeId) -> u32 {
        self.sid_of[node.index()]
    }

    /// Summary ids of all document elements, indexed by `NodeId::index()`.
    pub fn sids(&self) -> &[u32] {
        &self.sid_of
    }

    /// True iff `anc` is a proper ancestor path of `desc`.
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        self.view().is_ancestor(anc, desc)
    }

    /// Structural fingerprint (see [`SummaryRef::fingerprint`]).
    pub fn fingerprint(&self, labels: &LabelTable) -> u64 {
        self.view().fingerprint(labels)
    }
}

/// A set of summary ids, stored as a bitset (summaries are tiny, so a set
/// is a handful of words).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummarySet {
    bits: Vec<u64>,
}

impl SummarySet {
    /// The empty set, sized for a summary with `n` nodes.
    pub fn empty(n: usize) -> Self {
        SummarySet { bits: vec![0; n.div_ceil(64)] }
    }

    /// The full set over a summary with `n` nodes.
    pub fn full(n: usize) -> Self {
        let mut s = SummarySet::empty(n);
        for sid in 0..n as u32 {
            s.insert(sid);
        }
        s
    }

    /// Insert `sid`.
    #[inline]
    pub fn insert(&mut self, sid: u32) {
        let (w, b) = (sid as usize / 64, sid as usize % 64);
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.bits[w] |= 1 << b;
    }

    /// True iff `sid` is in the set.
    #[inline]
    pub fn contains(&self, sid: u32) -> bool {
        let (w, b) = (sid as usize / 64, sid as usize % 64);
        self.bits.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// True iff no sid is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of sids in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Intersect with `other` in place.
    pub fn intersect(&mut self, other: &SummarySet) {
        for (i, w) in self.bits.iter_mut().enumerate() {
            *w &= other.bits.get(i).copied().unwrap_or(0);
        }
    }

    /// Union with `other` in place.
    pub fn union(&mut self, other: &SummarySet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (i, &w) in other.bits.iter().enumerate() {
            self.bits[i] |= w;
        }
    }

    /// Iterate the sids in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            (0..64).filter(move |b| word & (1u64 << b) != 0).map(move |b| (w * 64 + b) as u32)
        })
    }

    /// Total element count of the set's paths under `summary`.
    pub fn element_count(&self, summary: SummaryRef<'_>) -> u64 {
        self.iter().map(|sid| summary.node(sid).count as u64).sum()
    }
}

/// Disjoint, document-ordered `(left, right)` spans covering every region
/// that could possibly contain a match — derived from the feasible
/// elements of the query's root node. Streams use it to gallop past the
/// gaps between spans (see [`crate::stream::PrunedStream`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionCover {
    spans: Vec<(u32, u32)>,
}

impl RegionCover {
    /// Cover from candidate root regions in document order: spans nested
    /// inside an earlier span are absorbed by it.
    pub fn from_regions<I: IntoIterator<Item = Region>>(regions: I) -> Self {
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for r in regions {
            match spans.last() {
                Some(&(_, right)) if r.left < right => {
                    debug_assert!(r.right < right, "regions must nest or follow");
                }
                _ => spans.push((r.left, r.right)),
            }
        }
        RegionCover { spans }
    }

    /// Cover from arbitrary `(left, right)` spans: sorted, with
    /// overlapping or nested spans merged. This is how a cover is built
    /// from summary-node region hulls, which may partially overlap.
    pub fn from_spans(mut spans: Vec<(u32, u32)>) -> Self {
        spans.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(spans.len());
        for (l, r) in spans {
            match merged.last_mut() {
                Some(last) if l <= last.1 => last.1 = last.1.max(r),
                _ => merged.push((l, r)),
            }
        }
        RegionCover { spans: merged }
    }

    /// The spans both covers contain: a position lies in the result iff it
    /// lies in a span of `self` and in a span of `other`.
    pub fn intersect(&self, other: &RegionCover) -> RegionCover {
        let (a, b) = (&self.spans, &other.spans);
        let (mut i, mut j) = (0, 0);
        let mut spans = Vec::new();
        while i < a.len() && j < b.len() {
            let (left, right) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
            if left <= right {
                spans.push((left, right));
            }
            if a[i].1 < b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        RegionCover { spans }
    }

    /// The top-level spans, in document order.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// True iff the cover has no spans (nothing can match).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::IndexedElement;
    use xmldom::parse;

    fn label_of<'d>(doc: &'d Document, s: &PathSummary, sid: u32) -> &'d str {
        doc.labels().name(s.node(sid).label)
    }

    #[test]
    fn distinct_paths_get_distinct_sids() {
        let doc = parse("<a><b><c/></b><b><c/><d/></b><c/></a>").unwrap();
        let s = PathSummary::build(&doc);
        // /a, /a/b, /a/b/c, /a/b/d, /a/c
        assert_eq!(s.len(), 5);
        let sids: Vec<u32> = doc.iter().map(|n| s.sid(n)).collect();
        // Both b's share a sid, as do both nested c's; the top-level c
        // differs from the nested ones.
        assert_eq!(sids[1], sids[3]);
        assert_eq!(sids[2], sids[4]);
        assert_ne!(sids[2], sids[6]);
        assert_eq!(s.node(sids[1]).count, 2);
        assert_eq!(s.node(sids[2]).count, 2);
        assert_eq!(s.node(sids[6]).count, 1);
    }

    #[test]
    fn recursive_treebank_style_nesting() {
        // Self-nested labels, TreeBank-style: each recursion depth is its
        // own path, so sids separate what label partitioning conflates.
        let doc = parse("<s><vp><s><vp><np/></vp></s><np/></vp></s>").unwrap();
        let s = PathSummary::build(&doc);
        // /s, /s/vp, /s/vp/s, /s/vp/s/vp, /s/vp/s/vp/np, /s/vp/np
        assert_eq!(s.len(), 6);
        let outer_s = s.sid(doc.root());
        let inner_s = s.sid(NodeId::from_index(2));
        assert_ne!(outer_s, inner_s);
        assert_eq!(label_of(&doc, &s, outer_s), "s");
        assert_eq!(label_of(&doc, &s, inner_s), "s");
        assert_eq!(s.node(inner_s).depth, 3);
        assert!(s.is_ancestor(outer_s, inner_s));
        assert!(!s.is_ancestor(inner_s, outer_s));
        // Spans: the outer s covers everything.
        let root = s.node(outer_s);
        assert_eq!((root.min_left, root.max_right), {
            let r = doc.region(doc.root());
            (r.left, r.right)
        });
    }

    #[test]
    fn depth_matches_region_level() {
        let doc = parse("<a><b><c/></b><b/></a>").unwrap();
        let s = PathSummary::build(&doc);
        for n in doc.iter() {
            assert_eq!(s.node(s.sid(n)).depth, doc.region(n).level);
        }
    }

    #[test]
    fn flattened_children_match_tree_structure() {
        let doc = parse("<a><b><c/></b><b><c/><d/></b><c/></a>").unwrap();
        let s = PathSummary::build(&doc);
        let root = s.sid(doc.root());
        // Root's children: /a/b and /a/c, in first-encountered order.
        let root_kids = s.children(root);
        assert_eq!(root_kids.len(), 2);
        for &k in root_kids {
            assert_eq!(s.node(k).parent(), Some(root));
        }
        // The view agrees with the owned accessors everywhere.
        let v = s.view();
        assert_eq!(v.len(), s.len());
        for sid in 0..s.len() as u32 {
            assert_eq!(v.children(sid), s.children(sid));
            assert_eq!(v.node(sid), s.node(sid));
        }
        assert_eq!(v.sids(), s.sids());
    }

    #[test]
    fn summary_set_ops() {
        let mut a = SummarySet::empty(70);
        assert!(a.is_empty());
        a.insert(0);
        a.insert(65);
        assert!(a.contains(0) && a.contains(65) && !a.contains(64));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 65]);
        let mut b = SummarySet::empty(70);
        b.insert(65);
        b.insert(3);
        let mut i = a.clone();
        i.intersect(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![65]);
        a.union(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(SummarySet::full(70).len(), 70);
    }

    #[test]
    fn region_cover_absorbs_nested_spans() {
        let cover = RegionCover::from_regions(vec![
            Region::new(1, 10, 1),
            Region::new(2, 5, 2), // nested in (1,10)
            Region::new(12, 20, 1),
        ]);
        assert_eq!(cover.spans(), &[(1, 10), (12, 20)]);
        assert!(RegionCover::from_regions(std::iter::empty()).is_empty());
    }

    #[test]
    fn region_cover_merges_overlapping_spans() {
        let cover = RegionCover::from_spans(vec![(20, 70), (1, 10), (5, 30), (80, 90)]);
        assert_eq!(cover.spans(), &[(1, 70), (80, 90)]);
        assert!(RegionCover::from_spans(Vec::new()).is_empty());
    }

    #[test]
    fn region_cover_intersection_keeps_common_positions() {
        let a = RegionCover::from_spans(vec![(1, 10), (20, 30), (40, 50)]);
        let b = RegionCover::from_spans(vec![(5, 25), (30, 45), (60, 70)]);
        assert_eq!(a.intersect(&b).spans(), &[(5, 10), (20, 25), (30, 30), (40, 45)]);
        assert_eq!(b.intersect(&a), a.intersect(&b));
        assert!(a.intersect(&RegionCover::default()).is_empty());
        assert_eq!(a.intersect(&a), a);
    }

    #[test]
    fn fingerprint_tracks_structure_not_size() {
        // Same label paths, different element counts and text: the schema
        // is identical, so the fingerprints must collide by design.
        let small = parse("<a><b><c/></b></a>").unwrap();
        let big = parse("<a><b><c/><c/></b><b><c/></b></a>").unwrap();
        let fp_small = PathSummary::build(&small).fingerprint(small.labels());
        let fp_big = PathSummary::build(&big).fingerprint(big.labels());
        assert_eq!(fp_small, fp_big);
        // A structural change (new path /a/b/d) moves the fingerprint.
        let other = parse("<a><b><c/><d/></b></a>").unwrap();
        assert_ne!(fp_small, PathSummary::build(&other).fingerprint(other.labels()));
        // So does the same label set arranged differently (/a/c vs /a/b/c).
        let flat = parse("<a><b/><c/></a>").unwrap();
        assert_ne!(fp_small, PathSummary::build(&flat).fingerprint(flat.labels()));
    }

    #[test]
    fn fingerprint_hashes_label_names_not_ids() {
        // Identical shape and identical numeric Label ids (0, 1, 2 in
        // both) — only the leaf *name* differs. Hashing ids would
        // collide here; hashing names must not.
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let renamed = parse("<a><b><d/></b></a>").unwrap();
        assert_ne!(
            PathSummary::build(&doc).fingerprint(doc.labels()),
            PathSummary::build(&renamed).fingerprint(renamed.labels()),
        );
    }

    #[test]
    fn indexed_element_sids_align() {
        let doc = parse("<a><b/><a><b/></a></a>").unwrap();
        let s = PathSummary::build(&doc);
        for n in doc.iter() {
            let e = IndexedElement { id: n, region: doc.region(n) };
            assert_eq!(s.sid(e.id), s.sids()[n.index()]);
        }
    }
}
