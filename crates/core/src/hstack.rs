//! Hierarchical stacks — the paper's encoding structure (§3.2).
//!
//! One [`HierStack`] per query node holds an ordered forest of *stack
//! trees*; each tree node is a stack of document elements. Invariants
//! (maintained by construction, checked in debug builds):
//!
//! * within a stack, an element is an ancestor of every element below it
//!   (post-order processing pushes ancestors after descendants);
//! * every element in a stack is an ancestor of everything in the stack's
//!   descendant stacks;
//! * root trees are ordered by ascending `RightPos`, and a new (or newly
//!   merged) tree always has the largest `RightPos` seen so far, so order
//!   maintenance is O(1) (paper §3.2.2);
//! * a stack never gains children after creation — merging creates a *new*
//!   root over the merged trees (paper Figure 6), so `(stack id, element
//!   index)` references held by result edges stay valid forever.
//!
//! The **merge** operation implements paper Figure 6: walk root trees from
//! the largest `RightPos` down while they are descendants of the incoming
//! element, perform the query-step check against each tree's top element
//! (PC) or the whole tree (AD), record result edges, and fold the visited
//! trees under one new root.

use crate::edges::{EdgeLists, EdgeTarget};
use gtpquery::Axis;
use std::fmt;
use xmldom::{NodeId, Region};

/// Identifier of a stack (tree node) within one [`HierStack`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SId(pub(crate) u32);

impl SId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A document element held in a stack: identity, region, and its result
/// edges (one list per child query node).
#[derive(Debug, Clone)]
pub struct StackElem {
    /// Document node id.
    pub node: NodeId,
    /// Region encoding.
    pub region: Region,
    /// Result edges, indexed by child-query-node position.
    pub edges: EdgeLists,
}

/// One stack: a node of a stack tree.
#[derive(Debug, Clone)]
pub struct StackNode {
    /// Smallest `LeftPos` over this stack's elements and all descendants.
    pub left: u32,
    /// Largest `RightPos` over this stack's elements and all descendants.
    pub right: u32,
    /// Elements, bottom (deepest descendant) to top (highest ancestor).
    pub elems: Vec<StackElem>,
    /// Child stacks in ascending document order (ascending `RightPos`).
    pub children: Vec<SId>,
}

impl StackNode {
    /// The top element, if the stack is non-empty.
    pub fn top(&self) -> Option<&StackElem> {
        self.elems.last()
    }
}

/// Approximate heap bytes of one empty stack node (for Table 1 accounting).
const STACK_NODE_BYTES: usize = std::mem::size_of::<StackNode>();
/// Approximate heap bytes of one stacked element, excluding edges.
const ELEM_BYTES: usize = std::mem::size_of::<StackElem>();
/// Approximate heap bytes of one result edge.
pub(crate) const EDGE_BYTES: usize = std::mem::size_of::<EdgeTarget>();

/// The hierarchical stack of one query node.
#[derive(Debug, Clone, Default)]
pub struct HierStack {
    nodes: Vec<StackNode>,
    /// Root stack trees, ascending `RightPos`.
    roots: Vec<SId>,
    /// Existence-checking mode (paper §3.5): keep only each tree's root
    /// stack and its top element; receive no edges.
    existence_only: bool,
    /// Logical live bytes (drops in existence mode / cleanup are counted
    /// even though the arena retains slots).
    live_bytes: usize,
    /// Total elements ever pushed (statistics).
    pushed: usize,
    /// Recycled element buffers from cleared / truncated stack nodes, so
    /// the hot path reuses capacity instead of hitting the allocator
    /// (drawn on by the first [`Self::push`] into a node). Only buffers
    /// that own capacity are pooled (see [`pool_buffer`]).
    spare_elems: Vec<Vec<StackElem>>,
    /// Recycled child-list buffers, drawn on by merges.
    spare_children: Vec<Vec<SId>>,
}

impl HierStack {
    /// New empty hierarchical stack. `existence_only` enables the paper's
    /// §3.5 truncation.
    pub fn new(existence_only: bool) -> Self {
        HierStack { existence_only, ..HierStack::default() }
    }

    /// Clear all state and switch mode, retaining arena and buffer-pool
    /// capacity for reuse (see [`crate::context::EvalContext`]).
    pub fn reset(&mut self, existence_only: bool) {
        self.clear();
        self.existence_only = existence_only;
        self.pushed = 0;
    }

    /// Whether §3.5 truncation is active.
    pub fn is_existence_only(&self) -> bool {
        self.existence_only
    }

    /// Root stack trees in ascending document order.
    pub fn roots(&self) -> &[SId] {
        &self.roots
    }

    /// Access a stack node.
    #[inline]
    pub fn node(&self, id: SId) -> &StackNode {
        &self.nodes[id.index()]
    }

    /// Total elements ever pushed.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Buffers waiting in the spare pools (diagnostics / tests).
    pub(crate) fn spare_buffers(&self) -> usize {
        self.spare_elems.len() + self.spare_children.len()
    }

    /// Number of arena slots (live and dead) — the id offset a spliced
    /// stack's nodes shift by.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Logical live bytes held by this stack's structures.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// True iff no tree exists (nothing ever matched, or cleaned up).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Drop all trees (early result enumeration cleanup, paper §4.4).
    /// Node buffers go to the spare pools rather than the allocator, so a
    /// reused stack allocates nothing while re-growing to its former size.
    pub fn clear(&mut self) {
        for n in &mut self.nodes {
            pool_buffer(&mut self.spare_elems, std::mem::take(&mut n.elems));
            pool_buffer(&mut self.spare_children, std::mem::take(&mut n.children));
        }
        self.nodes.clear();
        self.roots.clear();
        self.live_bytes = 0;
    }

    /// The paper's query-step check + merge (Figure 6).
    ///
    /// Walk the root trees that are descendants of `e` (from the largest
    /// `RightPos` down), check the `axis` step against each (top element
    /// for PC, whole tree for AD), append result edges to `edges_out`
    /// (unless this stack is existence-only), and merge the visited trees.
    /// Returns `true` iff at least one tree satisfied the step.
    pub fn merge_check(
        &mut self,
        e: &Region,
        axis: Axis,
        edges_out: &mut Vec<EdgeTarget>,
    ) -> bool {
        let mut satisfied = false;
        let first_desc = self.first_descendant_root(e);
        for i in first_desc..self.roots.len() {
            let st = self.roots[i];
            let snode = &self.nodes[st.index()];
            debug_assert!(
                e.left < snode.left && snode.right < e.right,
                "merged tree must lie inside the incoming element"
            );
            match axis {
                Axis::Child => {
                    if let Some(top) = snode.top() {
                        if top.region.level == e.level + 1 {
                            satisfied = true;
                            if !self.existence_only {
                                edges_out.push(EdgeTarget::element(
                                    st,
                                    (snode.elems.len() - 1) as u32,
                                ));
                            }
                        }
                    }
                }
                Axis::Descendant => {
                    satisfied = true;
                    if !self.existence_only {
                        edges_out.push(EdgeTarget::subtree(st, snode.elems.len() as u32));
                    }
                }
            }
        }
        self.merge_tail(first_desc);
        satisfied
    }

    /// Push `elem` (which must close after everything already present):
    /// merge its descendant trees and place it on top (paper
    /// `MatchOneNode` lines 6–7). Returns the element's location.
    pub fn push(&mut self, node: NodeId, region: Region, edges: EdgeLists) -> (SId, u32) {
        self.pushed += 1;
        twigobs::bump(twigobs::Counter::StackPushes);
        let first_desc = self.first_descendant_root(&region);
        self.merge_tail(first_desc);
        // After merging, at most one root tree is a descendant of `region`.
        let target = match self.roots.last().copied() {
            Some(st) if self.nodes[st.index()].right > region.left => st,
            _ => {
                let id = self.alloc_node(region.left, region.right);
                self.roots.push(id);
                id
            }
        };
        let edge_count: usize = edges.total_edges();
        self.live_bytes += ELEM_BYTES + edge_count * EDGE_BYTES;
        let tnode = &mut self.nodes[target.index()];
        if tnode.elems.capacity() == 0 {
            tnode.elems = self.spare_elems.pop().unwrap_or_default();
        }
        tnode.left = tnode.left.min(region.left);
        tnode.right = tnode.right.max(region.right);
        if self.existence_only {
            // §3.5: only the top element is ever inspected.
            if let Some(prev) = tnode.elems.pop() {
                let prev_edges = prev.edges.total_edges();
                self.live_bytes -= ELEM_BYTES + prev_edges * EDGE_BYTES;
            }
        }
        tnode.elems.push(StackElem { node, region, edges });
        (target, (self.nodes[target.index()].elems.len() - 1) as u32)
    }

    /// Index of the first root (in the ascending roots list) that is a
    /// descendant of `e` — i.e. whose `RightPos > e.left`.
    fn first_descendant_root(&self, e: &Region) -> usize {
        // Roots are sorted by ascending right; scan back from the tail
        // (amortized O(1) per merged tree, as each tree merges only once).
        let mut i = self.roots.len();
        while i > 0 {
            let st = self.roots[i - 1];
            if self.nodes[st.index()].right < e.left {
                break;
            }
            i -= 1;
        }
        i
    }

    /// Fold `roots[first..]` into a single tree (no-op for 0 or 1 trees).
    fn merge_tail(&mut self, first: usize) {
        let count = self.roots.len() - first;
        if count < 2 {
            return;
        }
        twigobs::bump(twigobs::Counter::Merges);
        let mut children = self.spare_children.pop().unwrap_or_default();
        children.extend(self.roots.drain(first..));
        let left = children
            .iter()
            .map(|&c| self.nodes[c.index()].left)
            .min()
            .expect("non-empty merge set");
        let right = children
            .iter()
            .map(|&c| self.nodes[c.index()].right)
            .max()
            .expect("non-empty merge set");
        let merged = self.alloc_node(left, right);
        if self.existence_only {
            // §3.5: merged subtrees are no longer reachable by any future
            // parent/ancestor check; drop them.
            for &c in &children {
                self.live_bytes -= self.subtree_bytes(c);
                // Leave the arena slot in place (ids must stay stable) but
                // recycle its heap payload. Its child list is always empty
                // in existence mode (merges never assign children here).
                let elems = std::mem::take(&mut self.nodes[c.index()].elems);
                pool_buffer(&mut self.spare_elems, elems);
            }
            pool_buffer(&mut self.spare_children, children);
        } else {
            self.nodes[merged.index()].children = children;
        }
        self.roots.push(merged);
    }

    /// Append another stack's forest after this one (parallel chunk
    /// merge). All of `other`'s trees must lie strictly after every tree
    /// already here in document order — chunk subtrees are region-disjoint
    /// and processed in document order, so this holds by construction.
    ///
    /// `other`'s node ids shift up by this arena's current length;
    /// `child_offsets[i]` is the matching shift for the stack of the
    /// owning query node's `i`-th child, applied to each element's edge
    /// list `i`.
    pub(crate) fn splice(&mut self, other: HierStack, child_offsets: &[u32]) {
        debug_assert_eq!(
            self.existence_only, other.existence_only,
            "spliced stacks must agree on §3.5 truncation mode"
        );
        if let (Some(&last), Some(&first)) = (self.roots.last(), other.roots.first()) {
            debug_assert!(
                self.nodes[last.index()].right < other.nodes[first.index()].left,
                "spliced forest must follow the existing one in document order"
            );
        }
        let offset = self.nodes.len() as u32;
        for mut n in other.nodes {
            for c in &mut n.children {
                c.0 += offset;
            }
            for e in &mut n.elems {
                e.edges.remap(child_offsets);
            }
            self.nodes.push(n);
        }
        self.roots
            .extend(other.roots.into_iter().map(|r| SId(r.0 + offset)));
        self.live_bytes += other.live_bytes;
        self.pushed += other.pushed;
        self.spare_elems.extend(other.spare_elems);
        self.spare_children.extend(other.spare_children);
    }

    /// A new, empty stack node. It takes pooled buffers only when it
    /// first needs one (a push or a merge), so a node that never holds an
    /// element cannot pin a pooled buffer another node then has to
    /// allocate afresh.
    fn alloc_node(&mut self, left: u32, right: u32) -> SId {
        let id = SId(self.nodes.len() as u32);
        self.nodes.push(StackNode {
            left,
            right,
            elems: Vec::new(),
            children: Vec::new(),
        });
        self.live_bytes += STACK_NODE_BYTES;
        id
    }

    fn subtree_bytes(&self, id: SId) -> usize {
        let n = &self.nodes[id.index()];
        let own = STACK_NODE_BYTES
            + n.elems
                .iter()
                .map(|e| ELEM_BYTES + e.edges.total_edges() * EDGE_BYTES)
                .sum::<usize>();
        own + n
            .children
            .iter()
            .map(|&c| self.subtree_bytes(c))
            .sum::<usize>()
    }

    /// All elements of the stack tree rooted at `id`, as `(stack, index)`
    /// pairs in **document order** (pre-order: tops first, then down the
    /// stack, then child trees), appended into a caller-owned buffer
    /// (which is not cleared) so repeated walks can reuse capacity.
    pub fn tree_elements_into(&self, id: SId, out: &mut Vec<(SId, u32)>) {
        self.collect_tree(id, out);
    }

    fn collect_tree(&self, id: SId, out: &mut Vec<(SId, u32)>) {
        let n = &self.nodes[id.index()];
        for i in (0..n.elems.len()).rev() {
            out.push((id, i as u32));
        }
        for &c in &n.children {
            self.collect_tree(c, out);
        }
    }

    /// The element at a location.
    #[inline]
    pub fn elem(&self, loc: (SId, u32)) -> &StackElem {
        &self.nodes[loc.0.index()].elems[loc.1 as usize]
    }

    /// Validate the §3.2 invariants (tests / debug only): stack nesting,
    /// child ordering, and region spans.
    pub fn check_invariants(&self) {
        for w in self.roots.windows(2) {
            let a = &self.nodes[w[0].index()];
            let b = &self.nodes[w[1].index()];
            assert!(a.right < b.left, "root trees must be disjoint and ordered");
        }
        for &r in &self.roots {
            self.check_node(r);
        }
    }

    fn check_node(&self, id: SId) {
        let n = &self.nodes[id.index()];
        // Elements nest bottom-up: each element is an ancestor of the one
        // below it.
        for w in n.elems.windows(2) {
            assert!(
                w[1].region.is_ancestor_of(&w[0].region),
                "stack elements must nest upward"
            );
        }
        // Every element spans all child stacks.
        for e in &n.elems {
            for &c in &n.children {
                let cn = &self.nodes[c.index()];
                assert!(
                    e.region.left < cn.left && cn.right < e.region.right,
                    "stack elements must contain descendant stacks"
                );
            }
        }
        for w in n.children.windows(2) {
            let a = &self.nodes[w[0].index()];
            let b = &self.nodes[w[1].index()];
            assert!(a.right < b.left, "child stacks must be ordered/disjoint");
        }
        assert!(n.left <= n.right);
        for &c in &n.children {
            let cn = &self.nodes[c.index()];
            assert!(n.left <= cn.left && cn.right <= n.right, "span must cover children");
            self.check_node(c);
        }
    }
}

/// Return `buf` to `pool` if it owns capacity. An empty buffer (a slot an
/// existence-mode merge already emptied, or a node that never held an
/// element) saves no allocation, and pooling it would grow the pool by one
/// entry per such slot on every reuse of the stack.
fn pool_buffer<T>(pool: &mut Vec<Vec<T>>, mut buf: Vec<T>) {
    if buf.capacity() > 0 {
        buf.clear();
        pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edges::EdgeLists;

    fn r(l: u32, rr: u32, lev: u32) -> Region {
        Region::new(l, rr, lev)
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Paper Figure 5: visiting a3 [4,11], a4 [13,20] then a2 [2,22]
    /// builds one tree with a2 on the new merged root.
    fn push3(hs: &mut HierStack) {
        hs.push(n(3), r(4, 11, 3), EdgeLists::empty());
        hs.push(n(4), r(13, 20, 3), EdgeLists::empty());
        hs.push(n(2), r(2, 22, 2), EdgeLists::empty());
    }

    #[test]
    fn figure5_merge_on_push() {
        let mut hs = HierStack::new(false);
        push3(&mut hs);
        hs.check_invariants();
        assert_eq!(hs.roots().len(), 1);
        let root = hs.node(hs.roots()[0]);
        assert_eq!(root.elems.len(), 1); // a2 on the merged root
        assert_eq!(root.elems[0].node, n(2));
        assert_eq!(root.children.len(), 2); // a3's and a4's stacks
        assert_eq!((root.left, root.right), (2, 22));
        assert_eq!(hs.pushed(), 3);
    }

    #[test]
    fn unrelated_trees_stay_separate() {
        let mut hs = HierStack::new(false);
        hs.push(n(1), r(4, 11, 3), EdgeLists::empty());
        hs.push(n(2), r(13, 20, 3), EdgeLists::empty());
        hs.check_invariants();
        assert_eq!(hs.roots().len(), 2);
    }

    #[test]
    fn nested_push_stacks_on_top() {
        // d3 [15,16], then its ancestor d2 [14,17]: same stack.
        let mut hs = HierStack::new(false);
        hs.push(n(3), r(15, 16, 7), EdgeLists::empty());
        hs.push(n(2), r(14, 17, 6), EdgeLists::empty());
        hs.check_invariants();
        assert_eq!(hs.roots().len(), 1);
        let root = hs.node(hs.roots()[0]);
        assert_eq!(root.elems.len(), 2);
        assert_eq!(root.top().unwrap().node, n(2)); // ancestor on top
    }

    #[test]
    fn merge_check_ad_creates_subtree_edges() {
        let mut hs = HierStack::new(false);
        push3(&mut hs);
        let mut edges = Vec::new();
        // An ancestor of the whole forest checks an AD step.
        let sat = hs.merge_check(&r(1, 30, 1), Axis::Descendant, &mut edges);
        assert!(sat);
        assert_eq!(edges.len(), 1); // one (already merged) tree
        assert!(matches!(edges[0], EdgeTarget::Subtree { .. }));
    }

    #[test]
    fn merge_check_pc_checks_top_level() {
        let mut hs = HierStack::new(false);
        push3(&mut hs); // top of the single tree is a2 at level 2
        let mut edges = Vec::new();
        let sat = hs.merge_check(&r(1, 30, 1), Axis::Child, &mut edges);
        assert!(sat, "a2 at level 2 is a child of level-1 element");
        assert_eq!(edges.len(), 1);
        // A level-3 element cannot have a level-2 top as its child.
        let mut hs2 = HierStack::new(false);
        push3(&mut hs2);
        let mut edges2 = Vec::new();
        let sat2 = hs2.merge_check(&r(1, 30, 4), Axis::Child, &mut edges2);
        assert!(!sat2);
        assert!(edges2.is_empty());
    }

    #[test]
    fn merge_check_ignores_preceding_trees() {
        let mut hs = HierStack::new(false);
        hs.push(n(1), r(2, 3, 2), EdgeLists::empty());
        hs.push(n(2), r(6, 7, 2), EdgeLists::empty());
        let mut edges = Vec::new();
        // Element [5,8] contains only the second tree.
        let sat = hs.merge_check(&r(5, 8, 1), Axis::Child, &mut edges);
        assert!(sat);
        assert_eq!(edges.len(), 1);
        assert_eq!(hs.roots().len(), 2, "preceding tree untouched");
    }

    #[test]
    fn tree_elements_in_document_order() {
        let mut hs = HierStack::new(false);
        push3(&mut hs);
        let root = hs.roots()[0];
        let mut elems = Vec::new();
        hs.tree_elements_into(root, &mut elems);
        let ids: Vec<NodeId> = elems.iter().map(|&l| hs.elem(l).node).collect();
        assert_eq!(ids, vec![n(2), n(3), n(4)]); // pre-order: a2, a3, a4
        let lefts: Vec<u32> = elems.iter().map(|&l| hs.elem(l).region.left).collect();
        assert!(lefts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn existence_mode_truncates() {
        let mut hs = HierStack::new(true);
        push3(&mut hs);
        assert_eq!(hs.roots().len(), 1);
        let root = hs.node(hs.roots()[0]);
        assert_eq!(root.elems.len(), 1); // only a2 (top) retained
        assert!(root.children.is_empty(), "merged subtrees dropped");
        // Dropped subtrees reduce live bytes relative to full mode.
        let mut full = HierStack::new(false);
        push3(&mut full);
        assert!(hs.live_bytes() < full.live_bytes());
    }

    #[test]
    fn existence_mode_push_replaces_top() {
        let mut hs = HierStack::new(true);
        hs.push(n(3), r(15, 16, 7), EdgeLists::empty());
        hs.push(n(2), r(14, 17, 6), EdgeLists::empty());
        let root = hs.node(hs.roots()[0]);
        assert_eq!(root.elems.len(), 1);
        assert_eq!(root.top().unwrap().node, n(2));
    }

    #[test]
    fn existence_mode_ad_still_satisfied_with_empty_top() {
        let mut hs = HierStack::new(true);
        hs.push(n(3), r(4, 11, 3), EdgeLists::empty());
        hs.push(n(4), r(13, 20, 3), EdgeLists::empty());
        // A step check from [2,22] merges both trees (creating an empty
        // merged root in existence mode)...
        let mut edges = Vec::new();
        assert!(hs.merge_check(&r(2, 22, 2), Axis::Descendant, &mut edges));
        assert!(edges.is_empty(), "no edges to existence-checking nodes");
        // ... and a later AD check still sees the witness tree.
        let mut edges2 = Vec::new();
        assert!(hs.merge_check(&r(1, 30, 1), Axis::Descendant, &mut edges2));
        // But a PC check cannot match an empty top.
        let mut hs2 = HierStack::new(true);
        hs2.push(n(3), r(4, 11, 3), EdgeLists::empty());
        hs2.push(n(4), r(13, 20, 3), EdgeLists::empty());
        let mut e3 = Vec::new();
        hs2.merge_check(&r(2, 22, 2), Axis::Descendant, &mut e3);
        let mut e4 = Vec::new();
        assert!(!hs2.merge_check(&r(1, 30, 1), Axis::Child, &mut e4));
    }

    #[test]
    fn clear_frees_everything() {
        let mut hs = HierStack::new(false);
        push3(&mut hs);
        assert!(hs.live_bytes() > 0);
        hs.clear();
        assert!(hs.is_empty());
        assert_eq!(hs.live_bytes(), 0);
        // Still usable after clearing.
        hs.push(n(9), r(40, 41, 2), EdgeLists::empty());
        assert_eq!(hs.roots().len(), 1);
    }
}
