//! The Generalized Tree Pattern (GTP) model.
//!
//! A GTP (Chen et al., VLDB 2003; paper §2) generalizes a twig pattern:
//!
//! * edges carry an **axis** — parent-child (`/`) or ancestor-descendant
//!   (`//`) — and are **mandatory** (solid) or **optional** (dotted);
//! * nodes carry a **role** — plain return node, *group* return node
//!   (matches grouped under their common ancestor match, as produced by
//!   XQuery `LET`/`RETURN` expressions), or non-return (only existence
//!   matters).
//!
//! A plain twig query is the special case where every edge is mandatory and
//! every node is a return node.

use std::fmt;

/// Identifier of a query node within one [`Gtp`]. Ids are assigned in
/// insertion order; the root is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QNodeId(pub(crate) u32);

impl QNodeId {
    /// Raw index into the GTP node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from an index in `0..gtp.len()`. Exposed for the
    /// parser; meaningful only against the GTP it came from.
    #[doc(hidden)]
    pub fn from_index_for_parser(index: usize) -> Self {
        QNodeId(index as u32)
    }
}

impl fmt::Display for QNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// What a query node matches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeTest {
    /// Match elements with this tag name.
    Name(String),
    /// `*`: match any element.
    Wildcard,
}

impl NodeTest {
    /// True iff this test accepts the tag name `name`.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            NodeTest::Name(n) => n == name,
            NodeTest::Wildcard => true,
        }
    }
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Wildcard => f.write_str("*"),
        }
    }
}

/// A predicate on an element's own character data (paper §3.4 notes that
/// evaluating value predicates during the traversal shrinks the
/// hierarchical stacks). Matching requires a text source (the DOM);
/// structure-only streams cannot evaluate these.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValuePred {
    /// The element's direct text, trimmed, equals the string.
    TextEquals(String),
    /// The element's direct text contains the string.
    TextContains(String),
}

impl ValuePred {
    /// Apply the predicate to an element's direct text (`None` = no text).
    pub fn matches(&self, text: Option<&str>) -> bool {
        match self {
            ValuePred::TextEquals(v) => text.map(str::trim) == Some(v.as_str()),
            ValuePred::TextContains(v) => text.is_some_and(|t| t.contains(v.as_str())),
        }
    }
}

impl fmt::Display for ValuePred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValuePred::TextEquals(v) => write!(f, "='{v}'"),
            ValuePred::TextContains(v) => write!(f, "~'{v}'"),
        }
    }
}

/// Structural axis of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/`: parent-child.
    Child,
    /// `//`: ancestor-descendant.
    Descendant,
}

impl Axis {
    /// True for the parent-child axis.
    #[inline]
    pub fn is_pc(self) -> bool {
        matches!(self, Axis::Child)
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Axis::Child => "/",
            Axis::Descendant => "//",
        })
    }
}

/// Role of a query node in the result (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    /// A column in the output; one tuple per match.
    #[default]
    Return,
    /// A column in the output; matches are grouped into a list under their
    /// common ancestor match (XQuery `LET` / `RETURN`).
    GroupReturn,
    /// Only existence matters; produces no column.
    NonReturn,
}

impl Role {
    /// True for [`Role::Return`] or [`Role::GroupReturn`].
    #[inline]
    pub fn is_output(self) -> bool {
        !matches!(self, Role::NonReturn)
    }
}

/// The incoming edge of a non-root query node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Parent-child or ancestor-descendant.
    pub axis: Axis,
    /// Optional (dotted) edges need not be satisfied for the upper element
    /// to match; mandatory (solid) edges must be.
    pub optional: bool,
}

#[derive(Debug, Clone)]
struct GtpNode {
    test: NodeTest,
    role: Role,
    parent: Option<QNodeId>,
    /// `None` only for the root.
    edge: Option<Edge>,
    children: Vec<QNodeId>,
    /// OR-group id (paper §3.3.3, AND/OR twigs \[14\]): sibling steps that
    /// share a group are combined with OR instead of AND. Unique by
    /// default (every step its own group = plain AND semantics).
    or_group: u32,
    /// Optional predicate on the element's own text.
    value_pred: Option<ValuePred>,
}

/// A Generalized Tree Pattern query.
///
/// Build one with [`GtpBuilder`], [`crate::parse::parse_twig`], or
/// [`crate::xquery::translate`].
#[derive(Debug, Clone)]
pub struct Gtp {
    nodes: Vec<GtpNode>,
    /// `true` iff the query is anchored at the document root (`/a/...`):
    /// the root query node then only matches elements at level 1.
    rooted: bool,
}

impl Gtp {
    /// The root query node (always id 0).
    #[inline]
    pub fn root(&self) -> QNodeId {
        QNodeId(0)
    }

    /// Number of query nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the query holds no nodes. Builders never produce this.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the query is anchored at the document root.
    #[inline]
    pub fn is_rooted(&self) -> bool {
        self.rooted
    }

    /// The node test of `q`.
    #[inline]
    pub fn test(&self, q: QNodeId) -> &NodeTest {
        &self.nodes[q.index()].test
    }

    /// The role of `q`.
    #[inline]
    pub fn role(&self, q: QNodeId) -> Role {
        self.nodes[q.index()].role
    }

    /// The parent of `q`, `None` for the root.
    #[inline]
    pub fn parent(&self, q: QNodeId) -> Option<QNodeId> {
        self.nodes[q.index()].parent
    }

    /// The incoming edge of `q`, `None` for the root.
    #[inline]
    pub fn edge(&self, q: QNodeId) -> Option<Edge> {
        self.nodes[q.index()].edge
    }

    /// Children of `q` in insertion order.
    #[inline]
    pub fn children(&self, q: QNodeId) -> &[QNodeId] {
        &self.nodes[q.index()].children
    }

    /// The OR-group id of `q`'s incoming step. Sibling steps sharing a
    /// group are disjunctive: the parent is satisfied when *any* of them
    /// is (for mandatory steps). Ids are only meaningful for equality
    /// among siblings.
    #[inline]
    pub fn or_group(&self, q: QNodeId) -> u32 {
        self.nodes[q.index()].or_group
    }

    /// The value predicate of `q`, if any.
    #[inline]
    pub fn value_pred(&self, q: QNodeId) -> Option<&ValuePred> {
        self.nodes[q.index()].value_pred.as_ref()
    }

    /// Attach a value predicate to `q`.
    pub fn set_value_pred(&mut self, q: QNodeId, pred: Option<ValuePred>) {
        self.nodes[q.index()].value_pred = pred;
    }

    /// True iff any node carries a value predicate — evaluation then
    /// needs a text source (the DOM).
    pub fn has_value_preds(&self) -> bool {
        self.iter().any(|q| self.value_pred(q).is_some())
    }

    /// True iff any sibling set shares an OR-group (the query uses
    /// AND/OR semantics). The decomposition-based baselines reject such
    /// queries.
    pub fn has_or_groups(&self) -> bool {
        self.iter().any(|q| {
            self.children(q).iter().any(|&c| {
                self.children(q)
                    .iter()
                    .any(|&d| d != c && self.or_group(d) == self.or_group(c))
            })
        })
    }

    /// Iterate over all node ids, root first, in insertion (pre-order if
    /// built by the parser) order.
    pub fn iter(&self) -> impl Iterator<Item = QNodeId> + '_ {
        (0..self.nodes.len() as u32).map(QNodeId)
    }

    /// Node ids in a guaranteed pre-order (parent before child) traversal.
    pub fn preorder(&self) -> Vec<QNodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![self.root()];
        while let Some(q) = stack.pop() {
            out.push(q);
            for &c in self.children(q).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Node ids in post-order (children before parent).
    pub fn postorder(&self) -> Vec<QNodeId> {
        let mut out = self.preorder();
        out.reverse();
        // Reversed preorder is not postorder in general; do it properly.
        out.clear();
        self.postorder_into(self.root(), &mut out);
        out
    }

    fn postorder_into(&self, q: QNodeId, out: &mut Vec<QNodeId>) {
        for &c in self.children(q) {
            self.postorder_into(c, out);
        }
        out.push(q);
    }

    /// True iff `q` is a leaf query node.
    pub fn is_leaf(&self, q: QNodeId) -> bool {
        self.children(q).is_empty()
    }

    /// Change the role of a node (used to derive GTP variants of a twig).
    pub fn set_role(&mut self, q: QNodeId, role: Role) {
        self.nodes[q.index()].role = role;
    }

    /// Make the incoming edge of `q` optional or mandatory.
    ///
    /// # Panics
    /// Panics if `q` is the root (it has no incoming edge).
    pub fn set_edge_optional(&mut self, q: QNodeId, optional: bool) {
        self.nodes[q.index()]
            .edge
            .as_mut()
            .expect("root has no incoming edge")
            .optional = optional;
    }

    /// Set every node's role to [`Role::Return`] (a "full twig query").
    pub fn all_return(mut self) -> Self {
        for n in &mut self.nodes {
            n.role = Role::Return;
        }
        self
    }

    /// Set XPath result semantics: the given node is the only return node,
    /// all others become [`Role::NonReturn`].
    pub fn single_return(mut self, ret: QNodeId) -> Self {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.role = if i == ret.index() {
                Role::Return
            } else {
                Role::NonReturn
            };
        }
        self
    }

    /// Find the first node (pre-order) whose test is the given name.
    pub fn find(&self, name: &str) -> Option<QNodeId> {
        self.preorder()
            .into_iter()
            .find(|&q| matches!(self.test(q), NodeTest::Name(n) if n == name))
    }

    /// Distinct label names mentioned by the query (wildcards excluded).
    pub fn label_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .nodes
            .iter()
            .filter_map(|n| match &n.test {
                NodeTest::Name(s) => Some(s.as_str()),
                NodeTest::Wildcard => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// True iff any node is a wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.nodes.iter().any(|n| n.test == NodeTest::Wildcard)
    }

    /// Query nodes every match binds, in pre-order: the root, and each
    /// node whose root path has only solid (non-optional) edges and
    /// passes through no multi-member OR-group (an OR member can be
    /// absent as long as a sibling alternative matches).
    ///
    /// This is the one definition of "required" that catalog routing
    /// ([`Self::required_label_names`]) and the value probe
    /// ([`Self::required_equalities`]) share.
    pub fn required_nodes(&self) -> Vec<QNodeId> {
        let mut mandatory = vec![false; self.len()];
        let mut out = Vec::new();
        for q in self.preorder() {
            let on_solid_path = match self.parent(q) {
                None => true,
                Some(p) => {
                    mandatory[p.index()]
                        && !self.edge(q).is_some_and(|e| e.optional)
                        && !self
                            .children(p)
                            .iter()
                            .any(|&d| d != q && self.or_group(d) == self.or_group(q))
                }
            };
            mandatory[q.index()] = on_solid_path;
            if on_solid_path {
                out.push(q);
            }
        }
        out
    }

    /// Label names a document **must** contain to produce any match —
    /// the zero-false-negative routing set for multi-document catalogs.
    ///
    /// Every [required](Self::required_nodes) node with a name test must
    /// bind to some element, so its label must exist in the document;
    /// optional/OR branches and wildcards contribute nothing. Value
    /// predicates are irrelevant here — the element's *presence* is still
    /// required even if its text decides the match.
    ///
    /// The result is sorted and deduplicated, like [`Self::label_names`].
    ///
    /// The set can legitimately be **empty** — e.g. `//*`, `//*/*`, or a
    /// named query whose every name sits behind an optional edge or
    /// OR-group. Empty means "no routing evidence", not "matches
    /// nothing": consumers (`twigserve::catalog` routing) must treat it
    /// as route-everywhere.
    pub fn required_label_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .required_nodes()
            .into_iter()
            .filter_map(|q| match self.test(q) {
                NodeTest::Name(n) => Some(n.as_str()),
                NodeTest::Wildcard => None,
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The [required](Self::required_nodes) nodes carrying a `='…'`
    /// predicate, with its value: every match binds each of them to an
    /// element whose trimmed text equals the value, so each one's
    /// postings bound where a match can lie (the value probe, DESIGN.md
    /// §11). `~'…'` predicates are not listed.
    pub fn required_equalities(&self) -> Vec<(QNodeId, &str)> {
        self.required_nodes()
            .into_iter()
            .filter_map(|q| match self.value_pred(q) {
                Some(ValuePred::TextEquals(v)) => Some((q, v.as_str())),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for Gtp {
    /// Render back to (extended) twig syntax. Predicate branches are printed
    /// in `[...]` groups; the last child continues the spine.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn edge_str(e: Edge) -> &'static str {
            match (e.axis, e.optional) {
                (Axis::Child, false) => "/",
                (Axis::Descendant, false) => "//",
                (Axis::Child, true) => "/?",
                (Axis::Descendant, true) => "//?",
            }
        }
        fn node(g: &Gtp, q: QNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", g.test(q))?;
            if let Some(p) = g.value_pred(q) {
                write!(f, "{p}")?;
            }
            match g.role(q) {
                Role::Return => {}
                Role::GroupReturn => write!(f, "@")?,
                Role::NonReturn => write!(f, "!")?,
            }
            let kids = g.children(q);
            if kids.is_empty() {
                return Ok(());
            }
            let (last, preds) = kids.split_last().unwrap();
            let pred_head = |p: QNodeId| {
                let e = g.edge(p).unwrap();
                match (e.axis, e.optional) {
                    (Axis::Child, false) => "",
                    (Axis::Child, true) => "?",
                    (Axis::Descendant, false) => ".//",
                    (Axis::Descendant, true) => ".//?",
                }
            };
            let mut i = 0;
            while i < preds.len() {
                // Emit one bracket per OR-group run.
                let group = g.or_group(preds[i]);
                write!(f, "[{}", pred_head(preds[i]))?;
                node(g, preds[i], f)?;
                let mut j = i + 1;
                while j < preds.len() && g.or_group(preds[j]) == group {
                    write!(f, " or {}", pred_head(preds[j]))?;
                    node(g, preds[j], f)?;
                    j += 1;
                }
                write!(f, "]")?;
                i = j;
            }
            write!(f, "{}", edge_str(g.edge(*last).unwrap()))?;
            node(g, *last, f)
        }
        write!(f, "{}", if self.rooted { "/" } else { "//" })?;
        node(self, self.root(), f)
    }
}

/// Programmatic constructor for [`Gtp`]s.
///
/// ```
/// use gtpquery::gtp::{GtpBuilder, Axis, Role};
/// // //a/b[//d][/c]   (paper Figure 1's twig query)
/// let mut b = GtpBuilder::new("a", false);
/// let a = b.root();
/// let bq = b.child(a, "b", Axis::Child);
/// b.child(bq, "d", Axis::Descendant);
/// b.child(bq, "c", Axis::Child);
/// let gtp = b.build();
/// assert_eq!(gtp.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GtpBuilder {
    gtp: Gtp,
}

impl GtpBuilder {
    /// Start a query whose root node tests `root_name` (use `"*"` for a
    /// wildcard). `rooted` anchors the query at the document root.
    pub fn new(root_name: &str, rooted: bool) -> Self {
        let test = if root_name == "*" {
            NodeTest::Wildcard
        } else {
            NodeTest::Name(root_name.to_string())
        };
        GtpBuilder {
            gtp: Gtp {
                nodes: vec![GtpNode {
                    test,
                    role: Role::Return,
                    parent: None,
                    edge: None,
                    children: Vec::new(),
                    or_group: 0,
                    value_pred: None,
                }],
                rooted,
            },
        }
    }

    /// The root node id.
    pub fn root(&self) -> QNodeId {
        self.gtp.root()
    }

    /// Add a mandatory child of `parent` via `axis`.
    pub fn child(&mut self, parent: QNodeId, name: &str, axis: Axis) -> QNodeId {
        self.add(parent, name, axis, false, Role::Return)
    }

    /// Add a child with full control over edge optionality and role.
    pub fn add(
        &mut self,
        parent: QNodeId,
        name: &str,
        axis: Axis,
        optional: bool,
        role: Role,
    ) -> QNodeId {
        let test = if name == "*" {
            NodeTest::Wildcard
        } else {
            NodeTest::Name(name.to_string())
        };
        let id = QNodeId(self.gtp.nodes.len() as u32);
        self.gtp.nodes.push(GtpNode {
            test,
            role,
            parent: Some(parent),
            edge: Some(Edge { axis, optional }),
            children: Vec::new(),
            or_group: id.0, // unique by default: plain AND semantics
            value_pred: None,
        });
        self.gtp.nodes[parent.index()].children.push(id);
        id
    }

    /// Put the given sibling steps into one OR-group: their parent is
    /// satisfied when any of them is. All members must share a parent.
    ///
    /// # Panics
    /// Panics if the nodes are not siblings.
    pub fn same_or_group(&mut self, members: &[QNodeId]) -> &mut Self {
        let Some((&first, rest)) = members.split_first() else {
            return self;
        };
        let parent = self.gtp.parent(first);
        let group = self.gtp.nodes[first.index()].or_group;
        for &m in rest {
            assert_eq!(
                self.gtp.parent(m),
                parent,
                "OR-group members must be siblings"
            );
            self.gtp.nodes[m.index()].or_group = group;
        }
        self
    }

    /// Set a node's role.
    pub fn role(&mut self, q: QNodeId, role: Role) -> &mut Self {
        self.gtp.set_role(q, role);
        self
    }

    /// Attach a value predicate to a node.
    pub fn value_pred(&mut self, q: QNodeId, pred: ValuePred) -> &mut Self {
        self.gtp.set_value_pred(q, Some(pred));
        self
    }

    /// Number of nodes added so far (the next node's index).
    pub fn node_count(&self) -> usize {
        self.gtp.len()
    }

    /// Finish building.
    pub fn build(self) -> Gtp {
        self.gtp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_query() -> Gtp {
        // //A/B[//D][/C] with all nodes returning.
        let mut b = GtpBuilder::new("a", false);
        let a = b.root();
        let bq = b.child(a, "b", Axis::Child);
        b.child(bq, "d", Axis::Descendant);
        b.child(bq, "c", Axis::Child);
        b.build()
    }

    #[test]
    fn structure_accessors() {
        let g = figure1_query();
        let root = g.root();
        assert_eq!(g.len(), 4);
        assert!(g.test(root).matches("a"));
        assert!(!g.test(root).matches("b"));
        assert_eq!(g.parent(root), None);
        assert_eq!(g.edge(root), None);
        let bq = g.children(root)[0];
        assert_eq!(g.parent(bq), Some(root));
        assert_eq!(
            g.edge(bq),
            Some(Edge {
                axis: Axis::Child,
                optional: false
            })
        );
        assert_eq!(g.children(bq).len(), 2);
        assert!(!g.is_rooted());
    }

    #[test]
    fn traversal_orders() {
        let g = figure1_query();
        let pre = g.preorder();
        assert_eq!(pre.len(), 4);
        assert_eq!(pre[0], g.root());
        // parent precedes child
        for &q in &pre {
            if let Some(p) = g.parent(q) {
                let pi = pre.iter().position(|&x| x == p).unwrap();
                let qi = pre.iter().position(|&x| x == q).unwrap();
                assert!(pi < qi);
            }
        }
        let post = g.postorder();
        assert_eq!(post.last(), Some(&g.root()));
        for &q in &post {
            if let Some(p) = g.parent(q) {
                let pi = post.iter().position(|&x| x == p).unwrap();
                let qi = post.iter().position(|&x| x == q).unwrap();
                assert!(qi < pi);
            }
        }
    }

    #[test]
    fn role_manipulation() {
        let g = figure1_query();
        let d = g.find("d").unwrap();
        let g2 = g.clone().single_return(d);
        assert_eq!(g2.role(d), Role::Return);
        assert_eq!(g2.role(g2.root()), Role::NonReturn);
        let g3 = g2.all_return();
        assert!(g3.iter().all(|q| g3.role(q) == Role::Return));
    }

    #[test]
    fn optional_edges() {
        let mut g = figure1_query();
        let c = g.find("c").unwrap();
        assert!(!g.edge(c).unwrap().optional);
        g.set_edge_optional(c, true);
        assert!(g.edge(c).unwrap().optional);
    }

    #[test]
    #[should_panic]
    fn optional_root_edge_panics() {
        let mut g = figure1_query();
        let r = g.root();
        g.set_edge_optional(r, true);
    }

    #[test]
    fn label_names_and_wildcards() {
        let mut b = GtpBuilder::new("a", false);
        let a = b.root();
        b.child(a, "*", Axis::Descendant);
        b.child(a, "b", Axis::Child);
        let g = b.build();
        assert_eq!(g.label_names(), vec!["a", "b"]);
        assert!(g.has_wildcard());
    }

    #[test]
    fn required_labels_follow_solid_paths_only() {
        // //a/b[//d][/c] — every edge solid and AND-combined: all four
        // labels are required.
        let g = figure1_query();
        assert_eq!(g.required_label_names(), vec!["a", "b", "c", "d"]);
        // Making the b edge optional severs b's whole subtree from the
        // required set — a document of bare <a/>s can still match.
        let mut opt = figure1_query();
        let bq = opt.find("b").unwrap();
        opt.set_edge_optional(bq, true);
        assert_eq!(opt.required_label_names(), vec!["a"]);
    }

    #[test]
    fn required_labels_skip_or_group_members_and_wildcards() {
        // //a[b or c]/*/d! — b/c are OR alternatives (either may be
        // absent), the wildcard names nothing, but d below the wildcard
        // is still on an all-solid path.
        let mut b = GtpBuilder::new("a", false);
        let a = b.root();
        let bq = b.child(a, "b", Axis::Child);
        let cq = b.child(a, "c", Axis::Child);
        b.same_or_group(&[bq, cq]);
        let w = b.child(a, "*", Axis::Child);
        b.add(w, "d", Axis::Child, false, Role::NonReturn);
        let g = b.build();
        assert_eq!(g.required_label_names(), vec!["a", "d"]);
    }

    #[test]
    fn required_equalities_follow_the_required_rule() {
        let eqs = |q: &str| -> Vec<String> {
            let g = crate::parse_twig(q).unwrap();
            g.required_equalities().into_iter().map(|(_, v)| v.to_string()).collect()
        };
        assert_eq!(eqs("//a[b='x']/c"), ["x"]);
        assert_eq!(eqs("//a='x'/c"), ["x"]);
        assert_eq!(eqs("//a[b='x'][.//c/d='y']"), ["x", "y"]);
        // Optional edges, OR-group members and their subtrees, and
        // containment predicates are not required equalities.
        assert!(eqs("//a[?b='x']/c").is_empty());
        assert!(eqs("//a/?b[c='x']").is_empty());
        assert!(eqs("//a[b='x' or c='y']").is_empty());
        assert!(eqs("//a[b~'x']").is_empty());
    }

    #[test]
    fn display_round_readable() {
        let g = figure1_query();
        let s = g.to_string();
        assert!(s.starts_with("//a"), "{s}");
        assert!(s.contains('b'), "{s}");
    }

    #[test]
    fn find_by_name() {
        let g = figure1_query();
        assert!(g.find("d").is_some());
        assert!(g.find("zzz").is_none());
    }
}
