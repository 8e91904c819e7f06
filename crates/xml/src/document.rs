//! Arena-based XML document tree.
//!
//! Nodes live in a single `Vec` and are addressed by dense [`NodeId`]s;
//! sibling/child links are `u32` indices, which keeps the per-node footprint
//! small and traversal cache-friendly. Region encodings (see
//! [`crate::region`]) are assigned at build time from one global tag counter,
//! so `NodeId` order equals document (pre)order of start tags.

use crate::label::{Label, LabelTable};
use crate::region::Region;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::OnceLock;

/// Dense identifier of an element node within one [`Document`].
///
/// Ids are assigned in document order: `a.index() < b.index()` iff `a`'s
/// start tag precedes `b`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)] // a bare u32: castable inside `#[repr(C)]` index records
pub struct NodeId(u32);

impl NodeId {
    /// Raw index into the document's node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from a raw index previously obtained via [`NodeId::index`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index < u32::MAX as usize);
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

pub(crate) const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) label: Label,
    pub(crate) region: Region,
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) last_child: u32,
    pub(crate) next_sibling: u32,
}

/// An immutable XML document: element tree + interned labels + optional
/// text/attribute payload.
///
/// Construct one with [`DocumentBuilder`] or by parsing
/// (see [`crate::parser::parse`]).
#[derive(Debug, Clone, Default)]
pub struct Document {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) labels: LabelTable,
    /// Concatenated character data per node, only for nodes that have any.
    pub(crate) text: HashMap<u32, String>,
    /// Attributes per node, only for nodes that have any.
    pub(crate) attrs: HashMap<u32, Vec<(String, String)>>,
    /// Equality postings over `text`, built by the first
    /// [`Document::elements_with_text`] call. A document is immutable once
    /// built (edits produce a new one), so the postings never go stale.
    pub(crate) text_postings: OnceLock<TextPostings>,
}

impl Document {
    /// The root element. XML documents have exactly one.
    ///
    /// # Panics
    /// Panics on an empty document (builders refuse to produce one).
    pub fn root(&self) -> NodeId {
        assert!(!self.nodes.is_empty(), "empty document has no root");
        NodeId(0)
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the document holds no elements (only possible for
    /// `Document::default()`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label (interned tag name) of `node`.
    #[inline]
    pub fn label(&self, node: NodeId) -> Label {
        self.nodes[node.index()].label
    }

    /// The tag name of `node`.
    pub fn tag_name(&self, node: NodeId) -> &str {
        self.labels.name(self.label(node))
    }

    /// The region encoding of `node`.
    #[inline]
    pub fn region(&self, node: NodeId) -> Region {
        self.nodes[node.index()].region
    }

    /// Parent element, `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        opt(self.nodes[node.index()].parent)
    }

    /// First child element, if any.
    #[inline]
    pub fn first_child(&self, node: NodeId) -> Option<NodeId> {
        opt(self.nodes[node.index()].first_child)
    }

    /// Next sibling element, if any.
    #[inline]
    pub fn next_sibling(&self, node: NodeId) -> Option<NodeId> {
        opt(self.nodes[node.index()].next_sibling)
    }

    /// Iterate over the children of `node` in document order.
    pub fn children(&self, node: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: opt(self.nodes[node.index()].first_child),
        }
    }

    /// Iterate over all nodes in document (pre)order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over the subtree rooted at `node` (inclusive) in preorder.
    pub fn descendants_or_self(&self, node: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: vec![node],
        }
    }

    /// Concatenated character data directly inside `node` (not descendants).
    pub fn text(&self, node: NodeId) -> Option<&str> {
        self.text.get(&(node.index() as u32)).map(String::as_str)
    }

    /// The elements whose direct text, trimmed, equals `value` — exactly
    /// the elements a `='value'` predicate accepts — in document order.
    ///
    /// The first call builds a text-postings index (one sort over every
    /// text node, 8 bytes each); later calls binary-search it and read only
    /// the texts whose hash matches.
    pub fn elements_with_text(&self, value: &str) -> Vec<NodeId> {
        let postings = self
            .text_postings
            .get_or_init(|| TextPostings::build(&self.text));
        postings
            .candidates(value)
            // The hash only narrows the search: recheck the stored text.
            .filter(|n| self.text[n].trim() == value)
            .map(NodeId)
            .collect()
    }

    /// Attributes of `node` in source order.
    pub fn attributes(&self, node: NodeId) -> &[(String, String)] {
        self.attrs
            .get(&(node.index() as u32))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Value of the attribute `name` on `node`, if present.
    pub fn attribute(&self, node: NodeId, name: &str) -> Option<&str> {
        self.attributes(node)
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The label interner of this document.
    pub fn labels(&self) -> &LabelTable {
        &self.labels
    }

    /// All nodes carrying `label`, in document order.
    pub fn nodes_with_label(&self, label: Label) -> Vec<NodeId> {
        self.iter().filter(|&n| self.label(n) == label).collect()
    }

    /// True iff `anc` is a proper ancestor of `desc` (region test).
    #[inline]
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.region(anc).is_ancestor_of(&self.region(desc))
    }

    /// Depth of the deepest element and average element depth.
    pub fn depth_stats(&self) -> (u32, f64) {
        if self.nodes.is_empty() {
            return (0, 0.0);
        }
        let mut max = 0u32;
        let mut sum = 0u64;
        for n in &self.nodes {
            max = max.max(n.region.level);
            sum += n.region.level as u64;
        }
        (max, sum as f64 / self.nodes.len() as f64)
    }
}

/// `hash of trimmed text << 32 | node` for every node with text, sorted, so
/// the nodes sharing a hash are one run in ascending (document) order.
/// The hash is keyed per document, so no text can be crafted to collide;
/// a collision costs a text comparison, never a wrong answer.
#[derive(Clone)]
pub(crate) struct TextPostings {
    keys: RandomState,
    postings: Vec<u64>,
}

impl TextPostings {
    fn build(text: &HashMap<u32, String>) -> Self {
        let keys = RandomState::new();
        let mut postings: Vec<u64> = text
            .iter()
            .map(|(&n, t)| u64::from(hash32(&keys, t.trim())) << 32 | u64::from(n))
            .collect();
        postings.sort_unstable();
        TextPostings { keys, postings }
    }

    /// The nodes whose trimmed text may equal `value`, ascending.
    fn candidates(&self, value: &str) -> impl Iterator<Item = u32> + '_ {
        let key = hash32(&self.keys, value);
        let start = self.postings.partition_point(|&p| ((p >> 32) as u32) < key);
        self.postings[start..]
            .iter()
            .take_while(move |&&p| (p >> 32) as u32 == key)
            .map(|&p| p as u32)
    }
}

impl fmt::Debug for TextPostings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TextPostings({} nodes)", self.postings.len())
    }
}

/// 32 bits of a keyed hash: half the bytes of a 64-bit key per posting.
fn hash32(keys: &RandomState, text: &str) -> u32 {
    (keys.hash_one(text) >> 32) as u32
}

#[inline]
fn opt(v: u32) -> Option<NodeId> {
    if v == NONE {
        None
    } else {
        Some(NodeId(v))
    }
}

/// Iterator over the children of a node. See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.next_sibling(cur);
        Some(cur)
    }
}

/// Preorder iterator over a subtree. See [`Document::descendants_or_self`].
pub struct Descendants<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        // Push children in reverse so the leftmost child pops first.
        let children: Vec<NodeId> = self.doc.children(cur).collect();
        self.stack.extend(children.into_iter().rev());
        Some(cur)
    }
}

/// Incremental constructor for [`Document`].
///
/// Call [`start_element`](DocumentBuilder::start_element) /
/// [`end_element`](DocumentBuilder::end_element) in well-nested order;
/// region encodings and sibling links are maintained automatically.
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    doc: Document,
    /// Stack of open element indices.
    open: Vec<u32>,
    /// Global tag counter: incremented at every start and end tag.
    counter: u32,
    finished_root: bool,
}

/// Errors produced by [`DocumentBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `end_element` with no open element.
    UnbalancedEnd,
    /// A second root element was started after the first was closed.
    MultipleRoots,
    /// `finish` called while elements are still open, or on no elements.
    Unfinished,
    /// `text`/`attr` with no open element.
    NoOpenElement,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnbalancedEnd => write!(f, "end_element without matching start_element"),
            BuildError::MultipleRoots => write!(f, "document must have exactly one root element"),
            BuildError::Unfinished => write!(f, "document incomplete: unclosed elements or no root"),
            BuildError::NoOpenElement => write!(f, "no element is open"),
        }
    }
}

impl std::error::Error for BuildError {}

impl DocumentBuilder {
    /// Start building an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new element with tag `name`.
    pub fn start_element(&mut self, name: &str) -> Result<NodeId, BuildError> {
        if self.open.is_empty() && self.finished_root {
            return Err(BuildError::MultipleRoots);
        }
        let label = self.doc.labels.intern(name);
        self.counter += 1;
        let idx = self.doc.nodes.len() as u32;
        let level = self.open.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.doc.nodes.push(NodeData {
            label,
            // `right` is a placeholder patched at end_element; keep the
            // invariant left < right so debug asserts hold meanwhile.
            region: Region::new(self.counter, u32::MAX, level),
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
        });
        if parent != NONE {
            let p = &mut self.doc.nodes[parent as usize];
            if p.first_child == NONE {
                p.first_child = idx;
                p.last_child = idx;
            } else {
                let last = p.last_child;
                self.doc.nodes[last as usize].next_sibling = idx;
                self.doc.nodes[parent as usize].last_child = idx;
            }
        }
        self.open.push(idx);
        Ok(NodeId(idx))
    }

    /// Close the most recently opened element.
    pub fn end_element(&mut self) -> Result<NodeId, BuildError> {
        let idx = self.open.pop().ok_or(BuildError::UnbalancedEnd)?;
        self.counter += 1;
        self.doc.nodes[idx as usize].region.right = self.counter;
        if self.open.is_empty() {
            self.finished_root = true;
        }
        Ok(NodeId(idx))
    }

    /// Append character data to the currently open element.
    pub fn text(&mut self, data: &str) -> Result<(), BuildError> {
        let &idx = self.open.last().ok_or(BuildError::NoOpenElement)?;
        self.doc.text.entry(idx).or_default().push_str(data);
        Ok(())
    }

    /// Attach an attribute to the currently open element.
    pub fn attr(&mut self, name: &str, value: &str) -> Result<(), BuildError> {
        let &idx = self.open.last().ok_or(BuildError::NoOpenElement)?;
        self.doc
            .attrs
            .entry(idx)
            .or_default()
            .push((name.to_string(), value.to_string()));
        Ok(())
    }

    /// Convenience: open an element, run `f` to fill it, close it.
    pub fn element(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Self) -> Result<(), BuildError>,
    ) -> Result<(), BuildError> {
        self.start_element(name)?;
        f(self)?;
        self.end_element()?;
        Ok(())
    }

    /// Convenience: `<name>text</name>`.
    pub fn leaf(&mut self, name: &str, text: &str) -> Result<(), BuildError> {
        self.start_element(name)?;
        if !text.is_empty() {
            self.text(text)?;
        }
        self.end_element()?;
        Ok(())
    }

    /// Finish building. Fails if elements remain open or nothing was built.
    pub fn finish(self) -> Result<Document, BuildError> {
        if !self.open.is_empty() || self.doc.nodes.is_empty() {
            return Err(BuildError::Unfinished);
        }
        Ok(self.doc)
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Build the document of paper Figure 1, reconstructed from the paper's
    /// worked examples (§2 example matches, §3 merge order, §4 pointPC /
    /// pointAD values):
    ///
    /// ```text
    /// a1( a2( a3( b1(c1 d1) )  b2( a4( b3(c2 d2(d3)) ) c3 ) )  b4(d4) )
    /// ```
    pub(crate) fn figure1() -> Document {
        let mut b = DocumentBuilder::new();
        b.start_element("a").unwrap(); // a1
        b.start_element("a").unwrap(); // a2
        b.start_element("a").unwrap(); // a3
        b.start_element("b").unwrap(); // b1
        b.leaf("c", "").unwrap(); // c1
        b.leaf("d", "").unwrap(); // d1
        b.end_element().unwrap(); // /b1
        b.end_element().unwrap(); // /a3
        b.start_element("b").unwrap(); // b2
        b.start_element("a").unwrap(); // a4
        b.start_element("b").unwrap(); // b3
        b.leaf("c", "").unwrap(); // c2
        b.start_element("d").unwrap(); // d2
        b.leaf("d", "").unwrap(); // d3
        b.end_element().unwrap(); // /d2
        b.end_element().unwrap(); // /b3
        b.end_element().unwrap(); // /a4
        b.leaf("c", "").unwrap(); // c3
        b.end_element().unwrap(); // /b2
        b.end_element().unwrap(); // /a2
        b.start_element("b").unwrap(); // b4
        b.leaf("d", "").unwrap(); // d4
        b.end_element().unwrap(); // /b4
        b.end_element().unwrap(); // /a1
        b.finish().unwrap()
    }

    #[test]
    fn builder_produces_well_formed_regions() {
        let doc = figure1();
        assert_eq!(doc.len(), 15);
        let root = doc.root();
        assert_eq!(doc.tag_name(root), "a");
        let rr = doc.region(root);
        assert_eq!(rr.left, 1);
        assert_eq!(rr.level, 1);
        // Every non-root node is inside the root region.
        for n in doc.iter().skip(1) {
            assert!(rr.is_ancestor_of(&doc.region(n)), "{n}");
        }
        // Regions nest exactly like parent links.
        for n in doc.iter() {
            if let Some(p) = doc.parent(n) {
                assert!(doc.region(p).is_parent_of(&doc.region(n)));
            }
        }
    }

    #[test]
    fn node_ids_are_preorder() {
        let doc = figure1();
        let pre: Vec<NodeId> = doc.descendants_or_self(doc.root()).collect();
        let seq: Vec<NodeId> = doc.iter().collect();
        assert_eq!(pre, seq);
    }

    #[test]
    fn children_iteration() {
        let doc = figure1();
        let root = doc.root();
        let kids: Vec<&str> = doc.children(root).map(|c| doc.tag_name(c)).collect();
        assert_eq!(kids, vec!["a", "b"]); // a2, b4
        let a2 = doc.first_child(root).unwrap();
        let kids: Vec<&str> = doc.children(a2).map(|c| doc.tag_name(c)).collect();
        assert_eq!(kids, vec!["a", "b"]); // a3, b2
    }

    #[test]
    fn text_and_attributes() {
        let mut b = DocumentBuilder::new();
        b.start_element("book").unwrap();
        b.attr("year", "2006").unwrap();
        b.leaf("title", "Twig2Stack").unwrap();
        b.text("tail").unwrap();
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        let root = doc.root();
        assert_eq!(doc.attribute(root, "year"), Some("2006"));
        assert_eq!(doc.attribute(root, "missing"), None);
        assert_eq!(doc.text(root), Some("tail"));
        let title = doc.first_child(root).unwrap();
        assert_eq!(doc.text(title), Some("Twig2Stack"));
    }

    #[test]
    fn build_errors() {
        let mut b = DocumentBuilder::new();
        assert_eq!(b.end_element(), Err(BuildError::UnbalancedEnd));
        assert_eq!(b.text("x"), Err(BuildError::NoOpenElement));
        b.leaf("a", "").unwrap();
        assert_eq!(
            b.start_element("b").unwrap_err(),
            BuildError::MultipleRoots
        );

        let mut b2 = DocumentBuilder::new();
        b2.start_element("a").unwrap();
        assert!(matches!(b2.finish(), Err(BuildError::Unfinished)));

        let b3 = DocumentBuilder::new();
        assert!(matches!(b3.finish(), Err(BuildError::Unfinished)));
    }

    #[test]
    fn elements_with_text_matches_the_equality_predicate() {
        let mut b = DocumentBuilder::new();
        b.start_element("r").unwrap();
        let leaves = [("a", "x"), ("b", " x\n"), ("a", "xy"), ("c", ""), ("a", "x"), ("d", "  ")];
        for (name, text) in leaves {
            b.leaf(name, text).unwrap();
        }
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        let ids = |v: &str| -> Vec<usize> {
            doc.elements_with_text(v).into_iter().map(NodeId::index).collect()
        };
        // Trimmed equality, document order, any label.
        assert_eq!(ids("x"), vec![1, 2, 5]);
        assert_eq!(ids("xy"), vec![3]);
        // Whitespace-only text trims to ""; an element without text never
        // matches.
        assert_eq!(ids(""), vec![6]);
        // A value with surrounding whitespace can never equal trimmed text.
        assert!(ids(" x").is_empty());
        assert!(ids("missing").is_empty());
        // Every text node is one posting; clones carry them along.
        assert_eq!(doc.text_postings.get().map(|p| p.postings.len()), Some(5));
        assert_eq!(doc.clone().elements_with_text("x").len(), 3);
    }

    #[test]
    fn nodes_with_label() {
        let doc = figure1();
        let d = doc.labels().get("d").unwrap();
        assert_eq!(doc.nodes_with_label(d).len(), 4);
        let a = doc.labels().get("a").unwrap();
        assert_eq!(doc.nodes_with_label(a).len(), 4);
    }

    #[test]
    fn depth_stats() {
        let doc = figure1();
        let (max, avg) = doc.depth_stats();
        assert_eq!(max, 7); // a1/a2/b2/a4/b3/d2/d3
        assert!(avg > 1.0 && avg < 7.0);
    }
}
