//! Subtree edit operations over immutable [`Document`]s.
//!
//! A document in this workspace is immutable once built: every index,
//! plan, and in-flight query reads it without synchronization. Edits
//! therefore never mutate in place — [`apply_op`] is a pure function
//! from `(document, op)` to a **new** document plus an [`EditDelta`]
//! describing the splice (DESIGN.md §15).
//!
//! ## An edited document is a parsed document
//!
//! The edited document is rebuilt in one preorder pass that numbers
//! regions from one global tag counter, exactly as [`DocumentBuilder`]
//! does for a parse (`[1,2], [3,8], …`). Every edited document therefore
//! carries the regions, ids and levels that
//! `parse(&write(&edited, Indent::None))` would assign; only its label
//! table differs, because labels keep their ids across edits. Node ids
//! stay dense and in preorder, so a subtree edit shifts the ids of every
//! node at or after the splice point by `inserted − removed` — the
//! id-shift recorded in the delta.
//!
//! [`DocumentBuilder`]: crate::DocumentBuilder
//!
//! ```
//! use xmldom::edit::{apply_op, EditOp};
//! use xmldom::{parse, write, Indent};
//!
//! let doc = parse("<a><b/><c/></a>").unwrap();
//! let sub = parse("<x><y/></x>").unwrap();
//! let op = EditOp::InsertSubtree {
//!     parent: Some(doc.root()),
//!     position: 1,
//!     subtree: sub,
//! };
//! let (edited, delta) = apply_op(&doc, &op).unwrap();
//! assert_eq!(edited.len(), 5);
//! assert_eq!(delta.inserted, 2);
//! let reparsed = parse(&write(&edited, Indent::None)).unwrap();
//! for n in edited.iter() {
//!     assert_eq!(edited.region(n), reparsed.region(n));
//! }
//! ```

use crate::document::{Document, NodeData, NodeId, NONE};
use crate::region::Region;

/// One subtree edit against a [`Document`]. Node ids refer to the
/// document the op is applied to; subtrees are standalone documents
/// (their labels are re-interned into the edited document's table).
#[derive(Debug, Clone)]
pub enum EditOp {
    /// Graft `subtree` as child number `position` (0-based, `0 ..=
    /// child count`) of `parent`. `parent: None` roots the subtree in an
    /// empty document (the only way to revive one).
    InsertSubtree {
        /// Parent under which the subtree is grafted; `None` targets the
        /// (empty) document itself.
        parent: Option<NodeId>,
        /// Child slot the subtree root takes; existing children at or
        /// after it shift right.
        position: usize,
        /// The grafted tree (must be non-empty).
        subtree: Document,
    },
    /// Remove `target` and everything below it. Deleting the root
    /// produces the empty document.
    DeleteSubtree {
        /// Root of the removed subtree.
        target: NodeId,
    },
    /// Replace the subtree rooted at `target` with `subtree` (at the
    /// same child slot).
    ReplaceSubtree {
        /// Root of the replaced subtree.
        target: NodeId,
        /// The replacement tree (must be non-empty).
        subtree: Document,
    },
}

/// A rejected [`EditOp`]. Every failure is a value; [`apply_op`] never
/// panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The op names a node the document does not have.
    InvalidNode(NodeId),
    /// Insert position past the parent's child count.
    PositionOutOfRange {
        /// The requested child slot.
        position: usize,
        /// Children the parent actually has.
        arity: usize,
    },
    /// The inserted/replacement subtree has no elements.
    EmptySubtree,
    /// `InsertSubtree { parent: None }` on a non-empty document — XML
    /// documents have exactly one root.
    SecondRoot,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::InvalidNode(n) => write!(f, "edit names nonexistent node {n}"),
            EditError::PositionOutOfRange { position, arity } => {
                write!(f, "insert position {position} exceeds child count {arity}")
            }
            EditError::EmptySubtree => write!(f, "inserted subtree is empty"),
            EditError::SecondRoot => {
                write!(f, "cannot insert a second root into a non-empty document")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// What one applied [`EditOp`] changed: a single contiguous preorder
/// splice. Subscriptions carry row identity across snapshots with
/// [`map_id`](EditDelta::map_id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditDelta {
    /// Arena index where the splice starts — the first removed node's
    /// old id, and equally the first inserted node's new id.
    pub at: u32,
    /// Nodes removed at `at` (a whole subtree, contiguous in preorder).
    pub removed: u32,
    /// Nodes inserted at `at` (ditto).
    pub inserted: u32,
    /// True iff a surviving node's region moved: some node outside the
    /// splice survived (`at > 0`) and the splice changed the node count
    /// (`inserted != removed`), so every later tag position and every
    /// enclosing `right` shifted. Nothing in the workspace reads it; the
    /// name stays only because the `perfbench` benchmark reports it.
    pub renumbered: bool,
}

impl EditDelta {
    /// Signed id shift for surviving nodes at or after the splice end:
    /// old id `i ≥ at + removed` becomes `i + id_shift()`.
    pub fn id_shift(&self) -> i64 {
        self.inserted as i64 - self.removed as i64
    }

    /// Where a pre-edit node id lands after this edit: ids before the
    /// splice are unchanged, ids inside the removed range are gone
    /// (`None` — the node no longer exists), ids at or after the splice
    /// end shift by [`id_shift`](EditDelta::id_shift). Composing
    /// `map_id` across a sequence of deltas carries an id through a
    /// whole edit chain — it tracks *ids*, not regions, so it stays
    /// exact however far the splice moved later tag positions (the
    /// subscription layer's cross-snapshot row identity is built on it).
    pub fn map_id(&self, id: u32) -> Option<u32> {
        if id < self.at {
            Some(id)
        } else if id < self.at + self.removed {
            None
        } else {
            Some((i64::from(id) + self.id_shift()) as u32)
        }
    }
}

/// First arena index past the subtree rooted at `n` (subtrees are
/// contiguous in preorder).
fn subtree_end(doc: &Document, n: NodeId) -> usize {
    let right = doc.region(n).right;
    let mut j = n.index() + 1;
    while j < doc.len() && doc.region(NodeId::from_index(j)).left < right {
        j += 1;
    }
    j
}

/// Where a node of the logical edited tree comes from.
#[derive(Clone, Copy)]
enum Src {
    /// Survivor: this node of the input document.
    Old(NodeId),
    /// Spliced in: this node of the op's subtree document.
    Sub(NodeId),
}

/// Apply one edit, returning the edited document and its delta.
///
/// The returned document is rebuilt into dense preorder ids and regions
/// numbered from one global tag counter (an O(n) pass), so it equals a
/// fresh parse of its own serialization; the input's label table is
/// carried over, so labels keep their ids across edits.
pub fn apply_op(doc: &Document, op: &EditOp) -> Result<(Document, EditDelta), EditError> {
    let valid = |n: NodeId| {
        if n.index() < doc.len() {
            Ok(n)
        } else {
            Err(EditError::InvalidNode(n))
        }
    };

    // Normalize the op into one contiguous preorder splice:
    // `at .. at + removed` (old ids) replaced by `subtree` (if any).
    let (at, removed, subtree) = match op {
        EditOp::InsertSubtree { parent: None, subtree, .. } => {
            if !doc.is_empty() {
                return Err(EditError::SecondRoot);
            }
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            (0usize, 0usize, Some(subtree))
        }
        EditOp::InsertSubtree { parent: Some(p), position, subtree } => {
            let p = valid(*p)?;
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            let arity = doc.children(p).count();
            if *position > arity {
                return Err(EditError::PositionOutOfRange {
                    position: *position,
                    arity,
                });
            }
            let at = match doc.children(p).nth(*position) {
                Some(c) => c.index(),
                None => subtree_end(doc, p),
            };
            (at, 0, Some(subtree))
        }
        EditOp::DeleteSubtree { target } => {
            let t = valid(*target)?;
            (t.index(), subtree_end(doc, t) - t.index(), None)
        }
        EditOp::ReplaceSubtree { target, subtree } => {
            let t = valid(*target)?;
            if subtree.is_empty() {
                return Err(EditError::EmptySubtree);
            }
            (t.index(), subtree_end(doc, t) - t.index(), Some(subtree))
        }
    };
    let inserted = subtree.map_or(0, Document::len);

    // The op the splice came from pins where the subtree grafts.
    let splice = Splice { removed, subtree, op };
    let out = rebuild(doc, &splice);

    twigobs::bump(twigobs::Counter::EditsApplied);
    let delta = EditDelta {
        at: at as u32,
        removed: removed as u32,
        inserted: inserted as u32,
        renumbered: at > 0 && inserted != removed,
    };
    Ok((out, delta))
}

struct Splice<'a> {
    removed: usize,
    subtree: Option<&'a Document>,
    op: &'a EditOp,
}

/// One-pass preorder rebuild of the logical edited tree: arena links are
/// reconstructed from scratch (so ids are dense preorder again), regions
/// come from one global tag counter as in `DocumentBuilder`, labels are
/// carried over or re-interned, and text/attrs are remapped onto the new
/// ids.
fn rebuild(doc: &Document, splice: &Splice<'_>) -> Document {
    let mut out = Document {
        nodes: Vec::with_capacity(doc.len() - splice.removed + splice.subtree.map_or(0, |s| s.len())),
        labels: doc.labels.clone(),
        text: Default::default(),
        attrs: Default::default(),
        text_postings: Default::default(),
    };
    // Global tag counter: incremented at every start and end tag.
    let mut counter = 0u32;

    // The roots of the logical edited tree.
    let roots: Vec<Src> = match (doc.is_empty(), splice.op) {
        (true, _) => vec![Src::Sub(splice.subtree.expect("validated non-empty").root())],
        (false, EditOp::ReplaceSubtree { target, .. }) if target.index() == 0 => {
            vec![Src::Sub(splice.subtree.expect("validated non-empty").root())]
        }
        (false, EditOp::DeleteSubtree { target }) if target.index() == 0 => Vec::new(),
        (false, _) => vec![Src::Old(doc.root())],
    };

    // Children of a logical node, with the splice applied at its anchor.
    let children_of = |src: Src| -> Vec<Src> {
        match src {
            Src::Sub(m) => splice
                .subtree
                .expect("Sub nodes only exist when a subtree is spliced")
                .children(m)
                .map(Src::Sub)
                .collect(),
            Src::Old(n) => {
                let mut kids: Vec<Src> = Vec::new();
                match splice.op {
                    EditOp::InsertSubtree { parent: Some(p), position, subtree } if *p == n => {
                        for (i, c) in doc.children(n).enumerate() {
                            if i == *position {
                                kids.push(Src::Sub(subtree.root()));
                            }
                            kids.push(Src::Old(c));
                        }
                        if *position == kids.len() {
                            kids.push(Src::Sub(subtree.root()));
                        }
                    }
                    EditOp::DeleteSubtree { target } if doc.parent(*target) == Some(n) => {
                        kids.extend(doc.children(n).filter(|c| c != target).map(Src::Old));
                    }
                    EditOp::ReplaceSubtree { target, subtree }
                        if doc.parent(*target) == Some(n) =>
                    {
                        for c in doc.children(n) {
                            if c == *target {
                                kids.push(Src::Sub(subtree.root()));
                            } else {
                                kids.push(Src::Old(c));
                            }
                        }
                    }
                    _ => kids.extend(doc.children(n).map(Src::Old)),
                }
                kids
            }
        }
    };

    // Iterative preorder walk emitting start/end events, maintaining
    // arena links exactly like `DocumentBuilder`.
    let mut open: Vec<u32> = Vec::new();
    let mut iters: Vec<std::vec::IntoIter<Src>> = vec![roots.into_iter()];
    while let Some(it) = iters.last_mut() {
        if let Some(src) = it.next() {
            // Start event.
            let idx = out.nodes.len() as u32;
            let level = open.len() as u32 + 1;
            let parent = open.last().copied().unwrap_or(NONE);
            let (label, src_doc, src_id) = match src {
                Src::Old(n) => (doc.label(n), doc, n),
                Src::Sub(m) => {
                    let sub = splice.subtree.expect("spliced");
                    (out.labels.intern(sub.tag_name(m)), sub, m)
                }
            };
            counter += 1;
            // `right` is set by the matching end event.
            let region = Region::new(counter, u32::MAX, level);
            if let Some(t) = src_doc.text(src_id) {
                out.text.insert(idx, t.to_string());
            }
            let attrs = src_doc.attributes(src_id);
            if !attrs.is_empty() {
                out.attrs.insert(idx, attrs.to_vec());
            }
            out.nodes.push(NodeData {
                label,
                region,
                parent,
                first_child: NONE,
                last_child: NONE,
                next_sibling: NONE,
            });
            if parent != NONE {
                let p = &mut out.nodes[parent as usize];
                if p.first_child == NONE {
                    p.first_child = idx;
                    p.last_child = idx;
                } else {
                    let last = p.last_child;
                    out.nodes[last as usize].next_sibling = idx;
                    out.nodes[parent as usize].last_child = idx;
                }
            }
            open.push(idx);
            // Needs a closing event even when childless.
            let kids = children_of(src);
            iters.push(kids.into_iter());
        } else {
            iters.pop();
            if let Some(idx) = open.pop() {
                // End event.
                counter += 1;
                out.nodes[idx as usize].region.right = counter;
            }
        }
    }
    debug_assert!(open.is_empty(), "walk closes every node it opens");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn doc(xml: &str) -> Document {
        parse(xml).unwrap()
    }

    fn shape(d: &Document) -> String {
        fn rec(d: &Document, n: NodeId, out: &mut String) {
            out.push_str(d.tag_name(n));
            out.push('(');
            for c in d.children(n) {
                rec(d, c, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        if !d.is_empty() {
            rec(d, d.root(), &mut s);
        }
        s
    }

    /// Node by node, `d` equals a fresh parse of its own serialization:
    /// tag name, region, parent, text and attributes.
    fn assert_parses_back(d: &Document) {
        if d.is_empty() {
            return;
        }
        let fresh = parse(&crate::write(d, crate::Indent::None)).unwrap();
        assert_eq!(d.len(), fresh.len());
        for n in d.iter() {
            assert_eq!(d.tag_name(n), fresh.tag_name(n), "{n}");
            assert_eq!(d.region(n), fresh.region(n), "{n}");
            assert_eq!(d.parent(n), fresh.parent(n), "{n}");
            assert_eq!(d.text(n), fresh.text(n), "{n}");
            assert_eq!(d.attributes(n), fresh.attributes(n), "{n}");
        }
    }

    #[test]
    fn every_edit_numbers_regions_like_a_fresh_parse() {
        let base = doc("<a><b><c/><d/></b><e/></a>");
        let root = base.root();
        let b = base.first_child(root).unwrap();

        // Insert: later tags and the root's end move.
        let (inserted, delta) = apply_op(
            &base,
            &EditOp::InsertSubtree {
                parent: Some(root),
                position: 1,
                subtree: doc("<x><y/></x>"),
            },
        )
        .unwrap();
        assert_eq!(shape(&inserted), "a(b(c()d())x(y())e())");
        assert_eq!((delta.at, delta.removed, delta.inserted), (4, 0, 2));
        assert!(delta.renumbered, "e and the root moved");
        assert_parses_back(&inserted);

        // Delete: ids and regions close up behind the splice.
        let (deleted, delta) = apply_op(&base, &EditOp::DeleteSubtree { target: b }).unwrap();
        assert_eq!(shape(&deleted), "a(e())");
        assert_eq!((delta.at, delta.removed, delta.inserted), (1, 3, 0));
        assert_eq!(delta.id_shift(), -3);
        assert!(delta.renumbered);
        assert_parses_back(&deleted);

        // Same-size replace: no surviving region moves.
        let (replaced, delta) = apply_op(
            &base,
            &EditOp::ReplaceSubtree {
                target: b,
                subtree: doc("<z><y/><y/></z>"),
            },
        )
        .unwrap();
        assert_eq!(shape(&replaced), "a(z(y()y())e())");
        assert!(!delta.renumbered, "three nodes out, three in");
        for n in [root, NodeId::from_index(4)] {
            assert_eq!(replaced.region(n), base.region(n), "{n}");
        }
        assert_parses_back(&replaced);

        // Root delete, then revive: nothing survives either splice.
        let (empty, delta) = apply_op(&base, &EditOp::DeleteSubtree { target: root }).unwrap();
        assert!(empty.is_empty());
        assert!(!delta.renumbered);
        let (revived, delta) = apply_op(
            &empty,
            &EditOp::InsertSubtree {
                parent: None,
                position: 0,
                subtree: doc("<r><s/></r>"),
            },
        )
        .unwrap();
        assert_eq!(shape(&revived), "r(s())");
        assert!(!delta.renumbered);
        assert_parses_back(&revived);
    }

    #[test]
    fn delete_root_yields_the_empty_document_and_insert_revives_it() {
        let base = doc("<a><b/></a>");
        let (empty, delta) = apply_op(&base, &EditOp::DeleteSubtree { target: base.root() }).unwrap();
        assert!(empty.is_empty());
        assert_eq!(delta.removed, 2);
        // The label table survives emptiness (label ids stay stable).
        assert!(empty.labels().get("a").is_some());
        let (revived, delta) = apply_op(
            &empty,
            &EditOp::InsertSubtree { parent: None, position: 0, subtree: doc("<r><s/></r>") },
        )
        .unwrap();
        assert_eq!(shape(&revived), "r(s())");
        assert!(!delta.renumbered);
        assert_parses_back(&revived);
    }

    #[test]
    fn replace_splices_at_the_same_slot() {
        let base = doc("<a><b/><c><d/></c><e/></a>");
        let c = base
            .children(base.root())
            .nth(1)
            .unwrap();
        let (edited, delta) = apply_op(
            &base,
            &EditOp::ReplaceSubtree { target: c, subtree: doc("<z/>") },
        )
        .unwrap();
        assert_eq!(shape(&edited), "a(b()z()e())");
        assert_eq!((delta.at, delta.removed, delta.inserted), (2, 2, 1));
        assert_parses_back(&edited);
    }

    #[test]
    fn replace_root_rebuilds_fresh() {
        let base = doc("<a><b/></a>");
        let (edited, delta) = apply_op(
            &base,
            &EditOp::ReplaceSubtree { target: base.root(), subtree: doc("<r><s/><t/></r>") },
        )
        .unwrap();
        assert_eq!(shape(&edited), "r(s()t())");
        assert!(!delta.renumbered, "nothing outside the splice exists to move");
        assert_eq!((delta.at, delta.removed, delta.inserted), (0, 2, 3));
        assert_parses_back(&edited);
    }

    #[test]
    fn text_and_attrs_ride_along() {
        let base = doc("<a x=\"1\"><b>keep</b><c>drop</c></a>");
        let c = base.children(base.root()).nth(1).unwrap();
        let mut nb = crate::DocumentBuilder::new();
        nb.leaf("n", "new").unwrap();
        let subtree = nb.finish().unwrap();
        let (edited, _) =
            apply_op(&base, &EditOp::ReplaceSubtree { target: c, subtree }).unwrap();
        assert_eq!(edited.attribute(edited.root(), "x"), Some("1"));
        let b = edited.first_child(edited.root()).unwrap();
        assert_eq!(edited.text(b), Some("keep"));
        let n = edited.next_sibling(b).unwrap();
        assert_eq!(edited.text(n), Some("new"));
        // Pure function: the input document is untouched.
        assert_eq!(base.text(c), Some("drop"));
    }

    #[test]
    fn typed_errors_for_bad_ops() {
        let base = doc("<a><b/></a>");
        let bogus = NodeId::from_index(99);
        assert_eq!(
            apply_op(&base, &EditOp::DeleteSubtree { target: bogus }).unwrap_err(),
            EditError::InvalidNode(bogus)
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree {
                    parent: Some(base.root()),
                    position: 5,
                    subtree: doc("<x/>")
                }
            )
            .unwrap_err(),
            EditError::PositionOutOfRange { position: 5, arity: 1 }
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree {
                    parent: Some(base.root()),
                    position: 0,
                    subtree: Document::default()
                }
            )
            .unwrap_err(),
            EditError::EmptySubtree
        );
        assert_eq!(
            apply_op(
                &base,
                &EditOp::InsertSubtree { parent: None, position: 0, subtree: doc("<x/>") }
            )
            .unwrap_err(),
            EditError::SecondRoot
        );
    }

    #[test]
    fn deep_edits_do_not_recurse() {
        // A pathologically deep chain exercises the iterative walker.
        let mut b = crate::DocumentBuilder::new();
        for _ in 0..4000 {
            b.start_element("d").unwrap();
        }
        for _ in 0..4000 {
            b.end_element().unwrap();
        }
        let deep = b.finish().unwrap();
        let leaf = NodeId::from_index(3999);
        let (edited, delta) = apply_op(
            &deep,
            &EditOp::InsertSubtree { parent: Some(leaf), position: 0, subtree: doc("<x/>") },
        )
        .unwrap();
        assert_eq!(edited.len(), 4001);
        assert!(delta.renumbered);
        assert_eq!(edited.region(NodeId::from_index(4000)).level, 4001);
        assert_eq!(edited.region(edited.root()).right, 2 * 4001);
    }

    #[test]
    fn map_id_tracks_ids_through_a_splice() {
        // Delete <b><c/></b> (ids 1..3) from <a><b><c/></b><d/></a>.
        let base = doc("<a><b><c/></b><d/></a>");
        let (edited, delta) =
            apply_op(&base, &EditOp::DeleteSubtree { target: NodeId::from_index(1) }).unwrap();
        assert_eq!(delta.at, 1);
        assert_eq!(delta.removed, 2);
        assert_eq!(delta.id_shift(), -2);
        // Before the splice: unchanged. Inside: gone. After: shifted.
        assert_eq!(delta.map_id(0), Some(0));
        assert_eq!(delta.map_id(1), None);
        assert_eq!(delta.map_id(2), None);
        assert_eq!(delta.map_id(3), Some(1));
        // The mapped id binds the same element in the edited document.
        assert_eq!(edited.labels().name(edited.label(NodeId::from_index(1))), "d");

        // Composing across a second edit stays exact: <e/> takes id 1,
        // pushing d from 1 to 2 (ids ignore tag positions throughout).
        let (_, delta2) = apply_op(
            &edited,
            &EditOp::InsertSubtree { parent: Some(edited.root()), position: 0, subtree: doc("<e/>") },
        )
        .unwrap();
        assert_eq!(delta.map_id(3).and_then(|i| delta2.map_id(i)), Some(2));
    }
}
