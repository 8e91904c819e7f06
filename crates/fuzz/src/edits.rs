//! Seeded random edit scripts for the `edited_vs_rebuilt` invariant.
//!
//! An [`EditScript`] is a replayable sequence of subtree edits against a
//! document, with nodes addressed by **preorder index** — well-defined
//! because `xmldom` keeps node ids dense and in preorder after every
//! edit, so "node 3 of the document as it stands" survives serialization
//! without carrying the intermediate documents along.
//!
//! Scripts serialize to a single line (they ride in the `edits =` key of
//! a `.t2s` corpus file), ops joined by `" ; "`:
//!
//! ```text
//! insert 0 1 <x><y/></x> ; delete 3 ; replace 1 <z/> ; insert - 0 <r/>
//! ```
//!
//! `insert <parent> <position> <xml>` grafts a subtree (`-` as the
//! parent targets the empty document — the revive edge), `delete
//! <target>` removes a subtree (target `0` empties the document), and
//! `replace <target> <xml>` swaps one. Subtree XML must not contain the
//! `" ; "` separator; the generator only emits labels and text tokens
//! that cannot.
//!
//! [`generate`] draws a script from a seeded RNG by *simulating* it on a
//! clone of the document, so every emitted op is applicable at its step.
//! It deliberately steers into the edges where an edited document could
//! drift from a parsed one: root-adjacent targets, deleting the root
//! (and reviving the empty document), and occasional fresh labels the
//! document's label table has never seen. [`derive_script`] fixes the
//! seed as a hash of the (document, query) pair, making the
//! `edited_vs_rebuilt` invariant deterministic per pair with no extra
//! state in the fuzzing session.

use crate::corpus::fnv1a;
use crate::vocab::Vocabulary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmldom::{apply_op, parse, write, Document, EditOp, Indent, NodeId};

/// One step of an [`EditScript`]. Node references are preorder indices
/// into the document *as it stands when the step runs*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOp {
    /// Graft `xml` as child `position` of node `parent`; `parent: None`
    /// roots it in an empty document.
    Insert {
        /// Preorder index of the parent, or `None` for the empty
        /// document itself.
        parent: Option<usize>,
        /// Child slot the subtree root takes.
        position: usize,
        /// The grafted subtree, as XML.
        xml: String,
    },
    /// Remove the subtree rooted at preorder index `target`.
    Delete {
        /// Preorder index of the removed subtree's root.
        target: usize,
    },
    /// Replace the subtree rooted at `target` with `xml`.
    Replace {
        /// Preorder index of the replaced subtree's root.
        target: usize,
        /// The replacement subtree, as XML.
        xml: String,
    },
}

impl ScriptOp {
    /// Lower to an [`EditOp`] against `doc` (parses the subtree XML and
    /// resolves preorder indices to node ids). Index validity is left to
    /// `apply_op`, which rejects out-of-range nodes with a typed error.
    pub fn to_edit_op(&self, _doc: &Document) -> Result<EditOp, String> {
        let subtree = |xml: &str| {
            parse(xml).map_err(|e| format!("edit subtree does not parse ({xml}): {e}"))
        };
        Ok(match self {
            ScriptOp::Insert { parent, position, xml } => EditOp::InsertSubtree {
                parent: parent.map(NodeId::from_index),
                position: *position,
                subtree: subtree(xml)?,
            },
            ScriptOp::Delete { target } => {
                EditOp::DeleteSubtree { target: NodeId::from_index(*target) }
            }
            ScriptOp::Replace { target, xml } => EditOp::ReplaceSubtree {
                target: NodeId::from_index(*target),
                subtree: subtree(xml)?,
            },
        })
    }

    fn serialize(&self) -> String {
        match self {
            ScriptOp::Insert { parent, position, xml } => {
                let p = parent.map_or("-".to_string(), |p| p.to_string());
                format!("insert {p} {position} {xml}")
            }
            ScriptOp::Delete { target } => format!("delete {target}"),
            ScriptOp::Replace { target, xml } => format!("replace {target} {xml}"),
        }
    }

    fn parse(op: &str) -> Result<ScriptOp, String> {
        let bad = || format!("malformed edit op `{op}`");
        let index = |tok: &str| tok.parse::<usize>().map_err(|_| bad());
        if let Some(rest) = op.strip_prefix("insert ") {
            let (parent, rest) = rest.split_once(' ').ok_or_else(bad)?;
            let (position, xml) = rest.split_once(' ').ok_or_else(bad)?;
            let parent = if parent == "-" { None } else { Some(index(parent)?) };
            if xml.trim().is_empty() {
                return Err(bad());
            }
            Ok(ScriptOp::Insert { parent, position: index(position)?, xml: xml.to_string() })
        } else if let Some(rest) = op.strip_prefix("delete ") {
            Ok(ScriptOp::Delete { target: index(rest.trim())? })
        } else if let Some(rest) = op.strip_prefix("replace ") {
            let (target, xml) = rest.split_once(' ').ok_or_else(bad)?;
            if xml.trim().is_empty() {
                return Err(bad());
            }
            Ok(ScriptOp::Replace { target: index(target)?, xml: xml.to_string() })
        } else {
            Err(bad())
        }
    }
}

/// A replayable sequence of subtree edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditScript {
    /// The steps, in application order.
    pub ops: Vec<ScriptOp>,
}

impl EditScript {
    /// Parse the single-line `" ; "`-joined form.
    pub fn parse(input: &str) -> Result<EditScript, String> {
        let input = input.trim();
        if input.is_empty() {
            return Err("empty edit script".to_string());
        }
        let ops = input.split(" ; ").map(ScriptOp::parse).collect::<Result<_, _>>()?;
        Ok(EditScript { ops })
    }

    /// Serialize to the single-line `" ; "`-joined form.
    pub fn serialize(&self) -> String {
        self.ops.iter().map(ScriptOp::serialize).collect::<Vec<_>>().join(" ; ")
    }

    /// Apply every step in order, returning the chain of edited
    /// documents. Fails on the first inapplicable step.
    pub fn apply(&self, doc: &Document) -> Result<Vec<Document>, String> {
        let mut steps: Vec<Document> = Vec::with_capacity(self.ops.len());
        for (i, sop) in self.ops.iter().enumerate() {
            let cur = steps.last().unwrap_or(doc);
            let op = sop.to_edit_op(cur).map_err(|e| format!("step {i}: {e}"))?;
            let (next, _) =
                apply_op(cur, &op).map_err(|e| format!("step {i}: edit rejected: {e}"))?;
            steps.push(next);
        }
        Ok(steps)
    }
}

/// Steps per derived script — enough to chain inserts, deletes and
/// replaces (and often a root delete and revive), small enough that the
/// per-case cost stays within the smoke budget.
pub const DERIVED_STEPS: usize = 6;

/// The deterministic script the `edited_vs_rebuilt` invariant checks for
/// a (document, query) pair: seeded by a content hash of both, so the
/// same pair always replays the same edits — shrinking a failure
/// re-derives the same script at every candidate.
pub fn derive_script(doc: &Document, gtp: &gtpquery::Gtp) -> EditScript {
    let seed = fnv1a(gtpquery::serialize(gtp).as_bytes())
        ^ fnv1a(write(doc, Indent::None).as_bytes());
    let mut rng = SmallRng::seed_from_u64(seed);
    generate(&mut rng, doc, DERIVED_STEPS)
}

/// Draw a `steps`-step script applicable to `doc`, simulating each step
/// so later ops address the document the earlier ones produced.
pub fn generate(rng: &mut SmallRng, doc: &Document, steps: usize) -> EditScript {
    let vocab = Vocabulary::from_document(doc);
    let mut fresh = 0u32;
    let mut cur = doc.clone();
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let sop = if cur.is_empty() {
            ScriptOp::Insert {
                parent: None,
                position: 0,
                xml: gen_subtree(rng, &vocab, &mut fresh),
            }
        } else {
            // Bias targets toward the root: edits adjacent to node 0 hit
            // the splice paths with no left neighbour, and deleting or
            // replacing the root itself exercises the whole-document
            // edges.
            let pick = |rng: &mut SmallRng, cur: &Document| {
                if rng.gen_bool(0.15) {
                    0
                } else {
                    rng.gen_range(0..cur.len())
                }
            };
            match rng.gen_range(0..100u32) {
                0..45 => {
                    let parent = pick(rng, &cur);
                    let arity = cur.children(NodeId::from_index(parent)).count();
                    ScriptOp::Insert {
                        parent: Some(parent),
                        position: rng.gen_range(0..=arity),
                        xml: gen_subtree(rng, &vocab, &mut fresh),
                    }
                }
                45..75 => ScriptOp::Delete { target: pick(rng, &cur) },
                _ => ScriptOp::Replace {
                    target: pick(rng, &cur),
                    xml: gen_subtree(rng, &vocab, &mut fresh),
                },
            }
        };
        match sop.to_edit_op(&cur).ok().and_then(|op| apply_op(&cur, &op).ok()) {
            Some((next, _)) => {
                cur = next;
                ops.push(sop);
            }
            None => continue,
        }
    }
    EditScript { ops }
}

/// A small random subtree (1–3 nodes) over the document's own labels —
/// plus, occasionally, a label the document has never seen, which the
/// edit must intern into the carried-over label table.
fn gen_subtree(rng: &mut SmallRng, vocab: &Vocabulary, fresh: &mut u32) -> String {
    let mut name = |rng: &mut SmallRng| {
        if rng.gen_bool(1.0 / 6.0) {
            *fresh += 1;
            format!("zz{fresh}")
        } else {
            vocab.labels[rng.gen_range(0..vocab.labels.len())].clone()
        }
    };
    let l = name(rng);
    match rng.gen_range(0..100u32) {
        0..40 => format!("<{l}/>"),
        40..60 => format!("<{l}>t{}</{l}>", rng.gen_range(0..9u32)),
        60..85 => format!("<{l}><{}/></{l}>", name(rng)),
        _ => format!("<{l}><{}/><{}/></{l}>", name(rng), name(rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_serialize_round_trip() {
        let text = "insert 0 1 <x><y/></x> ; delete 3 ; replace 1 <z>t</z> ; insert - 0 <r/>";
        let script = EditScript::parse(text).unwrap();
        assert_eq!(script.ops.len(), 4);
        assert_eq!(script.ops[3], ScriptOp::Insert { parent: None, position: 0, xml: "<r/>".into() });
        assert_eq!(script.serialize(), text);
        assert_eq!(EditScript::parse(&script.serialize()).unwrap(), script);
    }

    #[test]
    fn parse_rejects_malformed_ops() {
        for bad in [
            "",
            "explode 3",
            "insert 0 1",
            "insert x 0 <a/>",
            "delete -",
            "replace 1",
            "delete 1 ; ",
        ] {
            assert!(EditScript::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn apply_chains_edits_and_reports_rejections() {
        let doc = parse("<a><b/><c/></a>").unwrap();
        let script = EditScript::parse("delete 0 ; insert - 0 <r><s/></r> ; replace 1 <t/>").unwrap();
        let steps = script.apply(&doc).unwrap();
        assert_eq!(steps.len(), 3);
        assert!(steps[0].is_empty(), "deleting the root empties the document");
        assert_eq!(steps[2].len(), 2);
        let bogus = EditScript::parse("delete 99").unwrap();
        let err = bogus.apply(&doc).unwrap_err();
        assert!(err.contains("step 0"), "{err}");
    }

    #[test]
    fn generated_scripts_apply_cleanly_and_are_deterministic() {
        let doc = parse("<a><b><c/></b><b/><d>t</d></a>").unwrap();
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let script = generate(&mut rng, &doc, 8);
            assert!(!script.ops.is_empty(), "seed {seed}");
            script.apply(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_eq!(generate(&mut rng, &doc, 8), script, "seed {seed}");
            let round = EditScript::parse(&script.serialize()).unwrap();
            assert_eq!(round, script, "seed {seed}: serialization is lossless");
        }
    }

    #[test]
    fn generator_reaches_the_empty_document_edge() {
        // Long scripts over a tiny document delete the root sooner or
        // later; the step after that must be the revive insert.
        let doc = parse("<a><b/></a>").unwrap();
        let mut revived = false;
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let script = generate(&mut rng, &doc, 30);
            script.apply(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            revived |= script
                .ops
                .iter()
                .any(|op| matches!(op, ScriptOp::Insert { parent: None, .. }));
        }
        assert!(revived, "no script revived an empty document");
    }

    #[test]
    fn derived_scripts_depend_on_both_document_and_query() {
        let d1 = parse("<a><b/><c/></a>").unwrap();
        let d2 = parse("<a><c/><b/></a>").unwrap();
        let q1 = gtpquery::parse_twig("//a/b").unwrap();
        let q2 = gtpquery::parse_twig("//a/c").unwrap();
        let s = derive_script(&d1, &q1);
        assert_eq!(derive_script(&d1, &q1), s, "derivation is deterministic");
        assert!(derive_script(&d2, &q1) != s || derive_script(&d1, &q2) != s);
    }
}
