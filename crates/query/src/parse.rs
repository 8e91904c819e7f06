//! Parser for an XPath-like twig/GTP syntax.
//!
//! Grammar (whitespace-insensitive between tokens):
//!
//! ```text
//! query    := ('/' | '//') step ( edge step )*
//! edge     := '/' | '//' | '/?' | '//?'          ('?' marks an optional edge)
//! step     := name valuepred? marker? pred*
//! valuepred := \"='text'\" | \"~'text'\"   (text equals / contains)
//! name     := [A-Za-z0-9_.:-]+ | '*'
//! marker   := '!'   (non-return node)
//!           | '@'   (group-return node)
//! pred     := '[' alt ( 'or' alt )* ']'
//! alt      := predhead step ( edge step )*
//! predhead := ''            (child axis)
//!           | '?'           (optional child axis)
//!           | '.'? edge     ('.//x', '//x', './x', '/x', with '?' variants)
//! ```
//!
//! A predicate with `or` alternatives (`[b or .//c]`) forms an OR-group
//! (AND/OR twigs, paper §3.3.3): the step is satisfied when any
//! alternative matches. Nodes inside a multi-alternative predicate are
//! forced to non-return roles — disjunctive branches check existence
//! only.
//!
//! Examples from the paper's Figure 15:
//!
//! * `//dblp/inproceedings[title]/author`
//! * `//dblp/article[author][.//title]//year`
//! * `/site/open_auctions[.//bidder/personref]//reserve`
//! * `//s/vp/pp[in]/np/vbn`
//!
//! By default every node is a **return** node (a "full twig query"); `!`
//! and `@` adjust individual roles, and `Gtp::single_return` /
//! `Gtp::set_role` can rewrite them after parsing.

use crate::gtp::{Axis, Gtp, GtpBuilder, QNodeId, Role, ValuePred};
use std::fmt;

/// Twig-syntax parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset into the query string.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Parse `input` into a [`Gtp`].
pub fn parse_twig(input: &str) -> Result<Gtp, QueryParseError> {
    Parser { input: input.as_bytes(), pos: 0, depths: vec![0] }.parse()
}

/// Deepest query node the parser accepts, in edges below the root. Spine
/// steps and predicate nesting both count (`//a/b[c]` and `//a[b[c]]` are
/// each 2 deep), so deeper input is a [`QueryParseError`], never a stack
/// overflow in the parser or in any walk over the query tree; and every
/// accepted query's canonical form ([`crate::serialize()`], which nests
/// each step as a predicate) parses again.
const MAX_QUERY_DEPTH: usize = 256;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Depth (edges below the root) of each query node built so far, by
    /// node index.
    depths: Vec<usize>,
}

#[derive(Clone, Copy)]
struct ParsedEdge {
    axis: Axis,
    optional: bool,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse(mut self) -> Result<Gtp, QueryParseError> {
        self.skip_ws();
        if !self.eat(b'/') {
            return Err(self.err("query must start with '/' or '//'"));
        }
        let rooted = !self.eat(b'/');
        let (name, marker) = self.parse_name_marker()?;
        let pred = self.parse_value_pred()?;
        let marker = marker.or(if pred.is_some() { self.reparse_marker() } else { None });
        let mut builder = GtpBuilder::new(&name, rooted);
        let root = builder.root();
        if let Some(p) = pred {
            builder.value_pred(root, p);
        }
        if let Some(role) = marker {
            builder.role(root, role);
        }
        self.parse_preds(&mut builder, root)?;
        self.parse_tail(&mut builder, root)?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters after query"));
        }
        Ok(builder.build())
    }

    /// Parse `( edge step )*` continuing from `node`.
    fn parse_tail(
        &mut self,
        builder: &mut GtpBuilder,
        mut node: QNodeId,
    ) -> Result<(), QueryParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    let edge = self.parse_edge()?;
                    node = self.parse_step(builder, node, edge)?;
                }
                _ => return Ok(()),
            }
        }
    }

    fn parse_edge(&mut self) -> Result<ParsedEdge, QueryParseError> {
        if !self.eat(b'/') {
            return Err(self.err("expected '/'"));
        }
        let axis = if self.eat(b'/') { Axis::Descendant } else { Axis::Child };
        let optional = self.eat(b'?');
        Ok(ParsedEdge { axis, optional })
    }

    /// Parse one step (name, marker, predicates) attached below `parent`.
    ///
    /// Predicates are the parser's only recursion, and every level of it
    /// passes through here one edge deeper, so refusing a step past
    /// [`MAX_QUERY_DEPTH`] before descending bounds the stack use for any
    /// input.
    fn parse_step(
        &mut self,
        builder: &mut GtpBuilder,
        parent: QNodeId,
        edge: ParsedEdge,
    ) -> Result<QNodeId, QueryParseError> {
        let depth = self.depths[parent.index()] + 1;
        if depth > MAX_QUERY_DEPTH {
            return Err(self.err("query nesting too deep"));
        }
        let (name, marker) = self.parse_name_marker()?;
        let pred = self.parse_value_pred()?;
        let role = marker.or(if pred.is_some() { self.reparse_marker() } else { None })
            .unwrap_or(Role::Return);
        let node = builder.add(parent, &name, edge.axis, edge.optional, role);
        debug_assert_eq!(node.index(), self.depths.len(), "ids follow insertion order");
        self.depths.push(depth);
        if let Some(p) = pred {
            builder.value_pred(node, p);
        }
        self.parse_preds(builder, node)?;
        Ok(node)
    }

    /// `='text'` or `~'text'` directly after a step name (single-quoted,
    /// no escapes).
    fn parse_value_pred(&mut self) -> Result<Option<ValuePred>, QueryParseError> {
        let contains = match self.peek() {
            Some(b'=') => false,
            Some(b'~') => true,
            _ => return Ok(None),
        };
        self.pos += 1;
        if !self.eat(b'\'') {
            return Err(self.err("expected \"'\" to open the value literal"));
        }
        let start = self.pos;
        while self.peek().is_some_and(|b| b != b'\'') {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err(self.err("unterminated value literal"));
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("query must be UTF-8"))?
            .to_string();
        self.pos += 1; // closing quote
        Ok(Some(if contains {
            ValuePred::TextContains(text)
        } else {
            ValuePred::TextEquals(text)
        }))
    }

    /// Role markers may also follow the value literal (`year='2006'!`).
    fn reparse_marker(&mut self) -> Option<Role> {
        if self.eat(b'!') {
            Some(Role::NonReturn)
        } else if self.eat(b'@') {
            Some(Role::GroupReturn)
        } else {
            None
        }
    }

    /// Parse the predicates of `node`.
    fn parse_preds(
        &mut self,
        builder: &mut GtpBuilder,
        node: QNodeId,
    ) -> Result<(), QueryParseError> {
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(());
            }
            // Alternatives separated by the `or` keyword form an OR-group.
            let mut alternative_heads = Vec::new();
            let nodes_before = builder.node_count();
            loop {
                let head = self.parse_pred_alternative(builder, node)?;
                alternative_heads.push(head);
                self.skip_ws();
                if !self.eat_keyword(b"or") {
                    break;
                }
            }
            self.skip_ws();
            if !self.eat(b']') {
                return Err(self.err("expected ']' to close predicate"));
            }
            if alternative_heads.len() > 1 {
                builder.same_or_group(&alternative_heads);
                // Disjunctive branches are existence checks: force every
                // node added inside this predicate to non-return.
                for i in nodes_before..builder.node_count() {
                    builder.role(QNodeId::from_index_for_parser(i), Role::NonReturn);
                }
            }
        }
    }

    /// One predicate alternative: `predhead step (edge step)*`. Returns
    /// the alternative's first (top) node.
    fn parse_pred_alternative(
        &mut self,
        builder: &mut GtpBuilder,
        node: QNodeId,
    ) -> Result<QNodeId, QueryParseError> {
        self.skip_ws();
        let mut optional = self.eat(b'?');
        let mut axis = Axis::Child;
        if self.eat(b'.') {
            // ".//x" or "./x"
            if self.peek() != Some(b'/') {
                return Err(self.err("expected '/' after '.' in predicate"));
            }
            let e = self.parse_edge()?;
            axis = e.axis;
            optional |= e.optional;
        } else if self.peek() == Some(b'/') {
            let e = self.parse_edge()?;
            axis = e.axis;
            optional |= e.optional;
        }
        let edge = ParsedEdge { axis, optional };
        let first = self.parse_step(builder, node, edge)?;
        self.parse_tail(builder, first)?;
        Ok(first)
    }

    /// Consume the given keyword if it appears here followed by a
    /// non-name character (so `[x or y]` parses but `[xory]` is a name).
    fn eat_keyword(&mut self, kw: &[u8]) -> bool {
        let end = self.pos + kw.len();
        if self.input.len() < end || &self.input[self.pos..end] != kw {
            return false;
        }
        if self.input.get(end).is_some_and(|b| {
            b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
        }) {
            return false;
        }
        self.pos = end;
        true
    }

    fn parse_name_marker(&mut self) -> Result<(String, Option<Role>), QueryParseError> {
        self.skip_ws();
        let name = if self.eat(b'*') {
            "*".to_string()
        } else {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(self.err("expected an element name or '*'"));
            }
            std::str::from_utf8(&self.input[start..self.pos])
                .map_err(|_| self.err("query must be UTF-8"))?
                .to_string()
        };
        let marker = if self.eat(b'!') {
            Some(Role::NonReturn)
        } else if self.eat(b'@') {
            Some(Role::GroupReturn)
        } else {
            None
        };
        Ok((name, marker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtp::NodeTest;

    #[test]
    fn parses_linear_path() {
        let g = parse_twig("//a/b//d").unwrap();
        assert_eq!(g.len(), 3);
        assert!(!g.is_rooted());
        let a = g.root();
        let b = g.children(a)[0];
        let d = g.children(b)[0];
        assert_eq!(g.edge(b).unwrap().axis, Axis::Child);
        assert_eq!(g.edge(d).unwrap().axis, Axis::Descendant);
        assert!(g.iter().all(|q| g.role(q) == Role::Return));
    }

    #[test]
    fn parses_rooted_query() {
        let g = parse_twig("/site/open_auctions").unwrap();
        assert!(g.is_rooted());
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn parses_figure1_twig() {
        // //A/B[//D][/C]
        let g = parse_twig("//a/b[//d][c]").unwrap();
        assert_eq!(g.len(), 4);
        let b = g.children(g.root())[0];
        let kids = g.children(b);
        assert_eq!(kids.len(), 2);
        assert_eq!(g.edge(kids[0]).unwrap().axis, Axis::Descendant);
        assert_eq!(g.edge(kids[1]).unwrap().axis, Axis::Child);
    }

    #[test]
    fn parses_paper_queries() {
        for q in [
            "//dblp/inproceedings[title]/author",
            "//dblp/article[author][.//title]//year",
            "//inproceedings[author][.//title]//booktitle",
            "/site/open_auctions[.//bidder/personref]//reserve",
            "//people//person[.//address/zipcode]/profile/education",
            "//item[location]/description//keyword",
            "//s/vp/pp[in]/np/vbn",
            "//s/vp//pp[.//np/vbn]/in",
            "//vp[dt]//prp_dollar_",
        ] {
            let g = parse_twig(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(g.len() >= 3, "{q}");
        }
    }

    #[test]
    fn predicate_with_nested_path() {
        let g = parse_twig("/site/open_auctions[.//bidder/personref]//reserve").unwrap();
        assert_eq!(g.len(), 5);
        let oa = g.children(g.root())[0];
        let kids = g.children(oa);
        assert_eq!(kids.len(), 2); // bidder (predicate), reserve (spine)
        let bidder = kids[0];
        assert_eq!(g.edge(bidder).unwrap().axis, Axis::Descendant);
        let personref = g.children(bidder)[0];
        assert_eq!(g.edge(personref).unwrap().axis, Axis::Child);
        let reserve = kids[1];
        assert_eq!(g.edge(reserve).unwrap().axis, Axis::Descendant);
    }

    #[test]
    fn markers_set_roles() {
        let g = parse_twig("//a!/b@[c!]//d").unwrap();
        assert_eq!(g.role(g.root()), Role::NonReturn);
        let b = g.children(g.root())[0];
        assert_eq!(g.role(b), Role::GroupReturn);
        let c = g.children(b)[0];
        assert_eq!(g.role(c), Role::NonReturn);
        let d = g.children(b)[1];
        assert_eq!(g.role(d), Role::Return);
    }

    #[test]
    fn optional_edges_parse() {
        let g = parse_twig("//a/?b//?c[?d]").unwrap();
        let b = g.children(g.root())[0];
        assert!(g.edge(b).unwrap().optional);
        assert_eq!(g.edge(b).unwrap().axis, Axis::Child);
        let c = g.children(b)[0];
        assert!(g.edge(c).unwrap().optional);
        assert_eq!(g.edge(c).unwrap().axis, Axis::Descendant);
        let d = g.children(c)[0];
        assert!(g.edge(d).unwrap().optional);
        assert_eq!(g.edge(d).unwrap().axis, Axis::Child);
    }

    #[test]
    fn wildcard_step() {
        let g = parse_twig("//a/*//b").unwrap();
        let star = g.children(g.root())[0];
        assert_eq!(*g.test(star), NodeTest::Wildcard);
        assert!(g.has_wildcard());
    }

    #[test]
    fn multiple_predicates_then_spine() {
        let g = parse_twig("//x[a][b][c]/y").unwrap();
        let kids = g.children(g.root());
        assert_eq!(kids.len(), 4);
        // spine child is last
        assert!(matches!(g.test(kids[3]), NodeTest::Name(n) if n == "y"));
    }

    #[test]
    fn whitespace_tolerated() {
        let g = parse_twig("  //a / b [ .//c ] // d  ").unwrap();
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn error_cases() {
        assert!(parse_twig("").is_err());
        assert!(parse_twig("a/b").is_err());
        assert!(parse_twig("//a[").is_err());
        assert!(parse_twig("//a[b").is_err());
        assert!(parse_twig("//a/").is_err());
        assert!(parse_twig("//a]b").is_err());
        assert!(parse_twig("//a[.b]").is_err());
        assert!(parse_twig("//").is_err());
    }

    /// `//a[b[b[…]]]` with `depth` nested predicates.
    fn nested(depth: usize) -> String {
        format!("//a{}{}", "[b".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn predicate_nesting_is_bounded() {
        assert_eq!(parse_twig(&nested(MAX_QUERY_DEPTH)).unwrap().len(), MAX_QUERY_DEPTH + 1);
        let err = parse_twig(&nested(MAX_QUERY_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("too deep"), "{err}");
        // Far past the limit the parser stops right after the first
        // bracket too many instead of recursing into the rest.
        let err = parse_twig(&nested(40_000)).unwrap_err();
        assert_eq!(err.offset, "//a".len() + "[b".len() * MAX_QUERY_DEPTH + "[".len());
        // OR alternatives add no depth; a spine step inside a predicate
        // adds one, so `y` below the deepest `x` must stay within the limit.
        let wide =
            |levels: usize| format!("//a{}{}", "[x/y or b".repeat(levels), "]".repeat(levels));
        assert!(parse_twig(&wide(MAX_QUERY_DEPTH - 1)).is_ok());
        assert!(parse_twig(&wide(MAX_QUERY_DEPTH)).is_err());
    }

    /// `//a/a/…/a` with `steps` steps.
    fn path(steps: usize) -> String {
        "//a".to_string() + &"/a".repeat(steps - 1)
    }

    #[test]
    fn spine_depth_is_bounded_and_round_trips() {
        // The deepest accepted path: its last node is 256 edges down, and
        // its canonical form nests 256 brackets, which parses again.
        let g = parse_twig(&path(MAX_QUERY_DEPTH + 1)).unwrap();
        let canonical = crate::serialize(&g);
        assert_eq!(canonical.matches('[').count(), MAX_QUERY_DEPTH);
        assert!(crate::structurally_equal(&g, &parse_twig(&canonical).unwrap()));
        // One step more is refused, at the step too many.
        let err = parse_twig(&path(MAX_QUERY_DEPTH + 2)).unwrap_err();
        assert!(err.message.contains("too deep"), "{err}");
        assert_eq!(err.offset, path(MAX_QUERY_DEPTH + 1).len() + "/".len());
        // Spine and predicate depth add up.
        assert!(parse_twig(&format!("{}[b]", path(MAX_QUERY_DEPTH))).is_ok());
        assert!(parse_twig(&format!("{}[b]", path(MAX_QUERY_DEPTH + 1))).is_err());
    }

    #[test]
    fn display_round_trip_structure() {
        for q in [
            "//a/b[//d][c]",
            "//dblp/inproceedings[title]/author",
            "//a!/b@[c!]//d",
            "//a/?b//?c",
        ] {
            let g1 = parse_twig(q).unwrap();
            let g2 = parse_twig(&g1.to_string()).unwrap_or_else(|e| {
                panic!("re-parse of {} (printed {}) failed: {e}", q, g1)
            });
            assert_eq!(g1.len(), g2.len(), "{q} -> {g1}");
            for (n1, n2) in g1.preorder().into_iter().zip(g2.preorder()) {
                assert_eq!(g1.test(n1), g2.test(n2));
                assert_eq!(g1.role(n1), g2.role(n2));
                assert_eq!(g1.edge(n1), g2.edge(n2));
            }
        }
    }
}
