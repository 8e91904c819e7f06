//! Reusable evaluation state.
//!
//! A [`Matcher`] allocates one [`HierStack`] arena per
//! query node plus scratch edge buffers; evaluating many queries (or many
//! document chunks, see [`crate::parallel`]) rebuilds all of it each time.
//! [`EvalContext`] pools both between evaluations: stacks are handed out
//! [`reset`](HierStack::reset) but with their arenas, spare-buffer pools,
//! and scratch capacity intact, so steady-state evaluation stops touching
//! the allocator for per-query setup.
//!
//! ```
//! use gtpquery::parse_twig;
//! use twig2stack::EvalContext;
//! use xmldom::parse;
//!
//! let doc = parse("<dblp><inproceedings><title/><author/></inproceedings></dblp>").unwrap();
//! let gtp = parse_twig("//dblp/inproceedings[title]/author").unwrap();
//! let mut ctx = EvalContext::new();
//! for _ in 0..3 {
//!     let results = ctx.evaluate(&doc, &gtp); // reuses buffers after round 1
//!     assert_eq!(results.len(), 1);
//! }
//! ```

use crate::edges::EdgeTarget;
use crate::enumerate::enumerate;
use crate::hstack::HierStack;
use crate::matcher::{MatchOptions, MatchStats, Matcher, TwigMatch};
use gtpquery::{Gtp, ResultSet};
use xmldom::{Document, Event};

/// A pool of matcher arenas and scratch buffers, reusable across queries,
/// documents, and chunks.
#[derive(Default)]
pub struct EvalContext {
    stacks: Vec<HierStack>,
    scratch: Vec<Vec<EdgeTarget>>,
}

impl EvalContext {
    /// An empty context. Pools fill on the first [`recycle`](Self::recycle).
    pub fn new() -> Self {
        EvalContext::default()
    }

    /// Hand out a hierarchical stack in the requested mode, reusing pooled
    /// capacity when available.
    pub(crate) fn take_stack(&mut self, existence_only: bool) -> HierStack {
        match self.stacks.pop() {
            Some(mut s) => {
                s.reset(existence_only);
                s
            }
            None => HierStack::new(existence_only),
        }
    }

    /// Hand out a cleared scratch edge buffer.
    pub(crate) fn take_scratch(&mut self) -> Vec<EdgeTarget> {
        let mut buf = self.scratch.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return scratch buffers to the pool.
    pub(crate) fn put_scratch(&mut self, bufs: impl IntoIterator<Item = Vec<EdgeTarget>>) {
        self.scratch.extend(bufs);
    }

    /// Return a finished (and typically already-enumerated) encoding's
    /// arenas to the pool.
    pub fn recycle(&mut self, tm: TwigMatch<'_>) {
        self.stacks.extend(tm.into_stacks());
    }

    /// [`crate::match_document`], drawing arenas from this pool. Recycle
    /// the returned encoding with [`Self::recycle`] once done with it.
    pub fn match_document<'g>(
        &mut self,
        doc: &'g Document,
        gtp: &'g Gtp,
        options: MatchOptions,
    ) -> (TwigMatch<'g>, MatchStats) {
        let mut m = Matcher::new_in(gtp, doc.labels(), options, self).with_text_source(doc);
        for ev in xmldom::DocEvents::new(doc) {
            if let Event::End { elem, label, region } = ev {
                m.on_element_close(elem, label, region);
            }
        }
        m.finish_into(self)
    }

    /// [`crate::evaluate`], drawing from and recycling into this pool.
    pub fn evaluate(&mut self, doc: &Document, gtp: &Gtp) -> ResultSet {
        let (tm, _) = self.match_document(doc, gtp, MatchOptions::default());
        let rs = enumerate(&tm);
        self.recycle(tm);
        rs
    }

    /// Number of pooled stack arenas (diagnostics / tests).
    pub fn pooled_stacks(&self) -> usize {
        self.stacks.len()
    }

    /// Number of pooled buffers: the pooled stacks' spare element and
    /// child-list buffers plus the scratch edge buffers (diagnostics /
    /// tests). Repeating a query must leave it flat.
    pub fn pooled_buffers(&self) -> usize {
        self.stacks.iter().map(HierStack::spare_buffers).sum::<usize>() + self.scratch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use gtpquery::parse_twig;
    use xmldom::parse;

    #[test]
    fn reuse_matches_fresh_evaluation() {
        let doc =
            parse("<a><a><b><c/></b></a><b/><b><c/><c/></b><d><b><c/></b></d></a>").unwrap();
        let mut ctx = EvalContext::new();
        for q in ["//a/b[c]", "//a//b", "//a[b]//c", "//d/b/c", "//a/b[?c@]"] {
            let gtp = parse_twig(q).unwrap();
            for round in 0..3 {
                assert_eq!(ctx.evaluate(&doc, &gtp), evaluate(&doc, &gtp), "{q} round {round}");
            }
        }
    }

    #[test]
    fn arenas_return_to_pool() {
        let doc = parse("<a><b/><b/></a>").unwrap();
        let g2 = parse_twig("//a/b").unwrap();
        let g3 = parse_twig("//a[b]//c").unwrap();
        let mut ctx = EvalContext::new();
        ctx.evaluate(&doc, &g2);
        assert_eq!(ctx.pooled_stacks(), 2);
        // A bigger query grows the pool; a smaller one leaves the rest.
        ctx.evaluate(&doc, &g3);
        assert_eq!(ctx.pooled_stacks(), 3);
        ctx.evaluate(&doc, &g2);
        assert_eq!(ctx.pooled_stacks(), 3);
    }

    #[test]
    fn mode_switch_between_reuses() {
        // The same pooled arena must serve existence-checking and full
        // queries alternately without leaking the previous mode.
        let doc = parse("<a><b><c/></b><b><c/></b></a>").unwrap();
        let full = parse_twig("//b[c]").unwrap(); // c returned
        let exist = parse_twig("//b!/c!").unwrap();
        let mut ctx = EvalContext::new();
        for _ in 0..2 {
            assert_eq!(ctx.evaluate(&doc, &full), evaluate(&doc, &full));
            assert_eq!(ctx.evaluate(&doc, &exist), evaluate(&doc, &exist));
        }
    }

    #[test]
    fn stats_are_per_evaluation() {
        let doc = parse("<a><b/><b/></a>").unwrap();
        let gtp = parse_twig("//a/b").unwrap();
        let mut ctx = EvalContext::new();
        let (tm1, s1) = ctx.match_document(&doc, &gtp, MatchOptions::default());
        ctx.recycle(tm1);
        let (tm2, s2) = ctx.match_document(&doc, &gtp, MatchOptions::default());
        assert_eq!(s1, s2, "pooled reuse must not inflate counters");
        assert_eq!(tm2.root_match_count(), 1);
        ctx.recycle(tm2);
    }
}
