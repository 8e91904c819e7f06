//! Label-partitioned element streams.
//!
//! Region-encoding-based twig joins (TwigStack, PathStack, Twig²Stack)
//! consume, per query node, a stream of the document elements carrying that
//! node's label, sorted by `LeftPos` (document order) — the classic
//! "element list" / posting-list access path [4, 23]. This module defines
//! the stream abstraction and the in-memory index; [`crate::disk`] provides
//! the same streams from an on-disk file with IO accounting.

use crate::summary::{PathSummary, RegionCover, SummaryRef, SummarySet};
use std::fmt;
use std::io;
use twigobs::Counter;
use xmldom::{Document, EditDelta, Label, NodeId, Region};

/// An I/O failure that terminated a stream scan early.
///
/// In-memory streams never produce one; disk-backed streams turn a failed
/// record read into a `StreamError` that drivers surface via
/// [`ElemStream::take_error`]. Without that check a truncated or failing
/// index file would be indistinguishable from a clean end of stream — the
/// scan would simply stop short and the query would return a plausible
/// but wrong result.
#[derive(Debug)]
pub struct StreamError {
    /// What was being scanned when the read failed (typically the label
    /// segment name).
    pub context: String,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl StreamError {
    /// Wrap `source` with a description of the failed scan.
    pub fn new(context: impl Into<String>, source: io::Error) -> Self {
        StreamError { context: context.into(), source }
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream read failed ({}): {}", self.context, self.source)
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One element as stored in an index: identity + region encoding.
///
/// `#[repr(C)]` with four `u32` fields (id, left, right, level) in
/// declaration order: exactly the 16-byte little-endian record the v3
/// mapped index stores, so a mapped elements section casts directly to
/// `&[IndexedElement]` (see [`crate::v3`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct IndexedElement {
    /// Document node id (pre-order ordinal).
    pub id: NodeId,
    /// Region encoding.
    pub region: Region,
}

/// Size of one serialized element record: id, left, right, level, and the
/// element's path-summary id (see [`crate::disk`]).
pub const ELEMENT_RECORD_BYTES: usize = 20;

/// Size of one mapped element record (v3): id, left, right, level — the
/// summary id lives in a parallel array there.
pub const ELEMENT_MAPPED_BYTES: usize = 16;

/// Elements per skip block: [`ElementIndex`] keeps the max `right` of each
/// aligned block of this many elements, so [`ElemStream::skip_to`] can
/// bypass whole blocks that end before the target position.
pub const SKIP_BLOCK: usize = 64;

/// Whether query-infeasible elements are filtered out of streams and
/// skip-scan is used. The default is on; turning it off restores the
/// full-scan behaviour for differential testing and A/B measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruningPolicy {
    /// Filter streams by feasible summary ids and gallop with `skip_to`.
    #[default]
    Enabled,
    /// Read full label streams (the pre-pruning behaviour).
    Disabled,
}

impl PruningPolicy {
    /// True for [`PruningPolicy::Enabled`].
    #[inline]
    pub fn is_enabled(self) -> bool {
        matches!(self, PruningPolicy::Enabled)
    }
}

/// A cursor over one label's elements in document order.
///
/// The two operations mirror the access pattern of holistic twig joins:
/// inspect the current head, then advance past it.
pub trait ElemStream {
    /// The element at the head of the stream, or `None` at end.
    fn peek(&mut self) -> Option<IndexedElement>;

    /// Advance past the current head. No-op at end of stream.
    fn advance(&mut self);

    /// True iff the stream is exhausted.
    fn is_eof(&mut self) -> bool {
        self.peek().is_none()
    }

    /// Pop the head, if any.
    fn next_elem(&mut self) -> Option<IndexedElement> {
        let e = self.peek();
        if e.is_some() {
            self.advance();
        }
        e
    }

    /// Discard every element whose region ends before `left`
    /// (`region.right < left`): afterwards the head, if any, is the first
    /// element that can contain or follow document position `left`.
    /// Returns the number of elements bypassed.
    ///
    /// This default walks the stream with [`advance`](Self::advance), so
    /// bypassed elements still count as scanned; skip-capable streams
    /// ([`PrunedStream`], the disk streams) override it to jump without
    /// delivering the skipped elements, counting them as pruned instead.
    fn skip_to(&mut self, left: u32) -> usize {
        let mut skipped = 0;
        while let Some(e) = self.peek() {
            if e.region.right >= left {
                break;
            }
            self.advance();
            skipped += 1;
        }
        skipped
    }

    /// Take the error that terminated this stream early, if any.
    ///
    /// A failing stream reports end-of-stream from [`peek`](Self::peek)
    /// (so drivers terminate cleanly) and parks the failure here; every
    /// indexed driver checks this after its scan and propagates the error
    /// instead of returning the truncated result. In-memory streams never
    /// fail, hence the default.
    fn take_error(&mut self) -> Option<StreamError> {
        None
    }
}

/// A stream over a borrowed, already-sorted slice.
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    items: &'a [IndexedElement],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Stream over `items` (must be sorted by `region.left`).
    pub fn new(items: &'a [IndexedElement]) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0].region.left < w[1].region.left));
        SliceStream { items, pos: 0 }
    }

    /// Elements not yet consumed.
    pub fn remaining(&self) -> usize {
        self.items.len() - self.pos
    }
}

impl ElemStream for SliceStream<'_> {
    fn peek(&mut self) -> Option<IndexedElement> {
        self.items.get(self.pos).copied()
    }

    fn advance(&mut self) {
        if self.pos < self.items.len() {
            self.pos += 1;
            // Stream consumption is the access-path "elements scanned"
            // unit of the baseline algorithms.
            twigobs::bump(twigobs::Counter::ElementsScanned);
        }
    }
}

/// An empty stream (for query labels absent from the document).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyStream;

impl ElemStream for EmptyStream {
    fn peek(&mut self) -> Option<IndexedElement> {
        None
    }
    fn advance(&mut self) {}
}

/// In-memory label-partitioned element index of one document, plus the
/// document's path summary and the per-element summary ids that pruned
/// streams filter by.
#[derive(Debug, Clone)]
pub struct ElementIndex {
    /// Indexed by `Label::index()`.
    by_label: Vec<Vec<IndexedElement>>,
    /// Summary id per element, parallel to `by_label`.
    sids: Vec<Vec<u32>>,
    /// Per label: max `right` of each aligned [`SKIP_BLOCK`]-element
    /// block, the structure `skip_to` gallops over.
    blocks: Vec<Vec<u32>>,
    summary: PathSummary,
}

impl ElementIndex {
    /// Build the index in two document passes: a label histogram first, so
    /// every per-label vector is allocated at its exact final size, then a
    /// fill pass that never reallocates. Elements within each label list
    /// are in document order because node ids are pre-order ordinals. The
    /// path summary is built alongside.
    pub fn build(doc: &Document) -> Self {
        let _span = twigobs::span(twigobs::Phase::IndexBuild);
        let summary = PathSummary::build(doc);
        let mut histogram = vec![0usize; doc.labels().len()];
        for n in doc.iter() {
            histogram[doc.label(n).index()] += 1;
        }
        let mut by_label: Vec<Vec<IndexedElement>> =
            histogram.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut sids: Vec<Vec<u32>> =
            histogram.iter().map(|&n| Vec::with_capacity(n)).collect();
        for n in doc.iter() {
            let ix = doc.label(n).index();
            by_label[ix].push(IndexedElement {
                id: n,
                region: doc.region(n),
            });
            sids[ix].push(summary.sid(n));
        }
        debug_assert!(
            by_label
                .iter()
                .zip(&histogram)
                .all(|(v, &n)| v.len() == n && v.capacity() == n),
            "second pass must fill exactly the pre-sized capacity"
        );
        let blocks = by_label.iter().map(|v| skip_blocks(v)).collect();
        ElementIndex {
            by_label,
            sids,
            blocks,
            summary,
        }
    }

    /// The index of `edited`: a plain [`build`](Self::build). The name
    /// and signature stay only because the `perfbench` benchmark times
    /// this call; nothing in the workspace calls it.
    pub fn apply_edit(&self, edited: &Document, _delta: &EditDelta) -> ElementIndex {
        ElementIndex::build(edited)
    }

    /// All elements with `label`, in document order.
    pub fn elements(&self, label: Label) -> &[IndexedElement] {
        self.by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A stream over the elements with `label`.
    pub fn stream(&self, label: Label) -> SliceStream<'_> {
        SliceStream::new(self.elements(label))
    }

    /// Number of elements stored for `label`.
    pub fn count(&self, label: Label) -> usize {
        self.elements(label).len()
    }

    /// Total elements that a scan of the given labels would read, and the
    /// number of bytes that scan would cost in the on-disk record format.
    /// This is the paper's IO-cost model for region-encoded algorithms.
    pub fn scan_cost(&self, labels: &[Label]) -> ScanCost {
        let elements: usize = labels.iter().map(|&l| self.count(l)).sum();
        ScanCost {
            elements,
            bytes: elements * ELEMENT_RECORD_BYTES,
        }
    }

    /// Number of labels the index covers.
    pub fn label_count(&self) -> usize {
        self.by_label.len()
    }

    /// Borrowed view of the document's path summary.
    pub fn summary(&self) -> SummaryRef<'_> {
        self.summary.view()
    }

    /// Summary ids of the elements with `label`, parallel to
    /// [`elements`](Self::elements).
    pub fn sids(&self, label: Label) -> &[u32] {
        self.sids.get(label.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-block max-`right` table for `label` ([`SKIP_BLOCK`]-element
    /// blocks), parallel to [`elements`](Self::elements).
    pub fn blocks(&self, label: Label) -> &[u32] {
        self.blocks.get(label.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total heap bytes held by the index's posting, sid, and block
    /// arrays (the payload a mapped v3 index avoids materializing).
    pub fn heap_bytes(&self) -> usize {
        let elems: usize = self.by_label.iter().map(|v| v.len() * ELEMENT_MAPPED_BYTES).sum();
        let sids: usize = self.sids.iter().map(|v| v.len() * 4).sum();
        let blocks: usize = self.blocks.iter().map(|v| v.len() * 4).sum();
        elems + sids + blocks
    }

    /// A pruned, skip-capable stream over the elements with `label`.
    /// `filter` drops elements whose summary id is infeasible; `cover`
    /// gallops past gaps between candidate root regions. Pass `None` for
    /// both to get full-scan behaviour with skip support.
    pub fn pruned_stream<'a>(
        &'a self,
        label: Label,
        filter: Option<&'a SummarySet>,
        cover: Option<&'a RegionCover>,
    ) -> PrunedStream<'a> {
        let ix = label.index();
        let (items, sids, blocks) = match self.by_label.get(ix) {
            Some(v) => (v.as_slice(), self.sids[ix].as_slice(), self.blocks[ix].as_slice()),
            None => (&[][..], &[][..], &[][..]),
        };
        PrunedStream::borrowed(items, sids, blocks, filter, cover)
    }
}

/// Read-only access-path surface shared by the heap [`ElementIndex`] and
/// the zero-copy [`MappedIndex`](crate::v3::MappedIndex).
///
/// Everything the engines need — label-partitioned posting slices, the
/// parallel summary-id and block-max arrays, and the path-summary view —
/// is exposed as borrowed slices, so a generic driver cannot tell whether
/// the bytes live on the heap or in a mapped file. The stream
/// constructors are provided methods: both backends produce the *same*
/// [`SliceStream`]/[`PrunedStream`] types over their slices, which is the
/// whole trick behind "all four engines run zero-copy".
pub trait IndexView {
    /// All elements with `label`, in document order.
    fn elements(&self, label: Label) -> &[IndexedElement];

    /// Summary ids of the elements with `label`, parallel to
    /// [`elements`](Self::elements).
    fn sids(&self, label: Label) -> &[u32];

    /// Per-block max-`right` table for `label` ([`SKIP_BLOCK`]-element
    /// blocks), parallel to [`elements`](Self::elements).
    fn blocks(&self, label: Label) -> &[u32];

    /// Borrowed view of the document's path summary.
    fn summary(&self) -> SummaryRef<'_>;

    /// Number of labels the index covers.
    fn label_count(&self) -> usize;

    /// Number of elements stored for `label`.
    fn count(&self, label: Label) -> usize {
        self.elements(label).len()
    }

    /// A stream over the elements with `label`.
    fn stream(&self, label: Label) -> SliceStream<'_> {
        SliceStream::new(self.elements(label))
    }

    /// Total elements that a scan of the given labels would read, and the
    /// number of bytes that scan would cost in the on-disk record format.
    fn scan_cost(&self, labels: &[Label]) -> ScanCost {
        let elements: usize = labels.iter().map(|&l| self.count(l)).sum();
        ScanCost {
            elements,
            bytes: elements * ELEMENT_RECORD_BYTES,
        }
    }

    /// A pruned, skip-capable stream over the elements with `label` (see
    /// [`ElementIndex::pruned_stream`]).
    fn pruned_stream<'a>(
        &'a self,
        label: Label,
        filter: Option<&'a SummarySet>,
        cover: Option<&'a RegionCover>,
    ) -> PrunedStream<'a> {
        PrunedStream::borrowed(
            self.elements(label),
            self.sids(label),
            self.blocks(label),
            filter,
            cover,
        )
    }
}

impl IndexView for ElementIndex {
    fn elements(&self, label: Label) -> &[IndexedElement] {
        ElementIndex::elements(self, label)
    }
    fn sids(&self, label: Label) -> &[u32] {
        ElementIndex::sids(self, label)
    }
    fn blocks(&self, label: Label) -> &[u32] {
        ElementIndex::blocks(self, label)
    }
    fn summary(&self) -> SummaryRef<'_> {
        ElementIndex::summary(self)
    }
    fn label_count(&self) -> usize {
        ElementIndex::label_count(self)
    }
}

/// True iff a summary filter that keeps `covered` of a label's `total`
/// postings is worth applying.
///
/// When the feasible paths cover (nearly) all of a label's postings, the
/// per-element sid test costs more than the handful of elements it drops
/// — the XMark-Q2 regression: every `person` path was feasible, yet every
/// element still paid the bitset probe. Since feasible sets are
/// over-approximations, *widening* a filter (up to dropping it entirely)
/// never changes results, so planners skip the filter unless it prunes at
/// least 1/16 of the postings.
pub fn filter_worthwhile(covered: u64, total: u64) -> bool {
    covered.saturating_mul(16) <= total.saturating_mul(15)
}

/// Max `right` of each aligned [`SKIP_BLOCK`]-element block of `items`.
fn skip_blocks(items: &[IndexedElement]) -> Vec<u32> {
    items
        .chunks(SKIP_BLOCK)
        .map(|c| c.iter().map(|e| e.region.right).max().unwrap_or(0))
        .collect()
}

enum Backing<'a> {
    /// Slices borrowed from an [`ElementIndex`] label partition.
    Borrowed {
        items: &'a [IndexedElement],
        sids: &'a [u32],
        blocks: &'a [u32],
    },
    /// A materialized (merged and already sid-filtered) element list, as
    /// built for wildcard query nodes.
    Owned {
        items: Vec<IndexedElement>,
        blocks: Vec<u32>,
    },
}

impl Backing<'_> {
    #[inline]
    fn items(&self) -> &[IndexedElement] {
        match self {
            Backing::Borrowed { items, .. } => items,
            Backing::Owned { items, .. } => items,
        }
    }

    #[inline]
    fn sid_at(&self, pos: usize) -> Option<u32> {
        match self {
            Backing::Borrowed { sids, .. } => sids.get(pos).copied(),
            Backing::Owned { .. } => None,
        }
    }

    #[inline]
    fn blocks(&self) -> &[u32] {
        match self {
            Backing::Borrowed { blocks, .. } => blocks,
            Backing::Owned { blocks, .. } => blocks,
        }
    }
}

/// A summary-pruned, skip-capable element stream.
///
/// Elements whose summary id is outside the feasibility `filter` are
/// discarded without being delivered (counted as `elements_pruned`, not
/// `elements_scanned`), and gaps between the `cover`'s candidate root
/// regions are galloped over with exponential + binary search rather than
/// element-by-element reads. With both knobs `None` the stream behaves
/// like [`SliceStream`] plus a fast [`skip_to`](ElemStream::skip_to).
pub struct PrunedStream<'a> {
    backing: Backing<'a>,
    filter: Option<&'a SummarySet>,
    cover: Option<&'a RegionCover>,
    pos: usize,
    cover_pos: usize,
}

impl<'a> PrunedStream<'a> {
    /// Stream over index-owned slices (see [`ElementIndex::pruned_stream`]).
    pub fn borrowed(
        items: &'a [IndexedElement],
        sids: &'a [u32],
        blocks: &'a [u32],
        filter: Option<&'a SummarySet>,
        cover: Option<&'a RegionCover>,
    ) -> Self {
        debug_assert!(filter.is_none() || sids.len() == items.len());
        PrunedStream {
            backing: Backing::Borrowed { items, sids, blocks },
            filter,
            cover,
            pos: 0,
            cover_pos: 0,
        }
    }

    /// Stream over a materialized element list (already sid-filtered), as
    /// built for wildcard query nodes; must be sorted by `region.left`.
    pub fn owned(items: Vec<IndexedElement>, cover: Option<&'a RegionCover>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0].region.left < w[1].region.left));
        let blocks = skip_blocks(&items);
        PrunedStream {
            backing: Backing::Owned { items, blocks },
            filter: None,
            cover,
            pos: 0,
            cover_pos: 0,
        }
    }

    /// Elements at or after the cursor, before any filtering.
    pub fn raw_remaining(&self) -> usize {
        self.backing.items().len() - self.pos
    }

    /// Discard the prefix that the summary filter or cover rules out, so
    /// the cursor rests on the next deliverable element (or EOF).
    fn settle(&mut self) -> Option<IndexedElement> {
        loop {
            let items = self.backing.items();
            let e = *items.get(self.pos)?;
            if let Some(f) = self.filter {
                if let Some(sid) = self.backing.sid_at(self.pos) {
                    if !f.contains(sid) {
                        self.pos += 1;
                        twigobs::bump(Counter::ElementsPruned);
                        continue;
                    }
                }
            }
            if let Some(cover) = self.cover {
                let spans = cover.spans();
                while self.cover_pos < spans.len() && spans[self.cover_pos].1 < e.region.left {
                    self.cover_pos += 1;
                }
                match spans.get(self.cover_pos) {
                    None => {
                        // Past the last candidate region: nothing further
                        // on this stream can participate in a match.
                        let skipped = items.len() - self.pos;
                        self.pos = items.len();
                        record_skip(skipped);
                        return None;
                    }
                    Some(&(start, _)) if e.region.left < start => {
                        // In a gap between candidate regions: gallop to
                        // the first element inside the next one.
                        let target = gallop_left(items, self.pos, start);
                        record_skip(target - self.pos);
                        self.pos = target;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            return Some(e);
        }
    }
}

/// Record `skipped` bypassed elements as pruned plus one skip event.
fn record_skip(skipped: usize) {
    if skipped > 0 {
        twigobs::add(Counter::ElementsPruned, skipped as u64);
        twigobs::bump(Counter::StreamSkips);
    }
}

/// First index `>= lo` whose element has `region.left >= target`, found by
/// exponential probing then binary search (the XB-tree-style jump, minus
/// the tree: the arrays are already document-ordered).
fn gallop_left(items: &[IndexedElement], lo: usize, target: u32) -> usize {
    let mut step = 1;
    let mut hi = lo;
    while hi < items.len() && items[hi].region.left < target {
        hi += step;
        step *= 2;
    }
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(|e| e.region.left < target)
}

impl ElemStream for PrunedStream<'_> {
    fn peek(&mut self) -> Option<IndexedElement> {
        self.settle()
    }

    fn advance(&mut self) {
        if self.settle().is_some() {
            self.pos += 1;
            twigobs::bump(Counter::ElementsScanned);
        }
    }

    /// Gallop to the first element with `region.right >= left`, bypassing
    /// whole blocks via the per-block max-right table. Bypassed elements
    /// count as pruned, not scanned.
    ///
    /// Two-level branchless search: a chunked scan of the block-max table
    /// first (the table is *not* monotonic, so this is a linear scan — but
    /// eight comparisons per iteration with no early exit, which LLVM
    /// autovectorizes), then within the first candidate block a binary
    /// search by `left` caps the range (`e.left >= left ⇒ e.right > left`)
    /// and the same chunked scan finds the first qualifying `right`. The
    /// cursor's partial first block is probed by its block max too — the
    /// max over the whole block bounds the max over its suffix — and a
    /// candidate block may turn up empty when all its qualifying elements
    /// lie before the cursor, in which case the search resumes at the next
    /// block.
    fn skip_to(&mut self, left: u32) -> usize {
        let items = self.backing.items();
        let blocks = self.backing.blocks();
        let start = self.pos;
        let mut pos = self.pos;
        while pos < items.len() {
            let b = first_block_with_max_ge(blocks, pos / SKIP_BLOCK, left);
            if b >= blocks.len() {
                pos = items.len();
                break;
            }
            let lo = pos.max(b * SKIP_BLOCK);
            let hi = ((b + 1) * SKIP_BLOCK).min(items.len());
            if let Some(j) = first_right_ge(&items[lo..hi], left) {
                pos = lo + j;
                break;
            }
            pos = hi;
        }
        let skipped = pos - start;
        self.pos = pos;
        record_skip(skipped);
        skipped
    }
}

/// Width of the branchless comparison chunks in the two-level skip scan:
/// each iteration folds this many `u32` comparisons into a bitmask with no
/// data-dependent branch, so LLVM vectorizes the loop body.
const SKIP_CHUNK: usize = 8;

/// First index `>= from` whose block max is `>= left`, or `blocks.len()`.
#[inline]
fn first_block_with_max_ge(blocks: &[u32], from: usize, left: u32) -> usize {
    let mut i = from.min(blocks.len());
    while i + SKIP_CHUNK <= blocks.len() {
        let mut mask = 0u32;
        for k in 0..SKIP_CHUNK {
            mask |= u32::from(blocks[i + k] >= left) << k;
        }
        if mask != 0 {
            return i + mask.trailing_zeros() as usize;
        }
        i += SKIP_CHUNK;
    }
    while i < blocks.len() && blocks[i] < left {
        i += 1;
    }
    i
}

/// First index of `items` with `region.right >= left`, if any.
///
/// `items` is one block's (suffix of) elements, ordered by `left`. The
/// binary search by `left` bounds the scan: every element at or past the
/// partition has `left >= left`, hence `right > left`, so the partition
/// point itself qualifies if it is in range and only the (non-monotonic)
/// rights before it need scanning.
#[inline]
fn first_right_ge(items: &[IndexedElement], left: u32) -> Option<usize> {
    let cap = items.partition_point(|e| e.region.left < left);
    let mut i = 0;
    while i + SKIP_CHUNK <= cap {
        let mut mask = 0u32;
        for k in 0..SKIP_CHUNK {
            mask |= u32::from(items[i + k].region.right >= left) << k;
        }
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += SKIP_CHUNK;
    }
    while i < cap {
        if items[i].region.right >= left {
            return Some(i);
        }
        i += 1;
    }
    (cap < items.len()).then_some(cap)
}

/// Cost of scanning a set of element streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCost {
    /// Total elements read.
    pub elements: usize,
    /// Total bytes read in the serialized record format.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmldom::parse;

    #[test]
    fn index_partitions_by_label_in_document_order() {
        let doc = parse("<a><b/><a><b/><b/></a><c/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let elems = idx.elements(b);
        assert_eq!(elems.len(), 3);
        assert!(elems.windows(2).all(|w| w[0].region.left < w[1].region.left));
        let a = doc.labels().get("a").unwrap();
        assert_eq!(idx.count(a), 2);
    }

    #[test]
    fn stream_iteration() {
        let doc = parse("<a><b/><b/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let mut s = idx.stream(b);
        assert!(!s.is_eof());
        assert_eq!(s.remaining(), 2);
        let first = s.next_elem().unwrap();
        let second = s.next_elem().unwrap();
        assert!(first.region.left < second.region.left);
        assert!(s.is_eof());
        assert_eq!(s.next_elem(), None);
        s.advance(); // advancing at EOF is a no-op
        assert!(s.is_eof());
    }

    #[test]
    fn build_pre_sizes_exactly() {
        let doc = parse("<a><b/><a><b/><b/></a><c/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        for label_ix in 0..idx.label_count() {
            let v = &idx.by_label[label_ix];
            assert_eq!(v.capacity(), v.len(), "label {label_ix} over-allocated");
        }
    }

    #[test]
    fn empty_stream() {
        let mut s = EmptyStream;
        assert!(s.is_eof());
        assert_eq!(s.next_elem(), None);
    }

    #[test]
    fn skip_to_edge_cases() {
        let doc = parse("<a><b/><b/><b/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        // Empty stream: skipping is a no-op.
        let mut e = EmptyStream;
        assert_eq!(e.skip_to(100), 0);
        assert!(e.is_eof());
        // Skip to the current head: nothing bypassed, head unchanged.
        let mut s = idx.pruned_stream(b, None, None);
        let head = s.peek().unwrap();
        assert_eq!(s.skip_to(head.region.left), 0);
        assert_eq!(s.peek(), Some(head));
        // Skip past the end, then again at EOF.
        let n = s.raw_remaining();
        assert_eq!(s.skip_to(u32::MAX), n);
        assert!(s.is_eof());
        assert_eq!(s.skip_to(u32::MAX), 0);
        // The default (SliceStream) implementation agrees.
        let mut s = idx.stream(b);
        assert_eq!(s.skip_to(head.region.left), 0);
        assert_eq!(s.skip_to(u32::MAX), n);
        assert!(s.is_eof());
    }

    #[test]
    fn skip_to_keeps_spanning_ancestors() {
        // Skipping to the second inner <a> must keep the root <a> (its
        // region spans the target) while dropping the first inner one.
        let doc = parse("<a><a><c/></a><a><c/></a></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let a = doc.labels().get("a").unwrap();
        let elems = idx.elements(a);
        let target = elems[2].region.left;
        let mut s = idx.pruned_stream(a, None, None);
        assert_eq!(s.skip_to(target), 0, "root spans the target");
        assert_eq!(s.next_elem().unwrap().id, elems[0].id);
        assert_eq!(s.skip_to(target), 1, "first inner a ends before it");
        assert_eq!(s.peek().unwrap().id, elems[2].id);
    }

    #[test]
    fn skip_to_gallops_over_blocks() {
        let mut xml = String::from("<a>");
        for _ in 0..(3 * SKIP_BLOCK + 7) {
            xml.push_str("<b/>");
        }
        xml.push_str("<c/></a>");
        let doc = parse(&xml).unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let c = doc.labels().get("c").unwrap();
        let target = idx.elements(c)[0].region.left;
        let mut s = idx.pruned_stream(b, None, None);
        assert_eq!(s.skip_to(target), 3 * SKIP_BLOCK + 7);
        assert!(s.is_eof());
    }

    #[test]
    fn skip_to_keeps_element_ending_exactly_at_target() {
        // Equal-boundary case: an element whose `right` equals the target
        // `left` must be delivered (`right >= left` keeps it), and a block
        // whose max-right equals the target must NOT be galloped over
        // (the block-max test is strictly `bmax < left`). Sized so the
        // boundary element is the last entry of the first skip block.
        let mut xml = String::from("<a>");
        for _ in 0..(2 * SKIP_BLOCK) {
            xml.push_str("<b/>");
        }
        xml.push_str("</a>");
        let doc = parse(&xml).unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let elems = idx.elements(b);
        let boundary = elems[SKIP_BLOCK - 1];
        // Siblings in document order: the first block's max-right is its
        // last element's right, so the target sits exactly on the block max.
        assert_eq!(idx.blocks[b.index()][0], boundary.region.right);
        let mut s = idx.pruned_stream(b, None, None);
        assert_eq!(s.skip_to(boundary.region.right), SKIP_BLOCK - 1);
        assert_eq!(s.peek().unwrap().id, boundary.id, "boundary element kept");
        // One past the block max: the whole first block is now skippable.
        let mut s = idx.pruned_stream(b, None, None);
        assert_eq!(s.skip_to(boundary.region.right + 1), SKIP_BLOCK);
        assert_eq!(s.peek().unwrap().id, elems[SKIP_BLOCK].id);
    }

    #[test]
    fn skip_to_after_exhaustion_is_a_noop() {
        // Exhaustion case on the block-max path: once the cursor is past
        // the last element, further skips (of any target) bypass nothing
        // and the stream stays at EOF.
        let mut xml = String::from("<a>");
        for _ in 0..(SKIP_BLOCK + 5) {
            xml.push_str("<b/>");
        }
        xml.push_str("</a>");
        let doc = parse(&xml).unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let mut s = idx.pruned_stream(b, None, None);
        assert_eq!(s.skip_to(u32::MAX), SKIP_BLOCK + 5);
        assert!(s.is_eof());
        for target in [0, 1, u32::MAX] {
            assert_eq!(s.skip_to(target), 0, "skip_to({target}) after EOF");
            assert!(s.is_eof());
        }
        s.advance();
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn in_memory_streams_take_no_error() {
        let doc = parse("<a><b/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let b = doc.labels().get("b").unwrap();
        let mut s = idx.stream(b);
        while s.next_elem().is_some() {}
        assert!(s.take_error().is_none());
        let mut p = idx.pruned_stream(b, None, None);
        assert!(p.take_error().is_none());
        assert!(EmptyStream.take_error().is_none());
    }

    #[test]
    fn pruned_stream_filters_by_sid() {
        let doc = parse("<a><b><c/></b><c/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let c = doc.labels().get("c").unwrap();
        let nested = NodeId::from_index(2); // the c under b
        let mut keep = SummarySet::empty(idx.summary().len());
        keep.insert(idx.summary().sid(nested));
        let mut s = idx.pruned_stream(c, Some(&keep), None);
        assert_eq!(s.next_elem().unwrap().id, nested);
        assert!(s.is_eof());
    }

    #[test]
    fn pruned_stream_cover_gallops_past_gaps() {
        let doc = parse("<r><a><b/></a><x><b/></x><a><b/></a></r>").unwrap();
        let idx = ElementIndex::build(&doc);
        let a = doc.labels().get("a").unwrap();
        let b = doc.labels().get("b").unwrap();
        let cover = RegionCover::from_regions(idx.elements(a).iter().map(|e| e.region));
        assert_eq!(cover.spans().len(), 2);
        let mut s = idx.pruned_stream(b, None, Some(&cover));
        let delivered: Vec<NodeId> = std::iter::from_fn(|| s.next_elem()).map(|e| e.id).collect();
        // The b under x falls in the gap between the two a regions.
        assert_eq!(delivered, vec![NodeId::from_index(2), NodeId::from_index(6)]);
    }

    #[test]
    fn owned_pruned_stream_streams_in_order() {
        let doc = parse("<a><b/><c/><b/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let mut merged: Vec<IndexedElement> = Vec::new();
        for name in ["b", "c"] {
            let l = doc.labels().get(name).unwrap();
            merged.extend_from_slice(idx.elements(l));
        }
        merged.sort_by_key(|e| e.region.left);
        let mut s = PrunedStream::owned(merged.clone(), None);
        let out: Vec<IndexedElement> = std::iter::from_fn(|| s.next_elem()).collect();
        assert_eq!(out, merged);
    }

    #[test]
    fn scan_cost_model() {
        let doc = parse("<a><b/><b/><c/></a>").unwrap();
        let idx = ElementIndex::build(&doc);
        let a = doc.labels().get("a").unwrap();
        let b = doc.labels().get("b").unwrap();
        let cost = idx.scan_cost(&[a, b]);
        assert_eq!(cost.elements, 3);
        assert_eq!(cost.bytes, 3 * ELEMENT_RECORD_BYTES);
    }

    #[test]
    fn build_indexes_the_empty_document() {
        let doc = parse("<a><b/></a>").unwrap();
        let (empty, _) =
            xmldom::apply_op(&doc, &xmldom::EditOp::DeleteSubtree { target: doc.root() }).unwrap();
        let idx = ElementIndex::build(&empty);
        for label in ["a", "b"] {
            assert_eq!(idx.count(doc.labels().get(label).unwrap()), 0, "{label}");
        }
        assert!(idx.summary().is_empty());
    }
}
