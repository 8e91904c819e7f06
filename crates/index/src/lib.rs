//! # xmlindex — element streams and access paths
//!
//! The substrate that models how the paper's algorithms *read* the
//! document:
//!
//! * [`stream`] — label-partitioned element streams in document order (the
//!   classic posting-list access path of region-encoded twig joins);
//! * [`disk`] — binary on-disk index files with counting readers, so
//!   experiments can measure real scan time and bytes read (the paper's
//!   "IO time", §5.1);
//! * [`schema`] — observed-schema extraction (the DTD stand-in);
//! * [`dewey`] — extended Dewey labeling and the label-path transducer
//!   (TJFast's access path: leaf streams only, fatter records);
//! * [`summary`] — the structural path summary (strong DataGuide): a tiny
//!   tree of distinct label paths with a summary id per element, the basis
//!   for query-pruned streams and region skip-scan;
//! * [`v3`] — the zero-copy mapped index format: one aligned checksummed
//!   file whose sections *are* the in-memory arrays, opened by `mmap`
//!   instead of parsing.
//!
//! Unsafe code is denied crate-wide with one audited exception: the
//! plain-old-data cast module inside [`v3`] (see its safety notes).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dewey;
pub mod disk;
pub mod schema;
pub mod stream;
pub mod summary;
pub mod v3;

pub use dewey::{is_dewey_ancestor, is_dewey_parent, DeweyElement, DeweyIndex};
pub use disk::{
    write_dewey_index, write_region_index, DiskDeweyIndex, DiskDeweyStream, DiskRegionIndex,
    DiskRegionStream, IoCounters,
};
pub use schema::Schema;
pub use stream::{
    filter_worthwhile, ElemStream, ElementIndex, EmptyStream, IndexView,
    IndexedElement, PrunedStream, PruningPolicy, ScanCost, SliceStream, StreamError,
};
pub use summary::{PathSummary, RegionCover, SummaryNode, SummaryRef, SummarySet};
pub use v3::{
    write_mapped_index, write_mapped_index_from, MappedIndex, MappedOpenError, SectionId,
};
