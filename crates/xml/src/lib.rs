//! # xmldom — XML substrate for the Twig²Stack reproduction
//!
//! This crate provides everything the twig-join algorithms consume:
//!
//! * [`label`] — interned element labels;
//! * [`region`] — the `[left, right], level` region encoding (paper §2) with
//!   O(1) ancestor/parent predicates;
//! * [`document`] — an arena DOM assigned region encodings at build time;
//! * [`parser`] / [`writer`] — a from-scratch XML parser and serializer;
//! * [`event`] — SAX-style event streams from a DOM or from raw text
//!   (pre-order starts / post-order ends — the paper's streaming model, §7);
//! * [`stats`] — document statistics (paper Figure 14).
//!
//! No external dependencies.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod document;
pub mod edit;
pub mod event;
pub mod label;
pub mod parser;
pub mod region;
pub mod stats;
pub mod writer;

pub use document::{BuildError, Document, DocumentBuilder, NodeId};
pub use edit::{apply_op, EditDelta, EditError, EditOp};
pub use event::{DocEvents, Event, EventParser};
pub use label::{Label, LabelTable};
pub use parser::{parse, ParseError, ParseErrorKind};
pub use region::Region;
pub use stats::DocStats;
pub use writer::{write, Indent};
