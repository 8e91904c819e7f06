//! # twigbench — benchmark harness for the Twig²Stack reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! * [`workload`] — the datasets (Figure 14) and queries (Figure 15,
//!   plus the GTP variants of Figures 18–19);
//! * [`metrics`] — per-algorithm timing runners and the real-IO stream
//!   scanner (the paper's query-processing / total-execution split);
//! * [`experiments`] — one driver per figure/table, shared by the
//!   `experiments` binary, the criterion benches, and the tests;
//! * [`sidecar`] — `*.metrics.json` observability sidecars written next
//!   to each figure run (see DESIGN.md §7).
//!
//! Run `cargo run -p twigbench --release --bin experiments -- all` to
//! regenerate the full evaluation.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod sidecar;
pub mod workload;

pub use experiments::{
    fig14, fig15, fig16, fig17, fig18, fig19, fige, figm, figp, figs, figt, figu, figv,
    subscription_queries, table1, Algo, FigERow, FigMRow, FigSPlanRow, FigSRow, FigTRow, FigURow,
    FigVRow,
};
pub use metrics::{run_tjfast, run_twig2stack, run_twigstack, QueryCost};
pub use sidecar::{latest_sidecar, run_id, write_sidecar};
pub use workload::{
    catalog_docs, catalog_queries, dblp, dblp_queries, documents, fig18_variants, fig19_variants,
    treebank, treebank_queries, xmark, xmark_queries, Dataset, NamedQuery, Profile,
    CATALOG_FAMILIES,
};
