#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml (minus the fmt check, which
# needs a rustfmt matching the repo's edition settings).
set -eu

cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Bounded fuzz smoke: fixed seed, all dataset generators, release build
# (~seconds). The corpus is replayed separately by `cargo test` above;
# this stage runs fresh pairs and fails on any invariant violation.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0xC1 --cases 400 --profile ci-smoke

# Edit-script fuzz smoke (edited vs re-parsed documents): the
# edited_vs_rebuilt invariant alone over 175 pairs per dataset (700
# seeded edit scripts — the floor is 500). Each script chains random
# inserts/deletes/replaces (root-adjacent and empty-document edges
# included) and asserts after every step that the edited document
# equals a fresh parse of its own serialization node by node, then
# that the final document's index answers like the naive oracle.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0xED17 --cases 175 --invariant edited_vs_rebuilt \
    --profile ci-edit-smoke

# Subscription fuzz smoke: the subscribed_vs_solo invariant alone over
# 200 (document, query) pairs per dataset. Each pair derives a small
# registry (the query, a wildcard sibling, a duplicate registration),
# runs one shared-automaton pass, and asserts every subscription's
# results are byte-equal to its solo run on both the DOM and streaming
# paths, duplicates agree, and matcher feeds stay within the sharing
# bound.
cargo run --release -q -p twigbench --bin twigfuzz -- \
    --seed 0x5B --cases 200 --invariant subscribed_vs_solo \
    --profile ci-sub-smoke

# Figure S smoke: every figure-16 query through every algorithm's indexed
# driver with pruning on and off; the driver asserts the result sets are
# identical per cell, so this fails on any pruning soundness regression.
# It then serves each query from a default QueryService and asserts the
# served rows equal the indexed Twig2Stack rows, the summary's predicted
# scan is within 4x (+16) of the counted one, and the pruning rule plans
# XMark-Q2 unpruned and TreeBank-Q1 pruned.
cargo run --release -q -p twigbench --bin experiments -- --quick figS \
    > /dev/null

# Figure M smoke: the mapped (v3) index vs the heap index on every
# dataset; the driver asserts per dataset that the two arms return
# identical result sets and identical stream counters (scanned, pruned,
# skips), so this fails on any zero-copy read-path divergence.
cargo run --release -q -p twigbench --bin experiments -- --quick figM \
    > /dev/null

# Serve smoke: the fixed-workload query service sweep (threads 1/2/4,
# plan cache off/on). The driver asserts per cell that concurrent cached
# results equal serial evaluation, zero requests were rejected, the
# cached arm scored hits, and it ran strictly fewer plan analyses than
# the uncached arm.
cargo run --release -q -p twigbench --bin experiments -- --quick figT \
    > /dev/null

# Figure E smoke (live readers under edits): a record-churn edit chain
# through a QueryService on every dataset while four readers hammer it.
# The driver asserts that rotation never blocked or shed a concurrent
# reader and that, on the final snapshot, the served rows for every
# query equal evaluate on the final document — so this fails on any
# edit-path correctness regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figE \
    > /dev/null

# Figure U smoke: the sharded catalog under mixed traffic (240 fixed-
# seed documents at --quick). The driver asserts per query that
# scatter-gather results are byte-equal to serial per-document
# iteration and that no matching document was dropped by the Bloom
# router, plus the skip-rate and schema-plan-amortization contracts and,
# per scatter arm, the counts behind its speedup: exactly the documents
# routed_docs promises are routed, every (query, document) pair is
# routed or skipped once, and skips outnumber routes. Throughput vs
# serial is reported, not asserted (it follows the host's speed) — so
# this fails on any routing, merge-order, or amortization regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figU \
    > /dev/null

# Figure V smoke: 100 standing subscriptions through one shared
# prefix-merged automaton vs per-query solo streaming runs. The driver
# asserts byte-equality for every subscription at every registry size
# before timing, then two counter gates (not wall clock): at 100
# subscriptions the shared pass's events + matcher feeds are at most a
# quarter of the solo runs' events x 100, and they grow less than 50x
# from 1 to 100 subscriptions — so this fails on any shared-dispatch
# soundness or amortization regression.
cargo run --release -q -p twigbench --bin experiments -- --quick figV \
    > /dev/null

# Docs freshness: every crates/... path ARCHITECTURE.md cites must exist
# and every workspace crate must be mentioned there.
sh scripts/check_docs.sh

# Documentation: the public API must be fully documented (the in-repo
# crates set `#![warn(missing_docs)]`; -D warnings turns that fatal) and
# every doc example must run. Third-party stubs are excluded — they are
# offline API shims, not part of the documented surface.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p xmldom -p gtpquery -p xmlindex -p xmlgen \
    -p twig2stack -p twigbaselines -p twig2stack-serve -p twig2stack-obs \
    -p twigbench -p twig2stack-fuzz
cargo test --workspace -q --doc

echo "ci.sh: all checks passed"
