//! Regenerate the paper's evaluation tables and figures.
//!
//! Usage:
//! ```text
//! experiments [--quick|--scaled] [fig14|fig15|fig16|fig17|fig18|fig19|figE|figM|figP|figS|figT|figU|figV|table1|all]
//! ```
//!
//! `--quick` uses small documents (seconds); the default "full" profile
//! uses laptop-scale documents comparable in spirit to the paper's setup;
//! `--scaled` grows every dataset ~100× past quick (XMark at s=32,
//! millions of elements) for the figM/figS boot-cost and skip-scan runs.
//!
//! Every figure/table run also writes an observability sidecar
//! `target/metrics/<name>.<run-id>.metrics.json` (schema
//! `twig2stack.metrics/v1`, see EXPERIMENTS.md; one file per run, the
//! run id keeps concurrent runs from clobbering each other — use
//! `twigbench::latest_sidecar` to pick the newest). Build with
//! `--no-default-features` to compile the counters out; the sidecars are
//! then written with zeroed counters and `"obs_enabled": false`.

use twigbench::workload::Profile;

/// Drain this run's obs metrics into
/// `target/metrics/<name>.<run-id>.metrics.json`.
fn emit_sidecar(name: &str, profile: Profile) {
    match twigbench::write_sidecar(name, profile.name()) {
        Ok(path) => println!("metrics sidecar: {}\n", path.display()),
        Err(e) => eprintln!("warning: no metrics sidecar for {name}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scaled = args.iter().any(|a| a == "--scaled");
    let profile = match (quick, scaled) {
        (true, _) => Profile::Quick,
        (false, true) => Profile::Scaled,
        (false, false) => Profile::Full,
    };
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };

    let run_all = what.contains(&"all");
    let wants = |name: &str| run_all || what.contains(&name);

    if !what.iter().all(|w| {
        matches!(
            *w,
            "all"
                | "fig14"
                | "fig15"
                | "fig16"
                | "fig17"
                | "fig18"
                | "fig19"
                | "figE"
                | "figM"
                | "figP"
                | "figS"
                | "figT"
                | "figU"
                | "figV"
                | "table1"
        )
    }) {
        eprintln!(
            "usage: experiments [--quick|--scaled] [fig14|fig15|fig16|fig17|fig18|fig19|figE|figM|figP|figS|figT|figU|figV|table1|all]"
        );
        std::process::exit(2);
    }

    println!(
        "Twig2Stack reproduction — evaluation harness (profile: {})\n",
        profile.name()
    );

    if wants("fig14") {
        println!("{}", twigbench::fig14(profile));
        emit_sidecar("fig14", profile);
    }
    if wants("fig15") {
        println!("{}", twigbench::fig15());
        emit_sidecar("fig15", profile);
    }
    if wants("fig16") {
        let (_, report) = twigbench::fig16(profile);
        println!("{report}");
        emit_sidecar("fig16", profile);
    }
    if wants("fig17") {
        let (_, report) = twigbench::fig17(profile, &[1, 2, 3, 4, 5]);
        println!("{report}");
        emit_sidecar("fig17", profile);
    }
    if wants("fig18") {
        let (_, report) = twigbench::fig18(profile);
        println!("{report}");
        emit_sidecar("fig18", profile);
    }
    if wants("fig19") {
        let (_, report) = twigbench::fig19(profile);
        println!("{report}");
        emit_sidecar("fig19", profile);
    }
    if wants("figE") {
        let (_, report) = twigbench::fige(profile);
        println!("{report}");
        // Named "edits": the sidecar carries the edit-path counters
        // (edits_applied, snapshot_rotations, plan_cache_invalidations)
        // next to the engine counters.
        emit_sidecar("edits", profile);
    }
    if wants("figM") {
        let (_, report) = twigbench::figm(profile);
        println!("{report}");
        emit_sidecar("figM", profile);
    }
    if wants("figP") {
        let (_, report) = twigbench::figp(profile, &[1, 2, 3, 4], &[1, 2, 3, 4, 5, 6, 7, 8]);
        println!("{report}");
        emit_sidecar("figP", profile);
    }
    if wants("figS") {
        let (_, _, report) = twigbench::figs(profile);
        println!("{report}");
        emit_sidecar("figS", profile);
    }
    if wants("figT") {
        let (_, report) = twigbench::figt(profile, &[1, 2, 4]);
        println!("{report}");
        // Named "serve": the sidecar carries the service-layer counters
        // (plan_cache_hits/misses/evictions, queries_admitted/rejected,
        // deadline_exceeded) next to the engine counters.
        emit_sidecar("serve", profile);
    }
    if wants("figU") {
        let (_, report) = twigbench::figu(profile);
        println!("{report}");
        // Named "catalog": the sidecar carries the catalog counters
        // (catalog_docs_routed/skipped, shard_queries, catalog_batches)
        // next to the engine counters.
        emit_sidecar("catalog", profile);
    }
    if wants("figV") {
        let (_, report) = twigbench::figv(profile);
        println!("{report}");
        // Named "subscribe": the sidecar carries the subscription
        // counters (sub_events, sub_matcher_feeds, sub_notifications)
        // next to the engine counters.
        emit_sidecar("subscribe", profile);
    }
    if wants("table1") {
        let (_, report) = twigbench::table1(profile);
        println!("{report}");
        emit_sidecar("table1", profile);
    }
}
