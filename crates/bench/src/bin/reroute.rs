//! Fault-tolerant-routing chaos campaign: scheduled and storm-driven
//! permanent link failures against static XY and adaptive rerouting
//! on the 4×4 mesh. Prints the goodput-vs-failed-links curves and the
//! per-cell reconfiguration story, asserts the acceptance surface
//! (adaptive completes what XY livelocks on, exactly-once throughout),
//! and writes the machine-readable `BENCH_reroute.json` (bytewise
//! deterministic — CI diffs the `--quick` subset against a committed
//! fixture).
//!
//! Flags:
//!   --quick       run the reduced CI subset instead of the full grid
//!   --out PATH    artifact location (default BENCH_reroute.json)

use sal_bench::reroute::{campaign, curve, full_grid, quick_grid, to_json, violations, MODES};
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_reroute.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown flag {other}; see the module docs for usage");
                std::process::exit(2);
            }
        }
    }

    let grid = if quick { quick_grid() } else { full_grid() };
    eprintln!(
        "== reroute campaign: {} grid, {} cells ==",
        if quick { "quick" } else { "full" },
        grid.len()
    );
    let report = campaign(grid);

    println!("== per-cell reconfiguration story ==");
    println!(
        "{:<7} {:<8} {:<9} {:>4} {:<22} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8}",
        "scen", "layout", "mode", "seed", "outcome", "cycles", "failed", "epochs", "retrain",
        "stranded", "salvaged", "goodput"
    );
    for c in &report.cells {
        println!(
            "{:<7} {:<8} {:<9} {:>4} {:<22} {:>8} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8.5}",
            c.spec.scenario,
            c.spec.layout,
            c.spec.mode,
            c.spec.seed,
            c.report.outcome(),
            c.report.cycles,
            c.report.net.recovery.failed_links,
            c.report.net.reconfig_epochs,
            c.report.net.retrained_links,
            c.report.net.stranded_packets,
            c.report.net.salvaged_packets,
            c.report.agg_goodput(),
        );
    }

    println!("\n== goodput vs failed links ==");
    for mode in MODES {
        println!("-- {mode} --");
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>6}",
            "failed", "goodput", "delivered", "completed", "cells"
        );
        for row in curve(&report.cells, mode) {
            println!(
                "{:>6} {:>10.6} {:>9.0}% {:>9.0}% {:>6}",
                row.failed_links,
                row.goodput,
                row.delivered_frac * 100.0,
                row.completed_frac * 100.0,
                row.cells
            );
        }
    }

    let bad = violations(&report.cells);
    for v in &bad {
        eprintln!("VIOLATION: {v}");
    }
    assert!(bad.is_empty(), "{} acceptance violations", bad.len());
    println!("\ninvariants: all {} cells within the acceptance surface", report.cells.len());

    let json = to_json(&report, quick);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {} ({} bytes)", out.display(), json.len());
}
