//! Design-space Pareto campaign over the declarative `LinkSpec`
//! lattice. Sweeps family × width × ratio × depth × protection,
//! measures every valid cell at gate level, extracts per-family Pareto
//! fronts over (energy-per-word, latency, cells), and writes the
//! bytewise deterministic `BENCH_pareto.json`.
//!
//! Flags:
//!   --quick         sweep the reduced CI subset instead of the full grid
//!   --out PATH      artifact location (default BENCH_pareto.json)

use sal_bench::pareto::{campaign, full_grid, pareto_front, quick_grid, to_json};
use sal_link::LinkFamily;
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_pareto.json");
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
        "== pareto campaign: {} grid, {} cells ==",
        if quick { "quick" } else { "full" },
        grid.len()
    );
    let cells = campaign(&grid);

    println!(
        "{:<4} {:>5} {:>5} {:>5} {:>7} {:>6} {:>12} {:>10} {:>7}",
        "link", "width", "ratio", "depth", "protect", "wires", "energy/word", "latency", "cells"
    );
    for cell in &cells {
        let s = &cell.spec;
        println!(
            "{:<4} {:>5} {:>5} {:>5} {:>7} {:>6} {:>9.3} pJ {:>7.3} ns {:>7}",
            s.family().label(),
            s.word_width(),
            s.serial_ratio(),
            s.buffer_depth(),
            s.protection().label(),
            s.wires(),
            cell.energy_per_word_pj,
            cell.latency_ns,
            cell.cells
        );
    }
    println!("\n== pareto fronts (energy-per-word, latency, cells) ==");
    for family in LinkFamily::ALL {
        let front = pareto_front(&cells, family);
        println!("{}: {} of {} cells on the front", family.label(), front.len(), {
            cells.iter().filter(|c| c.spec.family() == family).count()
        });
    }

    let json = to_json(&cells, quick);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("\nwrote {} ({} bytes)", out.display(), json.len());
}
