//! Network chaos campaign for end-to-end flows: seeded error storms
//! (i.i.d. and bursty Gilbert–Elliott) against windowed AIMD senders
//! on the 4×4 mesh, plus link-killer cells exercising the progress
//! watchdog. Prints the goodput-collapse / fairness curves and the
//! integrity invariants, and writes the machine-readable
//! `BENCH_flows.json` (bytewise deterministic — CI diffs it against a
//! committed fixture).

use sal_bench::flows::{campaign, curve, to_json, LAYOUTS, PROCESSES, PROTECTIONS, SEEDS};

fn main() {
    let report = campaign();

    println!("== flow chaos campaign: {} seeds per cell ==", SEEDS.len());
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                println!("\n-- {layout} / {process} / {} --", protection.label());
                println!(
                    "{:>6} {:>12} {:>8} {:>10}",
                    "rate", "goodput", "jain", "completed"
                );
                for row in curve(&report.cells, layout, process, protection) {
                    println!(
                        "{:>6.3} {:>12.6} {:>8.4} {:>9.0}%",
                        row.rate,
                        row.goodput,
                        row.jain,
                        row.completed_frac * 100.0
                    );
                }
            }
        }
    }

    println!("\n== link-killer cells (watchdog under test) ==");
    for cell in report.cells.iter().filter(|c| c.spec.kill_links) {
        let named = cell
            .report
            .stalls
            .last()
            .map_or(0, |s| s.starved.len());
        println!(
            "{:<8} seed {:>3}: {:<22} cycles {:>8}  failed_links {:>2}  starved_named {}",
            cell.spec.layout,
            cell.spec.seed,
            cell.report.outcome(),
            cell.report.cycles,
            cell.report.net.recovery.failed_links,
            named
        );
    }

    let accepted: u64 = report.cells.iter().map(|c| c.report.accepted_corrupt()).sum();
    let dups: u64 = report.cells.iter().map(|c| c.report.dup_delivered()).sum();
    let unnamed = report.cells.iter().filter(|c| c.report.unnamed_livelock()).count();
    println!(
        "\ninvariants: accepted_corrupt={accepted} dup_delivered={dups} unnamed_livelocks={unnamed}"
    );
    assert_eq!(accepted, 0, "a receiver accepted corrupted payload");
    assert_eq!(dups, 0, "a payload was delivered twice");
    assert_eq!(unnamed, 0, "a livelock went unnamed");

    let json = to_json(&report);
    std::fs::write("BENCH_flows.json", &json).expect("write BENCH_flows.json");
    println!("wrote BENCH_flows.json ({} bytes)", json.len());
}
