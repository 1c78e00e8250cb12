//! Observability demo: one traced, fully metered run of each
//! serialized asynchronous link (I2 per-transfer, I3 per-word) at the
//! paper's operating point. Prints the derived handshake-latency,
//! block-energy, occupancy and burst-timing reports, reconciles the
//! trace-derived energy attribution against the power meter, and
//! writes the machine-readable `BENCH_observability.json` (bytewise
//! deterministic — CI diffs it against a committed fixture).

use sal_des::json::Quoted;
use sal_link::measure::{run_spec, MeasureOptions, TraceMode};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkMetrics, LinkSpec};

fn print_report(m: &LinkMetrics, family: LinkFamily) {
    println!("== {} ==", family.label());
    println!(
        "  occupancy: in-use {:.1} ns over a {:.1} ns window, busy fraction {:.3}",
        m.occupancy.in_use.as_ns(),
        m.occupancy.window.as_ns(),
        m.occupancy.busy_fraction,
    );
    println!(
        "  in-flight words: peak {}, time-weighted mean {:.3}",
        m.in_flight.max, m.in_flight.mean
    );
    if let Some(b) = &m.burst {
        println!(
            "  burst: {} slice strobes on {}, gap {:.3}/{:.3}/{:.3} ns (min/mean/max)",
            b.slices,
            b.strobe_path,
            b.gap.min_ns(),
            b.gap.mean_ns(),
            b.gap.max_ns(),
        );
    }
    let bl = &m.blocks;
    println!(
        "  power: conv {:.1} serdes {:.1} buffers {:.1} other {:.1} = {:.1} µW",
        bl.conv_uw, bl.serdes_uw, bl.buffers_uw, bl.other_uw, bl.total_uw
    );
    println!("  handshakes ({}):", m.handshakes.len());
    for h in &m.handshakes {
        println!(
            "    {:<22} {:>5} completed, latency {:.3}/{:.3}/{:.3} ns, cycle {:.3} ns{}",
            h.label,
            h.completed,
            h.latency.min_ns(),
            h.latency.mean_ns(),
            h.latency.max_ns(),
            h.cycle.mean_ns(),
            if h.open { "  [OPEN]" } else { "" },
        );
    }
}

fn main() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let opts = MeasureOptions::default().with_trace(TraceMode::Full).with_metrics();

    println!("Observability — traced worst-case 4-flit transfers @ 100 MHz\n");
    let mut sections: Vec<String> = Vec::new();
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        let r = run_spec(&LinkSpec::paper(family), &cfg, &words, &opts)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", family.label()));
        let m = r.metrics().expect("metrics requested");
        print_report(m, family);

        // Reconcile the trace-derived attribution against the power
        // meter: both count the same toggles, so they must agree to
        // numerical noise.
        let bp = r.block_power();
        let worst = [
            (m.blocks.conv_uw, bp.conv_uw),
            (m.blocks.serdes_uw, bp.serdes_uw),
            (m.blocks.buffers_uw, bp.buffers_uw),
            (m.blocks.total_uw, bp.total_uw),
        ]
        .iter()
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-9))
        .fold(0.0f64, f64::max);
        println!("  meter reconciliation: worst relative error {:.2e}", worst);
        assert!(worst < 1e-3, "trace attribution drifted from the power meter");

        let p = &r.profile;
        println!(
            "  kernel: {} events, {} commits, {} deltas, queue peak {} mean {:.1}\n",
            p.events, p.commits, p.deltas, p.queue_peak, p.queue_mean
        );
        sections.push(format!("{}: {}", Quoted(family.label()), m.to_json().trim_end()));
    }

    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    std::fs::write("BENCH_observability.json", &json).expect("write BENCH_observability.json");
    println!("wrote BENCH_observability.json ({} bytes)", json.len());
}
