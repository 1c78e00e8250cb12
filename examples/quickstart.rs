//! Quickstart: build each of the paper's three links, push the
//! worst-case flit pattern through it, and print throughput, power and
//! area side by side.
//!
//! Run with: `cargo run --example quickstart --release`

use sal::link::measure::{run_spec, MeasureOptions};
use sal::link::testbench::worst_case_pattern;
use sal::link::{LinkConfig, LinkFamily, LinkSpec, LENGTH_UM};

fn main() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, cfg.flit_width);
    println!(
        "Link comparison: {}-bit flits serialized to {} bits, {} buffers, {:.0} um wire, {:.0} MHz switch clock\n",
        cfg.flit_width,
        cfg.slice_width,
        cfg.buffers,
        LENGTH_UM,
        cfg.clk_hz() / 1e6
    );
    println!(
        "{:<28} {:>6} {:>12} {:>11} {:>11}",
        "link", "wires", "MFlit/s", "power(uW)", "area(um2)"
    );
    for family in LinkFamily::ALL {
        // The declarative way in: state the design point, let the
        // validated spec drive generation and measurement.
        let spec = LinkSpec::builder()
            .family(family)
            .word_width(32)
            .serial_ratio(4)
            .buffer_depth(4)
            .build()
            .expect("the paper point is a valid spec");
        let run = run_spec(&spec, &cfg, &words, &MeasureOptions::default()).expect("clean run");
        assert_eq!(run.received_words(), words, "data corrupted on {}", family.label());
        let name = match family {
            LinkFamily::Sync => "I1 synchronous parallel",
            LinkFamily::PerTransfer => "I2 async, per-transfer ack",
            LinkFamily::PerWord => "I3 async, per-word ack",
        };
        println!(
            "{:<28} {:>6} {:>12.1} {:>11.0} {:>11.0}",
            name,
            spec.wires(),
            run.throughput_mflits(),
            run.total_power_uw(),
            run.area_um2()
        );
    }
    println!(
        "\nEvery flit arrived bit-exact over all three links; the serialized\n\
         links used {} wires instead of {} (the paper's 75% reduction).",
        LinkSpec::paper(LinkFamily::PerTransfer).wires(),
        LinkSpec::paper(LinkFamily::Sync).wires()
    );
}
