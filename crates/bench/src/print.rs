//! Stdout printers for the paper artifacts: one function per figure
//! or table binary, printing exactly what that binary prints. The
//! `experiments` binary calls all ten in order.

use crate::experiments::{self, PowerRow};
use crate::table;
use sal_link::LinkFamily;

/// Fig 10: bandwidth vs. number of wires, plus the measured I3 rate.
pub fn fig10() {
    let f = experiments::fig10();
    println!("Fig 10 — Bandwidth vs. Wires (paper: Fig 10)");
    println!(
        "async self-timed upper bound: {:.0} MFlit/s (paper: ~311)\n",
        f.upper_bound_mflits
    );
    let rows: Vec<Vec<String>> = f
        .series
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.bandwidth_mflits),
                p.sync_100.to_string(),
                p.sync_200.to_string(),
                p.sync_300.to_string(),
                p.async_proposed.map_or("-".into(), |w| w.to_string()),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &["MFlit/s", "I1@100MHz", "I1@200MHz", "I1@300MHz", "I3-async"],
            &rows
        )
    );
    println!("\nGate-level validation (measured I3 delivery rate):");
    for (mhz, meas) in &f.measured_i3_mflits {
        println!("  switch clock {mhz:>5.0} MHz -> {meas:>6.1} MFlit/s");
    }
}

/// Fig 11: wiring area vs. wire length.
pub fn fig11() {
    println!("Fig 11 — Wire Area (METAL6: MetW=0.44um, MetG=0.46um)\n");
    let rows: Vec<Vec<String>> = experiments::fig11()
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.length_um),
                format!("{:.0}", r.sync_area_um2),
                format!("{:.0}", r.async_area_um2),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(&["length(um)", "I1-Synch(um2)", "I2&I3-Asynch(um2)"], &rows)
    );
}

/// Fig 12: power vs. buffers at 100 MHz.
pub fn fig12() {
    println!("Fig 12 — Number of Buffers vs. Power @ 100 MHz (50% usage)\n");
    power_table(&experiments::fig12());
}

/// Fig 13: power vs. buffers at 300 MHz.
pub fn fig13() {
    println!("Fig 13 — Buffers vs. Power @ 300 MHz (windows carried over from 100 MHz, per the paper)\n");
    power_table(&experiments::fig13());
}

/// The buffers × link-family power table of Figs 12 and 13.
fn power_table(rows: &[PowerRow]) {
    let mut out = Vec::new();
    for buffers in experiments::BUFFER_SWEEP {
        let p = |k: LinkFamily| {
            rows.iter()
                .find(|r| r.family == k && r.buffers == buffers)
                .map(|r| format!("{:.0}", r.power_uw))
                .unwrap_or_default()
        };
        out.push(vec![
            buffers.to_string(),
            p(LinkFamily::Sync),
            p(LinkFamily::PerTransfer),
            p(LinkFamily::PerWord),
        ]);
    }
    print!(
        "{}",
        table::render(&["buffers", "I1-Synch(uW)", "I2-Asynch(uW)", "I3-Asynch(uW)"], &out)
    );
}

/// Fig 14: average power breakdown at 50 % usage.
pub fn fig14() {
    println!("Fig 14 — Average Power for 50% usage (100 MHz, 4 buffers)\n");
    let rows: Vec<Vec<String>> = experiments::fig14()
        .iter()
        .map(|r| {
            vec![
                r.family.label().to_string(),
                format!("{:.0}", r.blocks.serdes_uw),
                format!("{:.0}", r.blocks.buffers_uw),
                format!("{:.0}", r.blocks.conv_uw),
                format!("{:.0}", r.blocks.other_uw),
                format!("{:.0}", r.blocks.total_uw),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &["link", "Ser/Des(uW)", "Buffers(uW)", "Conv(uW)", "Other(uW)", "Total(uW)"],
            &rows
        )
    );
}

/// Table 1: link area overhead.
pub fn table1() {
    println!("Table 1 — Area overhead of the synchronous and proposed links\n");
    let rows: Vec<Vec<String>> = experiments::table1()
        .iter()
        .map(|r| {
            let name = match r.family {
                LinkFamily::Sync => "Synchronous (I1)",
                LinkFamily::PerTransfer => "Asynchronous per-transfer ack. (I2)",
                LinkFamily::PerWord => "Asynchronous per-word ack. (I3)",
            };
            vec![name.to_string(), format!("{:.0}", r.area_um2)]
        })
        .collect();
    print!("{}", table::render(&["Implementation", "Area (um2)"], &rows));
}

/// Table 2: breakdown of implementation I2.
pub fn table2() {
    println!("Table 2 — Breakdown of Implementation I2\n");
    let rows = experiments::table2();
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![r.module.to_string(), format!("{:.0}", r.area_um2), r.qty.to_string()]
        })
        .collect();
    let total: f64 = rows.iter().map(|r| r.area_um2 * r.qty as f64).sum();
    out.push(vec!["Total".into(), format!("{total:.0}"), String::new()]);
    print!("{}", table::render(&["Module", "Area (um2)", "Qty."], &out));
}

/// §V: the per-word delay equation against gate-level simulation.
pub fn delay_check() {
    let d = experiments::delay_check();
    println!("Per-word delay equation validation (paper SectionV)\n");
    println!("paper's example terms      -> {:>6.1} MFlit/s (paper quotes ~311)", d.paper_analytic_mflits);
    println!("our gate-level terms       -> {:>6.1} MFlit/s", d.our_analytic_mflits);
    println!("simulated I3 at saturation -> {:>6.1} MFlit/s", d.simulated_mflits);
    println!();
    println!("per-transfer (I2) equation  -> {:>6.1} MFlit/s", d.i2_analytic_mflits);
    println!("simulated I2 at saturation  -> {:>6.1} MFlit/s", d.i2_simulated_mflits);
}

/// The abstract's headline claims.
pub fn headline() {
    let h = experiments::headline();
    println!("Headline claims (paper: 75% wires, 65% power, ~20% area overhead)\n");
    println!("wire reduction (serialized 32 -> 8):       {:.0}%", h.wire_reduction * 100.0);
    println!("power reduction I3 vs I1 @300MHz, 8 buf:   {:.0}%", h.power_reduction * 100.0);
    println!("cell-area overhead I2 vs I1:               {:.0}%", h.area_overhead * 100.0);
}

/// Mesh-level study (extension): a 4x4 NoC with each link model.
pub fn noc_study() {
    println!("NoC study — 4x4 mesh, uniform random, 4-flit packets\n");
    let rows: Vec<Vec<String>> = experiments::noc_study()
        .iter()
        .map(|r| {
            vec![
                r.family.label().to_string(),
                format!("{:.0}", r.clk_mhz),
                format!("{:.2}", r.offered),
                format!("{:.3}", r.accepted),
                format!("{:.1}", r.avg_latency),
                r.total_wires.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &["link", "clk(MHz)", "offered", "accepted(f/n/c)", "latency(cyc)", "mesh wires"],
            &rows
        )
    );
}
