//! The experiment implementations: one function per paper artifact.

use sal_analytic::{fig10_series, Fig10Point, PerTransferDelay, PerWordDelay};
use sal_des::Time;
use sal_link::measure::{run_spec, BlockPower, LinkRun, MeasureOptions};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec};
use sal_noc::{LinkModel, Mesh, Network, NetworkConfig, TrafficPattern};
use sal_tech::WireModel;

use crate::sweep::parallel_map;

/// All three link families, in the paper's order.
pub const FAMILIES: [LinkFamily; 3] = LinkFamily::ALL;

/// The paper's buffer-count sweep (Figs 12–13).
pub const BUFFER_SWEEP: [u32; 4] = [2, 4, 6, 8];

fn base_at(clk: Time) -> LinkConfig {
    LinkConfig { clk_period: clk, ..LinkConfig::default() }
}

/// Paper-point spec (32-bit word, 4:1) at a given buffer depth.
fn spec_at(family: LinkFamily, buffers: u32) -> LinkSpec {
    LinkSpec::builder()
        .family(family)
        .buffer_depth(buffers)
        .build()
        .expect("the paper point is a valid spec at every swept depth")
}

/// 100 MHz switch clock (paper Figs 10, 12).
pub fn clk_100mhz() -> Time {
    Time::from_ns(10)
}

/// 300 MHz switch clock (paper Figs 10, 13).
pub fn clk_300mhz() -> Time {
    Time::from_ns_f64(10.0 / 3.0)
}

// ---------------------------------------------------------------------
// Fig 10 — bandwidth vs. wires
// ---------------------------------------------------------------------

/// Fig 10 result: the analytic wire-count series plus gate-level
/// validation points (measured I3 throughput at each switch clock).
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Analytic series (wires needed per bandwidth).
    pub series: Vec<Fig10Point>,
    /// Per-word self-timed upper bound used for the async curve,
    /// MFlit/s.
    pub upper_bound_mflits: f64,
    /// Measured I3 throughput at 100/200/300 MHz switch clocks,
    /// MFlit/s (must track the clock until the upper bound).
    pub measured_i3_mflits: Vec<(f64, f64)>,
}

/// Regenerates Fig 10.
pub fn fig10() -> Fig10 {
    let cfg = LinkConfig::default();
    let ub = PerWordDelay::paper_example().upper_bound_mflits(cfg.buffers);
    let series = fig10_series(cfg.flit_width as u32, cfg.slice_width as u32, ub);
    let mut measured = Vec::new();
    for mhz in [100.0_f64, 200.0, 300.0] {
        let c = LinkConfig { clk_period: Time::from_hz(mhz * 1e6), ..cfg.clone() };
        let words: Vec<u64> = (0..16).map(|i| (i * 0x0137_9BDF) & 0xFFFF_FFFF).collect();
        let run = run_spec(&LinkSpec::paper(LinkFamily::PerWord), &c, &words, &MeasureOptions::default())
            .expect("clean run");
        measured.push((mhz, run.throughput_mflits()));
    }
    Fig10 { series, upper_bound_mflits: ub, measured_i3_mflits: measured }
}

// ---------------------------------------------------------------------
// Fig 11 — wiring area vs. length
// ---------------------------------------------------------------------

/// One row of the Fig 11 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// Wire length, µm.
    pub length_um: f64,
    /// Synchronous link wiring area (32 wires), µm².
    pub sync_area_um2: f64,
    /// Serialized link wiring area (8 wires), µm².
    pub async_area_um2: f64,
}

/// Regenerates Fig 11 (0–3000 µm sweep, paper's wire counts).
pub fn fig11() -> Vec<Fig11Row> {
    let w = WireModel;
    (0..=6)
        .map(|i| {
            let l = 500.0 * i as f64;
            Fig11Row {
                length_um: l,
                sync_area_um2: w.area_um2(32, l),
                async_area_um2: w.area_um2(8, l),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figs 12/13 — power vs. buffers
// ---------------------------------------------------------------------

/// One measured power point.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Link implementation.
    pub family: LinkFamily,
    /// Buffer count.
    pub buffers: u32,
    /// Total link power, µW.
    pub power_uw: f64,
}

/// Regenerates Fig 12 (power vs. buffers at 100 MHz, 50 % usage,
/// worst-case 4-flit pattern).
pub fn fig12() -> Vec<PowerRow> {
    power_sweep(clk_100mhz(), None)
}

/// Regenerates Fig 13 (300 MHz). Per the paper's protocol the
/// averaging windows are carried over from the 100 MHz runs ("the same
/// simulation run time was used").
pub fn fig13() -> Vec<PowerRow> {
    let windows: Vec<((LinkFamily, u32), Time)> = power_runs(clk_100mhz(), None)
        .into_iter()
        .map(|r| ((r.family, r.cfg.buffers), r.window))
        .collect();
    let lookup = move |family: LinkFamily, buffers: u32| {
        windows
            .iter()
            .find(|((f, b), _)| *f == family && *b == buffers)
            .map(|(_, w)| *w)
    };
    let points: Vec<(LinkFamily, u32)> = FAMILIES
        .iter()
        .flat_map(|&family| {
            BUFFER_SWEEP.iter().map(move |&buffers| (family, buffers))
        })
        .collect();
    parallel_map(points, |(family, buffers)| {
        let opts = MeasureOptions {
            window_override: lookup(family, buffers),
            ..MeasureOptions::default()
        };
        let run = run_spec(&spec_at(family, buffers), &base_at(clk_300mhz()), &worst_case_pattern(4, 32), &opts)
            .expect("clean run");
        PowerRow { family, buffers, power_uw: run.total_power_uw() }
    })
}

fn power_runs(clk: Time, window: Option<Time>) -> Vec<LinkRun> {
    let points: Vec<(LinkFamily, u32)> = FAMILIES
        .iter()
        .flat_map(|&family| BUFFER_SWEEP.iter().map(move |&b| (family, b)))
        .collect();
    parallel_map(points, |(family, buffers)| {
        let opts = MeasureOptions { window_override: window, ..MeasureOptions::default() };
        run_spec(&spec_at(family, buffers), &base_at(clk), &worst_case_pattern(4, 32), &opts)
            .expect("clean run")
    })
}

fn power_sweep(clk: Time, window: Option<Time>) -> Vec<PowerRow> {
    power_runs(clk, window)
        .into_iter()
        .map(|r| PowerRow { family: r.family, buffers: r.cfg.buffers, power_uw: r.total_power_uw() })
        .collect()
}

// ---------------------------------------------------------------------
// Fig 14 — power breakdown
// ---------------------------------------------------------------------

/// Per-link block power at the paper's measurement point (100 MHz,
/// 4 buffers, 50 % usage).
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Link implementation.
    pub family: LinkFamily,
    /// Grouped block power.
    pub blocks: BlockPower,
}

/// Regenerates Fig 14.
pub fn fig14() -> Vec<Fig14Row> {
    FAMILIES
        .iter()
        .map(|&family| {
            let run = run_spec(
                &spec_at(family, 4),
                &base_at(clk_100mhz()),
                &worst_case_pattern(4, 32),
                &MeasureOptions::default(),
            )
            .expect("clean run");
            Fig14Row { family, blocks: run.block_power() }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Tables 1 and 2 — area
// ---------------------------------------------------------------------

/// One link's total cell area (paper Table 1).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Link implementation.
    pub family: LinkFamily,
    /// Total cell area, µm².
    pub area_um2: f64,
}

/// Regenerates Table 1 (paper setup: 4 buffers).
pub fn table1() -> Vec<Table1Row> {
    FAMILIES
        .iter()
        .map(|&family| {
            let run = build_only(family);
            Table1Row { family, area_um2: run.area_um2() }
        })
        .collect()
}

/// One block of the I2 area breakdown (paper Table 2).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Module name, paper wording.
    pub module: &'static str,
    /// Area, µm².
    pub area_um2: f64,
    /// Instance count.
    pub qty: u32,
}

/// Regenerates Table 2: the per-module breakdown of implementation I2.
pub fn table2() -> Vec<Table2Row> {
    let run = build_only(LinkFamily::PerTransfer);
    let buffers = run.cfg.buffers;
    let per_buffer = (0..buffers)
        .map(|k| run.area.subtree_um2(&format!("link.wire.buf{k}")))
        .sum::<f64>()
        / buffers as f64;
    vec![
        Table2Row {
            module: "Synch to Asynch interface",
            area_um2: run.area.subtree_um2("link.tx_if"),
            qty: 1,
        },
        Table2Row {
            module: "Asynch 32 to 8 serializer",
            area_um2: run.area.subtree_um2("link.ser"),
            qty: 1,
        },
        Table2Row { module: "Asynch 8 wire buffer", area_um2: per_buffer, qty: buffers },
        Table2Row {
            module: "Asynch 8 to 32 de-serializer",
            area_um2: run.area.subtree_um2("link.des"),
            qty: 1,
        },
        Table2Row {
            module: "Asynch to Synch interface",
            area_um2: run.area.subtree_um2("link.rx_if"),
            qty: 1,
        },
    ]
}

fn build_only(family: LinkFamily) -> LinkRun {
    // A short functional run so the structure is exercised; area does
    // not depend on the traffic.
    let cfg = LinkConfig::default();
    run_spec(&LinkSpec::paper(family), &cfg, &worst_case_pattern(2, 32), &MeasureOptions::default())
        .expect("clean run")
}

// ---------------------------------------------------------------------
// Delay-equation validation (§V)
// ---------------------------------------------------------------------

/// Cross-check of the paper's delay equations against the gate-level
/// simulation.
#[derive(Debug, Clone)]
pub struct DelayCheck {
    /// Per-word upper bound from the paper's example terms, MFlit/s
    /// (≈311).
    pub paper_analytic_mflits: f64,
    /// Per-word upper bound from the equation with *our* gate-level
    /// timing terms, MFlit/s.
    pub our_analytic_mflits: f64,
    /// Saturation throughput of the simulated I3 link driven by a
    /// switch clock well above the link's self-timed rate, MFlit/s.
    pub simulated_mflits: f64,
    /// Per-transfer (I2) upper bound from the Fig 15 equation with our
    /// gate-level terms, MFlit/s.
    pub i2_analytic_mflits: f64,
    /// Saturation throughput of the simulated I2 link, MFlit/s.
    pub i2_simulated_mflits: f64,
}

/// Regenerates the §V validation: equation vs. simulation.
pub fn delay_check() -> DelayCheck {
    let cfg = LinkConfig::default();
    let paper = PerWordDelay::paper_example().upper_bound_mflits(cfg.buffers);
    // Our terms: Tburst from the 13-stage oscillator (4 slices ×
    // 2 × 13 × 11 ps ≈ 1.15 ns), receiver/transmitter turnaround from
    // the gate chains (measured from the block simulations).
    let ours = PerWordDelay {
        tp: WireModel.delay(cfg.segment_um()),
        tinv: Time::from_ps(11),
        tvalidwordack: Time::from_ps(350),
        tackout: Time::from_ps(450),
        tburst: Time::from_ps_f64(4.0 * 2.0 * 13.0 * 11.0),
    }
    .upper_bound_mflits(cfg.buffers);
    // Per-transfer (Fig 15): handshake-leg times measured from the
    // gate chains of our wire buffer and serializer (C-element ≈29 ps,
    // matched-delay buffers ≈21 ps each, latch ≈33 ps).
    let i2_terms = PerTransferDelay {
        tp: WireModel.delay(cfg.segment_um()),
        treqreq: Time::from_ps(95),
        treqack: Time::from_ps(85),
        tackack: Time::from_ps(60),
        tackout: Time::from_ps(95),
        tnextflit: Time::from_ps(430),
    };
    let i2_analytic =
        i2_terms.upper_bound_mflits(cfg.slices() as u32, cfg.buffers + 1);
    // Saturation measurement: a 1 GHz switch clock overdrives the
    // link; the FIFO interfaces throttle to the self-timed rate.
    let fast = LinkConfig { clk_period: Time::from_ps(1000), ..cfg };
    let words: Vec<u64> = (0..24).map(|i| (i * 0x0F1E_2D3C) & 0xFFFF_FFFF).collect();
    let run_i3 = run_spec(&LinkSpec::paper(LinkFamily::PerWord), &fast, &words, &MeasureOptions::default())
        .expect("clean run");
    let run_i2 = run_spec(&LinkSpec::paper(LinkFamily::PerTransfer), &fast, &words, &MeasureOptions::default())
        .expect("clean run");
    DelayCheck {
        paper_analytic_mflits: paper,
        our_analytic_mflits: ours,
        simulated_mflits: run_i3.throughput_mflits(),
        i2_analytic_mflits: i2_analytic,
        i2_simulated_mflits: run_i2.throughput_mflits(),
    }
}

// ---------------------------------------------------------------------
// Headline claims
// ---------------------------------------------------------------------

/// The abstract's three headline numbers, as measured here.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Wire reduction of the serialized link (paper: 75 %).
    pub wire_reduction: f64,
    /// Power reduction, I3 vs I1 at 300 MHz / 8 buffers (paper: 65 %).
    pub power_reduction: f64,
    /// Circuit area overhead, I2 vs I1 (paper: ≈20 % — see
    /// EXPERIMENTS.md for why this reproduction's ratio differs).
    pub area_overhead: f64,
}

/// Regenerates the headline claims.
pub fn headline() -> Headline {
    let cfg = LinkConfig::default();
    let wire_reduction =
        1.0 - cfg.slice_width as f64 / cfg.flit_width as f64;

    // Power at 300 MHz / 8 buffers, paper protocol (fixed window from
    // the 100 MHz run).
    let words = worst_case_pattern(4, 32);
    let base = run_spec(
        &spec_at(LinkFamily::Sync, 8),
        &base_at(clk_100mhz()),
        &words,
        &MeasureOptions::default(),
    )
    .expect("clean run");
    let opts = MeasureOptions {
        window_override: Some(base.window),
        ..MeasureOptions::default()
    };
    let c300 = base_at(clk_300mhz());
    let i1 = run_spec(&spec_at(LinkFamily::Sync, 8), &c300, &words, &opts).expect("clean run");
    let i3 = run_spec(&spec_at(LinkFamily::PerWord, 8), &c300, &words, &opts).expect("clean run");
    let power_reduction = 1.0 - i3.total_power_uw() / i1.total_power_uw();

    let areas = table1();
    let a = |f: LinkFamily| areas.iter().find(|r| r.family == f).expect("all families").area_um2;
    let area_overhead = a(LinkFamily::PerTransfer) / a(LinkFamily::Sync) - 1.0;

    Headline { wire_reduction, power_reduction, area_overhead }
}

// ---------------------------------------------------------------------
// NoC-level study (extension)
// ---------------------------------------------------------------------

/// One row of the mesh-level comparison.
#[derive(Debug, Clone)]
pub struct NocRow {
    /// Link implementation the channels model.
    pub family: LinkFamily,
    /// Switch clock, MHz.
    pub clk_mhz: f64,
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Accepted throughput, flits/node/cycle.
    pub accepted: f64,
    /// Mean packet latency, cycles.
    pub avg_latency: f64,
    /// Total mesh link wiring (both directions, all channels).
    pub total_wires: u64,
}

/// Mesh-level evaluation: a 4×4 mesh under uniform traffic, channels
/// modelled after each link at 100 MHz and 600 MHz (where the serial
/// links saturate below one flit per cycle).
pub fn noc_study() -> Vec<NocRow> {
    let mut points = Vec::new();
    for &(mhz, period_ps) in &[(100.0, 10_000u64), (600.0, 1_667)] {
        for &family in &FAMILIES {
            for &offered in &[0.1, 0.3, 0.5] {
                points.push((mhz, period_ps, family, offered));
            }
        }
    }
    parallel_map(points, |(mhz, period_ps, family, offered)| {
        let lcfg = LinkConfig {
            clk_period: Time::from_ps(period_ps),
            ..LinkConfig::default()
        };
        let model = LinkModel::from_link(family, &lcfg);
        let mesh = Mesh::new(4, 4);
        let total_wires = mesh.channel_count() as u64 * model.wires as u64;
        let cfg = NetworkConfig {
            mesh,
            link: model,
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: sal_noc::RoutingMode::XyStatic,
            link_kills: Vec::new(),
        };
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, offered, 2024);
        let stats = net.run(6_000, 2_000);
        NocRow {
            family,
            clk_mhz: mhz,
            offered,
            accepted: stats.throughput_fpnc(),
            avg_latency: stats.avg_latency(),
            total_wires,
        }
    })
}

/// One point of a load/latency curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Link implementation the channels model.
    pub family: LinkFamily,
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Accepted throughput, flits/node/cycle.
    pub accepted: f64,
    /// Mean packet latency, cycles.
    pub avg_latency: f64,
    /// 95th-percentile packet latency, cycles.
    pub p95_latency: u64,
}

/// Load/latency curves for a 4×4 mesh at a fast (600 MHz) switch
/// clock, where serialization bites: the classic NoC evaluation the
/// paper's link-level study feeds into.
pub fn noc_curves() -> Vec<CurvePoint> {
    let points: Vec<(LinkFamily, f64)> = FAMILIES
        .iter()
        .flat_map(|&family| (1..=8).map(move |i| (family, 0.08 * i as f64)))
        .collect();
    parallel_map(points, |(family, offered)| {
        let lcfg = LinkConfig {
            clk_period: Time::from_ps(1_667),
            ..LinkConfig::default()
        };
        let model = LinkModel::from_link(family, &lcfg);
        let cfg = NetworkConfig {
            mesh: Mesh::new(4, 4),
            link: model,
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: sal_noc::RoutingMode::XyStatic,
            link_kills: Vec::new(),
        };
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, offered, 4242);
        let stats = net.run(6_000, 2_000);
        CurvePoint {
            family,
            offered,
            accepted: stats.throughput_fpnc(),
            avg_latency: stats.avg_latency(),
            p95_latency: stats.latency_quantile(0.95),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_matches_paper_anchors() {
        let f = fig10();
        let p300 = f.series.iter().find(|p| p.bandwidth_mflits == 300.0).unwrap();
        assert_eq!(p300.sync_300, 32);
        assert_eq!(p300.sync_100, 96);
        assert_eq!(p300.async_proposed, Some(8));
        // Measured I3 throughput tracks the switch clock at 100–300 MHz.
        for &(mhz, meas) in &f.measured_i3_mflits {
            assert!(
                (meas - mhz).abs() / mhz < 0.05,
                "I3 at {mhz} MHz delivered {meas} MFlit/s"
            );
        }
    }

    #[test]
    fn fig11_matches_paper_anchors() {
        let rows = fig11();
        let at_1000 = rows.iter().find(|r| r.length_um == 1000.0).unwrap();
        // Paper: ≈30 000 vs ≈7 500 µm² at 1 000 µm.
        assert!((at_1000.sync_area_um2 - 29_260.0).abs() < 1.0);
        assert!((at_1000.async_area_um2 - 7_660.0).abs() < 1.0);
        // Monotone in length; sync always the larger.
        for w in rows.windows(2) {
            assert!(w[1].sync_area_um2 >= w[0].sync_area_um2);
        }
        assert!(rows.iter().all(|r| r.sync_area_um2 >= r.async_area_um2));
    }

    #[test]
    fn table2_block_ordering_matches_paper() {
        let rows = table2();
        let get = |m: &str| rows.iter().find(|r| r.module.contains(m)).unwrap().area_um2;
        // Paper Table 2 ordering: interfaces dominate; the serializer
        // is smaller than the deserializer; a wire buffer is smallest.
        assert!(get("Synch to Asynch") > get("Asynch to Synch"));
        assert!(get("Asynch to Synch") > get("de-serializer"));
        assert!(get("de-serializer") > get("serializer"));
        assert!(get("serializer") > get("wire buffer"));
    }

    #[test]
    fn delay_check_is_consistent() {
        let d = delay_check();
        assert!((d.paper_analytic_mflits - 304.0).abs() < 10.0);
        // Simulation and our analytic models agree within 35 %.
        let ratio = d.simulated_mflits / d.our_analytic_mflits;
        assert!(
            (0.65..=1.35).contains(&ratio),
            "I3 sim {} vs analytic {}",
            d.simulated_mflits,
            d.our_analytic_mflits
        );
        let ratio2 = d.i2_simulated_mflits / d.i2_analytic_mflits;
        assert!(
            (0.65..=1.35).contains(&ratio2),
            "I2 sim {} vs analytic {}",
            d.i2_simulated_mflits,
            d.i2_analytic_mflits
        );
    }
}
