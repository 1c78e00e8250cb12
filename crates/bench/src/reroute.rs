//! Fault-tolerant-routing chaos campaign (`--bin reroute`).
//!
//! The reconfiguration layer's claim is falsifiable: when links die
//! permanently, adaptive routing must recompute around them and the
//! flows must still complete with exactly-once delivery, while static
//! XY on the *same* failure schedule livelocks and the watchdog names
//! the starved flows. This module runs that claim as a campaign over
//! {failure scenario} × {flow layout} × {routing mode} × {seed}:
//!
//! * `single` — one scheduled physical-link kill mid-run, placed on a
//!   link the layout's XY routes depend on.
//! * `multi`  — three staggered kills cutting three of the four
//!   column-1/2 row crossings (the mesh stays connected).
//! * `storm`  — the flow campaign's four link-killer cells verbatim
//!   (bursty 10 % storm, CRC-8, permanent failure after two resyncs):
//!   the cells that livelock under XY must complete under rerouting.
//!   A storm can sever part of the fabric outright (e.g. kill both
//!   inbound channels of a node); those cells exercise the
//!   last-resort deep retrain, reported per cell as
//!   `retrained_links`.
//!
//! The headline is the goodput-vs-failed-links curve per routing mode,
//! plus the reconfiguration story per cell: epochs, injection-freeze
//! cycles, stranded/salvaged packet counts. Everything is seeded and
//! the JSON is bytewise deterministic — CI runs the `--quick` subset
//! and diffs `BENCH_reroute.json` against a committed fixture.

use sal_des::json::Json;
use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, FlowConfig, FlowNetReport, LinkKill, LinkModel,
    Mesh, Network, NetworkConfig, NodeId, RoutingMode, WatchdogConfig,
};

use crate::flows::{cell_process, layout_flows, FLOW_PACKETS, LAYOUTS, MAX_CYCLES, SEEDS};
use crate::sweep;

/// Failure scenarios (see the module docs).
pub const SCENARIOS: [&str; 3] = ["single", "multi", "storm"];

/// Routing modes compared on every scenario.
pub const MODES: [&str; 2] = ["xy", "adaptive"];

/// One campaign cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Failure scenario (see [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Flow layout name (shared with the flow campaign).
    pub layout: &'static str,
    /// Routing mode label (see [`MODES`]).
    pub mode: &'static str,
    /// Network seed.
    pub seed: u64,
}

/// One finished campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteCell {
    /// Coordinates.
    pub spec: CellSpec,
    /// The full flow-mode run report.
    pub report: FlowNetReport,
}

impl RerouteCell {
    /// Fraction of offered payloads delivered in order.
    pub fn delivered_frac(&self) -> f64 {
        let delivered: u64 = self.report.flows.iter().map(|f| f.delivered).sum();
        let offered: u64 = self.report.flows.iter().map(|f| f.spec.packets).sum();
        delivered as f64 / offered as f64
    }

    /// Cycles injection spent frozen across reconfiguration epochs.
    pub fn frozen_cycles(&self) -> u64 {
        match mode_of(self.spec.mode) {
            RoutingMode::Adaptive { reconfig_pause } => {
                self.report.net.reconfig_epochs * u64::from(reconfig_pause)
            }
            RoutingMode::XyStatic => 0,
        }
    }
}

/// The routing mode behind a label.
pub fn mode_of(mode: &str) -> RoutingMode {
    match mode {
        "xy" => RoutingMode::XyStatic,
        "adaptive" => RoutingMode::adaptive(),
        other => panic!("unknown mode {other}"),
    }
}

/// The scheduled kills of a scenario. `single` targets the one link
/// the layout's XY routes funnel through; `multi` cuts three of the
/// four east–west crossings between columns 1 and 2 in waves.
pub fn scenario_kills(scenario: &str, layout: &str) -> Vec<LinkKill> {
    let mesh = Mesh::new(4, 4);
    match scenario {
        // Clean corner flows finish near cycle 955; kills must land
        // well inside the run.
        "single" => match layout {
            // Row-0 link 1<->2: XY paths of flows 0->15 and 3->12.
            "corners" => LinkKill::both_ways(&mesh, 200, NodeId(1), Direction::East).to_vec(),
            // Column link 1<->5: the last XY hop of flows 0->5, 3->5.
            "hotspot" => LinkKill::both_ways(&mesh, 200, NodeId(1), Direction::South).to_vec(),
            other => panic!("unknown layout {other}"),
        },
        "multi" => {
            let mut kills = Vec::new();
            for (cycle, row_node) in [(150, 1u16), (300, 5), (450, 9)] {
                kills.extend(LinkKill::both_ways(&mesh, cycle, NodeId(row_node), Direction::East));
            }
            kills
        }
        "storm" => Vec::new(),
        other => panic!("unknown scenario {other}"),
    }
}

fn cell_config(spec: CellSpec) -> (NetworkConfig, FlowConfig) {
    // `storm` reproduces the flow campaign's link-killer cells
    // exactly (bursty 10 % + CRC-8 + permanent failure after two
    // resyncs); the scheduled scenarios run clean links so the kill
    // placement is the only failure variable.
    let faults = (spec.scenario == "storm").then(|| {
        ChannelFaults::new(cell_process("bursty", 0.10), ChannelProtection::Crc8)
            .with_permanent_failure(2)
    });
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults,
        routing: mode_of(spec.mode),
        link_kills: scenario_kills(spec.scenario, spec.layout),
    };
    let mut flows = FlowConfig::new(layout_flows(spec.layout));
    flows.watchdog = WatchdogConfig { interval: 4_096, hard_stall_checks: 8 };
    (cfg, flows)
}

/// Runs one cell.
pub fn run_cell(spec: CellSpec) -> RerouteCell {
    let (cfg, flows) = cell_config(spec);
    let mut net = Network::with_flows(cfg, &flows, spec.seed);
    RerouteCell { spec, report: net.run_flows(MAX_CYCLES) }
}

/// The full campaign grid: scenario × layout × mode × seed.
pub fn full_grid() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for scenario in SCENARIOS {
        for layout in LAYOUTS {
            for mode in MODES {
                for seed in SEEDS {
                    specs.push(CellSpec { scenario, layout, mode, seed });
                }
            }
        }
    }
    specs
}

/// The CI subset: every storm cell (the four link-killer cells of the
/// flow campaign under both modes — the PR's acceptance surface) plus
/// the first-seed single-kill cells.
pub fn quick_grid() -> Vec<CellSpec> {
    full_grid()
        .into_iter()
        .filter(|s| s.scenario == "storm" || (s.scenario == "single" && s.seed == SEEDS[0]))
        .collect()
}

/// Everything `--bin reroute` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteReport {
    /// All cells, in grid order.
    pub cells: Vec<RerouteCell>,
}

/// Runs a grid. Deterministic: all randomness flows from the cell
/// seeds through per-channel derived streams.
pub fn campaign(grid: Vec<CellSpec>) -> RerouteReport {
    let cells = sweep::parallel_map(grid, run_cell).expect("a reroute cell panicked");
    RerouteReport { cells }
}

/// One point of the goodput-vs-failed-links curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveRow {
    /// Directed channels dead at the end of the run.
    pub failed_links: u64,
    /// Aggregate goodput averaged over the bucket's cells.
    pub goodput: f64,
    /// Delivered-payload fraction averaged over the bucket.
    pub delivered_frac: f64,
    /// Fraction of the bucket's cells that completed.
    pub completed_frac: f64,
    /// Cells in the bucket.
    pub cells: usize,
}

/// The goodput-vs-failed-links curve of one routing mode: cells
/// bucketed by how many directed channels ended up dead.
pub fn curve(cells: &[RerouteCell], mode: &str) -> Vec<CurveRow> {
    let mut buckets: Vec<u64> = cells
        .iter()
        .filter(|c| c.spec.mode == mode)
        .map(|c| c.report.net.recovery.failed_links)
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    buckets
        .into_iter()
        .map(|failed| {
            let slice: Vec<&RerouteCell> = cells
                .iter()
                .filter(|c| c.spec.mode == mode && c.report.net.recovery.failed_links == failed)
                .collect();
            let n = slice.len().max(1) as f64;
            CurveRow {
                failed_links: failed,
                goodput: slice.iter().map(|c| c.report.agg_goodput()).sum::<f64>() / n,
                delivered_frac: slice.iter().map(|c| c.delivered_frac()).sum::<f64>() / n,
                completed_frac: slice.iter().filter(|c| c.report.completed).count() as f64 / n,
                cells: slice.len(),
            }
        })
        .collect()
}

/// Asserts the campaign's acceptance surface; returns human-readable
/// violations instead of panicking so the binary can print them all.
pub fn violations(cells: &[RerouteCell]) -> Vec<String> {
    let mut v = Vec::new();
    for c in cells {
        let tag = format!(
            "{}/{}/{} seed {}",
            c.spec.scenario, c.spec.layout, c.spec.mode, c.spec.seed
        );
        if c.report.accepted_corrupt() > 0 {
            v.push(format!("{tag}: accepted corrupted payload"));
        }
        if c.report.dup_delivered() > 0 {
            v.push(format!("{tag}: duplicate delivery"));
        }
        if c.report.unnamed_livelock() {
            v.push(format!("{tag}: livelock without named victims"));
        }
        match c.spec.mode {
            // The tentpole claim: rerouting completes every scenario,
            // including the storm cells that livelock under XY.
            "adaptive" => {
                if !c.report.completed {
                    let outcome = c.report.outcome();
                    v.push(format!("{tag}: adaptive run did not complete ({outcome})"));
                }
                if c.report.net.recovery.failed_links > 0 && c.report.net.reconfig_epochs == 0 {
                    v.push(format!("{tag}: links died but no reconfiguration epoch ran"));
                }
            }
            // The pinned baseline: scheduled kills starve XY flows and
            // the watchdog names them; the storm cells reproduce the
            // flow campaign's named livelocks.
            "xy" => {
                if !c.report.livelocked {
                    let outcome = c.report.outcome();
                    v.push(format!("{tag}: XY baseline should livelock, got {outcome}"));
                }
                if c.report.net.reconfig_epochs != 0 {
                    v.push(format!("{tag}: XY must never reconfigure"));
                }
                if c.report.net.retrained_links != 0 {
                    v.push(format!("{tag}: XY must never retrain a link"));
                }
            }
            other => v.push(format!("{tag}: unknown mode {other}")),
        }
    }
    v
}

fn cell_json(j: &mut Json, c: &RerouteCell) {
    let net = &c.report.net;
    j.obj();
    j.key("scenario").str(c.spec.scenario);
    j.key("layout").str(c.spec.layout);
    j.key("mode").str(c.spec.mode);
    j.key("seed").num(c.spec.seed);
    j.key("outcome").str(c.report.outcome());
    j.key("cycles").num(c.report.cycles);
    j.key("agg_goodput").fixed(c.report.agg_goodput(), 6);
    j.key("delivered_frac").fixed(c.delivered_frac(), 4);
    j.key("jain").fixed(c.report.jain, 4);
    j.key("failed_links").num(net.recovery.failed_links);
    j.key("reconfig_epochs").num(net.reconfig_epochs);
    j.key("retrained_links").num(net.retrained_links);
    j.key("frozen_cycles").num(c.frozen_cycles());
    j.key("stranded_flits").num(net.stranded_flits);
    j.key("stranded_packets").num(net.stranded_packets);
    j.key("salvaged_packets").num(net.salvaged_packets);
    j.key("residual_flits").num(net.residual_flits);
    j.key("dup_delivered").num(c.report.dup_delivered());
    j.key("accepted_corrupt").num(c.report.accepted_corrupt());
    j.key("starved_named").num(c.report.stalls.last().map_or(0, |s| s.starved.len()));
    j.end();
}

/// Serialises the report as the `BENCH_reroute.json` artifact.
pub fn to_json(r: &RerouteReport, quick: bool) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("experiment").str("reroute");
    j.key("grid").str(if quick { "quick" } else { "full" });
    j.key("flow_packets").num(FLOW_PACKETS);
    j.key("max_cycles").num(MAX_CYCLES);
    j.key("seeds").arr();
    for seed in SEEDS {
        j.num(seed);
    }
    j.end();
    j.key("invariants").obj();
    j.key("accepted_corrupt").num(r.cells.iter().map(|c| c.report.accepted_corrupt()).sum::<u64>());
    j.key("dup_delivered").num(r.cells.iter().map(|c| c.report.dup_delivered()).sum::<u64>());
    j.key("unnamed_livelocks").num(r.cells.iter().filter(|c| c.report.unnamed_livelock()).count());
    j.key("violations").num(violations(&r.cells).len());
    j.end();
    j.key("curves").arr_block();
    for mode in MODES {
        j.obj();
        j.key("mode").str(mode);
        j.key("curve_failed_goodput_delivered_completed_cells").arr();
        for p in curve(&r.cells, mode) {
            j.arr();
            j.num(p.failed_links);
            j.fixed(p.goodput, 6);
            j.fixed(p.delivered_frac, 4);
            j.fixed(p.completed_frac, 2);
            j.num(p.cells);
            j.end();
        }
        j.end();
        j.end();
    }
    j.end();
    j.key("cells").arr_block();
    for c in &r.cells {
        cell_json(&mut j, c);
    }
    j.end();
    j.end();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_cell(mode: &'static str) -> RerouteCell {
        run_cell(CellSpec { scenario: "single", layout: "corners", mode, seed: SEEDS[0] })
    }

    #[test]
    fn single_kill_completes_under_adaptive_and_livelocks_under_xy() {
        let adaptive = single_cell("adaptive");
        assert_eq!(adaptive.report.outcome(), "completed");
        assert!(adaptive.report.net.reconfig_epochs >= 1);
        assert_eq!(adaptive.report.net.recovery.failed_links, 2);
        assert_eq!(adaptive.report.dup_delivered(), 0);
        assert_eq!(adaptive.report.accepted_corrupt(), 0);

        let xy = single_cell("xy");
        assert_eq!(xy.report.outcome(), "livelocked");
        assert!(!xy.report.unnamed_livelock(), "livelock must name its victims");
        assert_eq!(xy.report.net.reconfig_epochs, 0);
        assert!(violations(&[adaptive, xy]).is_empty());
    }

    #[test]
    fn xy_single_kill_steps_a_pinned_few_cycles() {
        // The wedged XY worms wait on RTO backoff until the watchdog
        // aborts; fixpoint stepping jumps over the waiting.
        let xy = single_cell("xy");
        assert_eq!((xy.report.cycles, xy.report.stepped_cycles), (36_864, 326));
    }

    #[test]
    fn cells_are_deterministic() {
        let a = single_cell("adaptive");
        let b = single_cell("adaptive");
        assert_eq!(a, b);
        assert_eq!(
            to_json(&RerouteReport { cells: vec![a] }, true),
            to_json(&RerouteReport { cells: vec![b] }, true)
        );
    }

    #[test]
    fn quick_grid_covers_the_acceptance_cells() {
        let quick = quick_grid();
        // All four storm cells per mode (the PR's acceptance surface).
        let storms =
            quick.iter().filter(|s| s.scenario == "storm" && s.mode == "adaptive").count();
        assert_eq!(storms, 4, "2 layouts x 2 seeds under adaptive");
        let xy_storms = quick.iter().filter(|s| s.scenario == "storm" && s.mode == "xy").count();
        assert_eq!(xy_storms, 4, "and their pinned XY baselines");
        assert!(quick.len() < full_grid().len());
    }

    #[test]
    fn json_shape_is_stable() {
        let cell = single_cell("adaptive");
        let r = RerouteReport { cells: vec![cell] };
        let j = to_json(&r, true);
        assert!(j.contains("\"experiment\": \"reroute\""), "{j}");
        assert!(j.contains("\"grid\": \"quick\""), "{j}");
        assert!(j.contains("\"outcome\": \"completed\""), "{j}");
        assert!(j.contains("\"curve_failed_goodput_delivered_completed_cells\""), "{j}");
    }
}
