//! Network chaos campaign for end-to-end flows (`--bin flows`).
//!
//! The flow layer's claim is falsifiable: windowed senders with AIMD
//! backoff over lossy channels must deliver every payload exactly
//! once — no silent corruption, no duplicates — or the progress
//! watchdog must *name* what starved. This module runs that claim as
//! a campaign over
//! {flow layout} × {error process} × {protection} × {error rate} ×
//! {seed} through [`sweep::parallel_map`], plus a set of
//! link-killer cells where channels fail permanently and the
//! watchdog's livelock diagnosis is the artifact under test.
//!
//! The headline is the goodput-collapse / fairness curve: per
//! `(layout, process, protection)` the aggregate goodput and Jain
//! index across error rates, with the integrity invariants
//! (`accepted_corrupt == 0`, `dup_delivered == 0`, zero unflagged
//! livelocks) asserted over *every* cell. Everything is seeded and
//! the JSON is bytewise deterministic — CI diffs `BENCH_flows.json`
//! against a committed fixture.

use sal_des::json::Json;
use sal_noc::{
    ChannelFaults, ChannelProtection, ErrorProcess, FlowNetReport, FlowSpec, LinkModel, Mesh,
    Network, NetworkConfig, NodeId,
};

use crate::sweep;

/// Flow layouts on the 4×4 mesh.
pub const LAYOUTS: [&str; 2] = ["corners", "hotspot"];

/// Error-process shapes (same mean rate, different clustering).
pub const PROCESSES: [&str; 2] = ["iid", "bursty"];

/// Link protections under test: CRC-8 detects-and-replays everything;
/// `off` delivers silent corruption that only the end-to-end check
/// can catch.
pub const PROTECTIONS: [ChannelProtection; 2] =
    [ChannelProtection::Crc8, ChannelProtection::Off];

/// Mean per-flit error rates swept (the goodput-collapse axis).
pub const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

/// Network seeds per cell (determinism is part of the contract).
pub const SEEDS: [u64; 2] = [29, 61];

/// Payload packets per flow.
pub const FLOW_PACKETS: u64 = 150;

/// Hard cycle budget per cell; a cell that neither completes nor
/// livelocks by then is reported as `progressing_at_cutoff`.
pub const MAX_CYCLES: u64 = 400_000;

/// One campaign cell's coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Flow layout name (see [`LAYOUTS`]).
    pub layout: &'static str,
    /// Error-process shape (see [`PROCESSES`]).
    pub process: &'static str,
    /// Link protection.
    pub protection: ChannelProtection,
    /// Mean per-flit error rate.
    pub rate: f64,
    /// Network seed.
    pub seed: u64,
    /// Link-killer variant: channels fail permanently after two
    /// resyncs on one flit (exercises the watchdog's naming).
    pub kill_links: bool,
}

/// One finished campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCell {
    /// Coordinates.
    pub spec: CellSpec,
    /// The full flow-mode run report.
    pub report: FlowNetReport,
}

/// The flow layout of a cell: `corners` is four disjoint long-haul
/// flows (fairness should stay near 1); `hotspot` aims four flows at
/// one core so the AIMD windows compete for the same ejection port.
pub fn layout_flows(layout: &str) -> Vec<FlowSpec> {
    let f = |src: u16, dst: u16| FlowSpec {
        src: NodeId(src),
        dst: NodeId(dst),
        packets: FLOW_PACKETS,
    };
    match layout {
        "corners" => vec![f(0, 15), f(3, 12), f(12, 3), f(15, 0)],
        "hotspot" => vec![f(0, 5), f(3, 5), f(12, 5), f(15, 5)],
        other => panic!("unknown layout {other}"),
    }
}

/// The error process of a cell: i.i.d. at the mean rate, or a
/// Gilbert–Elliott burst process with the same stationary mean whose
/// bad state errors at 60 % and persists ~20 flits.
pub fn cell_process(process: &str, rate: f64) -> ErrorProcess {
    match process {
        "iid" => ErrorProcess::Iid { p: rate },
        "bursty" if rate == 0.0 => ErrorProcess::Iid { p: 0.0 },
        "bursty" => ErrorProcess::bursty(rate, 0.6, 0.05),
        other => panic!("unknown process {other}"),
    }
}

fn cell_config(spec: CellSpec) -> (NetworkConfig, Vec<FlowSpec>) {
    let mut faults = ChannelFaults::new(cell_process(spec.process, spec.rate), spec.protection);
    if spec.kill_links {
        faults = faults.with_permanent_failure(2);
    }
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: Some(faults),
        routing: sal_noc::RoutingMode::XyStatic,
        link_kills: Vec::new(),
    };
    (cfg, layout_flows(spec.layout))
}

/// Runs one cell.
pub fn run_cell(spec: CellSpec) -> FlowCell {
    let (cfg, flows) = cell_config(spec);
    let mut net = Network::with_flows(cfg, &flows, spec.seed);
    FlowCell { spec, report: net.run_flows(MAX_CYCLES) }
}

/// Everything `--bin flows` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowsReport {
    /// All cells: the full sweep first, then the link-killer cells.
    pub cells: Vec<FlowCell>,
}

/// Runs the full campaign. Deterministic: all randomness flows from
/// [`SEEDS`] through per-channel derived streams.
pub fn campaign() -> FlowsReport {
    let mut specs: Vec<CellSpec> = Vec::new();
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                for rate in RATES {
                    for seed in SEEDS {
                        specs.push(CellSpec {
                            layout,
                            process,
                            protection,
                            rate,
                            seed,
                            kill_links: false,
                        });
                    }
                }
            }
        }
    }
    // Link-killer cells: the harshest bursty storm with permanent
    // failure enabled — the watchdog's diagnosis is the artifact.
    for layout in LAYOUTS {
        for seed in SEEDS {
            specs.push(CellSpec {
                layout,
                process: "bursty",
                protection: ChannelProtection::Crc8,
                rate: 0.10,
                seed,
                kill_links: true,
            });
        }
    }
    let cells = sweep::parallel_map(specs, run_cell);
    FlowsReport { cells }
}

/// One point of the goodput-collapse curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveRow {
    /// Mean per-flit error rate.
    pub rate: f64,
    /// Aggregate goodput averaged over seeds, packets/cycle.
    pub goodput: f64,
    /// Jain fairness index averaged over seeds.
    pub jain: f64,
    /// Fraction of seeds whose cell completed.
    pub completed_frac: f64,
}

/// The goodput-collapse curve of one `(layout, process, protection)`
/// slice of the sweep (link-killer cells excluded).
pub fn curve(
    cells: &[FlowCell],
    layout: &str,
    process: &str,
    protection: ChannelProtection,
) -> Vec<CurveRow> {
    RATES
        .iter()
        .map(|&rate| {
            let slice: Vec<&FlowCell> = cells
                .iter()
                .filter(|c| {
                    !c.spec.kill_links
                        && c.spec.layout == layout
                        && c.spec.process == process
                        && c.spec.protection == protection
                        && c.spec.rate == rate
                })
                .collect();
            let n = slice.len().max(1) as f64;
            CurveRow {
                rate,
                goodput: slice.iter().map(|c| c.report.agg_goodput()).sum::<f64>() / n,
                jain: slice.iter().map(|c| c.report.jain).sum::<f64>() / n,
                completed_frac: slice.iter().filter(|c| c.report.completed).count() as f64 / n,
            }
        })
        .collect()
}

fn flow_json(j: &mut Json, f: &sal_noc::FlowStats) {
    j.obj();
    j.key("flow").num(f.flow.0);
    j.key("src").num(f.spec.src.0);
    j.key("dst").num(f.spec.dst.0);
    j.key("delivered").num(f.delivered);
    j.key("acked").num(f.acked);
    j.key("completed_at").opt(f.completed_at, Json::num);
    j.key("goodput_ppc").fixed(f.goodput_ppc, 6);
    j.key("sent").num(f.counts.sent);
    j.key("retx").num(f.counts.retx);
    j.key("timeouts").num(f.counts.timeouts);
    j.key("dup_rx").num(f.counts.dup_rx);
    j.key("dup_delivered").num(f.counts.dup_delivered);
    j.key("corrupt_payloads").num(f.counts.corrupt_payloads);
    j.key("corrupt_acks").num(f.counts.corrupt_acks);
    j.key("accepted_corrupt").num(f.counts.accepted_corrupt);
    j.end();
}

fn stalls_json(j: &mut Json, report: &FlowNetReport) {
    j.obj();
    j.key("reports").num(report.stalls.len());
    j.key("last").opt(report.stalls.last(), |j, s| {
        j.obj();
        j.key("cycle").num(s.cycle);
        j.key("hard").bool(s.hard);
        j.key("starved").arr();
        for f in &s.starved {
            j.obj();
            j.key("flow").num(f.flow.0);
            j.key("src").num(f.src.0);
            j.key("dst").num(f.dst.0);
            j.key("cum_acked").num(f.cum_acked);
            j.key("packets").num(f.packets);
            j.key("backoff").num(f.backoff);
            j.key("retx").num(f.retx);
            j.end();
        }
        j.end();
        j.key("stalled_channels").arr();
        for c in &s.stalled_channels {
            j.obj();
            j.key("node").num(c.from.0);
            j.key("dir").str(&format!("{:?}", c.dir));
            j.key("state").str(c.state);
            j.key("queued").num(c.queued);
            j.end();
        }
        j.end();
        j.end()
    });
    j.end();
}

fn cell_json(j: &mut Json, c: &FlowCell) {
    let rec = &c.report.net.recovery;
    j.obj();
    j.key("layout").str(c.spec.layout);
    j.key("process").str(c.spec.process);
    j.key("protection").str(c.spec.protection.label());
    j.key("rate").fixed(c.spec.rate, 3);
    j.key("seed").num(c.spec.seed);
    j.key("kill_links").bool(c.spec.kill_links);
    j.key("outcome").str(c.report.outcome());
    j.key("cycles").num(c.report.cycles);
    j.key("agg_goodput").fixed(c.report.agg_goodput(), 6);
    j.key("jain").fixed(c.report.jain, 4);
    j.key("recovery").obj();
    j.key("errors").num(rec.counts.errors);
    j.key("nacks").num(rec.counts.nacks);
    j.key("timeouts").num(rec.counts.timeouts);
    j.key("replays").num(rec.counts.replays);
    j.key("resyncs").num(rec.counts.resyncs);
    j.key("degrades").num(rec.counts.degrades);
    j.key("undetected").num(rec.counts.undetected);
    j.key("failed_links").num(rec.failed_links);
    j.end();
    stalls_json(j.key("stalls"), &c.report);
    j.key("flows").arr();
    for f in &c.report.flows {
        flow_json(j, f);
    }
    j.end();
    j.end();
}

/// Serialises the report as the `BENCH_flows.json` artifact.
pub fn to_json(r: &FlowsReport) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("experiment").str("flows");
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
    j.end();
    j.key("curves").arr_block();
    for layout in LAYOUTS {
        for process in PROCESSES {
            for protection in PROTECTIONS {
                j.obj();
                j.key("layout").str(layout);
                j.key("process").str(process);
                j.key("protection").str(protection.label());
                j.key("curve_rate_goodput_jain_completed").arr();
                for p in curve(&r.cells, layout, process, protection) {
                    j.arr();
                    j.fixed(p.rate, 3);
                    j.fixed(p.goodput, 6);
                    j.fixed(p.jain, 4);
                    j.fixed(p.completed_frac, 2);
                    j.end();
                }
                j.end();
                j.end();
            }
        }
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

    fn tiny_cell(protection: ChannelProtection, rate: f64) -> FlowCell {
        // A single small cell keeps the debug-profile test fast.
        run_cell(CellSpec {
            layout: "corners",
            process: "iid",
            protection,
            rate,
            seed: SEEDS[0],
            kill_links: false,
        })
    }

    #[test]
    fn clean_cell_completes_fairly() {
        let cell = tiny_cell(ChannelProtection::Crc8, 0.0);
        assert_eq!(cell.report.outcome(), "completed");
        assert!(cell.report.jain > 0.9, "jain {}", cell.report.jain);
        assert_eq!(cell.report.accepted_corrupt(), 0);
        assert_eq!(cell.report.dup_delivered(), 0);
        assert_eq!(cell.report.net.recovery.counts.errors, 0);
    }

    #[test]
    fn lossy_cell_holds_the_integrity_invariants() {
        let cell = tiny_cell(ChannelProtection::Off, 0.05);
        // Unprotected at 5 %: corruption must actually reach the
        // end-to-end check for the invariants to mean anything.
        assert!(cell.report.net.recovery.counts.undetected > 0);
        let caught: u64 =
            cell.report.flows.iter().map(|f| f.counts.corrupt_payloads).sum();
        assert!(caught > 0, "the e2e check never fired");
        assert_eq!(cell.report.accepted_corrupt(), 0, "corruption was accepted");
        assert_eq!(cell.report.dup_delivered(), 0, "duplicate delivery");
        assert!(!cell.report.unnamed_livelock());
    }

    #[test]
    fn cells_are_deterministic() {
        let a = tiny_cell(ChannelProtection::Crc8, 0.05);
        let b = tiny_cell(ChannelProtection::Crc8, 0.05);
        assert_eq!(a, b);
        assert_eq!(
            to_json(&FlowsReport { cells: vec![a] }),
            to_json(&FlowsReport { cells: vec![b] })
        );
    }

    #[test]
    fn stepped_cycles_are_pinned() {
        // Fixpoint stepping jumps over the cycles in which nothing can
        // change; a change that stops it skipping moves these counts.
        let lossy = tiny_cell(ChannelProtection::Off, 0.05);
        assert_eq!((lossy.report.cycles, lossy.report.stepped_cycles), (400_000, 3_319));
        let storm = run_cell(CellSpec {
            layout: "corners",
            process: "bursty",
            protection: ChannelProtection::Crc8,
            rate: 0.10,
            seed: SEEDS[0],
            kill_links: false,
        });
        assert_eq!((storm.report.cycles, storm.report.stepped_cycles), (11_051, 7_549));
    }

    #[test]
    fn link_killer_cell_is_named_not_hung() {
        let cell = run_cell(CellSpec {
            layout: "corners",
            process: "bursty",
            protection: ChannelProtection::Crc8,
            rate: 0.10,
            seed: SEEDS[0],
            kill_links: true,
        });
        if cell.report.outcome() == "livelocked" {
            assert!(!cell.report.unnamed_livelock(), "livelock must name its victims");
            let last = cell.report.stalls.last().unwrap();
            assert!(!last.starved.is_empty());
        }
        assert_eq!(cell.report.accepted_corrupt(), 0);
        assert_eq!(cell.report.dup_delivered(), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let cell = tiny_cell(ChannelProtection::Crc8, 0.0);
        let r = FlowsReport { cells: vec![cell] };
        let j = to_json(&r);
        assert!(j.contains("\"experiment\": \"flows\""), "{j}");
        assert!(j.contains("\"invariants\": {\"accepted_corrupt\": 0"), "{j}");
        assert!(j.contains("\"outcome\": \"completed\""), "{j}");
        assert!(j.contains("\"curve_rate_goodput_jain_completed\""), "{j}");
    }
}
