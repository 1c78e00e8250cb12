//! Executes operations: layer calls inside the timed section, work
//! counted from the reports the API returns, outputs checked after.

use std::time::Instant;

use sal_bench::{flows, reroute, sliced};
use sal_cells::CircuitBuilder;
use sal_des::{SimProfile, Simulator, Time, Value};
use sal_link::measure::{run_spec, LinkRun, MeasureOptions};
use sal_link::testbench::{attach_sync_sink, attach_sync_source, SyncFlitSink, SyncFlitSource};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
use sal_noc::{FlowNetReport, LinkModel, Mesh, Network, NetworkConfig, NetworkStats};
use sal_switch::{build_mesh_fabric, flit};

use crate::fixtures::{self, Fixtures};
use crate::plan::{LoadCell, Op, LOAD_CYCLES, LOAD_MESH, LOAD_WARMUP};
use crate::trace::Tracer;

/// Simulated-time cap on a fabric run: far beyond the few hundred
/// nanoseconds all-to-all traffic needs; reaching it is a failure.
const FABRIC_HORIZON_NS: u64 = 20_000;

/// Everything an operation needs besides its own inputs.
#[derive(Debug)]
pub struct Context {
    /// The committed fixtures.
    pub fixtures: Fixtures,
    /// Link measurement options (the campaigns' defaults).
    pub opts: MeasureOptions,
    /// Physical link parameters the specs do not name.
    pub base: LinkConfig,
    /// The I3-derived mesh channel model.
    pub i3_model: LinkModel,
}

impl Context {
    /// The shared context around already indexed fixtures.
    pub fn new(fixtures: Fixtures) -> Context {
        let base = LinkConfig::default();
        Context {
            fixtures,
            opts: MeasureOptions::default(),
            i3_model: LinkModel::from_link(LinkFamily::PerWord, &base),
            base,
        }
    }
}

impl Default for Context {
    /// The shared context around the committed fixtures.
    fn default() -> Self {
        Context::new(Fixtures::committed())
    }
}

/// Deterministic work counters of a run (host times live in the
/// spans). Equal seeds and round counts give equal counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Lattice cells completed.
    pub cells: u64,
    /// Netlist components built for lattice cells.
    pub components: u64,
    /// Bundled-data capture points the timing pass analysed.
    pub lint_captures: u64,
    /// Bundled-data launch bundles.
    pub lint_bundles: u64,
    /// Error-severity lint findings.
    pub lint_errors: u64,
    /// Words carried through `run_spec`.
    pub link_words: u64,
    /// Simulated picoseconds advanced by gate-level runs.
    pub sim_ps: u64,
    /// Kernel events processed.
    pub des_events: u64,
    /// Committed signal changes.
    pub des_commits: u64,
    /// Deltas processed.
    pub des_deltas: u64,
    /// Queue events avoided by the compiled engine.
    pub des_events_avoided: u64,
    /// Compiled cone evaluations.
    pub des_cone_evals: u64,
    /// Largest sampled event-queue depth.
    pub des_queue_peak: u64,
    /// Lanes carried by sliced passes.
    pub lanes_carried: u64,
    /// Lanes the sliced passes kept (not demoted to scalar replay).
    pub lanes_kept: u64,
    /// Flits the gate-level fabrics delivered.
    pub switch_flits: u64,
    /// Mesh cycles simulated (warm-up included).
    pub noc_cycles: u64,
    /// Measured mesh cycles × nodes (occupancy denominator).
    pub noc_node_cycles: u64,
    /// Flits entering the fabric while measured.
    pub injected_flits: u64,
    /// Flits ejected while measured.
    pub delivered_flits: u64,
    /// Packets offered while measured.
    pub offered_packets: u64,
    /// Packets delivered while measured.
    pub delivered_packets: u64,
    /// Channel upsets.
    pub noc_errors: u64,
    /// Head-flit replays.
    pub noc_replays: u64,
    /// Channel resyncs.
    pub noc_resyncs: u64,
    /// Flits lost to channel deaths.
    pub stranded_flits: u64,
    /// Packets rerouted intact around a dying channel.
    pub salvaged_packets: u64,
    /// Route-table rebuilds.
    pub reconfig_epochs: u64,
    /// Failed channels revived by deep retrain.
    pub retrained_links: u64,
    /// Payload packets first-transmitted by flow senders.
    pub flow_sent: u64,
    /// Payload retransmissions.
    pub flow_retx: u64,
    /// Retransmission timeouts.
    pub flow_timeouts: u64,
    /// Payloads delivered in order to applications.
    pub flow_delivered: u64,
    /// Flow cells that completed.
    pub flow_completed: u64,
    /// Flow cells the watchdog declared livelocked.
    pub flow_livelocked: u64,
}

impl Counters {
    fn add_profile(&mut self, p: &SimProfile) {
        self.sim_ps += p.sim_time.as_ps().round() as u64;
        self.des_events += p.events;
        self.des_commits += p.commits;
        self.des_deltas += p.deltas;
        self.des_events_avoided += p.events_avoided;
        self.des_cone_evals += p.cone_evals;
        self.des_queue_peak = self.des_queue_peak.max(p.queue_peak as u64);
    }

    fn add_net(&mut self, s: &NetworkStats, cycles: u64) {
        self.noc_cycles += cycles;
        self.noc_node_cycles += s.cycles * s.nodes as u64;
        self.injected_flits += s.injected_flits;
        self.delivered_flits += s.delivered_flits;
        self.offered_packets += s.offered_packets;
        self.delivered_packets += s.delivered_packets;
        self.noc_errors += s.recovery.counts.errors;
        self.noc_replays += s.recovery.counts.replays;
        self.noc_resyncs += s.recovery.counts.resyncs;
        self.stranded_flits += s.stranded_flits;
        self.salvaged_packets += s.salvaged_packets;
        self.reconfig_epochs += s.reconfig_epochs;
        self.retrained_links += s.retrained_links;
    }

    fn add_flows(&mut self, r: &FlowNetReport) {
        self.add_net(&r.net, r.cycles);
        for f in &r.flows {
            self.flow_sent += f.counts.sent;
            self.flow_retx += f.counts.retx;
            self.flow_timeouts += f.counts.timeouts;
            self.flow_delivered += f.delivered;
        }
        self.flow_completed += u64::from(r.completed);
        self.flow_livelocked += u64::from(r.livelocked);
    }

    /// Adds another run's counters.
    pub fn absorb(&mut self, o: &Counters) {
        let peak = self.des_queue_peak.max(o.des_queue_peak);
        let fields = [
            (&mut self.cells, o.cells),
            (&mut self.components, o.components),
            (&mut self.lint_captures, o.lint_captures),
            (&mut self.lint_bundles, o.lint_bundles),
            (&mut self.lint_errors, o.lint_errors),
            (&mut self.link_words, o.link_words),
            (&mut self.sim_ps, o.sim_ps),
            (&mut self.des_events, o.des_events),
            (&mut self.des_commits, o.des_commits),
            (&mut self.des_deltas, o.des_deltas),
            (&mut self.des_events_avoided, o.des_events_avoided),
            (&mut self.des_cone_evals, o.des_cone_evals),
            (&mut self.lanes_carried, o.lanes_carried),
            (&mut self.lanes_kept, o.lanes_kept),
            (&mut self.switch_flits, o.switch_flits),
            (&mut self.noc_cycles, o.noc_cycles),
            (&mut self.noc_node_cycles, o.noc_node_cycles),
            (&mut self.injected_flits, o.injected_flits),
            (&mut self.delivered_flits, o.delivered_flits),
            (&mut self.offered_packets, o.offered_packets),
            (&mut self.delivered_packets, o.delivered_packets),
            (&mut self.noc_errors, o.noc_errors),
            (&mut self.noc_replays, o.noc_replays),
            (&mut self.noc_resyncs, o.noc_resyncs),
            (&mut self.stranded_flits, o.stranded_flits),
            (&mut self.salvaged_packets, o.salvaged_packets),
            (&mut self.reconfig_epochs, o.reconfig_epochs),
            (&mut self.retrained_links, o.retrained_links),
            (&mut self.flow_sent, o.flow_sent),
            (&mut self.flow_retx, o.flow_retx),
            (&mut self.flow_timeouts, o.flow_timeouts),
            (&mut self.flow_delivered, o.flow_delivered),
            (&mut self.flow_completed, o.flow_completed),
            (&mut self.flow_livelocked, o.flow_livelocked),
        ];
        for (field, v) in fields {
            *field += v;
        }
        self.des_queue_peak = peak;
    }

    /// The workload's unit of work: lattice cells, simulated
    /// nanoseconds or mesh cycles.
    pub fn work(&self, workload: crate::Workload) -> f64 {
        match workload {
            crate::Workload::LatticeSweep => self.cells as f64,
            crate::Workload::GateStream => self.sim_ps as f64 / 1e3,
            crate::Workload::MeshLoad | crate::Workload::MeshChaos => self.noc_cycles as f64,
        }
    }
}

/// One executed operation.
#[derive(Debug)]
pub struct Outcome {
    /// Host nanoseconds of the timed section.
    pub timed_ns: u64,
    /// Work counters.
    pub counters: Counters,
    /// The output check: `Err` names what was wrong.
    pub check: Result<(), String>,
    /// The operation was a fixture cell and reproduced it.
    pub fixture_checked: bool,
    /// Open-loop mesh statistics, kept for the rerun check.
    pub load_stats: Option<NetworkStats>,
}

impl Outcome {
    /// The work the operation adds to the workload rate: none if its
    /// check failed (its host time still counts).
    pub fn work(&self, workload: crate::Workload) -> f64 {
        if self.check.is_ok() {
            self.counters.work(workload)
        } else {
            0.0
        }
    }
}

/// Runs one operation. Layer calls are timed and (when the tracer is
/// on) spanned; checks run after the timed section.
pub fn execute(op: &Op, ctx: &Context, tr: &mut Tracer) -> Outcome {
    let input = Input {
        words: op.words(),
        traffic: op.traffic(),
    };
    let t0 = Instant::now();
    let produced = tr.span("op", |tr| run_layers(op, &input, ctx, tr));
    let timed_ns = t0.elapsed().as_nanos() as u64;
    let mut out = Outcome {
        timed_ns,
        counters: Counters::default(),
        check: Ok(()),
        fixture_checked: false,
        load_stats: None,
    };
    out.check = check(op, &input, ctx, produced, &mut out);
    out
}

/// An operation's bulk inputs, expanded from its seeds before the
/// timed section.
struct Input {
    words: Vec<u64>,
    traffic: Vec<(usize, usize, u64)>,
}

/// What the timed section hands to the checks.
enum Produced {
    Lattice {
        graph: sal_des::NetGraph,
        lint: sal_lint::LintReport,
        run: Result<LinkRun, String>,
    },
    Link(Result<LinkRun, String>),
    Sliced(sliced::CampaignResult),
    Fabric {
        sim_ps: u64,
        profile: SimProfile,
        received: Vec<Vec<u64>>,
    },
    Load {
        stats: NetworkStats,
        cycles: u64,
    },
    Flow(flows::FlowCell),
    Reroute(reroute::RerouteCell),
}

fn traced_run_spec(
    spec: &LinkSpec,
    ctx: &Context,
    words: &[u64],
    tr: &mut Tracer,
) -> Result<LinkRun, String> {
    let run = tr.span("link.run", |_| run_spec(spec, &ctx.base, words, &ctx.opts));
    if let Ok(r) = &run {
        tr.derive_last("link.run", &[("des.loop", r.profile.wall)]);
    }
    run.map_err(|e| e.to_string())
}

fn run_layers(op: &Op, input: &Input, ctx: &Context, tr: &mut Tracer) -> Produced {
    match op {
        Op::Lattice(spec) => {
            let graph = tr.span("cells.build", |_| {
                let mut sim = Simulator::new();
                let mut b = CircuitBuilder::new(&mut sim, &ctx.opts.lib);
                generate(&mut b, spec, "link", &ctx.base).expect("lattice cells are valid specs");
                b.finish();
                sim.netgraph()
            });
            let lint = tr.span("lint.run", |tr| {
                if !tr.is_on() {
                    return sal_lint::run_all(&graph);
                }
                // The traced run splits `run_all` into its passes, in
                // `run_all`'s order.
                let mut report = sal_lint::LintReport::new();
                tr.span("lint.connectivity", |_| {
                    sal_lint::connectivity::check(&graph, &mut report);
                });
                tr.span("lint.loops", |_| {
                    sal_lint::loops::check(&graph, &mut report);
                });
                tr.span("lint.timing", |_| {
                    sal_lint::timing::check(&graph, &mut report);
                });
                tr.span("lint.handshake", |_| {
                    sal_lint::handshake::check(&graph, &mut report);
                });
                report.sort();
                report
            });
            let run = traced_run_spec(spec, ctx, &input.words, tr);
            Produced::Lattice { graph, lint, run }
        }
        Op::Stream { spec, .. } => Produced::Link(traced_run_spec(spec, ctx, &input.words, tr)),
        Op::Sliced { storm_seed, .. } => {
            let res = tr.span("sliced.campaign", |_| {
                sliced::sliced_campaign(*storm_seed, crate::plan::SLICED_LANES)
            });
            let parts = tr.derive_last(
                "sliced.campaign",
                &[
                    ("sliced.carrier", res.carrier_wall),
                    ("sliced.replay", res.replay_wall),
                ],
            );
            tr.derive_under(parts.first().copied(), &[("des.loop", res.profile.wall)]);
            Produced::Sliced(res)
        }
        Op::Fabric { family, dims, .. } => run_fabric(*family, *dims, &input.traffic, ctx, tr),
        Op::Load(cell) => {
            let cfg = load_config(cell, ctx);
            let mut net = tr.span("noc.new", |_| {
                Network::new(cfg, cell.pattern, cell.rate, cell.seed)
            });
            let stats = tr.span("noc.run", |_| net.run(LOAD_CYCLES, LOAD_WARMUP));
            Produced::Load {
                stats,
                cycles: net.cycle(),
            }
        }
        // The campaigns' own cell runners build the 4×4 network and run
        // it; the build is a negligible part of the span.
        Op::Flow(cell) => Produced::Flow(tr.span("noc.run_flows", |_| flows::run_cell(*cell))),
        Op::Reroute(cell) => {
            Produced::Reroute(tr.span("noc.run_flows", |_| reroute::run_cell(*cell)))
        }
    }
}

/// The `mesh_load` network: faults off, 8-flit input queues, 4-flit
/// packets.
fn load_config(cell: &LoadCell, ctx: &Context) -> NetworkConfig {
    NetworkConfig {
        mesh: Mesh::new(LOAD_MESH, LOAD_MESH),
        link: if cell.i3_links {
            ctx.i3_model
        } else {
            LinkModel::ideal()
        },
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: None,
        routing: cell.routing,
        link_kills: Vec::new(),
    }
}

/// Builds a fabric, drives every source's flits into it and runs until
/// every flit has arrived (or the horizon passes).
fn run_fabric(
    family: LinkFamily,
    dims: (usize, usize),
    traffic: &[(usize, usize, u64)],
    ctx: &Context,
    tr: &mut Tracer,
) -> Produced {
    let cfg = &ctx.base;
    let (mut sim, sinks) = tr.span("switch.build", |_| {
        let mut sim = Simulator::new();
        let mut b = CircuitBuilder::new(&mut sim, &ctx.opts.lib);
        let f = build_mesh_fabric(&mut b, "fab", dims, family, cfg);
        b.finish();
        for &r in &f.rstns {
            sim.stimulus(
                r,
                &[
                    (Time::ZERO, Value::zero(1)),
                    (Time::from_ns(2), Value::one(1)),
                ],
            );
        }
        for (i, &(fi, vi, so)) in f.local_in.iter().enumerate() {
            let words: Vec<u64> = traffic
                .iter()
                .filter(|t| t.0 == i)
                .map(|&(_, dst, payload)| {
                    flit::pack(
                        cfg.flit_width,
                        (dst % dims.0) as u8,
                        (dst / dims.0) as u8,
                        payload,
                    )
                })
                .collect();
            let (src, _) = SyncFlitSource::new(f.clk, so, fi, vi, cfg.flit_width, words);
            attach_sync_source(
                &mut sim,
                &format!("src{i}"),
                src.with_rstn(f.rstns[0]),
                Time::ZERO,
            );
        }
        let sinks: Vec<_> = f
            .local_out
            .iter()
            .enumerate()
            .map(|(i, &(fo, vo, si))| {
                let (snk, rx) = SyncFlitSink::new(f.clk, vo, fo, si);
                attach_sync_sink(&mut sim, &format!("snk{i}"), snk, Time::ZERO);
                rx
            })
            .collect();
        (sim, sinks)
    });
    tr.span("switch.sim", |_| {
        let horizon = Time::from_ns(FABRIC_HORIZON_NS);
        let delivered = || sinks.iter().map(|rx| rx.borrow().len()).sum::<usize>();
        while delivered() < traffic.len() && sim.now() < horizon {
            sim.run_for(cfg.clk_period * 16)
                .expect("fabric simulation runs");
        }
    });
    let profile = sim.profile();
    tr.derive_last("switch.sim", &[("des.loop", profile.wall)]);
    Produced::Fabric {
        sim_ps: sim.now().as_ps().round() as u64,
        profile,
        received: sinks
            .iter()
            .map(|rx| rx.borrow().iter().map(|&(_, w)| w).collect())
            .collect(),
    }
}

/// The netlist has no error-severity lint finding.
pub fn lint_clean(report: &sal_lint::LintReport) -> Result<(), String> {
    if report.has_errors() {
        return Err(format!("lint errors:\n{}", report.to_text()));
    }
    Ok(())
}

/// Words delivered equal words sent, in order, with a clean scoreboard.
pub fn delivery(sent: &[u64], run: &LinkRun) -> Result<(), String> {
    if !run.integrity.is_clean() {
        return Err(format!("scoreboard not clean: {}", run.integrity));
    }
    let got = run.received_words();
    if got != sent {
        return Err(format!(
            "delivered {} words, sent {}, or out of order",
            got.len(),
            sent.len()
        ));
    }
    Ok(())
}

/// Every fabric sink received exactly the flits addressed to it.
pub fn fabric_delivery(
    dims: (usize, usize),
    flit_width: u8,
    traffic: &[(usize, usize, u64)],
    received: &[Vec<u64>],
) -> Result<(), String> {
    for (node, got) in received.iter().enumerate() {
        let mut want: Vec<u64> = traffic
            .iter()
            .filter(|t| t.1 == node)
            .map(|&(_, dst, p)| {
                flit::pack(flit_width, (dst % dims.0) as u8, (dst / dims.0) as u8, p)
            })
            .collect();
        let mut got = got.clone();
        want.sort_unstable();
        got.sort_unstable();
        if got != want {
            return Err(format!(
                "fabric node {node} received {} flits, expected {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// The flow-mode integrity invariants: exactly-once, no accepted
/// corruption, every livelock named, flit conservation.
pub fn chaos_invariants(report: &FlowNetReport) -> Result<(), String> {
    let dup: u64 = report.flows.iter().map(|f| f.counts.dup_delivered).sum();
    let corrupt: u64 = report.flows.iter().map(|f| f.counts.accepted_corrupt).sum();
    let named = report
        .stalls
        .last()
        .is_some_and(|s| s.hard && !s.starved.is_empty());
    let n = &report.net;
    if dup != 0 {
        Err(format!("{dup} payloads delivered twice"))
    } else if corrupt != 0 {
        Err(format!("{corrupt} corrupted payloads accepted"))
    } else if report.livelocked && !named {
        Err("livelock without named victims".into())
    } else if n.injected_flits != n.delivered_flits + n.stranded_flits + n.residual_flits {
        Err(format!(
            "flit conservation broken: injected {} != delivered {} + stranded {} + residual {}",
            n.injected_flits, n.delivered_flits, n.stranded_flits, n.residual_flits
        ))
    } else {
        Ok(())
    }
}

/// Faults are off in `mesh_load`: nothing may be corrupted or stranded.
pub fn load_invariants(stats: &NetworkStats) -> Result<(), String> {
    if stats.corrupt_packets != 0 || stats.stranded_flits != 0 {
        return Err(format!(
            "fault-free mesh corrupted {} packets and stranded {} flits",
            stats.corrupt_packets, stats.stranded_flits
        ));
    }
    Ok(())
}

/// The Pareto campaign's record for a measured lattice cell, formatted
/// exactly as `BENCH_pareto.json` records it.
pub fn pareto_record(
    spec: &LinkSpec,
    components: usize,
    lint_errors: u64,
    run: &LinkRun,
) -> String {
    let words = run.sent.len().max(1) as f64;
    let energy_per_word_pj = run.total_power_uw() * run.window.as_secs() * 1e6 / words;
    let lat: Vec<f64> = run
        .sent
        .iter()
        .zip(&run.received)
        .map(|(&(a, _), &(b, _))| (b - a).as_ns())
        .collect();
    let latency_ns = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    format!(
        "{{\"family\": \"{}\", \"word_width\": {}, \"serial_ratio\": {}, \"slice_width\": {}, \
         \"buffer_depth\": {}, \"protection\": \"{}\", \"wires\": {}, \"cells\": {}, \
         \"area_um2\": {:.1}, \"energy_per_word_pj\": {:.3}, \"latency_ns\": {:.3}, \
         \"throughput_mflits\": {:.2}, \"lint_errors\": {}, \"spec_hash\": \"{:016x}\"}}",
        spec.family().label(),
        spec.word_width(),
        spec.serial_ratio(),
        spec.slice_width(),
        spec.buffer_depth(),
        spec.protection().label(),
        spec.wires(),
        components,
        run.area_um2(),
        energy_per_word_pj,
        latency_ns,
        run.throughput_mflits(),
        lint_errors,
        spec.content_hash(),
    )
}

/// The single cell line a campaign's own JSON writer emits for a
/// one-cell report.
fn campaign_line(json: &str) -> String {
    json.lines()
        .map(|l| l.trim().trim_end_matches(','))
        .find(|l| fixtures::cell_key(l).is_some())
        .expect("a campaign report carries its cell line")
        .to_string()
}

/// Counts the operation's work and checks its outputs.
fn check(
    op: &Op,
    input: &Input,
    ctx: &Context,
    produced: Produced,
    out: &mut Outcome,
) -> Result<(), String> {
    let c = &mut out.counters;
    match (op, produced) {
        (Op::Lattice(spec), Produced::Lattice { graph, lint, run }) => {
            c.cells = 1;
            c.components = graph.components.len() as u64;
            c.lint_captures = graph.captures.len() as u64;
            c.lint_bundles = graph.bundles.len() as u64;
            c.lint_errors = lint.errors().count() as u64;
            let run = run?;
            c.link_words = run.sent.len() as u64;
            c.add_profile(&run.profile);
            lint_clean(&lint)?;
            delivery(&input.words, &run)?;
            let record = pareto_record(spec, graph.components.len(), c.lint_errors, &run);
            let key = format!("{:016x}", spec.content_hash());
            out.fixture_checked = fixtures::check(
                ctx.fixtures.pareto.get(key.as_str()).copied(),
                &record,
                "pareto",
            )?;
            Ok(())
        }
        (Op::Stream { .. }, Produced::Link(run)) => {
            let run = run?;
            c.link_words = run.sent.len() as u64;
            c.add_profile(&run.profile);
            delivery(&input.words, &run)
        }
        (
            Op::Sliced {
                storm_seed,
                check_lane,
            },
            Produced::Sliced(res),
        ) => {
            let lanes = u64::from(res.lanes);
            let demoted = u64::from(res.diverged.count_ones());
            c.lanes_carried = lanes;
            c.lanes_kept = lanes - demoted;
            c.add_profile(&res.profile);
            // The pass simulates every lane over the whole horizon,
            // however many lanes it demotes to scalar replay: its work is
            // what it simulates, not how the engine gets there.
            c.sim_ps = lanes * sliced::HORIZON_NS * 1_000;
            for lane in [0, *check_lane] {
                let scalar = sliced::scalar_run(*storm_seed, lane, res.lanes);
                if res.flit_series[lane as usize] != scalar {
                    return Err(format!("sliced lane {lane} differs from its scalar replay"));
                }
            }
            Ok(())
        }
        (
            Op::Fabric { dims, .. },
            Produced::Fabric {
                sim_ps,
                profile,
                received,
            },
        ) => {
            c.add_profile(&profile);
            c.sim_ps = sim_ps;
            c.switch_flits = received.iter().map(|r| r.len() as u64).sum();
            fabric_delivery(*dims, ctx.base.flit_width, &input.traffic, &received)
        }
        (Op::Load(_), Produced::Load { stats, cycles }) => {
            c.add_net(&stats, cycles);
            let res = load_invariants(&stats);
            out.load_stats = Some(stats);
            res
        }
        (Op::Flow(_), Produced::Flow(cell)) => {
            c.add_flows(&cell.report);
            chaos_invariants(&cell.report)?;
            let line = campaign_line(&flows::to_json(&flows::FlowsReport { cells: vec![cell] }));
            let key = fixtures::cell_key(&line).expect("cell line has coordinates");
            out.fixture_checked =
                fixtures::check(ctx.fixtures.flows.get(key).copied(), &line, "flows")?;
            Ok(())
        }
        (Op::Reroute(_), Produced::Reroute(cell)) => {
            c.add_flows(&cell.report);
            chaos_invariants(&cell.report)?;
            let report = reroute::RerouteReport { cells: vec![cell] };
            let line = campaign_line(&reroute::to_json(&report, true));
            let key = fixtures::cell_key(&line).expect("cell line has coordinates");
            out.fixture_checked =
                fixtures::check(ctx.fixtures.reroute.get(key).copied(), &line, "reroute")?;
            Ok(())
        }
        _ => unreachable!("every operation produces its own kind of output"),
    }
}

/// Re-runs an open-loop mesh operation untimed; its statistics must be
/// identical to the timed run's.
pub fn rerun_matches(cell: &LoadCell, ctx: &Context, timed: &NetworkStats) -> Result<(), String> {
    let mut net = Network::new(load_config(cell, ctx), cell.pattern, cell.rate, cell.seed);
    if net.run(LOAD_CYCLES, LOAD_WARMUP) == *timed {
        Ok(())
    } else {
        Err("re-running the first mesh configuration gave different statistics".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::Workload;
    use sal_noc::ChannelProtection;

    /// Operations cheap enough for an unoptimised test build.
    fn cheap(op: &Op) -> bool {
        match op {
            Op::Lattice(s) => s.family() == LinkFamily::PerWord,
            Op::Stream { .. } | Op::Load(_) => true,
            Op::Flow(c) => c.protection == ChannelProtection::Crc8,
            Op::Sliced { .. } | Op::Fabric { .. } | Op::Reroute(_) => false,
        }
    }

    fn run_cheap(w: Workload, seed: u64) -> (Vec<Op>, Counters) {
        let ctx = Context::default();
        let ops: Vec<Op> = plan(w, seed, 1).into_iter().filter(cheap).take(2).collect();
        let mut total = Counters::default();
        for op in &ops {
            let out = execute(op, &ctx, &mut Tracer::new(false));
            assert_eq!(out.check, Ok(()), "{op:?}");
            total.absorb(&out.counters);
        }
        (ops, total)
    }

    #[test]
    fn the_same_seed_gives_the_same_work_counters() {
        for w in Workload::ALL {
            let (ops, counters) = run_cheap(w, 5);
            assert!(!ops.is_empty() && counters.work(w) > 0.0, "{}", w.name());
            assert_eq!(run_cheap(w, 5), (ops, counters), "{}", w.name());
        }
    }

    #[test]
    fn tracing_does_not_change_the_work() {
        let ctx = Context::default();
        let op = &plan(Workload::GateStream, 9, 1)[0];
        let mut tr = Tracer::new(true);
        let traced = execute(op, &ctx, &mut tr);
        let plain = execute(op, &ctx, &mut Tracer::new(false));
        assert_eq!(traced.counters, plain.counters);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "link.run", "des.loop"]);
    }

    #[test]
    fn a_sliced_pass_counts_every_lane_whatever_it_demotes() {
        let ctx = Context::default();
        let mut kept = Vec::new();
        for seed in 0..4 {
            let op = plan(Workload::GateStream, seed, 1)
                .into_iter()
                .find(|op| matches!(op, Op::Sliced { .. }))
                .expect("every gate round has a sliced pass");
            let out = execute(&op, &ctx, &mut Tracer::new(false));
            assert_eq!(out.check, Ok(()));
            let lanes = u64::from(crate::plan::SLICED_LANES);
            assert_eq!(out.counters.sim_ps, lanes * sliced::HORIZON_NS * 1_000);
            kept.push(out.counters.lanes_kept);
        }
        assert!(
            kept.iter().any(|&k| k != kept[0]),
            "demotion varies: {kept:?}"
        );
    }

    #[test]
    fn a_failed_operation_adds_no_work() {
        let ctx = Context::default();
        let op = &plan(Workload::MeshLoad, 3, 1)[0];
        let mut out = execute(op, &ctx, &mut Tracer::new(false));
        assert!(out.work(Workload::MeshLoad) > 0.0);
        out.check = Err("wrong".into());
        assert_eq!(out.work(Workload::MeshLoad), 0.0);
        assert!(
            out.counters.noc_cycles > 0,
            "its counters still feed the layers"
        );
    }

    #[test]
    fn delivery_check_fires_on_a_wrong_expectation() {
        let ctx = Context::default();
        let words = vec![0xDEAD_BEEF, 0x0123_4567, 0x89AB_CDEF];
        let spec = LinkSpec::paper(LinkFamily::PerWord);
        let run = run_spec(&spec, &ctx.base, &words, &ctx.opts).expect("clean run");
        assert_eq!(delivery(&words, &run), Ok(()));
        assert!(delivery(&[0xDEAD_BEEF, 0x0123_4567, 0], &run).is_err());
        assert!(delivery(&words[..2], &run).is_err());
    }

    #[test]
    fn lint_check_fires_on_an_error_finding() {
        let mut report = sal_lint::LintReport::new();
        report.push(
            sal_lint::Severity::Warning,
            "connectivity",
            "link.x",
            "dead".into(),
        );
        assert_eq!(lint_clean(&report), Ok(()));
        report.push(
            sal_lint::Severity::Error,
            "timing",
            "link.y",
            "margin -3 ps".into(),
        );
        assert!(lint_clean(&report).unwrap_err().contains("margin -3 ps"));
    }

    #[test]
    fn fabric_check_fires_on_a_missing_or_misrouted_flit() {
        let traffic = [(0, 1, 5), (1, 0, 7), (0, 1, 9)];
        let at = |dst: usize, p: u64| flit::pack(32, dst as u8, 0, p);
        let good = vec![vec![at(0, 7)], vec![at(1, 9), at(1, 5)]];
        assert_eq!(fabric_delivery((2, 1), 32, &traffic, &good), Ok(()));
        let lost = vec![vec![at(0, 7)], vec![at(1, 9)]];
        assert!(fabric_delivery((2, 1), 32, &traffic, &lost).is_err());
        let misrouted = vec![vec![at(0, 7), at(1, 9)], vec![at(1, 5)]];
        assert!(fabric_delivery((2, 1), 32, &traffic, &misrouted).is_err());
    }

    #[test]
    fn chaos_checks_fire_on_broken_invariants() {
        let cell = flows::CellSpec {
            layout: "corners",
            process: "bursty",
            protection: ChannelProtection::Crc8,
            rate: 0.05,
            seed: 29,
            kill_links: false,
        };
        let report = flows::run_cell(cell).report;
        assert_eq!(chaos_invariants(&report), Ok(()));
        let mut broken = report.clone();
        broken.net.residual_flits += 1;
        assert!(chaos_invariants(&broken)
            .unwrap_err()
            .contains("conservation"));
        let mut dup = report.clone();
        dup.flows[0].counts.dup_delivered = 1;
        assert!(chaos_invariants(&dup).is_err());
        let mut corrupt = report.clone();
        corrupt.flows[1].counts.accepted_corrupt = 1;
        assert!(chaos_invariants(&corrupt).is_err());
        let mut unnamed = report;
        unnamed.livelocked = true;
        unnamed.stalls.clear();
        assert!(chaos_invariants(&unnamed).unwrap_err().contains("named"));
    }

    #[test]
    fn campaign_cells_reproduce_their_fixture_and_a_mutated_row_fails() {
        let mut ctx = Context::default();
        // A quick-grid Pareto cell and a flow-campaign cell.
        let lattice = Op::Lattice(
            LinkSpec::builder()
                .family(LinkFamily::PerWord)
                .word_width(16)
                .serial_ratio(2)
                .buffer_depth(4)
                .build()
                .expect("valid spec"),
        );
        let flow = Op::Flow(flows::CellSpec {
            layout: "hotspot",
            process: "iid",
            protection: ChannelProtection::Crc8,
            rate: 0.05,
            seed: 61,
            kill_links: false,
        });
        for op in [&lattice, &flow] {
            let out = execute(op, &ctx, &mut Tracer::new(false));
            assert_eq!(out.check, Ok(()), "{op:?}");
            assert!(out.fixture_checked, "{op:?} is a fixture cell");
        }
        for row in ctx
            .fixtures
            .pareto
            .values_mut()
            .chain(ctx.fixtures.flows.values_mut())
        {
            // The mutated rows live for the rest of the test process.
            *row = Box::leak(row.replacen("\": ", "\": 1", 1).into_boxed_str());
        }
        for op in [&lattice, &flow] {
            let out = execute(op, &ctx, &mut Tracer::new(false));
            assert!(out.check.unwrap_err().contains("cell differs"), "{op:?}");
        }
    }

    #[test]
    fn mesh_checks_fire_on_corruption_and_on_a_different_rerun() {
        let ctx = Context::default();
        let Op::Load(cell) = plan(Workload::MeshLoad, 2, 1)[0] else {
            panic!("mesh_load plans open-loop runs")
        };
        let out = execute(&Op::Load(cell), &ctx, &mut Tracer::new(false));
        assert_eq!(out.check, Ok(()));
        let stats = out.load_stats.expect("open-loop statistics kept");
        assert_eq!(rerun_matches(&cell, &ctx, &stats), Ok(()));
        let mut other = stats.clone();
        other.delivered_flits += 1;
        assert!(rerun_matches(&cell, &ctx, &other).is_err());
        let mut corrupt = stats;
        corrupt.corrupt_packets = 1;
        assert!(load_invariants(&corrupt).is_err());
    }
}
