//! The cycle-driven network simulator.

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{
    ChannelFaults, ChannelState, FaultDice, RecoveryCounts, Upset, DEGRADE_AFTER, DEGRADE_CYCLES,
    NACK_LATENCY, RESYNC_AFTER, RESYNC_PENALTY,
};
use crate::flow::{FlowConfig, FlowEngine, FlowStats, FlowTag, StallReport, StalledChannel, jain_index};
use crate::routing::{LinkKill, RouteTable, RoutingMode};
use crate::stats::LinkRecovery;
use crate::{
    Direction, Flit, LinkModel, Mesh, NetworkStats, NodeId, Packet, PacketId, Router,
    TrafficPattern,
};

/// Static configuration of a network instance.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology.
    pub mesh: Mesh,
    /// Channel model used for every inter-router link.
    pub link: LinkModel,
    /// Router input FIFO depth, flits.
    pub input_queue_flits: usize,
    /// Packet length, flits.
    pub packet_len_flits: u32,
    /// Dynamic per-channel fault process (`None`: perfect channels).
    /// When set, every channel runs its own seeded error process and
    /// the NACK/timeout/resync/degrade/fail escalation ladder; the
    /// protection mode's bandwidth tax is applied to the link model.
    pub faults: Option<ChannelFaults>,
    /// Routing policy: static XY or fault-tolerant adaptive with
    /// online reconfiguration (see [`RoutingMode`]).
    pub routing: RoutingMode,
    /// Scheduled permanent channel deaths (directed failure
    /// scenarios; composes with `faults`-driven escalation).
    pub link_kills: Vec<LinkKill>,
}

/// Dynamic lossy-channel state: the seeded dice plus the escalation
/// ladder position (mirrors the gate-level `sal-link` controller).
#[derive(Debug)]
struct Lossy {
    dice: FaultDice,
    /// Consecutive failed delivery attempts of the current head flit.
    consec: u32,
    /// Resyncs burned on the current head flit (escalation driver).
    head_resyncs: u32,
    counts: RecoveryCounts,
}

/// The most bandwidth credit a channel banks: two flits of burst.
const CREDIT_CAP: f64 = 2.0;

/// One unidirectional inter-router channel instance.
#[derive(Debug)]
struct Channel {
    model: LinkModel,
    /// The downstream router.
    to: NodeId,
    /// Flits in flight: `(deliver_at_cycle, flit)`.
    in_flight: VecDeque<(u64, Flit)>,
    /// Bandwidth accumulator (≥ 1 permits a send).
    rate_credit: f64,
    /// Downstream buffer credits.
    buffer_credits: usize,
    /// Last cycle anything was delivered (watchdog diagnosis).
    last_delivery: u64,
    /// Health state: escalation-driven on lossy channels, or set
    /// directly by scheduled [`LinkKill`]s — which is why it lives on
    /// the channel, not inside the fault machinery.
    state: ChannelState,
    /// Sticky record that the channel entered `Failed` at least once —
    /// a last-resort retrain can revive the *state*, but the failure
    /// must stay visible in the recovery rows.
    ever_failed: bool,
    /// Fault machinery, when the network is lossy.
    lossy: Option<Lossy>,
}

impl Channel {
    fn new(model: LinkModel, to: NodeId, downstream_capacity: usize, lossy: Option<Lossy>) -> Self {
        Channel {
            model,
            to,
            in_flight: VecDeque::new(),
            rate_credit: 1.0,
            buffer_credits: downstream_capacity,
            last_delivery: 0,
            state: ChannelState::Up,
            ever_failed: false,
            lossy,
        }
    }

    /// Availability: a failed channel never accepts, a resyncing one
    /// is draining and refuses new work.
    fn is_open(&self) -> bool {
        !matches!(self.state, ChannelState::Failed | ChannelState::Resyncing { .. })
    }

    fn can_accept(&self) -> bool {
        self.is_open() && self.rate_credit >= 1.0 && self.buffer_credits > self.in_flight.len()
    }

    fn send(&mut self, now: u64, flit: Flit) {
        debug_assert!(self.can_accept());
        self.rate_credit -= 1.0;
        self.in_flight.push_back((now + self.model.latency_cycles as u64, flit));
    }

    fn tick(&mut self, now: u64) {
        let mut rate = self.model.flits_per_cycle;
        match self.state {
            ChannelState::Failed => rate = 0.0,
            ChannelState::Degraded { until } if now < until => {
                // Transient degrade: half bandwidth.
                rate /= 2.0;
                if let Some(l) = &mut self.lossy {
                    l.counts.degraded_cycles += 1;
                }
            }
            _ => {}
        }
        self.rate_credit = (self.rate_credit + rate).min(CREDIT_CAP);
    }
}

/// What the network remembers about one packet in the fabric; its
/// route rides in every flit.
#[derive(Debug, Clone, Copy)]
struct PacketSlot {
    /// Cycle the packet was created at the source core.
    inject_cycle: u64,
    /// Accumulated undetected-corruption bit-flip mask.
    corrupt_xor: u64,
    /// Flow-level content (flow mode).
    tag: Option<FlowTag>,
    /// Already counted stranded: static XY leaves a severed packet's
    /// upstream fragments wedged in place, and a later failure must
    /// not count the same packet twice.
    stranded: bool,
}

/// Every packet in the fabric, indexed by [`PacketId`]: a slot is
/// taken at creation and freed for reuse when the packet's tail
/// ejects or reconfiguration purges it.
#[derive(Debug, Default)]
struct PacketSlab {
    slots: Vec<Option<PacketSlot>>,
    free: Vec<PacketId>,
}

impl PacketSlab {
    fn insert(&mut self, slot: PacketSlot) -> PacketId {
        if let Some(id) = self.free.pop() {
            self.slots[id.0 as usize] = Some(slot);
            id
        } else {
            self.slots.push(Some(slot));
            PacketId(self.slots.len() as u64 - 1)
        }
    }

    fn get_mut(&mut self, id: PacketId) -> &mut PacketSlot {
        self.slots[id.0 as usize].as_mut().expect("flit of a packet not in the fabric")
    }

    fn remove(&mut self, id: PacketId) -> PacketSlot {
        let slot = self.slots[id.0 as usize].take().expect("packet not in the fabric");
        self.free.push(id);
        slot
    }

    /// Packets in the fabric that were not counted stranded.
    fn in_flight(&self) -> u64 {
        self.slots.iter().flatten().filter(|s| !s.stranded).count() as u64
    }
}

/// Outcome of a flow-mode run: the transport-level story on top of
/// the usual [`NetworkStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowNetReport {
    /// Cycles simulated, including those fixpoint stepping jumped over.
    pub cycles: u64,
    /// Cycles actually stepped: `cycles` less the ones in which
    /// nothing could change (see [`Network::run_flows`]).
    pub stepped_cycles: u64,
    /// Every flow fully acknowledged.
    pub completed: bool,
    /// The progress watchdog declared livelock and aborted the run.
    pub livelocked: bool,
    /// Jain fairness index over per-flow goodput.
    pub jain: f64,
    /// Per-flow statistics.
    pub flows: Vec<FlowStats>,
    /// Watchdog stall reports (who starved, which channels wedged).
    pub stalls: Vec<StallReport>,
    /// The underlying network statistics (incl. recovery counters).
    pub net: NetworkStats,
}

impl FlowNetReport {
    /// Outcome tag for tables and JSON: `completed`, `livelocked`, or
    /// `progressing_at_cutoff`.
    pub fn outcome(&self) -> &'static str {
        if self.completed {
            "completed"
        } else if self.livelocked {
            "livelocked"
        } else {
            "progressing_at_cutoff"
        }
    }

    /// Aggregate goodput: payload packets delivered in order per
    /// cycle, summed over flows.
    pub fn agg_goodput(&self) -> f64 {
        self.flows.iter().map(|f| f.goodput_ppc).sum()
    }

    /// Corrupted payloads the receivers *accepted* — must stay zero.
    pub fn accepted_corrupt(&self) -> u64 {
        self.flows.iter().map(|f| f.counts.accepted_corrupt).sum()
    }

    /// Payloads delivered to an application more than once — must
    /// stay zero.
    pub fn dup_delivered(&self) -> u64 {
        self.flows.iter().map(|f| f.counts.dup_delivered).sum()
    }

    /// A stall the watchdog flagged but could not attribute: a hard
    /// livelock whose final report names no starved flow. Must never
    /// happen.
    pub fn unnamed_livelock(&self) -> bool {
        self.livelocked && !self.stalls.last().is_some_and(|s| s.hard && !s.starved.is_empty())
    }
}

/// A cycle-level network simulation over a wormhole-routed mesh of
/// [`LinkModel`] channels, in one of two modes:
///
/// * **Open loop** ([`Network::new`] + [`Network::run`]): cores
///   inject packets per a [`TrafficPattern`] at a configured rate.
/// * **Flows** ([`Network::with_flows`] + [`Network::run_flows`]):
///   a [`FlowEngine`] drives windowed end-to-end senders whose acks
///   ride the mesh as ordinary return packets.
///
/// With [`NetworkConfig::faults`] set, every channel runs a seeded
/// dynamic fault process with the NACK/timeout/resync/degrade/fail
/// escalation ladder; per-channel [`RecoveryCounts`] surface in
/// [`NetworkStats::link_recovery`].
pub struct Network {
    cfg: NetworkConfig,
    pattern: TrafficPattern,
    /// Offered load, flits per node per cycle.
    inject_rate: f64,
    rng: StdRng,
    routers: Vec<Router>,
    /// Outgoing channels by dense id ([`Mesh::channel_id`]); `None`
    /// where the port faces the mesh edge.
    channels: Vec<Option<Channel>>,
    inject_q: Vec<VecDeque<Flit>>,
    packets: PacketSlab,
    /// The transport engine (flow mode only).
    flows: Option<FlowEngine>,
    /// The live routing function (used in adaptive mode; rebuilt on
    /// every reconfiguration epoch).
    routes: RouteTable,
    /// Scheduled channel deaths, sorted by cycle; `kill_idx` is the
    /// next one due.
    kills: Vec<LinkKill>,
    kill_idx: usize,
    /// Injection is paused until this cycle (reconfiguration epoch).
    inject_frozen_until: u64,
    cycle: u64,
}

impl Network {
    /// Builds an open-loop network.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configuration (zero-length packets, zero
    /// queues, negative rate, a scheduled kill of a channel the mesh
    /// does not have).
    pub fn new(cfg: NetworkConfig, pattern: TrafficPattern, inject_rate: f64, seed: u64) -> Self {
        assert!(cfg.packet_len_flits >= 1, "packets need at least one flit");
        assert!(cfg.input_queue_flits >= 1, "routers need input buffering");
        assert!(inject_rate >= 0.0, "negative injection rate");
        let mesh = cfg.mesh;
        let nodes = mesh.nodes();
        let routers: Vec<Router> = (0..nodes).map(|_| Router::new(cfg.input_queue_flits)).collect();
        // The protection mode taxes the link: CRC check bytes ride the
        // serial wire, parity rides an extra physical wire.
        let model = match cfg.faults {
            Some(fc) => LinkModel {
                flits_per_cycle: cfg.link.flits_per_cycle * fc.protection.bandwidth_factor(),
                wires: cfg.link.wires + fc.protection.extra_wires(),
                ..cfg.link
            },
            None => cfg.link,
        };
        let channels = (0..4 * nodes)
            .map(|id| {
                let (n, dir) = mesh.channel(id);
                let to = mesh.neighbor(n, dir)?;
                let lossy = cfg.faults.map(|fc| Lossy {
                    dice: FaultDice::new(fc, seed, n.0, dir.index()),
                    consec: 0,
                    head_resyncs: 0,
                    counts: RecoveryCounts::default(),
                });
                Some(Channel::new(model, to, cfg.input_queue_flits, lossy))
            })
            .collect();
        let mut kills = cfg.link_kills.clone();
        kills.sort_by_key(|k| (k.cycle, k.node.0, k.dir.index()));
        for k in &kills {
            // Checked before any id is formed: `node * 4 + dir` would
            // alias a Local kill onto the next node's North channel.
            assert!(
                usize::from(k.node.0) < nodes && mesh.neighbor(k.node, k.dir).is_some(),
                "scheduled kill of a channel that does not exist: {} {:?}",
                k.node,
                k.dir
            );
        }
        Network {
            cfg,
            pattern,
            inject_rate,
            rng: StdRng::seed_from_u64(seed),
            routers,
            channels,
            inject_q: vec![VecDeque::new(); nodes],
            packets: PacketSlab::default(),
            flows: None,
            routes: RouteTable::new(mesh),
            kills,
            kill_idx: 0,
            inject_frozen_until: 0,
            cycle: 0,
        }
    }

    /// Builds a flow-mode network: no open-loop injection; the given
    /// flows drive all traffic.
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint is outside the mesh.
    pub fn with_flows(cfg: NetworkConfig, flows: &FlowConfig, seed: u64) -> Self {
        let nodes = cfg.mesh.nodes() as u16;
        for f in &flows.flows {
            assert!(f.src.0 < nodes && f.dst.0 < nodes, "flow endpoint outside the mesh");
        }
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.0, seed);
        net.flows = Some(FlowEngine::new(flows));
        net
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Runs open loop for `total_cycles` from the current cycle,
    /// measuring after the first `warmup_cycles` of this call, so a
    /// second call on the same network measures only its own window.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_cycles >= total_cycles`.
    pub fn run(&mut self, total_cycles: u64, warmup_cycles: u64) -> NetworkStats {
        assert!(warmup_cycles < total_cycles, "warmup must leave measurement cycles");
        let mut stats = NetworkStats {
            nodes: self.cfg.mesh.nodes(),
            ..NetworkStats::default()
        };
        let measure_from = self.cycle + warmup_cycles;
        for _ in 0..total_cycles {
            let measuring = self.cycle >= measure_from;
            self.step_cycle(&mut stats, measuring);
        }
        stats.cycles = total_cycles - warmup_cycles;
        self.finalize(&mut stats);
        stats
    }

    /// Runs flow mode until every flow completes, the watchdog
    /// declares livelock, or `max_cycles` simulated cycles elapse.
    ///
    /// The run steps by fixpoint: after a step that changed nothing,
    /// `cycle` jumps to the first cycle whose step can differ
    /// (DESIGN.md §5f). Skipped cycles count as simulated in
    /// [`FlowNetReport::cycles`] and [`NetworkStats::cycles`], and every
    /// statistic equals the one stepping each cycle would give;
    /// [`FlowNetReport::stepped_cycles`] counts the steps taken.
    ///
    /// # Panics
    ///
    /// Panics if the network was not built with
    /// [`Network::with_flows`].
    pub fn run_flows(&mut self, max_cycles: u64) -> FlowNetReport {
        assert!(self.flows.is_some(), "run_flows needs a flow-mode network");
        let mut stats = NetworkStats {
            nodes: self.cfg.mesh.nodes(),
            ..NetworkStats::default()
        };
        let start = self.cycle;
        let end = start.saturating_add(max_cycles);
        let mut stepped: u64 = 0;
        while self.cycle < end {
            let changed = self.step_cycle(&mut stats, true);
            stepped += 1;
            if self.flows.as_ref().expect("flow mode").all_complete() {
                break;
            }
            if !changed {
                self.skip_quiet_cycles(end);
            }
            if self.watchdog_declares_livelock() {
                break;
            }
        }
        self.flow_report(stats, self.cycle - start, stepped)
    }

    /// Runs the progress watchdog's check if one falls due at the
    /// current cycle (never with `interval == 0`); returns whether it
    /// declared livelock.
    fn watchdog_declares_livelock(&mut self) -> bool {
        let interval = self.flows.as_ref().expect("flow mode").watchdog_interval();
        if interval == 0 || !self.cycle.is_multiple_of(interval) {
            return false;
        }
        let stalled = self.stalled_channels(interval);
        let engine = self.flows.as_mut().expect("flow mode");
        engine.watchdog_check(self.cycle, stalled);
        engine.livelocked()
    }

    /// Fixpoint stepping, after a step that changed nothing (see
    /// [`Network::step_cycle`]): every later step changes nothing either
    /// until a kill, a head flit's delivery, a `Resyncing` or `Degraded`
    /// expiry, the end of a freeze, a flow send or RTO deadline or a
    /// watchdog check falls due, so `cycle` jumps to the earliest, or
    /// to `end` (DESIGN.md §5f). A head flit already due waits on
    /// downstream space or a closed channel, which only a change opens,
    /// so only heads still to come are wakes. A live channel below its
    /// credit cap changes every cycle, so nothing is skipped until all
    /// sit at the cap. The skipped cycles would only have counted
    /// `degraded_cycles`, added in closed form.
    fn skip_quiet_cycles(&mut self, end: u64) {
        let now = self.cycle;
        let mut wake = end;
        for ch in self.channels.iter().flatten() {
            match ch.state {
                ChannelState::Failed => continue,
                ChannelState::Resyncing { until } | ChannelState::Degraded { until } => {
                    wake = wake.min(until);
                }
                ChannelState::Up => {}
            }
            if ch.rate_credit < CREDIT_CAP {
                return;
            }
            if let Some(&(at, _)) = ch.in_flight.front() {
                if at >= now {
                    wake = wake.min(at);
                }
            }
        }
        if let Some(k) = self.kills.get(self.kill_idx) {
            wake = wake.min(k.cycle);
        }
        if self.inject_frozen_until >= now {
            wake = wake.min(self.inject_frozen_until);
        }
        let engine = self.flows.as_ref().expect("flow mode");
        if let Some(t) = engine.next_deadline(now) {
            wake = wake.min(t);
        }
        let interval = engine.watchdog_interval();
        if interval > 0 {
            wake = wake.min(now.next_multiple_of(interval));
        }
        if wake <= now {
            return;
        }
        for ch in self.channels.iter_mut().flatten() {
            if let (ChannelState::Degraded { until }, Some(l)) = (ch.state, &mut ch.lossy) {
                l.counts.degraded_cycles += until.min(wake).saturating_sub(now);
            }
        }
        self.cycle = wake;
    }

    /// The flow-mode report of a run of `cycles` simulated cycles,
    /// `stepped` of them stepped.
    fn flow_report(&self, mut stats: NetworkStats, cycles: u64, stepped: u64) -> FlowNetReport {
        stats.cycles = cycles;
        self.finalize(&mut stats);
        // Flow mode measures from cycle 0, so the flit conservation
        // law is exact: every injected flit was delivered, stranded
        // by a channel death, or is still queued somewhere.
        assert_eq!(
            stats.injected_flits,
            stats.delivered_flits + stats.stranded_flits + stats.residual_flits,
            "flit conservation violated"
        );
        let engine = self.flows.as_ref().expect("flow mode");
        let flows = engine.stats(cycles);
        let goodputs: Vec<f64> = flows.iter().map(|f| f.goodput_ppc).collect();
        FlowNetReport {
            cycles,
            stepped_cycles: stepped,
            completed: engine.all_complete(),
            livelocked: engine.livelocked(),
            jain: jain_index(&goodputs),
            flows,
            stalls: engine.stalls().to_vec(),
            net: stats,
        }
    }

    /// End-of-run bookkeeping: sort latencies once (quantiles index
    /// directly afterwards), count what is still in the fabric, and
    /// collect the per-channel recovery rows in channel-id, i.e.
    /// `(node, direction)`, order — rows exist for every channel,
    /// all-zero when nothing happened, so loss-free and `p = 0` runs
    /// compare equal field-for-field.
    fn finalize(&self, stats: &mut NetworkStats) {
        stats.finalize_latencies();
        stats.in_flight = self.packets.in_flight();
        // Flits still queued anywhere in the fabric (conservation).
        stats.residual_flits = self
            .routers
            .iter()
            .map(|r| r.occupancy() as u64)
            .sum::<u64>()
            + self.channels.iter().flatten().map(|c| c.in_flight.len() as u64).sum::<u64>()
            + self.inject_q.iter().map(|q| q.len() as u64).sum::<u64>();
        stats.link_recovery = self
            .channels
            .iter()
            .enumerate()
            .filter_map(|(id, ch)| {
                let ch = ch.as_ref()?;
                let (node, dir) = self.cfg.mesh.channel(id);
                let mut counts = ch.lossy.as_ref().map(|l| l.counts).unwrap_or_default();
                // Scheduled kills fail channels without fault
                // machinery, and a retrained channel no longer *is*
                // Failed — the sticky bit surfaces both in the
                // recovery rows.
                counts.failed = counts.failed || ch.ever_failed;
                Some(LinkRecovery { node, dir, counts })
            })
            .collect();
        stats.finalize_recovery();
    }

    /// Channels that look wedged: permanently failed, or holding
    /// flits without delivering for a whole watchdog interval.
    fn stalled_channels(&self, interval: u64) -> Vec<StalledChannel> {
        let now = self.cycle;
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(id, ch)| {
                let ch = ch.as_ref()?;
                let state = ch.state.label();
                let queued = ch.in_flight.len();
                let wedged = state == "failed"
                    || (queued > 0 && now.saturating_sub(ch.last_delivery) >= interval);
                let (from, dir) = self.cfg.mesh.channel(id);
                wedged.then_some(StalledChannel {
                    from,
                    dir,
                    state,
                    queued,
                    last_delivery: ch.last_delivery,
                })
            })
            .collect()
    }

    /// Creates a packet at `from` bound for `to` and feeds its flits
    /// into the source queue.
    fn spawn_packet(&mut self, from: NodeId, to: NodeId, len_flits: u32, tag: Option<FlowTag>) {
        let id = self.packets.insert(PacketSlot {
            inject_cycle: self.cycle,
            corrupt_xor: 0,
            tag,
            stranded: false,
        });
        let pkt = Packet { id, src: from, dst: to, len_flits };
        self.inject_q[from.0 as usize].extend(pkt.flits());
    }

    /// One reconfiguration epoch around the channels that entered
    /// `Failed` this cycle.
    ///
    /// In both routing modes the dead wires are drained: flits caught
    /// mid-flight are gone, and their packets counted stranded (they
    /// used to sit in the dead queue silently — the stranding the
    /// `stranded_flits` counter makes visible).
    ///
    /// In adaptive mode the network additionally performs surgery so
    /// the survivors keep flowing deadlock-free: *every* wormhole lock
    /// is released — a packet whose head had not yet crossed its
    /// locked output is *salvaged* (it simply re-arbitrates on the
    /// rebuilt table), one whose head already crossed is severed and
    /// purged everywhere, because a worm straddling routers drags
    /// pre-epoch channel dependencies that can deadlock against the
    /// rebuilt relation (the transport layer retransmits it over the
    /// new routes). The route table is rebuilt against the full failed
    /// set, heads the new relation cannot route from where they stand
    /// are severed too, and injection pauses for the configured
    /// reconfiguration window. See DESIGN.md §5h.
    /// When even reconfiguration cannot keep every pair routable, the
    /// minimal set of failed channels is *revived* through a deep
    /// retrain instead (counted in `retrained_links`) — a retrained
    /// link stays dark for this many cycles before re-entering
    /// service.
    const RETRAIN_DRAIN: u64 = 256;

    fn handle_failures(&mut self, mut newly: Vec<usize>, stats: &mut NetworkStats) {
        newly.sort_unstable();
        newly.dedup();
        // Drain the dead wires.
        let mut doomed: BTreeSet<PacketId> = BTreeSet::new();
        for &id in &newly {
            let ch = self.channels[id].as_mut().expect("failed channel exists");
            for (_, f) in ch.in_flight.drain(..) {
                stats.stranded_flits += 1;
                doomed.insert(f.packet);
            }
        }
        if !self.cfg.routing.is_adaptive() {
            // Static XY: no reconfiguration. Upstream fragments stay
            // wedged (the pre-reroute livelock behaviour, preserved
            // and pinned by test); only the accounting is new.
            for pid in doomed {
                let slot = self.packets.get_mut(pid);
                if !slot.stranded {
                    slot.stranded = true;
                    stats.stranded_packets += 1;
                }
            }
            return;
        }
        // Every wormhole lock held at the epoch boundary was granted
        // under the pre-failure routing relation, and a worm whose
        // head already crossed the locked output keeps dragging
        // old-relation channel dependencies through the fabric — mixed
        // with the rebuilt relation those can close a deadlock cycle,
        // so such worms are severed. A worm whose head is still queued
        // at the owning input is salvaged: the lock is released and
        // the head re-arbitrates on the rebuilt table, so its entire
        // remaining path obeys the new relation.
        let mut salvage: BTreeSet<PacketId> = BTreeSet::new();
        for r in &mut self.routers {
            for out in Direction::ALL {
                if let Some((pid, head_still_queued)) = r.disown_output(out) {
                    if head_still_queued {
                        salvage.insert(pid);
                    } else {
                        doomed.insert(pid);
                    }
                }
            }
        }
        // Rebuild the table against the full failed set, then doom
        // every head the new relation cannot route from where it
        // stands: a packet's inbound channel may now be classified
        // "down" while its remaining journey needs an "up" move, and
        // such a head would otherwise wait forever.
        let mut failed: Vec<bool> = self
            .channels
            .iter()
            .map(|ch| ch.as_ref().is_some_and(|c| matches!(c.state, ChannelState::Failed)))
            .collect();
        // Last-resort retrain: up*/down* routes every pair only while
        // the surviving directed graph keeps a legal path between all
        // of them. When the failure pattern severs part of the fabric
        // (e.g. both inbound channels of a node die), no route table
        // can save the severed traffic — so rather than abandon a
        // node, the fabric manager revives failed channels one at a
        // time (each greedily chosen to close the most unroutable
        // pairs, ties to the lowest channel id) and puts them back
        // through a deep resync. A retrained link re-enters service
        // with its escalation ladder reset; XY mode never reaches this
        // code, so its livelock is preserved.
        loop {
            self.routes.rebuild(&failed);
            if self.routes.unroutable_pairs() == 0 {
                break;
            }
            let mut probe = RouteTable::new(self.cfg.mesh);
            let mut best: Option<(usize, u32)> = None;
            for id in 0..failed.len() {
                if !failed[id] {
                    continue;
                }
                failed[id] = false;
                probe.rebuild(&failed);
                failed[id] = true;
                let gaps = probe.unroutable_pairs();
                if best.is_none_or(|(_, g)| gaps < g) {
                    best = Some((id, gaps));
                }
            }
            let (id, _) = best.expect("an unroutable table has failed channels");
            failed[id] = false;
            let ch = self.channels[id].as_mut().expect("revived channel exists");
            ch.state = ChannelState::Resyncing { until: self.cycle + Self::RETRAIN_DRAIN };
            if let Some(l) = &mut ch.lossy {
                l.consec = 0;
                l.head_resyncs = 0;
            }
            stats.retrained_links += 1;
        }
        for (idx, r) in self.routers.iter().enumerate() {
            let at = NodeId(idx as u16);
            for (in_port, f) in r.queued_heads() {
                if self.routes.permitted(f.src, at, in_port, f.dst).is_empty() {
                    doomed.insert(f.packet);
                }
            }
        }
        for (id, ch) in self.channels.iter().enumerate() {
            let Some(ch) = ch else { continue };
            let in_port = self.cfg.mesh.channel(id).1.opposite();
            for (_, f) in &ch.in_flight {
                if f.is_head() && self.routes.permitted(f.src, ch.to, in_port, f.dst).is_empty() {
                    doomed.insert(f.packet);
                }
            }
        }
        for (idx, q) in self.inject_q.iter().enumerate() {
            let at = NodeId(idx as u16);
            for f in q {
                if f.is_head()
                    && self.routes.permitted(f.src, at, Direction::Local, f.dst).is_empty()
                {
                    doomed.insert(f.packet);
                }
            }
        }
        for pid in &doomed {
            salvage.remove(pid);
        }
        stats.salvaged_packets += salvage.len() as u64;
        // Purge every trace of the severed packets: router FIFOs and
        // locks, surviving channel queues, source queues, bookkeeping.
        for r in &mut self.routers {
            stats.stranded_flits += r.purge(&doomed);
        }
        for ch in self.channels.iter_mut().flatten() {
            let before = ch.in_flight.len();
            ch.in_flight.retain(|(_, f)| !doomed.contains(&f.packet));
            stats.stranded_flits += (before - ch.in_flight.len()) as u64;
        }
        for q in &mut self.inject_q {
            let before = q.len();
            q.retain(|f| !doomed.contains(&f.packet));
            stats.stranded_flits += (before - q.len()) as u64;
        }
        stats.stranded_packets += doomed.len() as u64;
        for &pid in &doomed {
            self.packets.remove(pid);
        }
        // Open the reconfiguration window (the table itself was
        // rebuilt above, before the routability sweep).
        stats.reconfig_epochs += 1;
        if let RoutingMode::Adaptive { reconfig_pause } = self.cfg.routing {
            self.inject_frozen_until = self.cycle + u64::from(reconfig_pause);
        }
    }

    /// Advances one cycle. Returns whether the step changed anything in
    /// flow mode: a kill, a `Resyncing` or `Degraded` expiry, a delivery
    /// attempt (the only place fault dice roll), a flow send, a
    /// source-queue move or a router move. A wormhole grant alone does
    /// not count: its output stays blocked, and a step after it grants
    /// nothing new, so that step changes nothing. Open loop draws from
    /// its RNG every cycle, which the flag does not track.
    #[allow(clippy::too_many_lines)]
    fn step_cycle(&mut self, stats: &mut NetworkStats, measuring: bool) -> bool {
        let mesh = self.cfg.mesh;
        let now = self.cycle;
        let mut changed = false;

        // 0. Scheduled channel deaths due this cycle.
        let mut newly_failed: Vec<usize> = Vec::new();
        while self.kill_idx < self.kills.len() && self.kills[self.kill_idx].cycle <= now {
            let k = self.kills[self.kill_idx];
            self.kill_idx += 1;
            changed = true;
            let id = mesh.channel_id(k.node, k.dir);
            let ch = self.channels[id].as_mut().expect("kills validated at construction");
            if !matches!(ch.state, ChannelState::Failed) {
                ch.state = ChannelState::Failed;
                ch.ever_failed = true;
                newly_failed.push(id);
            }
        }

        // 1. Channel delivery (in-order, blocked by downstream space),
        //    with the fault process rolled per delivery attempt.
        for (id, ch) in self.channels.iter_mut().enumerate() {
            let Some(ch) = ch else { continue };
            let in_port = mesh.channel(id).1.opposite();
            let router = &mut self.routers[ch.to.0 as usize];
            // Expire transient states.
            let mut open = true;
            match ch.state {
                ChannelState::Failed => open = false,
                ChannelState::Resyncing { until } => {
                    if now >= until {
                        ch.state = ChannelState::Up;
                        changed = true;
                    } else {
                        open = false;
                    }
                }
                ChannelState::Degraded { until } => {
                    if now >= until {
                        ch.state = ChannelState::Up;
                        changed = true;
                    }
                }
                ChannelState::Up => {}
            }
            while open {
                let Some(&(at, flit)) = ch.in_flight.front() else { break };
                if at > now || router.free_slots(in_port) == 0 {
                    break;
                }
                changed = true;
                let upset = match &mut ch.lossy {
                    Some(l) => l.dice.roll(),
                    None => Upset::Clean,
                };
                match upset {
                    Upset::Clean | Upset::Corrupted(_) => {
                        if let Upset::Corrupted(mask) = upset {
                            // Protection missed the upset: the flit is
                            // delivered with payload bits flipped; only
                            // an end-to-end check can catch it now.
                            let l = ch.lossy.as_mut().expect("corruption needs fault state");
                            l.counts.errors += 1;
                            l.counts.undetected += 1;
                            self.packets.get_mut(flit.packet).corrupt_xor ^= mask;
                        }
                        ch.in_flight.pop_front();
                        router.accept(in_port, flit);
                        ch.last_delivery = now;
                        if let Some(l) = &mut ch.lossy {
                            l.consec = 0;
                            l.head_resyncs = 0;
                        }
                    }
                    Upset::Nacked | Upset::TimedOut => {
                        // Detected upset: head-of-line replay after the
                        // discovery delay (NACK flight or timeout
                        // horizon with exponential backoff) plus the
                        // forward flight of the replayed flit.
                        let l = ch.lossy.as_mut().expect("detected upset needs fault state");
                        let cfg = *l.dice.cfg();
                        l.counts.errors += 1;
                        let delay = if upset == Upset::Nacked {
                            l.counts.nacks += 1;
                            NACK_LATENCY
                        } else {
                            l.counts.timeouts += 1;
                            l.dice.timeout_horizon(l.consec)
                        };
                        l.counts.replays += 1;
                        l.consec += 1;
                        ch.in_flight[0].0 = now + delay + u64::from(ch.model.latency_cycles);
                        if l.consec >= RESYNC_AFTER {
                            // Watchdog resync: drain the link and climb
                            // the escalation ladder.
                            l.consec = 0;
                            l.head_resyncs += 1;
                            l.counts.resyncs += 1;
                            let drain_end = now + RESYNC_PENALTY;
                            if cfg.fail_after_resyncs.is_some_and(|n| l.head_resyncs >= n) {
                                ch.state = ChannelState::Failed;
                                ch.ever_failed = true;
                                l.counts.failed = true;
                                newly_failed.push(id);
                            } else if l.head_resyncs >= DEGRADE_AFTER {
                                l.counts.degrades += 1;
                                ch.state = ChannelState::Degraded {
                                    until: drain_end + DEGRADE_CYCLES,
                                };
                            } else {
                                ch.state = ChannelState::Resyncing { until: drain_end };
                            }
                        }
                        open = false;
                    }
                }
            }
            ch.tick(now);
        }

        // 1b. Reconfiguration epoch: strand/salvage around every
        //     channel that died this cycle, then (adaptive mode)
        //     rebuild the route table and pause injection.
        if !newly_failed.is_empty() {
            self.handle_failures(newly_failed, stats);
        }

        // 2. Injection: flow senders or the open-loop pattern.
        if self.flows.is_some() {
            let sends = self.flows.as_mut().expect("flow mode").poll(now);
            changed |= !sends.is_empty();
            for s in sends {
                let len = match s.tag {
                    FlowTag::Payload { .. } => self.cfg.packet_len_flits,
                    FlowTag::Ack { .. } => 1,
                };
                self.spawn_packet(s.from, s.to, len, Some(s.tag));
                if measuring {
                    stats.offered_packets += 1;
                    stats.injected_flits += u64::from(len);
                }
            }
        } else {
            let p_packet = self.inject_rate / self.cfg.packet_len_flits as f64;
            for n in mesh.node_ids() {
                if mesh.nodes() > 1 && self.rng.gen_bool(p_packet.min(1.0)) {
                    let dst = self.pattern.destination(&mesh, n, &mut self.rng);
                    self.spawn_packet(n, dst, self.cfg.packet_len_flits, None);
                    if measuring {
                        stats.offered_packets += 1;
                        stats.injected_flits += u64::from(self.cfg.packet_len_flits);
                    }
                }
            }
        }
        // Move source-queue flits into the routers' Local inputs —
        // unless a reconfiguration epoch has injection paused (senders
        // keep queueing; the fabric interface holds them back).
        if now >= self.inject_frozen_until {
            for n in mesh.node_ids() {
                let r = &mut self.routers[n.0 as usize];
                while r.free_slots(Direction::Local) > 0 {
                    match self.inject_q[n.0 as usize].pop_front() {
                        Some(f) => {
                            r.accept(Direction::Local, f);
                            changed = true;
                        }
                        None => break,
                    }
                }
            }
        }

        // 3. Switch allocation and traversal. The route closure is
        //    the single routing decision point: static XY, or the
        //    adaptive table biased by per-channel health and queue
        //    depth (the link monitors' view).
        let adaptive = self.cfg.routing.is_adaptive();
        for n in mesh.node_ids() {
            let idx = n.0 as usize;
            // An empty router has no head to grant and nothing to
            // forward, and its pointers and locks change only with a
            // flit: its step would move nothing and change nothing.
            if self.routers[idx].occupancy() == 0 {
                continue;
            }
            // Split borrows: collect sendability and health first.
            let mut can = [true; 5];
            let mut score = [0u32; 5];
            for dir in Direction::CARDINAL {
                let ch = self.channels[mesh.channel_id(n, dir)].as_ref();
                can[dir.index()] = ch.is_some_and(Channel::can_accept);
                score[dir.index()] = ch.map_or(ChannelState::Failed.penalty(), |c| {
                    c.state.penalty() + c.in_flight.len() as u32
                });
            }
            let routes = &self.routes;
            let moves = self.routers[idx].step(
                |in_port, flit| {
                    if adaptive {
                        routes.choose(flit.src, n, in_port, flit.dst, |d| score[d.index()])
                    } else {
                        Some(mesh.route_xy(n, flit.dst))
                    }
                },
                |d| can[d.index()],
            );
            changed |= !moves.is_empty();
            for (out, flit) in moves {
                if out == Direction::Local {
                    // Ejected at the destination core.
                    if flit.is_tail() {
                        debug_assert_eq!(flit.dst, n, "packet ejected at wrong node");
                        let pkt = self.packets.remove(flit.packet);
                        if measuring {
                            let lat = now + 1 - pkt.inject_cycle;
                            stats.delivered_packets += 1;
                            stats.latency_sum += lat;
                            stats.latency_max = stats.latency_max.max(lat);
                            stats.latencies.push(lat);
                            if pkt.corrupt_xor != 0 {
                                stats.corrupt_packets += 1;
                            }
                        }
                        if let Some(tag) = pkt.tag {
                            let engine = self.flows.as_mut().expect("tagged packet needs flows");
                            if let Some(ack) = engine.on_delivery(n, tag, pkt.corrupt_xor, now) {
                                self.spawn_packet(ack.from, ack.to, 1, Some(ack.tag));
                                if measuring {
                                    stats.offered_packets += 1;
                                    stats.injected_flits += 1;
                                }
                            }
                        }
                    }
                    if measuring {
                        stats.delivered_flits += 1;
                    }
                } else {
                    self.channels[mesh.channel_id(n, out)]
                        .as_mut()
                        .expect("send over missing channel")
                        .send(now, flit);
                }
            }
        }

        // 4. Return buffer credits for flits the routers consumed: the
        //    credit view is refreshed from actual occupancy (simpler
        //    and equivalent to credit return signalling at this
        //    abstraction level).
        for (id, ch) in self.channels.iter_mut().enumerate() {
            let Some(ch) = ch else { continue };
            let in_port = mesh.channel(id).1.opposite();
            ch.buffer_credits = self.routers[ch.to.0 as usize].free_slots(in_port);
        }

        self.cycle += 1;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChannelProtection, ErrorProcess};
    use crate::flow::{FlowSpec, WatchdogConfig};

    fn base_cfg(link: LinkModel) -> NetworkConfig {
        NetworkConfig {
            mesh: Mesh::new(4, 4),
            link,
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: RoutingMode::XyStatic,
            link_kills: Vec::new(),
        }
    }

    fn lossy_cfg(process: ErrorProcess, protection: ChannelProtection) -> NetworkConfig {
        NetworkConfig {
            faults: Some(ChannelFaults::new(process, protection)),
            ..base_cfg(LinkModel::ideal())
        }
    }

    #[test]
    fn light_load_delivers_everything_quickly() {
        let mut net = Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.05, 7);
        let stats = net.run(4_000, 1_000);
        assert!(stats.delivered_packets > 100, "only {} delivered", stats.delivered_packets);
        // At 5% load a 4x4 mesh is far from saturation: latency near
        // the zero-load bound (a few hops × (1+link latency) + serialization).
        assert!(stats.avg_latency() < 30.0, "latency {}", stats.avg_latency());
        // Delivered ≈ offered (no growing backlog).
        let ratio = stats.delivered_packets as f64 / stats.offered_packets as f64;
        assert!(ratio > 0.9, "backlog building at light load: {ratio}");
    }

    #[test]
    fn a_second_run_measures_only_its_own_window() {
        let mut net =
            Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.2, 7);
        net.run(1_000, 999);
        let second = net.run(1_000, 999);
        assert_eq!(second.cycles, 1);
        // One measured cycle: each node offers at most one packet and
        // ejects at most one flit.
        assert!(second.offered_packets <= 16, "{} packets offered", second.offered_packets);
        assert!(second.throughput_fpnc() <= 1.0, "{} flits/node/cycle", second.throughput_fpnc());
    }

    #[test]
    fn latency_grows_with_load() {
        let lat_at = |rate: f64| {
            let mut net =
                Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, rate, 11);
            net.run(6_000, 2_000).avg_latency()
        };
        let low = lat_at(0.05);
        let high = lat_at(0.55);
        assert!(
            high > low * 1.5,
            "latency did not grow with load: {low} -> {high}"
        );
    }

    #[test]
    fn slow_serial_channel_saturates_earlier() {
        // Serial link at 40% of router bandwidth: accepted throughput
        // must cap well below the parallel link's.
        let serial = LinkModel { latency_cycles: 5, flits_per_cycle: 0.4, wires: 10 };
        let rate = 0.6; // beyond the serial capacity
        let mut par =
            Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, rate, 13);
        let sp = par.run(6_000, 2_000).throughput_fpnc();
        let mut ser = Network::new(base_cfg(serial), TrafficPattern::UniformRandom, rate, 13);
        let ss = ser.run(6_000, 2_000).throughput_fpnc();
        assert!(
            ss < sp * 0.85,
            "serial {ss:.3} should saturate below parallel {sp:.3}"
        );
        assert!(ss > 0.1, "serial network moved almost nothing: {ss:.3}");
    }

    #[test]
    fn transpose_and_hotspot_patterns_deliver() {
        for pat in [
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Hotspot { node: NodeId(0), permille: 300 },
        ] {
            let mut net = Network::new(base_cfg(LinkModel::ideal()), pat, 0.05, 23);
            let stats = net.run(4_000, 1_000);
            assert!(stats.delivered_packets > 50, "{pat:?} delivered {}", stats.delivered_packets);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = Network::new(
                base_cfg(LinkModel::ideal()),
                TrafficPattern::UniformRandom,
                0.2,
                99,
            );
            let s = net.run(3_000, 1_000);
            (s.delivered_packets, s.latency_sum, s.delivered_flits)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn in_flight_counts_the_packets_still_in_the_fabric() {
        // Every packet still in flight holds between one and
        // `packet_len` of the residual flits, warm-up or not; counting
        // warm-up deliveries as in flight breaks the upper bound.
        for warmup in [0, 1_000, 3_000] {
            let mut net =
                Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.05, 7);
            let stats = net.run(4_000, warmup);
            let len = u64::from(base_cfg(LinkModel::ideal()).packet_len_flits);
            assert!(
                stats.residual_flits.div_ceil(len) <= stats.in_flight
                    && stats.in_flight <= stats.residual_flits,
                "warm-up {warmup}: {} in flight for {} residual flits",
                stats.in_flight,
                stats.residual_flits
            );
        }
        // Measured from cycle 0, every packet created was delivered,
        // counted stranded, or is still in flight — XY leaves stranded
        // packets wedged in the fabric, adaptive routing purges them.
        for routing in [RoutingMode::XyStatic, RoutingMode::adaptive()] {
            let cfg = NetworkConfig {
                routing,
                link_kills: kill_row0(1_000),
                ..base_cfg(LinkModel::ideal())
            };
            let stats = Network::new(cfg, TrafficPattern::UniformRandom, 0.3, 31).run(3_000, 0);
            assert!(stats.stranded_packets > 0, "{routing:?}: the kill must strand packets");
            assert_eq!(
                stats.in_flight,
                stats.offered_packets - stats.delivered_packets - stats.stranded_packets,
                "{routing:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn a_kill_on_the_local_port_is_rejected() {
        let kill = LinkKill { cycle: 10, node: NodeId(5), dir: Direction::Local };
        let cfg = NetworkConfig { link_kills: vec![kill], ..base_cfg(LinkModel::ideal()) };
        let _ = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn a_kill_off_the_mesh_is_rejected() {
        // Node 16 is one past the 4x4 mesh, yet its coordinates (0, 4)
        // give it a North neighbour (node 12), and its channel id lies
        // past the channel vector.
        let kill = LinkKill { cycle: 10, node: NodeId(16), dir: Direction::North };
        let cfg = NetworkConfig { link_kills: vec![kill], ..base_cfg(LinkModel::ideal()) };
        let _ = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 1);
    }

    #[test]
    fn zero_rate_idles() {
        let mut net =
            Network::new(base_cfg(LinkModel::ideal()), TrafficPattern::UniformRandom, 0.0, 1);
        let stats = net.run(1_000, 100);
        assert_eq!(stats.delivered_packets, 0);
        assert_eq!(stats.offered_packets, 0);
    }

    #[test]
    fn error_free_lossy_network_matches_loss_free_exactly() {
        // p = 0 with no bandwidth tax: the lossy path must be
        // cycle-identical to faults = None, down to every counter.
        let run = |cfg: NetworkConfig| {
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.2, 99);
            net.run(3_000, 1_000)
        };
        let clean = run(base_cfg(LinkModel::ideal()));
        let lossless =
            run(lossy_cfg(ErrorProcess::Iid { p: 0.0 }, ChannelProtection::Off));
        assert_eq!(clean, lossless);
        assert!(clean.recovery.counts.is_quiet());
        assert_eq!(clean.link_recovery.len(), 48, "4x4 mesh has 48 directed channels");
    }

    #[test]
    fn lossy_channels_replay_and_still_deliver() {
        let mut net = Network::new(
            lossy_cfg(ErrorProcess::Iid { p: 0.05 }, ChannelProtection::Crc8),
            TrafficPattern::UniformRandom,
            0.05,
            17,
        );
        let stats = net.run(6_000, 1_000);
        assert!(stats.delivered_packets > 100, "delivered {}", stats.delivered_packets);
        assert!(stats.recovery.counts.errors > 50, "errors {}", stats.recovery.counts.errors);
        assert_eq!(
            stats.recovery.counts.replays,
            stats.recovery.counts.nacks + stats.recovery.counts.timeouts
        );
        assert_eq!(stats.recovery.counts.undetected, 0, "CRC-8 detects everything");
        assert_eq!(stats.corrupt_packets, 0);
        assert_eq!(stats.recovery.failed_links, 0);
    }

    #[test]
    fn unprotected_channels_deliver_silent_corruption() {
        let mut net = Network::new(
            lossy_cfg(ErrorProcess::Iid { p: 0.05 }, ChannelProtection::Off),
            TrafficPattern::UniformRandom,
            0.05,
            17,
        );
        let stats = net.run(6_000, 1_000);
        assert!(stats.delivered_packets > 100);
        assert!(stats.recovery.counts.undetected > 50);
        assert_eq!(stats.recovery.counts.replays, 0, "nothing detected, nothing replayed");
        assert!(stats.corrupt_packets > 0, "corruption must surface at ejection");
    }

    #[test]
    fn bursty_errors_escalate_to_resync_and_degrade() {
        // A vicious burst process: long bad states erroring always.
        let process = ErrorProcess::GilbertElliott {
            p_good: 0.0,
            p_bad: 0.95,
            good_to_bad: 0.02,
            bad_to_good: 0.02,
        };
        let mut net = Network::new(
            lossy_cfg(process, ChannelProtection::Crc8),
            TrafficPattern::UniformRandom,
            0.1,
            23,
        );
        let stats = net.run(20_000, 1_000);
        assert!(stats.recovery.counts.resyncs > 0, "bursts must trigger resyncs");
        assert!(stats.recovery.counts.degrades > 0, "stuck heads must degrade");
        assert!(stats.recovery.counts.degraded_cycles > 0);
        assert!(stats.delivered_packets > 50, "the network must still make progress");
    }

    #[test]
    fn permanent_failure_kills_the_channel_but_not_the_run() {
        let faults = ChannelFaults::new(
            ErrorProcess::GilbertElliott {
                p_good: 0.0,
                p_bad: 1.0,
                good_to_bad: 0.01,
                bad_to_good: 0.001,
            },
            ChannelProtection::Crc8,
        )
        .with_permanent_failure(2);
        let cfg = NetworkConfig { faults: Some(faults), ..base_cfg(LinkModel::ideal()) };
        // Measure from cycle 0: the interesting claim is that traffic
        // moved *before* the storm killed the links and the rest of
        // the mesh kept routing after.
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 31);
        let stats = net.run(30_000, 0);
        assert!(stats.recovery.failed_links > 0, "the storm must kill at least one link");
        assert!(stats.recovery.counts.failed);
        // Failed links strand in-flight packets but the rest routes
        // on; the stranding is no longer silent — flits caught on the
        // dead wires are counted.
        assert!(stats.delivered_packets > 0);
        assert!(
            stats.in_flight + stats.stranded_packets > 0,
            "packets behind a dead link stay stranded"
        );
        assert!(stats.stranded_flits > 0, "the dead wires held flits");
    }

    #[test]
    fn flows_complete_on_a_clean_network() {
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 50 },
            FlowSpec { src: NodeId(3), dst: NodeId(12), packets: 50 },
        ]);
        let mut net = Network::with_flows(base_cfg(LinkModel::ideal()), &flows, 5);
        let report = net.run_flows(200_000);
        assert!(report.completed, "clean flows must finish");
        assert!(!report.livelocked);
        for f in &report.flows {
            assert_eq!(f.delivered, 50);
            assert_eq!(f.acked, 50);
            assert_eq!(f.counts.dup_delivered, 0);
            assert_eq!(f.counts.accepted_corrupt, 0);
            assert_eq!(f.counts.corrupt_payloads, 0);
        }
        assert!(report.jain > 0.9, "symmetric flows should share fairly: {}", report.jain);
        assert!(report.stalls.is_empty(), "no stalls on a clean network");
    }

    #[test]
    fn flows_survive_a_lossy_network_exactly_once() {
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 40 },
            FlowSpec { src: NodeId(12), dst: NodeId(3), packets: 40 },
        ]);
        let cfg = lossy_cfg(ErrorProcess::bursty(0.05, 0.6, 0.05), ChannelProtection::Parity);
        let mut net = Network::with_flows(cfg, &flows, 77);
        let report = net.run_flows(500_000);
        assert!(report.completed, "flows must heal through the storm");
        for f in &report.flows {
            assert_eq!(f.delivered, 40, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
            assert_eq!(f.counts.accepted_corrupt, 0, "corruption accepted");
        }
        // Parity misses ~10% of upsets: the end-to-end check must have
        // actually caught some corrupted payloads for this test to
        // mean anything.
        let e2e_catches: u64 = report.flows.iter().map(|f| f.counts.corrupt_payloads).sum();
        let retx: u64 = report.flows.iter().map(|f| f.counts.retx).sum();
        assert!(retx > 0, "a lossy run without retransmissions proves nothing");
        assert!(
            e2e_catches > 0 || report.net.recovery.counts.undetected == 0,
            "undetected upsets on payloads must be caught end-to-end"
        );
    }

    #[test]
    fn watchdog_names_flows_starved_by_a_dead_link() {
        // Kill channels fast and certainly: every flit errors, so the
        // first heads hit the resync ladder and the links die. The
        // flows can never complete; the watchdog must name them and
        // abort instead of hanging until max_cycles.
        let faults = ChannelFaults::new(ErrorProcess::Iid { p: 1.0 }, ChannelProtection::Crc8)
            .with_permanent_failure(1);
        let cfg = NetworkConfig { faults: Some(faults), ..base_cfg(LinkModel::ideal()) };
        let flows = FlowConfig::new(vec![FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 10 }]);
        let mut net = Network::with_flows(cfg, &flows, 3);
        let report = net.run_flows(2_000_000);
        assert!(!report.completed);
        assert!(report.livelocked, "the watchdog must declare livelock");
        assert!(report.cycles < 2_000_000, "and abort early");
        let last = report.stalls.last().expect("livelock must come with a report");
        assert!(last.hard);
        assert_eq!(last.starved.len(), 1);
        assert_eq!(last.starved[0].src, NodeId(0));
        assert!(
            last.stalled_channels.iter().any(|c| c.state == "failed"),
            "the dead channel must be named: {:?}",
            last.stalled_channels
        );
        assert!(report.net.recovery.failed_links > 0);
    }

    /// Flows whose XY paths cross row 0 between columns 1 and 2, in
    /// both directions — a single dead physical link starves both.
    fn row0_flows() -> FlowConfig {
        FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
            FlowSpec { src: NodeId(3), dst: NodeId(12), packets: 30 },
        ])
    }

    fn kill_row0(cycle: u64) -> Vec<LinkKill> {
        LinkKill::both_ways(&Mesh::new(4, 4), cycle, NodeId(1), Direction::East).to_vec()
    }

    #[test]
    fn adaptive_routing_survives_a_scheduled_link_kill() {
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kill_row0(100),
            ..base_cfg(LinkModel::ideal())
        };
        let mut net = Network::with_flows(cfg, &row0_flows(), 9);
        let report = net.run_flows(300_000);
        assert!(report.completed, "rerouting must carry the flows around the dead link");
        assert!(!report.livelocked);
        for f in &report.flows {
            assert_eq!(f.delivered, 30, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
            assert_eq!(f.counts.accepted_corrupt, 0);
        }
        assert!(report.net.reconfig_epochs >= 1, "the kill must trigger an epoch");
        assert_eq!(report.net.recovery.failed_links, 2, "both directions died");
    }

    #[test]
    fn xy_static_livelocks_at_the_same_scheduled_kill() {
        // The twin of the test above with rerouting disabled: the old
        // behaviour — flows starve behind the dead row-0 link and the
        // watchdog names them — is pinned, not silently changed.
        let cfg = NetworkConfig { link_kills: kill_row0(100), ..base_cfg(LinkModel::ideal()) };
        let mut net = Network::with_flows(cfg, &row0_flows(), 9);
        let report = net.run_flows(300_000);
        assert!(!report.completed, "static XY has no way around the dead row");
        assert!(report.livelocked, "the watchdog must declare livelock");
        let last = report.stalls.last().expect("livelock must come with a report");
        assert!(last.hard);
        assert!(!last.starved.is_empty(), "the starved flows must be named");
        assert!(
            last.stalled_channels.iter().any(|c| c.state == "failed"),
            "the dead channel must be named: {:?}",
            last.stalled_channels
        );
        assert_eq!(report.net.reconfig_epochs, 0, "XY never reconfigures");
        assert!(report.net.residual_flits > 0, "wedged flits stay in the fabric");
    }

    #[test]
    fn adaptive_salvage_and_strand_counters_are_consistent() {
        // Open-loop traffic with a mid-run kill: every stranded flit
        // and packet is accounted, and the table rebuilt exactly once.
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kill_row0(1_000),
            ..base_cfg(LinkModel::ideal())
        };
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.2, 31);
        let stats = net.run(6_000, 0);
        assert_eq!(stats.reconfig_epochs, 1);
        assert_eq!(stats.recovery.failed_links, 2);
        assert!(stats.delivered_packets > 100, "the mesh keeps routing after the kill");
        assert_eq!(
            stats.injected_flits,
            stats.delivered_flits + stats.stranded_flits + stats.residual_flits,
            "flit conservation violated"
        );
    }

    #[test]
    fn severing_a_node_triggers_the_last_resort_retrain() {
        // Kill BOTH links adjacent to corner node 0: no failure-set
        // subset keeps it reachable, so reconfiguration alone cannot
        // route around the hole. The fabric manager must revive
        // channels through the deep retrain and the flows must still
        // complete exactly once.
        let mesh = Mesh::new(4, 4);
        let mut kills = LinkKill::both_ways(&mesh, 150, NodeId(0), Direction::East).to_vec();
        kills.extend(LinkKill::both_ways(&mesh, 150, NodeId(0), Direction::South));
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kills,
            ..base_cfg(LinkModel::ideal())
        };
        let flows = FlowConfig::new(vec![
            FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
            FlowSpec { src: NodeId(15), dst: NodeId(0), packets: 30 },
        ]);
        let mut net = Network::with_flows(cfg, &flows, 9);
        let report = net.run_flows(300_000);
        assert!(report.completed, "retrained links must keep the severed corner alive");
        for f in &report.flows {
            assert_eq!(f.delivered, 30, "flow {:?}", f.flow);
            assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
        }
        assert!(
            report.net.retrained_links >= 2,
            "isolating a corner needs at least one revived link per direction, got {}",
            report.net.retrained_links
        );
        assert_eq!(report.net.recovery.failed_links, 4, "all four kills are recorded");
    }

    #[test]
    fn retrain_ties_go_to_the_lowest_channel_id() {
        // Kill every channel into interior node 5: reviving any one of
        // the four reconnects it, so the greedy choice is a four-way
        // tie, and it must fall to the lowest id, 1→South (the order a
        // sorted failed set iterates in), not to a later one.
        let mesh = Mesh::new(4, 4);
        let kills = Direction::CARDINAL
            .into_iter()
            .map(|d| {
                let from = mesh.neighbor(NodeId(5), d).expect("interior node");
                LinkKill { cycle: 50, node: from, dir: d.opposite() }
            })
            .collect();
        let cfg = NetworkConfig {
            routing: RoutingMode::adaptive(),
            link_kills: kills,
            ..base_cfg(LinkModel::ideal())
        };
        let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.1, 3);
        assert_eq!(net.run(200, 0).retrained_links, 1);
        let revived: Vec<usize> = (0..net.channels.len())
            .filter(|&id| {
                net.channels[id]
                    .as_ref()
                    .is_some_and(|c| c.ever_failed && !matches!(c.state, ChannelState::Failed))
            })
            .collect();
        assert_eq!(revived, [mesh.channel_id(NodeId(1), Direction::South)]);
    }

    /// `run_flows` without fixpoint stepping: every cycle stepped. The
    /// reference the skip is checked against.
    fn run_flows_every_cycle(net: &mut Network, max_cycles: u64) -> FlowNetReport {
        let mut stats = NetworkStats { nodes: net.cfg.mesh.nodes(), ..NetworkStats::default() };
        let start = net.cycle;
        while net.cycle < start + max_cycles {
            net.step_cycle(&mut stats, true);
            if net.flows.as_ref().expect("flow mode").all_complete()
                || net.watchdog_declares_livelock()
            {
                break;
            }
        }
        let cycles = net.cycle - start;
        net.flow_report(stats, cycles, cycles)
    }

    /// A random flow-mode run on the 4×4 mesh, drawn from `seed`: every
    /// knob that feeds a wake or the credit guard varies. Returns the
    /// network and its `max_cycles`.
    fn random_flow_run(seed: u64) -> (Network, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mesh = Mesh::new(4, 4);
        let permille = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..hi)) / 1e3;
        let kills = (0..rng.gen_range(0..5))
            .map(|_| {
                let node = NodeId(rng.gen_range(0..16));
                let dir = Direction::CARDINAL[rng.gen_range(0..4)];
                // An edge port's opposite always leads into a 4×4 mesh.
                let dir = if mesh.neighbor(node, dir).is_some() { dir } else { dir.opposite() };
                LinkKill { cycle: rng.gen_range(0..3_001), node, dir }
            })
            .collect();
        // Long bad states push channels up the resync/degrade ladder.
        let process = match rng.gen_range(0..5) {
            0 => None,
            1 => Some(ErrorProcess::Iid { p: permille(&mut rng, 0, 200) }),
            2 => Some(ErrorProcess::bursty(permille(&mut rng, 0, 300), 0.6, 0.05)),
            _ => Some(ErrorProcess::GilbertElliott {
                p_good: permille(&mut rng, 0, 50),
                p_bad: permille(&mut rng, 500, 1_001),
                good_to_bad: permille(&mut rng, 0, 50),
                bad_to_good: permille(&mut rng, 1, 100),
            }),
        };
        let protections = [ChannelProtection::Off, ChannelProtection::Parity, ChannelProtection::Crc8];
        let faults = process.map(|p| {
            let faults = ChannelFaults::new(p, protections[rng.gen_range(0..3)]);
            match rng.gen_range(0..4) {
                0 => faults,
                n => faults.with_permanent_failure(n),
            }
        });
        let routing = if rng.gen() {
            RoutingMode::XyStatic
        } else {
            RoutingMode::Adaptive { reconfig_pause: rng.gen_range(0..300) }
        };
        // Serial links bank credit below one flit per cycle, so the
        // credit guard matters on them.
        let link = if rng.gen() {
            LinkModel::ideal()
        } else {
            LinkModel {
                latency_cycles: rng.gen_range(1..7),
                flits_per_cycle: permille(&mut rng, 150, 1_000),
                wires: 10,
            }
        };
        let cfg = NetworkConfig {
            mesh,
            link,
            input_queue_flits: rng.gen_range(2..9),
            packet_len_flits: rng.gen_range(1..5),
            faults,
            routing,
            link_kills: kills,
        };
        let specs = (0..rng.gen_range(1..5))
            .map(|_| {
                let src = rng.gen_range(0..16);
                let dst = (src + rng.gen_range(1..16)) % 16;
                FlowSpec { src: NodeId(src), dst: NodeId(dst), packets: rng.gen_range(1..41) }
            })
            .collect();
        let mut flows = FlowConfig::new(specs);
        flows.watchdog = WatchdogConfig {
            interval: [0, 0, 1, 64, 512, 1_024, 4_096, 4_096][rng.gen_range(0..8)],
            hard_stall_checks: rng.gen_range(1..9),
        };
        let max_cycles = rng.gen_range(1..30_000);
        (Network::with_flows(cfg, &flows, rng.gen()), max_cycles)
    }

    #[test]
    fn fixpoint_stepping_matches_stepping_every_cycle() {
        // Reports compare as `Debug` text: `jain` is NaN when no flow
        // delivers, and NaN != NaN.
        let (mut simulated, mut stepped) = (0, 0);
        for case in 0..32 {
            let (mut net, max_cycles) = random_flow_run(case);
            let skipped = net.run_flows(max_cycles);
            let (mut net, _) = random_flow_run(case);
            let every = run_flows_every_cycle(&mut net, max_cycles);
            assert!(skipped.stepped_cycles <= skipped.cycles, "case {case}");
            simulated += skipped.cycles;
            stepped += skipped.stepped_cycles;
            let skipped = FlowNetReport { stepped_cycles: every.stepped_cycles, ..skipped };
            let (a, b) = (format!("{skipped:#?}"), format!("{every:#?}"));
            if let Some((x, y)) = a.lines().zip(b.lines()).find(|(x, y)| x != y) {
                panic!("case {case}: skipping gives `{x}`, stepping every cycle `{y}`");
            }
            assert_eq!(a, b, "case {case}");
        }
        assert!(stepped * 2 < simulated, "the skip barely fired: {stepped} of {simulated} stepped");
    }

    #[test]
    fn a_zero_watchdog_interval_disables_the_watchdog() {
        // The XY twin of the scheduled kill starves its flows; with no
        // watchdog the run neither reports nor aborts, and it lasts
        // until `max_cycles`, mostly skipped.
        let cfg = NetworkConfig { link_kills: kill_row0(100), ..base_cfg(LinkModel::ideal()) };
        let mut flows = row0_flows();
        flows.watchdog.interval = 0;
        let report = Network::with_flows(cfg, &flows, 9).run_flows(200_000);
        assert!(!report.completed && !report.livelocked);
        assert!(report.stalls.is_empty(), "no check ever ran");
        assert_eq!(report.cycles, 200_000);
        assert!(report.stepped_cycles < 20_000, "{} cycles stepped", report.stepped_cycles);
    }

    #[test]
    fn flow_runs_are_deterministic_given_seed() {
        let run = || {
            let flows = FlowConfig::new(vec![
                FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 30 },
                FlowSpec { src: NodeId(5), dst: NodeId(10), packets: 30 },
            ]);
            let cfg = lossy_cfg(ErrorProcess::Iid { p: 0.03 }, ChannelProtection::Crc8);
            let mut net = Network::with_flows(cfg, &flows, 41);
            net.run_flows(500_000)
        };
        assert_eq!(run(), run());
    }
}
