//! End-to-end flows over the mesh: windowed senders, cumulative acks,
//! retransmission timers, AIMD congestion control, and a progress
//! watchdog.
//!
//! The lossy channels of [`crate::fault`] retry, resync and degrade
//! *locally*; this module adds the layer that survives what the links
//! cannot hide. Each [`FlowSpec`] is a reliable byte-stream stand-in:
//! a source core sends `packets` sequence-numbered payload packets to
//! a destination core, which delivers them in order exactly once and
//! returns cumulative acknowledgements as ordinary single-flit
//! packets riding the reverse mesh paths (acks share the network with
//! the data and feel the same storms — there is no magic side
//! channel).
//!
//! The sender machinery is the classical reliable-transport kernel:
//!
//! * **Windowed transmission** — at most `⌊cwnd⌋` unacknowledged
//!   packets in flight.
//! * **AIMD** — each cumulative ack that advances grows `cwnd` by
//!   `acked/cwnd` (≈ +1 packet per round trip); each retransmission
//!   timeout halves it (multiplicative decrease, floor 1).
//! * **Retransmission timers with exponential backoff** — the
//!   retransmit timeout adapts to the measured round trip
//!   (Jacobson/Karn: smoothed RTT + 4× deviation, samples only from
//!   unretransmitted packets) and doubles per consecutive timeout.
//! * **End-to-end integrity** — every payload carries a
//!   seed-derived check word; undetected channel corruption flips
//!   payload bits, the receiver recomputes the expected word, drops
//!   the damaged packet, and lets the retransmission machinery heal
//!   the hole. Acks carry a self-check so a corrupted ack is dropped
//!   rather than trusted. Duplicates (a retransmission racing its own
//!   ack) are absorbed by the receiver's out-of-order buffer: the
//!   application sees every sequence number exactly once.
//!
//! Under [`crate::RoutingMode::Adaptive`] this layer also recovers
//! the packets a reconfiguration epoch strands: a worm severed by a
//! dying channel simply never acks, the retransmission timer fires,
//! and the resent copy takes the rebuilt routes — the receiver's
//! dedup keeps delivery exactly-once across the reroute (see
//! DESIGN.md §5h).
//!
//! The progress watchdog ([`WatchdogConfig`]) closes the loop on the
//! failure modes the protocol *cannot* heal (a permanently failed
//! channel on the only path static XY ever offers): every `interval`
//! cycles it compares cumulative acks against the last check and,
//! when flows starve, emits a [`StallReport`] naming the starved flows
//! (with their whole sender state) and the stalled channels. A run
//! whose every flow stops progressing for
//! [`WatchdogConfig::hard_stall_checks`] consecutive checks is
//! declared livelocked and aborted — diagnosed, never hung.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Direction, NodeId};

/// Flow identifier (index into the flow table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// One end-to-end flow: `packets` reliable, in-order payload packets
/// from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source core.
    pub src: NodeId,
    /// Destination core.
    pub dst: NodeId,
    /// Payload packets to deliver.
    pub packets: u64,
}

/// Initial congestion window, packets.
const INIT_CWND: f64 = 2.0;
/// Window cap, packets.
const MAX_CWND: f64 = 32.0;
/// Initial retransmit timeout before any RTT sample, cycles.
const RTO_INIT: u64 = 400;
/// Lower clamp on the adaptive RTO, cycles.
const RTO_MIN: u64 = 64;
/// Upper clamp on the backed-off RTO, cycles.
const RTO_MAX: u64 = 16_384;

/// Progress-watchdog knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycles between progress checks; 0 disables the watchdog (no
    /// check ever fires, so a starved run lasts until `max_cycles`).
    pub interval: u64,
    /// Consecutive checks with zero progress on *every* incomplete
    /// flow before the run is declared livelocked.
    pub hard_stall_checks: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig { interval: 1_024, hard_stall_checks: 3 }
    }
}

/// A complete flow workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// Watchdog knobs.
    pub watchdog: WatchdogConfig,
}

impl FlowConfig {
    /// A workload with the default watchdog.
    ///
    /// # Panics
    ///
    /// Panics if any flow is empty or self-addressed.
    pub fn new(flows: Vec<FlowSpec>) -> Self {
        for (i, f) in flows.iter().enumerate() {
            assert!(f.packets >= 1, "flow {i} has no payload");
            assert!(f.src != f.dst, "flow {i} is self-addressed ({})", f.src);
        }
        FlowConfig { flows, watchdog: WatchdogConfig::default() }
    }
}

/// The flow-level content of a network packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTag {
    /// A payload packet.
    Payload {
        /// Owning flow.
        flow: FlowId,
        /// Sequence number, 0-based.
        seq: u64,
        /// The payload check word ([`payload_word`]).
        payload: u64,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// Owning flow.
        flow: FlowId,
        /// Next expected sequence number at the receiver.
        cum: u64,
        /// Self-check word ([`ack_check`]).
        check: u64,
    },
}

/// splitmix64 — bijective 64-bit mixer, the integrity oracle's core.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic payload word of `(flow, seq)`: sender emits it,
/// receiver recomputes it — any in-flight bit flip breaks equality.
pub fn payload_word(flow: FlowId, seq: u64) -> u64 {
    splitmix64((u64::from(flow.0) << 40) ^ seq)
}

/// The ack self-check word: `splitmix64` is a bijection, so any
/// corruption of `cum` changes the expected check — a single shared
/// bit flip can never stay self-consistent.
pub fn ack_check(flow: FlowId, cum: u64) -> u64 {
    splitmix64((u64::from(flow.0) << 40) ^ cum ^ 0x5DEE_CE66_D1CE_5EED)
}

/// What the engine wants injected into the mesh this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSend {
    /// Injecting node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Flow-level content.
    pub tag: FlowTag,
}

/// Per-flow transport counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounts {
    /// Payload packets first-transmitted.
    pub sent: u64,
    /// Payload retransmissions.
    pub retx: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Acks received that advanced nothing (old or duplicate).
    pub stale_acks: u64,
    /// Acks dropped for failing their self-check (corrupted).
    pub corrupt_acks: u64,
    /// Duplicate payload receptions absorbed at the receiver.
    pub dup_rx: u64,
    /// Payloads dropped at the receiver for failing the end-to-end
    /// check (undetected channel corruption caught here).
    pub corrupt_payloads: u64,
    /// Corrupted payloads the receiver *accepted* — must stay zero;
    /// a nonzero value means the end-to-end check has a hole.
    pub accepted_corrupt: u64,
    /// Payload packets delivered to the application more than once —
    /// must stay zero.
    pub dup_delivered: u64,
}

/// Sender-side state of one flow.
#[derive(Debug)]
struct Sender {
    spec: FlowSpec,
    /// Congestion window, packets (AIMD).
    cwnd: f64,
    /// Next fresh sequence number.
    next_seq: u64,
    /// Cumulative ack: everything below is delivered.
    cum_acked: u64,
    /// In-flight metadata: seq → (first_sent, retransmissions).
    outstanding: BTreeMap<u64, (u64, u32)>,
    /// Smoothed RTT (cycles), once sampled.
    srtt: Option<f64>,
    rttvar: f64,
    /// Base adaptive RTO, cycles.
    rto: u64,
    /// Consecutive-timeout exponent (exponential backoff).
    backoff: u32,
    /// Absolute deadline of the retransmit timer, if armed.
    deadline: Option<u64>,
    /// Cycle the flow completed (all packets acked), if it did.
    completed_at: Option<u64>,
    /// The flow's transport counters, both ends' (the receiver counts
    /// into its sender's).
    counts: FlowCounts,
}

impl Sender {
    fn new(spec: FlowSpec) -> Self {
        Sender {
            spec,
            cwnd: INIT_CWND,
            next_seq: 0,
            cum_acked: 0,
            outstanding: BTreeMap::new(),
            srtt: None,
            rttvar: 0.0,
            rto: RTO_INIT,
            backoff: 0,
            deadline: None,
            completed_at: None,
            counts: FlowCounts::default(),
        }
    }

    fn complete(&self) -> bool {
        self.cum_acked >= self.spec.packets
    }

    /// The effective (backed-off) RTO. `backoff` is capped at 16, so
    /// the multiplier `2^backoff` always fits.
    fn rto_eff(&self) -> u64 {
        self.rto.saturating_mul(1 << self.backoff).min(RTO_MAX)
    }

    fn window(&self) -> u64 {
        (self.cwnd.floor() as u64).max(1)
    }

    /// Room in the window for a fresh transmission.
    fn window_open(&self) -> bool {
        self.next_seq < self.spec.packets && self.next_seq - self.cum_acked < self.window()
    }

    /// The earliest cycle at or after `from` whose `poll` transmits,
    /// provided nothing is acked before then: `poll`'s two predicates
    /// solved for time.
    fn next_deadline(&self, from: u64) -> Option<u64> {
        if self.complete() {
            None
        } else if self.window_open() {
            Some(from)
        } else {
            self.deadline.map(|d| d.max(from))
        }
    }

    /// Timer + window pass: returns the sequence numbers to transmit
    /// now.
    fn poll(&mut self, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if self.complete() {
            return out;
        }
        // 1. Timer: retransmit the earliest unacked packet, halve the
        //    window, double the horizon.
        if self.deadline.is_some_and(|d| d <= now) {
            self.counts.timeouts += 1;
            self.cwnd = (self.cwnd / 2.0).max(1.0);
            self.backoff = (self.backoff + 1).min(16);
            if let Some((&seq, (_, retx))) = self.outstanding.iter_mut().next() {
                debug_assert_eq!(seq, self.cum_acked, "earliest unacked is the cumulative edge");
                *retx += 1;
                self.counts.retx += 1;
                out.push(seq);
            }
            self.deadline = Some(now + self.rto_eff());
        }
        // 2. Window space: fresh transmissions.
        while self.window_open() {
            self.outstanding.insert(self.next_seq, (now, 0));
            out.push(self.next_seq);
            self.next_seq += 1;
            self.counts.sent += 1;
            if self.deadline.is_none() {
                self.deadline = Some(now + self.rto_eff());
            }
        }
        out
    }

    /// Processes a (validated) cumulative ack.
    fn on_ack(&mut self, cum: u64, now: u64) {
        if cum <= self.cum_acked {
            self.counts.stale_acks += 1;
            return;
        }
        let cum = cum.min(self.spec.packets);
        // Karn: sample RTT only from an unretransmitted packet.
        if let Some(&(first_sent, retx)) = self.outstanding.get(&(cum - 1)) {
            if retx == 0 {
                let sample = (now - first_sent) as f64;
                match self.srtt {
                    None => {
                        self.srtt = Some(sample);
                        self.rttvar = sample / 2.0;
                    }
                    Some(srtt) => {
                        self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                        self.srtt = Some(0.875 * srtt + 0.125 * sample);
                    }
                }
                let rto = self.srtt.unwrap_or(sample) + 4.0 * self.rttvar;
                self.rto = (rto as u64).clamp(RTO_MIN, RTO_MAX);
            }
        }
        let acked = cum - self.cum_acked;
        self.outstanding = self.outstanding.split_off(&cum);
        self.cum_acked = cum;
        self.backoff = 0;
        // Additive increase: ≈ +1 packet per round trip.
        self.cwnd = (self.cwnd + acked as f64 / self.cwnd).min(MAX_CWND);
        if self.complete() {
            self.completed_at = Some(now);
            self.deadline = None;
        } else if self.outstanding.is_empty() {
            self.deadline = None;
        } else {
            self.deadline = Some(now + self.rto_eff());
        }
    }
}

/// Receiver-side state of one flow.
#[derive(Debug, Default)]
struct Receiver {
    /// Next expected sequence number (everything below delivered).
    cum: u64,
    /// Out-of-order packets parked above the cumulative edge.
    ooo: BTreeSet<u64>,
    /// Sequence numbers handed to the application (for the
    /// exactly-once audit).
    delivered: u64,
}

impl Receiver {
    /// Accepts an intact payload: a duplicate is counted and absorbed,
    /// anything else parks until the cumulative edge reaches it.
    fn on_payload(&mut self, seq: u64, counts: &mut FlowCounts) {
        if seq < self.cum || self.ooo.contains(&seq) {
            counts.dup_rx += 1;
            return;
        }
        self.ooo.insert(seq);
        while self.ooo.remove(&self.cum) {
            self.cum += 1;
            self.delivered += 1;
        }
    }
}

/// One starved flow in a [`StallReport`], with the sender state a
/// post-mortem needs.
#[derive(Debug, Clone, PartialEq)]
pub struct StarvedFlow {
    /// Which flow.
    pub flow: FlowId,
    /// Endpoints.
    pub src: NodeId,
    /// Endpoints.
    pub dst: NodeId,
    /// Cumulative ack when the watchdog fired.
    pub cum_acked: u64,
    /// Of how many packets.
    pub packets: u64,
    /// Congestion window at the time.
    pub cwnd: f64,
    /// Effective (backed-off) RTO, cycles.
    pub rto_eff: u64,
    /// Consecutive-timeout backoff exponent.
    pub backoff: u32,
    /// Total retransmissions so far.
    pub retx: u64,
}

/// One stalled channel in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledChannel {
    /// Upstream node of the channel.
    pub from: NodeId,
    /// Direction it points.
    pub dir: Direction,
    /// Channel state label (`up`/`resyncing`/`degraded`/`failed`).
    pub state: &'static str,
    /// Flits stuck in flight.
    pub queued: usize,
    /// Last cycle the channel delivered anything.
    pub last_delivery: u64,
}

/// A watchdog finding: who starved and what stalled.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Cycle the check fired.
    pub cycle: u64,
    /// Incomplete flows whose cumulative ack did not advance over the
    /// last interval.
    pub starved: Vec<StarvedFlow>,
    /// Channels that look wedged (failed, or queued without
    /// delivering for a whole interval).
    pub stalled_channels: Vec<StalledChannel>,
    /// True if this check declared the run livelocked.
    pub hard: bool,
}

/// Final per-flow statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStats {
    /// Which flow.
    pub flow: FlowId,
    /// Endpoints and size.
    pub spec: FlowSpec,
    /// Packets delivered in order to the application.
    pub delivered: u64,
    /// Packets cumulatively acked at the sender.
    pub acked: u64,
    /// Cycle the flow completed, if it did.
    pub completed_at: Option<u64>,
    /// In-order payload packets delivered per cycle of the whole run.
    pub goodput_ppc: f64,
    /// Final congestion window.
    pub final_cwnd: f64,
    /// Final smoothed RTT, cycles (`None` before the first sample).
    pub srtt: Option<f64>,
    /// Transport counters.
    pub counts: FlowCounts,
}

/// Jain's fairness index over nonnegative allocations:
/// `(Σx)² / (n·Σx²)`; 1 is perfectly fair, `1/n` is a single hog.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// The engine driving every flow of a network run. Owned by
/// [`crate::Network`] in flow mode; all methods are deterministic.
#[derive(Debug)]
pub struct FlowEngine {
    watchdog: WatchdogConfig,
    senders: Vec<Sender>,
    receivers: Vec<Receiver>,
    /// Watchdog snapshot: cumulative acks at the last check.
    last_cum: Vec<u64>,
    /// Starved set at the last reported stall (dedup).
    last_starved: Vec<FlowId>,
    no_progress_checks: u32,
    stalls: Vec<StallReport>,
    livelocked: bool,
}

impl FlowEngine {
    /// Builds the engine.
    pub fn new(cfg: &FlowConfig) -> Self {
        let senders: Vec<Sender> = cfg.flows.iter().map(|&s| Sender::new(s)).collect();
        let n = senders.len();
        FlowEngine {
            watchdog: cfg.watchdog,
            senders,
            receivers: (0..n).map(|_| Receiver::default()).collect(),
            last_cum: vec![0; n],
            last_starved: Vec::new(),
            no_progress_checks: 0,
            stalls: Vec::new(),
            livelocked: false,
        }
    }

    /// Watchdog check cadence, cycles.
    pub fn watchdog_interval(&self) -> u64 {
        self.watchdog.interval
    }

    /// True once every flow is fully acked.
    pub fn all_complete(&self) -> bool {
        self.senders.iter().all(Sender::complete)
    }

    /// True once the watchdog declared livelock.
    pub fn livelocked(&self) -> bool {
        self.livelocked
    }

    /// Timer + window pass over every sender; the network injects the
    /// returned packets this cycle (flow order fixes determinism).
    pub fn poll(&mut self, now: u64) -> Vec<FlowSend> {
        let mut out = Vec::new();
        for (i, s) in self.senders.iter_mut().enumerate() {
            let flow = FlowId(i as u32);
            for seq in s.poll(now) {
                out.push(FlowSend {
                    from: s.spec.src,
                    to: s.spec.dst,
                    tag: FlowTag::Payload { flow, seq, payload: payload_word(flow, seq) },
                });
            }
        }
        out
    }

    /// The earliest cycle at or after `from` at which [`FlowEngine::poll`]
    /// sends anything, provided no packet is delivered before then: a
    /// window with room sends at `from`, otherwise the earliest armed
    /// retransmission timer fires. `None` once every flow is complete.
    pub(crate) fn next_deadline(&self, from: u64) -> Option<u64> {
        self.senders.iter().filter_map(|s| s.next_deadline(from)).min()
    }

    /// Handles a packet ejected at `node`; `xor` is the accumulated
    /// undetected-corruption bit-flip mask the channels applied to the
    /// packet's payload (0 = intact). Returns the ack to send back,
    /// if any.
    pub fn on_delivery(&mut self, node: NodeId, tag: FlowTag, xor: u64, now: u64) -> Option<FlowSend> {
        match tag {
            FlowTag::Payload { flow, seq, payload } => {
                let i = flow.0 as usize;
                let (sender, receiver) = (&mut self.senders[i], &mut self.receivers[i]);
                let spec = sender.spec;
                debug_assert_eq!(node, spec.dst, "payload ejected at the wrong core");
                let received = payload ^ xor;
                if received != payload_word(flow, seq) {
                    // End-to-end check caught in-flight corruption:
                    // drop; the retransmission timer heals the hole.
                    sender.counts.corrupt_payloads += 1;
                } else if xor != 0 {
                    // Structurally unreachable (xor≠0 flips the word);
                    // counted so the campaign's headline claim is a
                    // measurement, not an assumption.
                    sender.counts.accepted_corrupt += 1;
                } else {
                    let before = receiver.delivered;
                    let already = seq < receiver.cum || receiver.ooo.contains(&seq);
                    receiver.on_payload(seq, &mut sender.counts);
                    if already && receiver.delivered > before {
                        sender.counts.dup_delivered += 1;
                    }
                }
                // Ack the current cumulative edge regardless: a dup or
                // a drop still tells the sender where the edge is.
                let cum = receiver.cum;
                Some(FlowSend {
                    from: spec.dst,
                    to: spec.src,
                    tag: FlowTag::Ack { flow, cum, check: ack_check(flow, cum) },
                })
            }
            FlowTag::Ack { flow, cum, check } => {
                let i = flow.0 as usize;
                debug_assert_eq!(node, self.senders[i].spec.src, "ack ejected at the wrong core");
                let received_cum = cum ^ xor;
                if ack_check(flow, received_cum) != check {
                    // Corrupted ack: self-check failed — never trust it.
                    self.senders[i].counts.corrupt_acks += 1;
                } else {
                    self.senders[i].on_ack(received_cum, now);
                }
                None
            }
        }
    }

    /// Progress check: `stalled_channels` is the network's channel
    /// diagnosis (failed / long-idle channels with queued flits).
    /// Records a [`StallReport`] when incomplete flows starved, and
    /// declares livelock after
    /// [`WatchdogConfig::hard_stall_checks`] checks with zero global
    /// progress.
    pub fn watchdog_check(&mut self, now: u64, stalled_channels: Vec<StalledChannel>) {
        let mut starved = Vec::new();
        let mut any_progress = false;
        for (i, s) in self.senders.iter().enumerate() {
            if s.cum_acked > self.last_cum[i] {
                any_progress = true;
            } else if !s.complete() {
                starved.push(StarvedFlow {
                    flow: FlowId(i as u32),
                    src: s.spec.src,
                    dst: s.spec.dst,
                    cum_acked: s.cum_acked,
                    packets: s.spec.packets,
                    cwnd: s.cwnd,
                    rto_eff: s.rto_eff(),
                    backoff: s.backoff,
                    retx: s.counts.retx,
                });
            }
            self.last_cum[i] = s.cum_acked;
        }
        if any_progress {
            self.no_progress_checks = 0;
        } else if !self.all_complete() {
            self.no_progress_checks += 1;
        }
        let hard = self.no_progress_checks >= self.watchdog.hard_stall_checks;
        if hard {
            self.livelocked = true;
        }
        let starved_ids: Vec<FlowId> = starved.iter().map(|f| f.flow).collect();
        if !starved.is_empty() && (hard || starved_ids != self.last_starved) {
            self.last_starved = starved_ids;
            self.stalls.push(StallReport { cycle: now, starved, stalled_channels, hard });
        } else if starved.is_empty() {
            self.last_starved.clear();
        }
    }

    /// All stall reports recorded so far.
    pub fn stalls(&self) -> &[StallReport] {
        &self.stalls
    }

    /// Final per-flow statistics over a run of `cycles`.
    pub fn stats(&self, cycles: u64) -> Vec<FlowStats> {
        self.senders
            .iter()
            .zip(&self.receivers)
            .enumerate()
            .map(|(i, (s, r))| FlowStats {
                flow: FlowId(i as u32),
                spec: s.spec,
                delivered: r.delivered,
                acked: s.cum_acked,
                completed_at: s.completed_at,
                goodput_ppc: if cycles == 0 {
                    0.0
                } else {
                    r.delivered as f64 / cycles as f64
                },
                final_cwnd: s.cwnd,
                srtt: s.srtt,
                counts: s.counts,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(packets: u64) -> FlowSpec {
        FlowSpec { src: NodeId(0), dst: NodeId(3), packets }
    }

    fn engine(packets: u64) -> FlowEngine {
        FlowEngine::new(&FlowConfig::new(vec![spec(packets)]))
    }

    /// Delivers a payload send to the engine and returns the ack.
    fn deliver(e: &mut FlowEngine, send: FlowSend, xor: u64, now: u64) -> Option<FlowSend> {
        e.on_delivery(send.to, send.tag, xor, now)
    }

    #[test]
    fn clean_flow_completes_with_exactly_once_delivery() {
        let mut e = engine(20);
        let mut now = 0;
        while !e.all_complete() {
            let sends = e.poll(now);
            for s in sends {
                let ack = deliver(&mut e, s, 0, now + 10).expect("payload yields an ack");
                deliver(&mut e, ack, 0, now + 20);
            }
            now += 30;
            assert!(now < 10_000, "clean flow must finish fast");
        }
        let st = &e.stats(now)[0];
        assert_eq!(st.delivered, 20);
        assert_eq!(st.acked, 20);
        assert_eq!(st.counts.retx, 0);
        assert_eq!(st.counts.dup_delivered, 0);
        assert_eq!(st.counts.accepted_corrupt, 0);
        assert!(st.completed_at.is_some());
        assert!(st.final_cwnd > INIT_CWND, "AIMD must have grown the window");
    }

    #[test]
    fn window_caps_outstanding_packets() {
        let mut e = engine(1000);
        let sends = e.poll(0);
        assert_eq!(sends.len() as u64, INIT_CWND as u64);
        // No acks, no timer expiry: polling again sends nothing new.
        assert!(e.poll(1).is_empty());
    }

    #[test]
    fn next_deadline_is_the_first_cycle_poll_sends_at() {
        let mut e = engine(3);
        assert_eq!(e.next_deadline(5), Some(5), "an open window sends at once");
        let sent = e.poll(5);
        let rto = e.senders[0].rto_eff();
        assert_eq!(e.next_deadline(6), Some(5 + rto), "a full window waits for the timer");
        assert!(e.poll(5 + rto - 1).is_empty());
        assert_eq!(e.next_deadline(9_999), Some(9_999), "an overdue timer fires at once");
        for s in sent {
            let ack = deliver(&mut e, s, 0, 10).unwrap();
            deliver(&mut e, ack, 0, 20);
        }
        assert_eq!(e.next_deadline(21), Some(21), "acks reopen the window");
        for s in e.poll(21) {
            let ack = deliver(&mut e, s, 0, 30).unwrap();
            deliver(&mut e, ack, 0, 40);
        }
        assert!(e.all_complete());
        assert_eq!(e.next_deadline(41), None);
    }

    #[test]
    fn timeout_retransmits_halves_window_and_backs_off() {
        let mut e = engine(100);
        // Grow the window first with a few clean round trips.
        let mut now = 0;
        for _ in 0..6 {
            for s in e.poll(now) {
                let ack = deliver(&mut e, s, 0, now + 5).unwrap();
                deliver(&mut e, ack, 0, now + 10);
            }
            now += 20;
        }
        let cwnd_before = e.senders[0].cwnd;
        let rto = e.senders[0].rto_eff();
        // Swallow everything in flight; let the timer fire.
        let in_flight = e.poll(now);
        assert!(!in_flight.is_empty());
        let fire_at = now + rto + 1;
        let resent = e.poll(fire_at);
        assert!(
            resent.iter().any(|s| matches!(s.tag, FlowTag::Payload { seq, .. }
                if seq == e.senders[0].cum_acked)),
            "timeout must retransmit the cumulative edge"
        );
        assert!(e.senders[0].cwnd <= cwnd_before / 2.0 + 1e-9, "multiplicative decrease");
        assert_eq!(e.senders[0].backoff, 1);
        assert_eq!(e.senders[0].counts.timeouts, 1);
        // A second expiry doubles the horizon again.
        let resent2 = e.poll(fire_at + e.senders[0].rto_eff() + 1);
        assert!(!resent2.is_empty());
        assert_eq!(e.senders[0].backoff, 2);
    }

    #[test]
    fn duplicate_payloads_are_absorbed_not_delivered_twice() {
        let mut e = engine(5);
        let sends = e.poll(0);
        let first = sends[0];
        let ack1 = deliver(&mut e, first, 0, 10).unwrap();
        let ack2 = deliver(&mut e, first, 0, 11).unwrap(); // duplicate
        assert_eq!(e.senders[0].counts.dup_rx, 1);
        assert_eq!(e.senders[0].counts.dup_delivered, 0);
        assert_eq!(e.receivers[0].delivered, 1);
        // Both acks carry the same cumulative edge.
        let (FlowTag::Ack { cum: c1, .. }, FlowTag::Ack { cum: c2, .. }) = (ack1.tag, ack2.tag)
        else {
            panic!("expected acks")
        };
        assert_eq!(c1, c2);
    }

    #[test]
    fn corrupted_payload_is_dropped_and_healed_by_retransmission() {
        let mut e = engine(3);
        let mut now = 0;
        let mut corrupted_once = false;
        while !e.all_complete() && now < 100_000 {
            for s in e.poll(now) {
                let xor = match s.tag {
                    FlowTag::Payload { seq: 0, .. } if !corrupted_once => {
                        corrupted_once = true;
                        1 << 17
                    }
                    _ => 0,
                };
                if let Some(ack) = deliver(&mut e, s, xor, now + 5) {
                    deliver(&mut e, ack, 0, now + 10);
                }
            }
            now += 20;
        }
        assert!(e.all_complete(), "flow must heal the corrupted packet");
        let st = &e.stats(now)[0];
        assert_eq!(st.counts.corrupt_payloads, 1);
        assert_eq!(st.counts.accepted_corrupt, 0);
        assert!(st.counts.retx >= 1, "the hole must have been retransmitted");
        assert_eq!(st.delivered, 3);
    }

    #[test]
    fn corrupted_ack_is_never_trusted() {
        let mut e = engine(4);
        let sends = e.poll(0);
        let ack = deliver(&mut e, sends[0], 0, 5).unwrap();
        // Corrupt the ack in flight: sender must ignore it.
        deliver(&mut e, ack, 1 << 3, 9);
        assert_eq!(e.senders[0].counts.corrupt_acks, 1);
        assert_eq!(e.senders[0].cum_acked, 0, "corrupted ack must not advance the window");
    }

    #[test]
    fn out_of_order_arrivals_reassemble_in_order() {
        let mut e = engine(4);
        let f = FlowId(0);
        // Deliver 2, 1, 3, 0 — delivery must only count once 0 lands.
        for (seq, expect_delivered) in [(2, 0), (1, 0), (3, 0), (0, 4)] {
            let tag = FlowTag::Payload { flow: f, seq, payload: payload_word(f, seq) };
            e.on_delivery(NodeId(3), tag, 0, 1);
            assert_eq!(e.receivers[0].delivered, expect_delivered, "after seq {seq}");
        }
        assert_eq!(e.senders[0].counts.dup_rx, 0);
    }

    #[test]
    fn watchdog_names_starved_flows_and_declares_livelock() {
        let mut e = FlowEngine::new(&FlowConfig {
            flows: vec![spec(10), FlowSpec { src: NodeId(1), dst: NodeId(2), packets: 10 }],
            watchdog: WatchdogConfig { interval: 100, hard_stall_checks: 2 },
        });
        e.poll(0);
        // Flow 1 progresses, flow 0 starves: stall named, no livelock.
        let tag = FlowTag::Payload { flow: FlowId(1), seq: 0, payload: payload_word(FlowId(1), 0) };
        let ack = e.on_delivery(NodeId(2), tag, 0, 50).unwrap();
        e.on_delivery(NodeId(1), ack.tag, 0, 60);
        e.watchdog_check(100, Vec::new());
        assert!(!e.livelocked());
        assert_eq!(e.stalls().len(), 1);
        assert_eq!(e.stalls()[0].starved.len(), 1);
        assert_eq!(e.stalls()[0].starved[0].flow, FlowId(0));
        // Now nothing progresses: two more checks declare livelock.
        e.watchdog_check(200, Vec::new());
        assert!(!e.livelocked());
        e.watchdog_check(300, Vec::new());
        assert!(e.livelocked());
        let last = e.stalls().last().unwrap();
        assert!(last.hard);
        assert_eq!(last.starved.len(), 2, "livelock report names every incomplete flow");
    }

    #[test]
    fn jain_index_limits() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let mid = jain_index(&[2.0, 1.0]);
        assert!(mid > 0.25 && mid < 1.0);
        assert!(jain_index(&[]).is_nan());
        assert!(jain_index(&[0.0, 0.0]).is_nan());
    }

    #[test]
    fn payload_and_ack_words_detect_any_single_flip()
    {
        let f = FlowId(3);
        for bit in 0..64 {
            let xor = 1u64 << bit;
            assert_ne!(payload_word(f, 9) ^ xor, payload_word(f, 9));
            // ack self-check: flipping cum always breaks the pair.
            let (cum, check) = (7u64, ack_check(f, 7));
            assert_ne!(ack_check(f, cum ^ xor), check);
        }
    }
}
