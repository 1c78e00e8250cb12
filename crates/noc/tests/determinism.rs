//! Network determinism properties (satellite of the flow-recovery
//! PR): identical `(config, pattern, load, seed)` must produce
//! byte-identical [`NetworkStats`] — including the per-link recovery
//! counters — across repeated runs, and a lossy configuration whose
//! error process can never fire (`p = 0`, no bandwidth tax) must
//! match the loss-free path *exactly*, not just statistically.

use proptest::prelude::*;
use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, ErrorProcess, FlowSpec, LinkKill,
    LinkModel, Mesh, Network, NetworkConfig, NetworkStats, NodeId, RoutingMode, TrafficPattern,
};

fn cfg(faults: Option<ChannelFaults>) -> NetworkConfig {
    NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults,
        routing: RoutingMode::XyStatic,
        link_kills: Vec::new(),
    }
}

fn pattern_of(idx: u8) -> TrafficPattern {
    match idx % 4 {
        0 => TrafficPattern::UniformRandom,
        1 => TrafficPattern::Transpose,
        2 => TrafficPattern::BitComplement,
        _ => TrafficPattern::Hotspot { node: NodeId(5), permille: 300 },
    }
}

fn run_once(faults: Option<ChannelFaults>, pattern: TrafficPattern, load: f64, seed: u64) -> NetworkStats {
    let mut net = Network::new(cfg(faults), pattern, load, seed);
    net.run(2_500, 500)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Identical inputs, identical outputs — every field, every
    /// recovery counter, every latency sample.
    #[test]
    fn repeated_runs_are_byte_identical(
        seed in 0u64..1_000_000,
        pat in 0u8..4,
        load_pct in 1u32..45,
        rate_mil in 0u32..80,
    ) {
        let load = f64::from(load_pct) / 100.0;
        let rate = f64::from(rate_mil) / 1000.0;
        let faults = Some(ChannelFaults::new(
            ErrorProcess::Iid { p: rate },
            ChannelProtection::Crc8,
        ));
        let a = run_once(faults, pattern_of(pat), load, seed);
        let b = run_once(faults, pattern_of(pat), load, seed);
        prop_assert_eq!(&a, &b);
        // The recovery surface is part of the contract: rows for all
        // 48 directed channels of the 4x4 mesh, in sorted order.
        prop_assert_eq!(a.link_recovery.len(), 48);
        prop_assert!(a.link_recovery.windows(2).all(|w| {
            (w[0].node, w[0].dir.index()) < (w[1].node, w[1].dir.index())
        }));
    }

    /// A lossy configuration that can never produce an error is
    /// cycle-for-cycle the loss-free path — same latencies, same
    /// counters, same (all-zero) recovery rows.
    #[test]
    fn p_zero_lossy_matches_loss_free_exactly(
        seed in 0u64..1_000_000,
        pat in 0u8..4,
        load_pct in 1u32..45,
    ) {
        let load = f64::from(load_pct) / 100.0;
        let lossless = Some(ChannelFaults::new(
            ErrorProcess::Iid { p: 0.0 },
            ChannelProtection::Off,
        ));
        let clean = run_once(None, pattern_of(pat), load, seed);
        let p0 = run_once(lossless, pattern_of(pat), load, seed);
        prop_assert_eq!(&clean, &p0);
        prop_assert!(clean.recovery.counts.is_quiet());
        prop_assert_eq!(clean.corrupt_packets, 0);
    }

    /// Flow-mode runs are deterministic too: the whole report —
    /// per-flow counters, stall reports, network stats — compares
    /// equal across repeated runs.
    #[test]
    fn flow_runs_are_byte_identical(
        seed in 0u64..1_000_000,
        rate_mil in 0u32..60,
    ) {
        let rate = f64::from(rate_mil) / 1000.0;
        let run = || {
            let flows = [
                FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 25 },
                FlowSpec { src: NodeId(12), dst: NodeId(3), packets: 25 },
            ];
            let faults = Some(ChannelFaults::new(
                ErrorProcess::Iid { p: rate },
                ChannelProtection::Crc8,
            ));
            let mut net = Network::with_flows(cfg(faults), &flows, seed);
            net.run_flows(300_000)
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Equal seeds plus equal failure schedules yield byte-identical
    /// stats — including the new reroute counters (stranded, salvaged,
    /// reconfiguration epochs) — under adaptive routing with scheduled
    /// link kills and a lossy error process on top.
    #[test]
    fn reroute_runs_are_byte_identical(
        seed in 0u64..1_000_000,
        kill_cycle in 200u64..1_500,
        kill_link in 0u8..24,
        rate_mil in 0u32..40,
    ) {
        let mesh = Mesh::new(4, 4);
        // Pick one interior-ish physical link from an enumerable set.
        let (node, dir) = {
            let n = NodeId(u16::from(kill_link % 12));
            let d = if kill_link < 12 { Direction::East } else { Direction::South };
            (n, d)
        };
        let run = || {
            let mut c = cfg(Some(ChannelFaults::new(
                ErrorProcess::Iid { p: f64::from(rate_mil) / 1000.0 },
                ChannelProtection::Crc8,
            )));
            c.routing = RoutingMode::adaptive();
            if mesh.neighbor(node, dir).is_some() {
                c.link_kills = LinkKill::both_ways(&mesh, kill_cycle, node, dir).to_vec();
            }
            let mut net = Network::new(c, TrafficPattern::UniformRandom, 0.15, seed);
            net.run(4_000, 0)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        if mesh.neighbor(node, dir).is_some() {
            prop_assert!(a.reconfig_epochs >= 1, "the kill must trigger an epoch");
            prop_assert!(a.recovery.failed_links >= 2, "both directions died");
        }
        prop_assert_eq!(a.stranded_flits, b.stranded_flits);
        prop_assert_eq!(a.salvaged_packets, b.salvaged_packets);
    }
}

/// The gilbert–elliott process is seeded per channel: the same
/// network seed reproduces the same burst placement regardless of how
/// many times the simulation is constructed.
#[test]
fn bursty_runs_reproduce() {
    let faults = Some(ChannelFaults::new(
        ErrorProcess::bursty(0.05, 0.6, 0.05),
        ChannelProtection::Parity,
    ));
    let a = run_once(faults, TrafficPattern::UniformRandom, 0.2, 77);
    let b = run_once(faults, TrafficPattern::UniformRandom, 0.2, 77);
    assert_eq!(a, b);
    assert!(a.recovery.counts.errors > 0, "the storm must actually fire");
}
