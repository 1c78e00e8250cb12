//! Fuzzes the failure seam of a flow-mode mesh: random scheduled link
//! kills × i.i.d. or bursty error processes × link protection ×
//! optional permanent failure × XY or adaptive routing × random flow
//! layouts, on a 4×4 mesh. Every run must keep the transport's
//! promises:
//!
//! * no payload is delivered twice;
//! * no corrupted payload is accepted;
//! * a livelock names exactly the flows it starved;
//! * adaptive routing over CRC-8 links always completes.
//!
//! Flit conservation is asserted inside `run_flows` itself. Runs over
//! unprotected or parity links, or under static XY, may end in a
//! named livelock: a dead link on XY's only path starves its flows, and
//! under a storm the retransmission timeout can back off to `RTO_MAX`
//! before the watchdog window closes.

use proptest::prelude::*;
use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, ErrorProcess, FlowConfig, FlowId, FlowSpec,
    LinkKill, LinkModel, Mesh, Network, NetworkConfig, NodeId, RoutingMode, WatchdogConfig,
};

const PROTECTIONS: [ChannelProtection; 3] =
    [ChannelProtection::Off, ChannelProtection::Parity, ChannelProtection::Crc8];

/// One drawn scenario.
struct Scenario {
    kills: Vec<(u64, u16, u8)>,
    bursty: bool,
    rate_mil: u32,
    protection: ChannelProtection,
    fail_after: u32,
    adaptive: bool,
    flows: Vec<(u16, u16, u64)>,
    seed: u64,
}

fn check(s: &Scenario) -> Result<(), String> {
    let mesh = Mesh::new(4, 4);
    let kills = s
        .kills
        .iter()
        .map(|&(cycle, node, dir)| {
            let node = NodeId(node);
            let dir = Direction::CARDINAL[usize::from(dir)];
            // An edge port's opposite always leads into a 4×4 mesh.
            let dir = if mesh.neighbor(node, dir).is_some() { dir } else { dir.opposite() };
            LinkKill { cycle, node, dir }
        })
        .collect();
    let rate = f64::from(s.rate_mil) / 1000.0;
    let process = if s.bursty {
        ErrorProcess::bursty(rate, 0.6, 0.05)
    } else {
        ErrorProcess::Iid { p: rate }
    };
    let mut faults = ChannelFaults::new(process, s.protection);
    if s.fail_after > 0 {
        faults = faults.with_permanent_failure(s.fail_after);
    }
    let cfg = NetworkConfig {
        mesh,
        link: LinkModel::ideal(),
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: Some(faults),
        routing: if s.adaptive { RoutingMode::adaptive() } else { RoutingMode::XyStatic },
        link_kills: kills,
    };
    let specs = s
        .flows
        .iter()
        .map(|&(src, dst, packets)| {
            // Self-addressed flows are not flows; shift the sink.
            let dst = if dst == src { (dst + 1) % 16 } else { dst };
            FlowSpec { src: NodeId(src), dst: NodeId(dst), packets }
        })
        .collect();
    let mut flows = FlowConfig::new(specs);
    // As in the flow campaign: the livelock horizon outlasts a fully
    // backed-off RTO, so a patient sender is not misdiagnosed.
    flows.watchdog = WatchdogConfig { interval: 4_096, hard_stall_checks: 8 };
    let report = Network::with_flows(cfg, &flows, s.seed).run_flows(400_000);

    let dup: u64 = report.flows.iter().map(|f| f.counts.dup_delivered).sum();
    prop_assert_eq!(dup, 0, "payloads delivered twice");
    let accepted: u64 = report.flows.iter().map(|f| f.counts.accepted_corrupt).sum();
    prop_assert_eq!(accepted, 0, "corrupted payloads accepted");
    if report.livelocked {
        let last = report.stalls.last().ok_or("livelock without a stall report")?;
        prop_assert!(last.hard, "the last stall report must be the livelock's");
        let named: Vec<FlowId> = last.starved.iter().map(|f| f.flow).collect();
        let incomplete: Vec<FlowId> = report
            .flows
            .iter()
            .filter(|f| f.acked < f.spec.packets)
            .map(|f| f.flow)
            .collect();
        prop_assert!(!named.is_empty(), "livelock names no starved flow");
        prop_assert_eq!(named, incomplete, "the livelock must name every starved flow");
    }
    if s.adaptive && s.protection == ChannelProtection::Crc8 {
        prop_assert!(
            report.completed,
            "adaptive routing over CRC-8 links must complete (livelocked: {}, cycles: {})",
            report.livelocked,
            report.cycles
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn failure_schedules_keep_the_transport_promises(
        kills in proptest::collection::vec((0u64..1_500, 0u16..16, 0u8..4), 1..5),
        bursty in any::<bool>(),
        rate_mil in 0u32..100,
        protection in 0usize..3,
        fail_after in 0u32..4,
        adaptive in any::<bool>(),
        flows in proptest::collection::vec((0u16..16, 0u16..16, 4u64..13), 1..5),
        seed in 0u64..1_000_000,
    ) {
        check(&Scenario {
            kills,
            bursty,
            rate_mil,
            protection: PROTECTIONS[protection],
            fail_after,
            adaptive,
            flows,
            seed,
        })?;
    }
}
