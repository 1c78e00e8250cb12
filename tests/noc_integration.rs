//! Cross-crate integration: the NoC substrate driven by link models
//! derived from the gate-level links.

use sal::des::Time;
use sal::link::{LinkConfig, LinkFamily};
use sal::noc::{
    ChannelFaults, ChannelProtection, ErrorProcess, FlowSpec, LinkModel, Mesh, Network,
    NetworkConfig, NodeId, TrafficPattern,
};

fn net(link: LinkModel, pattern: TrafficPattern, rate: f64, seed: u64) -> Network {
    Network::new(
        NetworkConfig {
            mesh: Mesh::new(4, 4),
            link,
            input_queue_flits: 8,
            packet_len_flits: 4,
            faults: None,
            routing: sal::noc::RoutingMode::XyStatic,
            link_kills: Vec::new(),
        },
        pattern,
        rate,
        seed,
    )
}

#[test]
fn serialized_mesh_carries_uniform_traffic_at_paper_clocks() {
    // At 100–300 MHz the serialized links keep up with the routers:
    // the mesh behaves like the parallel one, with one-third the wires.
    for period_ps in [10_000u64, 3_333] {
        let cfg = LinkConfig { clk_period: Time::from_ps(period_ps), ..LinkConfig::default() };
        let m_sync = LinkModel::from_link(LinkFamily::Sync, &cfg);
        let m_ser = LinkModel::from_link(LinkFamily::PerWord, &cfg);
        assert!(m_ser.wires * 3 <= m_sync.wires);
        let s_sync = net(m_sync, TrafficPattern::UniformRandom, 0.3, 3).run(6_000, 2_000);
        let s_ser = net(m_ser, TrafficPattern::UniformRandom, 0.3, 3).run(6_000, 2_000);
        let t_sync = s_sync.throughput_fpnc();
        let t_ser = s_ser.throughput_fpnc();
        assert!(
            (t_ser - t_sync).abs() / t_sync < 0.1,
            "period {period_ps} ps: serialized {t_ser:.3} vs parallel {t_sync:.3}"
        );
    }
}

#[test]
fn overdriven_serial_links_saturate_the_mesh_first() {
    // At 600 MHz the per-word link's self-timed rate (<1 flit/cycle)
    // becomes the bottleneck under heavy load.
    let cfg = LinkConfig { clk_period: Time::from_ps(1_667), ..LinkConfig::default() };
    let m_sync = LinkModel::from_link(LinkFamily::Sync, &cfg);
    let m_ser = LinkModel::from_link(LinkFamily::PerWord, &cfg);
    assert!(m_ser.flits_per_cycle < 1.0);
    let s_sync = net(m_sync, TrafficPattern::UniformRandom, 0.6, 9).run(8_000, 2_000);
    let s_ser = net(m_ser, TrafficPattern::UniformRandom, 0.6, 9).run(8_000, 2_000);
    assert!(
        s_ser.throughput_fpnc() < s_sync.throughput_fpnc(),
        "serial {:.3} should fall below parallel {:.3} beyond the upper bound",
        s_ser.throughput_fpnc(),
        s_sync.throughput_fpnc()
    );
    assert!(s_ser.avg_latency() > s_sync.avg_latency());
}

#[test]
fn all_patterns_deliver_on_serialized_mesh() {
    let cfg = LinkConfig::default();
    let model = LinkModel::from_link(LinkFamily::PerTransfer, &cfg);
    for pattern in [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::Hotspot { node: NodeId(5), permille: 250 },
    ] {
        let stats = net(model, pattern, 0.08, 17).run(5_000, 1_000);
        assert!(
            stats.delivered_packets > 100,
            "{pattern:?}: only {} packets",
            stats.delivered_packets
        );
        let ratio = stats.delivered_packets as f64 / stats.offered_packets as f64;
        assert!(ratio > 0.85, "{pattern:?}: backlog at light load ({ratio:.2})");
    }
}

#[test]
fn flows_complete_over_a_lossy_serialized_mesh() {
    // The full stack: gate-level-derived I3 link model, seeded bursty
    // channel faults with CRC protection, windowed AIMD senders — the
    // flows must finish with exactly-once delivery and the recovery
    // ladder visibly exercised.
    let lcfg = LinkConfig::default();
    let model = LinkModel::from_link(LinkFamily::PerWord, &lcfg);
    let cfg = NetworkConfig {
        mesh: Mesh::new(4, 4),
        link: model,
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: Some(ChannelFaults::new(
            ErrorProcess::bursty(0.04, 0.6, 0.05),
            ChannelProtection::Crc8,
        )),
        routing: sal::noc::RoutingMode::XyStatic,
        link_kills: Vec::new(),
    };
    let flows = [
        FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 60 },
        FlowSpec { src: NodeId(15), dst: NodeId(0), packets: 60 },
        FlowSpec { src: NodeId(3), dst: NodeId(12), packets: 60 },
    ];
    let mut net = Network::with_flows(cfg, &flows, 1234);
    let report = net.run_flows(1_000_000);
    assert!(report.completed, "flows must heal through the bursty storm");
    assert!(!report.livelocked);
    for f in &report.flows {
        assert_eq!(f.delivered, 60);
        assert_eq!(f.counts.dup_delivered, 0, "exactly-once violated");
        assert_eq!(f.counts.accepted_corrupt, 0, "silent corruption accepted");
    }
    assert!(report.net.recovery.counts.replays > 0, "the storm never hit a link");
    assert_eq!(report.net.recovery.counts.undetected, 0, "CRC-8 detects everything");
    assert!(report.jain > 0.8, "symmetric flows should share fairly: {}", report.jain);
}

#[test]
fn hotspot_saturates_below_uniform() {
    let cfg = LinkConfig::default();
    let model = LinkModel::from_link(LinkFamily::PerWord, &cfg);
    let uni = net(model, TrafficPattern::UniformRandom, 0.45, 21).run(8_000, 2_000);
    let hot = net(
        model,
        TrafficPattern::Hotspot { node: NodeId(0), permille: 600 },
        0.45,
        21,
    )
    .run(8_000, 2_000);
    assert!(
        hot.throughput_fpnc() < uni.throughput_fpnc(),
        "hotspot {:.3} must saturate below uniform {:.3}",
        hot.throughput_fpnc(),
        uni.throughput_fpnc()
    );
}
