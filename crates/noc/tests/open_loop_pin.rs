//! Open-loop statistics pinned across versions.
//!
//! Flow mode is pinned by the `flows` and `reroute` campaign fixtures;
//! this file does the same for [`Network::run`]: any change to a line
//! below is a change of simulated behaviour, never a refactor. Every
//! [`NetworkStats`] field is covered except `in_flight`, whose count
//! of warm-up packets was corrected after the lines were captured; the
//! latency samples and the per-channel recovery rows enter as hashes.
//!
//! The cases are the `mesh_load` benchmark shapes (8×8, XY and
//! adaptive routing, ideal and serialized channels, uniform, transpose
//! and hotspot traffic, loads past saturation) cut to a few hundred
//! cycles, plus a lossy 4×4 mesh with scheduled link kills under each
//! routing mode. A second test pins two full-length uniform 8×8 runs
//! at twice saturation, `in_flight` included, captured later.

use sal_link::{LinkConfig, LinkFamily};
use sal_noc::{
    ChannelFaults, ChannelProtection, Direction, ErrorProcess, LinkKill, LinkModel, Mesh, Network,
    NetworkConfig, NetworkStats, NodeId, RoutingMode, TrafficPattern,
};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every field of `s` but `in_flight`, on one line.
fn summary(s: &NetworkStats) -> String {
    let rows = s.link_recovery.iter().flat_map(|r| {
        let c = r.counts;
        [
            u64::from(r.node.0),
            r.dir.index() as u64,
            c.errors,
            c.nacks,
            c.timeouts,
            c.replays,
            c.resyncs,
            c.degrades,
            c.degraded_cycles,
            c.undetected,
            u64::from(c.failed),
        ]
    });
    let t = s.recovery.counts;
    let totals = [
        t.errors,
        t.nacks,
        t.timeouts,
        t.replays,
        t.resyncs,
        t.degrades,
        t.degraded_cycles,
        t.undetected,
        u64::from(t.failed),
        s.recovery.failed_links,
    ];
    format!(
        "cycles={} nodes={} offered={} delivered={}/{} latency={}/{}/{}:{:016x} corrupt={} \
         injected={} stranded={}/{} salvaged={} residual={} epochs={} retrained={} \
         links={}:{:016x} totals={:016x}",
        s.cycles,
        s.nodes,
        s.offered_packets,
        s.delivered_packets,
        s.delivered_flits,
        s.latency_sum,
        s.latency_max,
        s.latencies.len(),
        fnv(s.latencies.iter().copied()),
        s.corrupt_packets,
        s.injected_flits,
        s.stranded_packets,
        s.stranded_flits,
        s.salvaged_packets,
        s.residual_flits,
        s.reconfig_epochs,
        s.retrained_links,
        s.link_recovery.len(),
        fnv(rows),
        fnv(totals),
    )
}

fn config(mesh: Mesh, link: LinkModel, routing: RoutingMode) -> NetworkConfig {
    NetworkConfig {
        mesh,
        link,
        input_queue_flits: 8,
        packet_len_flits: 4,
        faults: None,
        routing,
        link_kills: Vec::new(),
    }
}

/// The `mesh_load` cells: 8×8, every pattern × routing × channel
/// model, each at 1.25× its saturation load.
fn mesh_load_cases() -> Vec<(String, NetworkStats)> {
    let serial = LinkModel::from_link(LinkFamily::PerWord, &LinkConfig::default());
    let patterns = [
        ("uniform", TrafficPattern::UniformRandom, 0.35),
        ("transpose", TrafficPattern::Transpose, 0.17),
        ("hotspot", TrafficPattern::Hotspot { node: NodeId(27), permille: 200 }, 0.07),
    ];
    let mut out = Vec::new();
    let mut seed = 501;
    for (pname, pattern, saturation) in patterns {
        for (rname, routing) in [("xy", RoutingMode::XyStatic), ("adaptive", RoutingMode::adaptive())] {
            for (lname, link) in [("ideal", LinkModel::ideal()), ("serial", serial)] {
                let cfg = config(Mesh::new(8, 8), link, routing);
                let mut net = Network::new(cfg, pattern, 1.25 * saturation, seed);
                out.push((format!("8x8 {pname} {rname} {lname}"), net.run(600, 150)));
                seed += 1;
            }
        }
    }
    out
}

/// A lossy 4×4 mesh (bursty errors under parity, escalation to
/// permanent failure) with scheduled physical-link kills: one in row 0,
/// then both links of corner node 0, which only a retrain can reopen.
fn lossy_kill_cases() -> Vec<(String, NetworkStats)> {
    let mesh = Mesh::new(4, 4);
    let faults =
        ChannelFaults::new(ErrorProcess::bursty(0.03, 0.6, 0.05), ChannelProtection::Parity)
            .with_permanent_failure(3);
    let mut kills = LinkKill::both_ways(&mesh, 400, NodeId(1), Direction::East).to_vec();
    kills.extend(LinkKill::both_ways(&mesh, 900, NodeId(0), Direction::East));
    kills.extend(LinkKill::both_ways(&mesh, 900, NodeId(0), Direction::South));
    [("xy", RoutingMode::XyStatic), ("adaptive", RoutingMode::adaptive())]
        .into_iter()
        .map(|(rname, routing)| {
            let cfg = NetworkConfig {
                faults: Some(faults),
                link_kills: kills.clone(),
                ..config(mesh, LinkModel::ideal(), routing)
            };
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.15, 77);
            (format!("4x4 lossy kills {rname}"), net.run(3_000, 300))
        })
        .collect()
}

const EXPECTED: &[(&str, &str)] = &[
    (
        "8x8 uniform xy ideal",
        "cycles=450 nodes=64 offered=3264 delivered=2544/10161 \
         latency=192915/415/2544:f56d745e4ebdfbc3 corrupt=0 \
         injected=13056 stranded=0/0 salvaged=0 residual=3958 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 uniform xy serial",
        "cycles=450 nodes=64 offered=3179 delivered=2291/9178 \
         latency=250240/391/2291:3bb1a539e3da409d corrupt=0 \
         injected=12716 stranded=0/0 salvaged=0 residual=5161 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 uniform adaptive ideal",
        "cycles=450 nodes=64 offered=3112 delivered=1442/5750 \
         latency=167462/443/1442:b7de568c6fa046dc corrupt=0 \
         injected=12448 stranded=0/0 salvaged=0 residual=8229 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 uniform adaptive serial",
        "cycles=450 nodes=64 offered=3094 delivered=1393/5561 \
         latency=225726/499/1393:b6555adfc74a3240 corrupt=0 \
         injected=12376 stranded=0/0 salvaged=0 residual=8755 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 transpose xy ideal",
        "cycles=450 nodes=64 offered=1580 delivered=1325/5303 \
         latency=53895/459/1325:201bb6a9d9a4e47c corrupt=0 \
         injected=6320 stranded=0/0 salvaged=0 residual=1446 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 transpose xy serial",
        "cycles=450 nodes=64 offered=1532 delivered=1303/5209 \
         latency=80361/482/1303:ba9a4fa5224a0be2 corrupt=0 \
         injected=6128 stranded=0/0 salvaged=0 residual=1569 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 transpose adaptive ideal",
        "cycles=450 nodes=64 offered=1549 delivered=1380/5518 \
         latency=77291/448/1380:0aac87e6125922c0 corrupt=0 \
         injected=6196 stranded=0/0 salvaged=0 residual=1251 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 transpose adaptive serial",
        "cycles=450 nodes=64 offered=1554 delivered=1476/5911 \
         latency=91527/278/1476:3cc4460a0e6bc574 corrupt=0 \
         injected=6216 stranded=0/0 salvaged=0 residual=965 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 hotspot xy ideal",
        "cycles=450 nodes=64 offered=629 delivered=604/2425 \
         latency=12602/166/604:db583ee419223fd3 corrupt=0 \
         injected=2516 stranded=0/0 salvaged=0 residual=188 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 hotspot xy serial",
        "cycles=450 nodes=64 offered=622 delivered=551/2198 \
         latency=22989/222/551:efeead6f43dd168e corrupt=0 \
         injected=2488 stranded=0/0 salvaged=0 residual=460 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 hotspot adaptive ideal",
        "cycles=450 nodes=64 offered=621 delivered=580/2325 \
         latency=26061/271/580:e44c109c2c41f9eb corrupt=0 \
         injected=2484 stranded=0/0 salvaged=0 residual=358 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "8x8 hotspot adaptive serial",
        "cycles=450 nodes=64 offered=633 delivered=612/2448 \
         latency=28108/191/612:7e417e4ffe48638b corrupt=0 \
         injected=2532 stranded=0/0 salvaged=0 residual=284 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965",
    ),
    (
        "4x4 lossy kills xy",
        "cycles=2700 nodes=16 offered=1635 delivered=303/1206 \
         latency=58965/685/303:e7da9a4dfe7b9969 corrupt=20 \
         injected=6540 stranded=4/9 salvaged=0 residual=5382 epochs=0 retrained=0 \
         links=48:29bf5d48ca10aa6d totals=10f0efa1e1cf2a0a",
    ),
    (
        "4x4 lossy kills adaptive",
        "cycles=2700 nodes=16 offered=1635 delivered=1145/4587 \
         latency=543113/1567/1145:b88ab9fe606dd62e corrupt=38 \
         injected=6540 stranded=30/109 salvaged=7 residual=1874 epochs=2 retrained=2 \
         links=48:9f9a6590f2073636 totals=494ed0698e754834",
    ),
];

/// Full-length `mesh_load` runs past saturation: 8×8 uniform traffic
/// at twice its saturation load on ideal channels, 2,000 cycles with
/// 500 of warm-up, once per routing mode. Source queues grow hundreds
/// of flits deep and thousands of packets are alive at once, which
/// the cut-down cases above never reach.
fn saturated_cases() -> Vec<(String, NetworkStats)> {
    [("xy", RoutingMode::XyStatic, 701), ("adaptive", RoutingMode::adaptive(), 702)]
        .into_iter()
        .map(|(rname, routing, seed)| {
            let cfg = config(Mesh::new(8, 8), LinkModel::ideal(), routing);
            let mut net = Network::new(cfg, TrafficPattern::UniformRandom, 0.7, seed);
            (format!("8x8 uniform {rname} ideal 2x saturation"), net.run(2_000, 500))
        })
        .collect()
}

/// Captured before the router inputs became one ring buffer and
/// packet ids 32-bit; `in_flight` is pinned too.
const EXPECTED_SATURATED: &[(&str, &str)] = &[
    (
        "8x8 uniform xy ideal 2x saturation",
        "cycles=1500 nodes=64 offered=16765 delivered=8347/33407 \
         latency=4588878/1492/8347:b60907ab8ba483fc corrupt=0 \
         injected=67060 stranded=0/0 salvaged=0 residual=45566 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965 in_flight=11403",
    ),
    (
        "8x8 uniform adaptive ideal 2x saturation",
        "cycles=1500 nodes=64 offered=16833 delivered=4246/16987 \
         latency=3409322/1937/4246:4536e8bdf2e1bb37 corrupt=0 \
         injected=67332 stranded=0/0 salvaged=0 residual=67282 epochs=0 retrained=0 \
         links=224:e1b29820cee4c845 totals=f14b84b8290b8965 in_flight=16826",
    ),
];

#[test]
fn saturated_full_length_stats_match_the_pinned_lines() {
    let got: Vec<(String, String)> = saturated_cases()
        .into_iter()
        .map(|(name, s)| (name, format!("{} in_flight={}", summary(&s), s.in_flight)))
        .collect();
    assert_eq!(got.len(), EXPECTED_SATURATED.len(), "case count");
    for ((name, line), (want_name, want)) in got.iter().zip(EXPECTED_SATURATED) {
        assert_eq!(name, want_name);
        assert_eq!(line, want, "{name}");
    }
}

#[test]
fn open_loop_stats_match_the_pinned_lines() {
    let got: Vec<(String, String)> = mesh_load_cases()
        .into_iter()
        .chain(lossy_kill_cases())
        .map(|(name, s)| (name, summary(&s)))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "case count");
    for ((name, line), (want_name, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name);
        assert_eq!(line, want, "{name}");
    }
}
