//! # sal-noc — the NoC substrate
//!
//! The paper studies *links*, but its motivation (§I–II) is the
//! network: switches connected by point-to-point links whose wire
//! count explodes as clocks slow down. This crate provides the
//! surrounding network the paper presumes — a cycle-driven 2-D mesh of
//! input-buffered wormhole switches with dimension-ordered (XY)
//! routing and standard synthetic traffic — with the switch-to-switch
//! channels parameterised by a [`LinkModel`] derived from the three
//! link implementations of `sal-link`.
//!
//! This lets the repository quantify the paper's system-level claim:
//! replacing wide parallel links with 8-wire serialized asynchronous
//! links keeps network throughput intact (up to the links' self-timed
//! upper bound) while cutting the wiring by 75 %.
//!
//! ```
//! use sal_noc::{FlowSpec, LinkModel, Mesh, NetworkConfig, Network, NodeId, TrafficPattern};
//!
//! let cfg = NetworkConfig {
//!     mesh: Mesh::new(4, 4),
//!     link: LinkModel::ideal(),
//!     input_queue_flits: 8,
//!     packet_len_flits: 4,
//!     faults: None,
//!     routing: sal_noc::RoutingMode::XyStatic,
//!     link_kills: Vec::new(),
//! };
//! let mut net = Network::new(cfg.clone(), TrafficPattern::UniformRandom, 0.1, 42);
//! let stats = net.run(2_000, 500);
//! assert!(stats.delivered_packets > 0);
//! let flows = [FlowSpec { src: NodeId(0), dst: NodeId(15), packets: 10 }];
//! assert!(Network::with_flows(cfg, &flows, 42).run_flows(100_000).completed);
//! ```
//!
//! Beyond open-loop traffic, the crate models *lossy* channels
//! ([`ChannelFaults`]: seeded i.i.d. or bursty Gilbert–Elliott error
//! processes with a NACK/timeout/resync/degrade/fail escalation
//! ladder) and *end-to-end flows* ([`Network::with_flows`] over
//! [`FlowSpec`]s: windowed senders with AIMD congestion control,
//! cumulative acks riding the mesh, and a progress watchdog that names
//! starved flows and stalled channels instead of hanging). A network
//! runs exactly one traffic source, fixed by its constructor:
//! `Network<OpenLoop>` has [`Network::run`], `Network<Flows>` has
//! [`Network::run_flows`].
//!
//! Routing is pluggable ([`RoutingMode`]): static dimension-ordered
//! XY, or fault-tolerant adaptive routing that survives permanent link
//! failure by online reconfiguration — odd-even turn-model adaptivity
//! on the whole mesh, up*/down* routing around holes, stranded/salvaged
//! packet accounting, and health-biased output selection away from
//! degraded channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod flow;
mod link_model;
mod network;
mod packet;
mod router;
mod routing;
mod stats;
mod topology;
mod traffic;

pub use fault::{ChannelFaults, ChannelProtection, ErrorProcess, RecoveryCounts, RecoveryTotals};
pub use flow::{FlowCounts, FlowId, FlowSpec, FlowStats, StallReport, StalledChannel, StarvedFlow};
pub use link_model::LinkModel;
pub use network::{FlowNetReport, Flows, Network, NetworkConfig, OpenLoop, RECONFIG_PAUSE};
pub use routing::{LinkKill, RoutingMode};
pub use stats::{LinkRecovery, NetworkStats};
pub use topology::{Direction, Mesh, NodeId};
pub use traffic::TrafficPattern;
