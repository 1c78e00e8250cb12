//! Operation lists, generated from the workload seed.
//!
//! A workload is a sequence of *rounds* of fixed composition: every
//! round holds the same kinds of operation in the same numbers, and
//! the seed draws each operation's inputs. The rate a run reports is
//! therefore a stable function of the program's speed, while no two
//! operations of a run share their inputs.

use std::collections::HashMap;

use sal_bench::{flows, pareto, reroute};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkFamily, LinkSpec};
use sal_noc::{ChannelProtection, NodeId, RoutingMode, TrafficPattern};

use crate::{Rng, Workload};

/// Words each paper link streams in a `gate_stream` round.
pub const STREAM_WORDS: usize = 256;
/// Lanes of each bit-sliced storm.
pub const SLICED_LANES: u8 = 64;
/// Gate-level fabric shapes visited every round (columns, rows).
pub const FABRICS: [((usize, usize), LinkFamily); 2] = [
    ((3, 3), LinkFamily::PerWord),
    ((3, 2), LinkFamily::PerTransfer),
];
/// Mesh side of the `mesh_load` network.
pub const LOAD_MESH: u16 = 8;
/// Cycles per `mesh_load` operation, of which the first
/// [`LOAD_WARMUP`] are not measured.
pub const LOAD_CYCLES: u64 = 2_000;
/// Warm-up cycles per `mesh_load` operation.
pub const LOAD_WARMUP: u64 = 500;

/// One `mesh_load` configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadCell {
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Routing policy.
    pub routing: RoutingMode,
    /// Channels modelled on the I3 link (`false`: ideal channels).
    pub i3_links: bool,
    /// Offered load, flits per node per cycle.
    pub rate: f64,
    /// Network seed.
    pub seed: u64,
}

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A Pareto lattice cell: generate → netgraph → lint → `run_spec`.
    Lattice(LinkSpec),
    /// A long word stream through one link.
    Stream {
        /// The link.
        spec: LinkSpec,
        /// Seed of the words it carries ([`Op::words`]).
        words_seed: u64,
    },
    /// A 64-lane bit-sliced storm campaign pass.
    Sliced {
        /// Storm seed (`sliced::sites`).
        storm_seed: u64,
        /// Lane checked against a scalar replay (lane 0, the clean
        /// control, is always checked too).
        check_lane: u8,
    },
    /// A gate-level switch fabric under all-to-all traffic.
    Fabric {
        /// Link family on every edge.
        family: LinkFamily,
        /// Columns × rows.
        dims: (usize, usize),
        /// Seed of the payloads and send order ([`Op::traffic`]).
        traffic_seed: u64,
    },
    /// An open-loop mesh run.
    Load(LoadCell),
    /// A flow-campaign cell.
    Flow(flows::CellSpec),
    /// A reroute-campaign cell.
    Reroute(reroute::CellSpec),
}

impl Op {
    /// The words a link operation carries: seeded random words for
    /// streams, the Pareto campaign's worst-case pattern for
    /// lattice cells; empty for other operations. Expanded on demand so
    /// the operation list stays small.
    pub fn words(&self) -> Vec<u64> {
        match self {
            Op::Lattice(spec) => worst_case_pattern(pareto::CAMPAIGN_WORDS, spec.word_width()),
            Op::Stream { spec, words_seed } => words(*words_seed, STREAM_WORDS, spec.word_width()),
            _ => Vec::new(),
        }
    }

    /// A fabric's all-to-all traffic, `(source node, destination node,
    /// payload)` in send order: every node sends one seeded payload to
    /// every other node, in a seeded order. Empty for other operations.
    pub fn traffic(&self) -> Vec<(usize, usize, u64)> {
        let Op::Fabric {
            dims, traffic_seed, ..
        } = self
        else {
            return Vec::new();
        };
        let mut rng = Rng::new(*traffic_seed, 0);
        let n = dims.0 * dims.1;
        let mut traffic: Vec<(usize, usize, u64)> = (0..n)
            .flat_map(|src| {
                (0..n)
                    .filter(move |&dst| dst != src)
                    .map(move |dst| (src, dst))
            })
            .map(|(src, dst)| (src, dst, rng.below(1 << 24)))
            .collect();
        rng.shuffle(&mut traffic);
        traffic
    }

    /// Operation kind, for the per-kind summary.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Lattice(_) => "lattice_cell",
            Op::Stream { .. } => "link_stream",
            Op::Sliced { .. } => "sliced_storm",
            Op::Fabric { .. } => "switch_fabric",
            Op::Load(_) => "mesh_run",
            Op::Flow(c) if c.protection == ChannelProtection::Off => "lossy_flows",
            Op::Flow(_) => "crc8_storm_flows",
            Op::Reroute(c) if c.scenario == "storm" => "killer_storm",
            Op::Reroute(_) => "scheduled_kill",
        }
    }

    /// The `noc.ns_per_cycle.*` classes a mesh operation counts
    /// towards: its routing mode, and for chaos cells whether links
    /// are lossy, storm-struck, or die.
    pub fn noc_classes(&self) -> Vec<&'static str> {
        let routing = |adaptive: bool| if adaptive { "adaptive" } else { "xy" };
        match self {
            Op::Load(c) => vec![routing(c.routing.is_adaptive())],
            Op::Flow(c) => {
                let fault = if c.kill_links {
                    "kill"
                } else if c.protection == ChannelProtection::Off {
                    "lossy"
                } else {
                    "storm"
                };
                vec!["xy", fault]
            }
            Op::Reroute(c) => vec![routing(c.mode == "adaptive"), "kill"],
            _ => Vec::new(),
        }
    }
}

/// The operations of `rounds` rounds of `workload` under `seed`.
pub fn plan(workload: Workload, seed: u64, rounds: usize) -> Vec<Op> {
    match workload {
        Workload::LatticeSweep => lattice(seed, rounds),
        Workload::GateStream => (0..rounds).flat_map(|r| gate_round(seed, r)).collect(),
        Workload::MeshLoad => (0..rounds).flat_map(|r| load_round(seed, r)).collect(),
        Workload::MeshChaos => (0..rounds).flat_map(|r| chaos_round(seed, r)).collect(),
    }
}

/// Lattice rounds: the full grid split into strata of equal
/// (family, protection, ratio, depth), each holding its lattice
/// point's word widths in ascending order. Round `r` takes the `r`-th
/// cell of every stratum that has one, so no cell repeats and the
/// seed chooses the word width of every other lattice point.
///
/// The widths are dealt, not drawn: the seed orders the strata, and
/// among strata of one family and protection (which set most of a
/// cell's lint cost) and with as many widths, consecutive strata start
/// at consecutive widths from a seeded offset. Every round then holds
/// each width equally often, give or take one, in every such group, so
/// the work of a round varies little from seed to seed while the seed
/// still moves which ratio and depth meet which width.
fn lattice(seed: u64, rounds: usize) -> Vec<Op> {
    let mut strata: Vec<Vec<LinkSpec>> = Vec::new();
    let key = |s: &LinkSpec| {
        (
            s.family(),
            s.protection(),
            s.serial_ratio(),
            s.buffer_depth(),
        )
    };
    for spec in pareto::full_grid() {
        match strata.iter_mut().find(|s| key(&s[0]) == key(&spec)) {
            Some(stratum) => stratum.push(spec),
            None => strata.push(vec![spec]),
        }
    }
    let mut rng = Rng::new(seed, 0);
    let mut order: Vec<usize> = (0..strata.len()).collect();
    rng.shuffle(&mut order);
    let mut next_width = HashMap::new();
    for i in order {
        let stratum = &mut strata[i];
        let group = (stratum[0].family(), stratum[0].protection(), stratum.len());
        let k = next_width
            .entry(group)
            .or_insert_with(|| rng.below(pareto::WIDTHS.len() as u64) as usize);
        let start = *k % stratum.len();
        stratum.rotate_left(start);
        *k += 1;
    }
    (0..rounds)
        .flat_map(|r| {
            let mut round: Vec<Op> = strata
                .iter()
                .filter_map(|s| s.get(r))
                .cloned()
                .map(Op::Lattice)
                .collect();
            Rng::new(seed, 0x1000 + r as u64).shuffle(&mut round);
            round
        })
        .collect()
}

/// `n` seeded random words of `width` bits.
fn words(seed: u64, n: usize, width: u8) -> Vec<u64> {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut rng = Rng::new(seed, 0);
    (0..n).map(|_| rng.next_u64() & mask).collect()
}

/// One `gate_stream` round: a long stream through each paper link, a
/// sliced storm, and every fabric shape of [`FABRICS`] under
/// all-to-all traffic.
fn gate_round(seed: u64, round: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x2000 + round as u64);
    let mut ops = Vec::new();
    for family in LinkFamily::ALL {
        let spec = LinkSpec::paper(family);
        ops.push(Op::Stream {
            spec,
            words_seed: rng.next_u64(),
        });
    }
    ops.push(Op::Sliced {
        storm_seed: rng.next_u64(),
        check_lane: 1 + rng.below(u64::from(SLICED_LANES) - 1) as u8,
    });
    for (dims, family) in FABRICS {
        ops.push(Op::Fabric {
            family,
            dims,
            traffic_seed: rng.next_u64(),
        });
    }
    ops
}

/// One `mesh_load` round: every pattern × routing × channel model on
/// the 8×8 mesh, each at a seeded offered load between the pattern's
/// saturation point and twice it.
fn load_round(seed: u64, round: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x3000 + round as u64);
    let mut ops = Vec::new();
    let hot = NodeId(rng.below(u64::from(LOAD_MESH * LOAD_MESH)) as u16);
    // Saturation throughput of each pattern on the ideal 8×8 mesh,
    // flits/node/cycle (XY routing, 4-flit packets).
    let patterns = [
        (TrafficPattern::UniformRandom, 0.35),
        (TrafficPattern::Transpose, 0.17),
        (
            TrafficPattern::Hotspot {
                node: hot,
                permille: 200,
            },
            0.07,
        ),
    ];
    for (pattern, saturation) in patterns {
        for routing in [RoutingMode::XyStatic, RoutingMode::adaptive()] {
            for i3_links in [false, true] {
                ops.push(Op::Load(LoadCell {
                    pattern,
                    routing,
                    i3_links,
                    rate: rng.range_f64(saturation, 2.0 * saturation),
                    seed: rng.next_u64(),
                }));
            }
        }
    }
    ops
}

/// One `mesh_chaos` round: an unprotected lossy flow cell, a CRC-8
/// bursty storm, a scheduled link kill and a link-killer storm under
/// adaptive routing, coordinates from the campaign grids. Coordinates
/// cycle with the round index (every 24 rounds visit every combination
/// equally; the seed picks where a run enters the cycle), so runs of
/// equal length hold the same mix. Round 0 runs the campaigns' own
/// network seeds, so its cells are campaign cells (checked against the
/// fixtures when committed there); later rounds draw fresh ones.
fn chaos_round(seed: u64, round: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x4000 + round as u64);
    let mut net_seed = || {
        if round == 0 {
            rng.pick(&flows::SEEDS)
        } else {
            1_000 + rng.below(1 << 32)
        }
    };
    let k = round + (seed % 24) as usize;
    let layout = |i: usize| flows::LAYOUTS[i % 2];
    let rate = |i: usize| flows::RATES[1 + i % 3];
    let lossy = flows::CellSpec {
        layout: layout(k),
        process: flows::PROCESSES[(k / 2) % 2],
        protection: ChannelProtection::Off,
        rate: rate(k / 4),
        seed: net_seed(),
        kill_links: false,
    };
    let storm = flows::CellSpec {
        layout: layout(k + 1),
        process: "bursty",
        protection: ChannelProtection::Crc8,
        rate: rate(k),
        seed: net_seed(),
        kill_links: false,
    };
    let kill = reroute::CellSpec {
        scenario: reroute::SCENARIOS[k % 2],
        layout: layout(k / 2),
        mode: reroute::MODES[(k / 4) % 2],
        seed: net_seed(),
    };
    let killer = reroute::CellSpec {
        scenario: "storm",
        layout: layout(k + 1),
        mode: "adaptive",
        seed: net_seed(),
    };
    vec![
        Op::Flow(lossy),
        Op::Flow(storm),
        Op::Reroute(kill),
        Op::Reroute(killer),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_operations() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7, 2), plan(w, 7, 2), "{}", w.name());
        }
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        for w in Workload::ALL {
            assert_ne!(plan(w, 7, 2), plan(w, 8, 2), "{}", w.name());
        }
    }

    #[test]
    fn no_operation_repeats_within_a_run() {
        for w in Workload::ALL {
            let ops = plan(w, 11, 4);
            for (i, a) in ops.iter().enumerate() {
                assert!(
                    !ops[i + 1..].contains(a),
                    "{}: op {i} repeats: {a:?}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn a_lattice_round_covers_every_axis() {
        let ops = plan(Workload::LatticeSweep, 3, 1);
        let specs: Vec<&LinkSpec> = ops
            .iter()
            .map(|o| match o {
                Op::Lattice(s) => s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            specs.len(),
            75,
            "one cell per (family, protection, ratio, depth)"
        );
        for family in LinkFamily::ALL {
            assert!(specs.iter().any(|s| s.family() == family));
        }
        for w in pareto::WIDTHS {
            assert!(specs.iter().any(|s| s.word_width() == w), "width {w}");
        }
        for r in pareto::RATIOS {
            assert!(specs.iter().any(|s| s.serial_ratio() == r), "ratio {r}");
        }
        for d in pareto::DEPTHS {
            assert!(specs.iter().any(|s| s.buffer_depth() == d), "depth {d}");
        }
        for p in pareto::PROTECTIONS {
            assert!(
                specs.iter().any(|s| s.protection() == p),
                "protection {p:?}"
            );
        }
        // Past the smallest strata, later rounds shrink instead of
        // repeating cells; the whole grid is visited exactly once.
        assert_eq!(
            plan(Workload::LatticeSweep, 3, 9).len(),
            pareto::full_grid().len()
        );
    }

    #[test]
    fn a_lattice_round_deals_widths_evenly() {
        let grid = pareto::full_grid();
        let point = |s: &LinkSpec| {
            (
                s.family(),
                s.protection(),
                s.serial_ratio(),
                s.buffer_depth(),
            )
        };
        for seed in 0..16 {
            let mut counts: HashMap<_, HashMap<u8, usize>> = HashMap::new();
            for op in plan(Workload::LatticeSweep, seed, 1) {
                let Op::Lattice(s) = op else {
                    unreachable!("lattice rounds hold lattice cells")
                };
                let widths = grid.iter().filter(|g| point(g) == point(&s)).count();
                let group = (s.family(), s.protection(), widths);
                *counts
                    .entry(group)
                    .or_default()
                    .entry(s.word_width())
                    .or_default() += 1;
            }
            for (group, per_width) in counts {
                let lo = per_width.values().min().unwrap();
                let hi = per_width.values().max().unwrap();
                assert!(hi - lo <= 1, "seed {seed}, {group:?}: {per_width:?}");
            }
        }
    }

    #[test]
    fn rounds_have_a_fixed_composition() {
        for w in [
            Workload::GateStream,
            Workload::MeshLoad,
            Workload::MeshChaos,
        ] {
            let kinds = |seed| {
                let mut k: Vec<&str> = plan(w, seed, 1).iter().map(Op::kind).collect();
                k.sort_unstable();
                k
            };
            assert_eq!(kinds(1), kinds(2), "{}", w.name());
        }
    }
}
