//! Fault-tolerant routing: turn-model adaptivity and online
//! reconfiguration around failed links.
//!
//! PR 7 made link failure *diagnosable* — a dead channel ends in a
//! named livelock — but the mesh could not *survive* it, because
//! routing was hardcoded XY ([`Mesh::route_xy`]). This module replaces
//! that single static decision with a [`RouteTable`] that runs one of
//! two deadlock-free regimes and is rebuilt online whenever a channel
//! enters `Failed`:
//!
//! * **Whole mesh (no failed links): odd-even turn model.** Minimal
//!   adaptive routing with Chiu's column-parity turn restrictions —
//!   an EN or ES turn is forbidden in even columns, an NW or SW turn
//!   in odd columns. Every minimal quadrant keeps at least one legal
//!   output, the restricted turn set admits no cycle, and adaptivity
//!   between the legal outputs is what lets the router *bias away
//!   from* Degraded or Resyncing channels instead of queueing into
//!   them.
//!
//! * **Mesh with holes (any failed link): up\*/down\* routing.** Nodes
//!   are totally ordered by a BFS from node 0 over the surviving
//!   topology; a directed channel is *up* if it points to a
//!   smaller-ordered node, *down* otherwise. A legal path is `up*
//!   down*` — once a packet takes a down channel it may never climb
//!   again — which makes the channel-dependency graph acyclic for any
//!   failure pattern, including ones XY cannot route around. The
//!   committed-phase of a packet is recovered from its *input port*
//!   (the orientation of the channel it arrived on), so the table
//!   stays stateless per hop. Routes are minimal *within the legal
//!   path set*: every hop strictly decreases the precomputed
//!   legal-path distance, so routes are loop-free and reach the
//!   destination whenever a legal path exists; destinations with no
//!   surviving legal path are reported as unroutable (`None`). When a
//!   failure pattern severs part of the fabric outright (see
//!   [`RouteTable::unroutable_pairs`]), the network's last-resort
//!   retrain revives the minimal failed channels rather than abandon
//!   a node.
//!
//! Reconfiguration is an *epoch*: the network drains the dead wire,
//! salvages wormholes whose head had not yet crossed (they simply
//! re-route), strands severed packets for the transport layer to
//! retransmit, rebuilds this table against the new failure set, and
//! pauses injection for a bounded number of cycles. See DESIGN.md §5h
//! for the deadlock-freedom argument across an epoch boundary.

use std::collections::VecDeque;

use crate::{Direction, Mesh, NodeId};

/// How a [`crate::Network`] routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// Dimension-ordered XY, computed statically from the mesh — the
    /// pre-reroute behaviour. Link failures are *not* routed around:
    /// flows crossing a dead link starve and the watchdog names them.
    XyStatic,
    /// Fault-tolerant adaptive routing over a live route table:
    /// odd-even adaptivity while the mesh is whole, up*/down*
    /// reconfiguration around failed links, health-biased choice
    /// between permitted outputs. Injection pauses for
    /// [`RECONFIG_PAUSE`](crate::RECONFIG_PAUSE) cycles after each
    /// reconfiguration.
    Adaptive,
}

impl RoutingMode {
    /// Adaptive routing.
    pub fn adaptive() -> Self {
        RoutingMode::Adaptive
    }

    /// True for the adaptive variant.
    pub fn is_adaptive(self) -> bool {
        self == RoutingMode::Adaptive
    }
}

/// A scheduled permanent failure of one directed channel: at `cycle`,
/// the channel leaving `node` toward `dir` dies. Directed scenarios
/// (as opposed to storm-driven escalation) make failure placement a
/// controlled experiment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkKill {
    /// Cycle the channel fails.
    pub cycle: u64,
    /// Upstream node of the channel.
    pub node: NodeId,
    /// Direction the channel points.
    pub dir: Direction,
}

impl LinkKill {
    /// Both directions of the physical link between `a` and its
    /// neighbour in `dir`, killed at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `a` has no neighbour in `dir`.
    pub fn both_ways(mesh: &Mesh, cycle: u64, a: NodeId, dir: Direction) -> [LinkKill; 2] {
        let b = mesh.neighbor(a, dir).expect("kill of a link off the mesh edge");
        [
            LinkKill { cycle, node: a, dir },
            LinkKill { cycle, node: b, dir: dir.opposite() },
        ]
    }
}

const INF: u32 = u32::MAX;

/// A set of output directions, one bit per [`Direction::index`]: the
/// routing functions fill it without allocating.
#[derive(Debug, Clone, Copy, Default)]
struct DirSet(u8);

impl DirSet {
    fn insert(&mut self, d: Direction) {
        self.0 |= 1 << d.index();
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members in direction-index order.
    fn iter(self) -> impl Iterator<Item = Direction> {
        Direction::ALL.into_iter().filter(move |d| self.0 & 1 << d.index() != 0)
    }
}

/// Up phase: the packet may still take up or down channels.
const UP: usize = 0;
/// Down phase: the packet has committed to descending.
const DOWN: usize = 1;

/// The live routing function of a network: permitted-output sets per
/// `(source, current, input port, destination)`, rebuilt against the
/// current failed-channel set on every reconfiguration epoch.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    mesh: Mesh,
    /// Failed flag per dense channel id ([`Mesh::channel_id`]); only
    /// read in the up*/down* regime.
    failed: Vec<bool>,
    /// Up*/down* total order per node (`INF`: unreachable from the
    /// root over the surviving topology). Empty while the mesh is
    /// whole: the odd-even regime needs no precomputation, and an
    /// empty order is what selects it.
    order: Vec<u32>,
    /// `dist[dst][node][phase]`: shortest legal-path length to `dst`
    /// from `node` in `phase`, hops; `INF` when no legal path exists.
    dist: Vec<Vec<[u32; 2]>>,
}

impl RouteTable {
    /// A pristine table for a whole mesh (odd-even regime).
    pub(crate) fn new(mesh: Mesh) -> Self {
        RouteTable { mesh, failed: Vec::new(), order: Vec::new(), dist: Vec::new() }
    }

    /// Rebuilds the table against a new failed-channel set, one flag
    /// per dense channel id (one reconfiguration epoch). With nothing
    /// failed the table returns to the odd-even regime; otherwise the
    /// up*/down* order and legal-path distances are recomputed over
    /// the survivors.
    ///
    /// # Panics
    ///
    /// Panics unless `failed` has one flag per channel id
    /// (`4 * mesh.nodes()`).
    pub(crate) fn rebuild(&mut self, failed: &[bool]) {
        let n = self.mesh.nodes();
        assert_eq!(failed.len(), 4 * n, "one failed flag per channel id");
        self.failed.clear();
        self.failed.extend_from_slice(failed);
        if !failed.contains(&true) {
            self.order.clear();
            self.dist.clear();
            return;
        }
        // Total order: BFS from node 0 over links with at least one
        // surviving direction. BFS discovery order is level-monotone,
        // so every reachable non-root node has a lower-ordered
        // neighbour (its BFS parent) — an up path to the root always
        // exists when the directed channels along it survive.
        let mut order = vec![INF; n];
        let mut q = VecDeque::new();
        order[0] = 0;
        q.push_back(NodeId(0));
        let mut next = 1u32;
        while let Some(u) = q.pop_front() {
            for dir in [Direction::North, Direction::South, Direction::East, Direction::West] {
                let Some(v) = self.mesh.neighbor(u, dir) else { continue };
                let either_alive = !self.failed[self.mesh.channel_id(u, dir)]
                    || !self.failed[self.mesh.channel_id(v, dir.opposite())];
                if order[v.0 as usize] == INF && either_alive {
                    order[v.0 as usize] = next;
                    next += 1;
                    q.push_back(v);
                }
            }
        }
        self.order = order;
        // Legal-path distances: per destination, a reverse BFS over
        // the two-phase automaton (up edges keep the Up phase, down
        // edges commit to Down).
        self.dist = (0..n as u16)
            .map(|d| self.legal_distances(NodeId(d)))
            .collect();
    }

    /// True if the directed channel `at → dir` survives.
    fn usable(&self, at: NodeId, dir: Direction) -> bool {
        self.mesh.neighbor(at, dir).is_some() && !self.failed[self.mesh.channel_id(at, dir)]
    }

    /// Channel orientation: `at → v` is up iff `v` is closer to the
    /// root in the total order.
    fn is_up(&self, at: NodeId, v: NodeId) -> bool {
        self.order[v.0 as usize] < self.order[at.0 as usize]
    }

    /// Reverse BFS from `dst` over the phase automaton.
    fn legal_distances(&self, dst: NodeId) -> Vec<[u32; 2]> {
        let n = self.mesh.nodes();
        let mut dist = vec![[INF; 2]; n];
        let mut q = VecDeque::new();
        dist[dst.0 as usize] = [0, 0];
        q.push_back((dst, UP));
        q.push_back((dst, DOWN));
        while let Some((v, phase)) = q.pop_front() {
            let dv = dist[v.0 as usize][phase];
            // Predecessors (u, pu) with a usable channel u → v whose
            // traversal lands in `phase`.
            for dir in [Direction::North, Direction::South, Direction::East, Direction::West] {
                // u is v's neighbour; the channel u → v points back.
                let Some(u) = self.mesh.neighbor(v, dir) else { continue };
                let back = dir.opposite();
                if !self.usable(u, back) {
                    continue;
                }
                let up = self.is_up(u, v);
                // An up traversal arrives in Up phase; a down
                // traversal arrives in Down phase.
                if (up && phase == UP) || (!up && phase == DOWN) {
                    let preds: &[usize] = if up { &[UP] } else { &[UP, DOWN] };
                    for &pu in preds {
                        if dist[u.0 as usize][pu] == INF {
                            dist[u.0 as usize][pu] = dv + 1;
                            q.push_back((u, pu));
                        }
                    }
                }
            }
        }
        dist
    }

    /// Ordered `(src, dst)` pairs a *fresh injection* cannot legally
    /// reach (`src ≠ dst`, no legal path from the Up phase). Non-zero
    /// means the failure pattern has severed part of the fabric — the
    /// routability test behind the last-resort link retrain in
    /// `Network::handle_failures`.
    pub(crate) fn unroutable_pairs(&self) -> u32 {
        if self.order.is_empty() {
            // Odd-even on a whole mesh routes every pair.
            return 0;
        }
        let n = self.mesh.nodes();
        let mut gaps = 0;
        for dst in 0..n {
            for src in 0..n {
                if src != dst && self.dist[dst][src][UP] == INF {
                    gaps += 1;
                }
            }
        }
        gaps
    }

    /// The phase a packet occupies at `at` given the port it arrived
    /// on (`Local`: freshly injected, still free to climb).
    fn phase_of(&self, at: NodeId, in_port: Direction) -> usize {
        match in_port {
            Direction::Local => UP,
            p => {
                let from = self.mesh.neighbor(at, p).expect("arrival from off the mesh");
                if self.is_up(from, at) { UP } else { DOWN }
            }
        }
    }

    /// Permitted outputs under the active regime, unbiased. Empty
    /// means unroutable (destination severed from the survivors).
    fn permitted_set(&self, src: NodeId, at: NodeId, in_port: Direction, dst: NodeId) -> DirSet {
        if at == dst {
            return DirSet(1 << Direction::Local.index());
        }
        if self.order.is_empty() {
            self.odd_even_permitted(src, at, dst)
        } else {
            self.updown_permitted(at, in_port, dst)
        }
    }

    /// The single routing decision point: permitted outputs ranked by
    /// `(score, direction index)` — the network's score feeds channel
    /// health and queue depth in, so route choice bends away from
    /// Degraded and Resyncing links deterministically. The permitted
    /// set is walked in index order and the first minimum kept, so the
    /// call allocates nothing.
    pub(crate) fn choose(
        &self,
        src: NodeId,
        at: NodeId,
        in_port: Direction,
        dst: NodeId,
        mut score: impl FnMut(Direction) -> u32,
    ) -> Option<Direction> {
        self.permitted_set(src, at, in_port, dst).iter().min_by_key(|&d| score(d))
    }

    /// Chiu's odd-even ROUTE function: the minimal outputs whose
    /// turns respect the column-parity restrictions. Needs the source
    /// column (packets may turn freely in it — no eastward travel has
    /// happened yet).
    fn odd_even_permitted(&self, src: NodeId, at: NodeId, dst: NodeId) -> DirSet {
        let (cx, cy) = self.mesh.coords(at);
        let (dx, dy) = self.mesh.coords(dst);
        let (sx, _) = self.mesh.coords(src);
        let ydir = if dy > cy { Direction::South } else { Direction::North };
        let mut out = DirSet::default();
        match dx.cmp(&cx) {
            std::cmp::Ordering::Equal => out.insert(ydir),
            std::cmp::Ordering::Greater => {
                // Eastbound: E→N/E→S turns are only legal in odd
                // columns, so the Y moves are offered there (and in
                // the source column, where no eastward travel has
                // happened); the final E hop into an even destination
                // column must land with the Y offset already resolved.
                if dy == cy {
                    out.insert(Direction::East);
                } else {
                    if cx % 2 == 1 || cx == sx {
                        out.insert(ydir);
                    }
                    if dx % 2 == 1 || dx - cx != 1 {
                        out.insert(Direction::East);
                    }
                }
            }
            std::cmp::Ordering::Less => {
                // Westbound: N→W/S→W turns are only legal in even
                // columns, so Y detour capacity is offered there; West
                // itself is always minimal and legal.
                out.insert(Direction::West);
                if cx % 2 == 0 && dy != cy {
                    out.insert(ydir);
                }
            }
        }
        debug_assert!(!out.is_empty(), "odd-even left no minimal output {at} -> {dst}");
        out
    }

    /// Up*/down* permitted outputs: usable channels legal from the
    /// current phase that strictly decrease the legal-path distance.
    fn updown_permitted(&self, at: NodeId, in_port: Direction, dst: NodeId) -> DirSet {
        let phase = self.phase_of(at, in_port);
        let dcur = self.dist[dst.0 as usize][at.0 as usize][phase];
        let mut out = DirSet::default();
        if dcur == INF {
            return out;
        }
        for dir in [Direction::North, Direction::South, Direction::East, Direction::West] {
            if !self.usable(at, dir) {
                continue;
            }
            let v = self.mesh.neighbor(at, dir).expect("usable channel has a far end");
            let up = self.is_up(at, v);
            if phase == DOWN && up {
                continue; // down→up turns are what up*/down* forbids
            }
            let nphase = if up { UP } else { DOWN };
            if self.dist[dst.0 as usize][v.0 as usize][nphase].saturating_add(1) == dcur {
                out.insert(dir);
            }
        }
        debug_assert!(!out.is_empty(), "finite legal distance but no decreasing output");
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::fault::ChannelState;

    /// Failed flags for both directions of each listed physical link.
    fn failed_links(mesh: Mesh, links: &[(NodeId, Direction)]) -> Vec<bool> {
        let mut failed = vec![false; 4 * mesh.nodes()];
        for &(n, d) in links {
            for k in LinkKill::both_ways(&mesh, 0, n, d) {
                failed[mesh.channel_id(k.node, k.dir)] = true;
            }
        }
        failed
    }

    /// The permitted outputs, in direction-index order.
    fn permitted(
        t: &RouteTable,
        src: NodeId,
        at: NodeId,
        in_port: Direction,
        dst: NodeId,
    ) -> Vec<Direction> {
        t.permitted_set(src, at, in_port, dst).iter().collect()
    }

    /// Walks every adaptive branch from `src` toward `dst`, asserting
    /// minimality and collecting `(travel_from, travel_to, column)`
    /// turns; `in_port` tracks the arrival port for phase recovery.
    #[allow(clippy::too_many_arguments)]
    fn walk_all(
        t: &RouteTable,
        mesh: Mesh,
        src: NodeId,
        at: NodeId,
        in_port: Direction,
        dst: NodeId,
        steps: u32,
        turns: &mut Vec<(Direction, Direction, u16)>,
    ) {
        assert!(steps <= 64, "routing loop {src} -> {dst}");
        if at == dst {
            return;
        }
        let permitted = permitted(t, src, at, in_port, dst);
        assert!(!permitted.is_empty(), "no route {src} -> {dst} at {at}");
        for dir in permitted {
            let next = mesh.neighbor(at, dir).expect("route led off the mesh");
            if in_port != Direction::Local {
                // Travel direction into `at` is the opposite of the
                // port the flit arrived on.
                turns.push((in_port.opposite(), dir, mesh.coords(at).0));
            }
            walk_all(t, mesh, src, next, dir.opposite(), dst, steps + 1, turns);
        }
    }

    #[test]
    fn odd_even_routes_are_minimal_and_complete() {
        let mesh = Mesh::new(5, 4);
        let t = RouteTable::new(mesh);
        for src in mesh.node_ids() {
            for dst in mesh.node_ids() {
                if src == dst {
                    continue;
                }
                // Every adaptive branch must be minimal: walk with a
                // step budget of exactly hops(src, dst).
                let mut at = src;
                let mut in_port = Direction::Local;
                let mut steps = 0;
                // Deterministic first-choice walk.
                while at != dst {
                    let dir = t
                        .choose(src, at, in_port, dst, |_| 0)
                        .expect("whole mesh must route everywhere");
                    at = mesh.neighbor(at, dir).expect("off mesh");
                    in_port = dir.opposite();
                    steps += 1;
                    assert!(steps <= mesh.hops(src, dst), "non-minimal {src} -> {dst}");
                }
                assert_eq!(steps, mesh.hops(src, dst));
            }
        }
    }

    #[test]
    fn odd_even_turns_respect_column_parity() {
        let mesh = Mesh::new(5, 4);
        let t = RouteTable::new(mesh);
        let mut turns = Vec::new();
        for src in mesh.node_ids() {
            for dst in mesh.node_ids() {
                if src != dst {
                    walk_all(&t, mesh, src, src, Direction::Local, dst, 0, &mut turns);
                }
            }
        }
        assert!(!turns.is_empty());
        for (from, to, col) in turns {
            let even = col % 2 == 0;
            match (from, to) {
                // Rule 1/2: no EN or ES turn in an even column.
                (Direction::East, Direction::North | Direction::South) => {
                    assert!(!even, "E->{to:?} turn in even column {col}");
                }
                // No NW or SW turn in an odd column.
                (Direction::North | Direction::South, Direction::West) => {
                    assert!(even, "{from:?}->W turn in odd column {col}");
                }
                // 180° turns never.
                (a, b) => assert_ne!(b, a.opposite(), "180 degree turn in column {col}"),
            }
        }
    }

    #[test]
    fn updown_reroutes_around_every_single_link_failure() {
        let mesh = Mesh::new(4, 4);
        for n in mesh.node_ids() {
            for dir in [Direction::North, Direction::South, Direction::East, Direction::West] {
                if mesh.neighbor(n, dir).is_none() {
                    continue;
                }
                let mut t = RouteTable::new(mesh);
                let failed = failed_links(mesh, &[(n, dir)]);
                t.rebuild(&failed);
                for src in mesh.node_ids() {
                    for dst in mesh.node_ids() {
                        if src == dst {
                            continue;
                        }
                        // Follow first choices; must reach dst without
                        // ever using a failed channel or looping.
                        let mut at = src;
                        let mut in_port = Direction::Local;
                        let mut steps = 0;
                        while at != dst {
                            let d = t
                                .choose(src, at, in_port, dst, |_| 0)
                                .unwrap_or_else(|| panic!("unroutable {src}->{dst} killing {n} {dir:?}"));
                            assert!(
                                !failed[mesh.channel_id(at, d)],
                                "routed into the dead channel"
                            );
                            at = mesh.neighbor(at, d).expect("off mesh");
                            in_port = d.opposite();
                            steps += 1;
                            assert!(steps <= 32, "loop {src}->{dst}");
                        }
                        // Minimal-or-detour: never shorter than Manhattan.
                        assert!(steps >= mesh.hops(src, dst));
                    }
                }
            }
        }
    }

    #[test]
    fn updown_never_turns_down_then_up() {
        let mesh = Mesh::new(4, 4);
        let mut t = RouteTable::new(mesh);
        t.rebuild(&failed_links(mesh, &[(NodeId(5), Direction::East)]));
        for src in mesh.node_ids() {
            for dst in mesh.node_ids() {
                if src == dst {
                    continue;
                }
                let mut at = src;
                let mut in_port = Direction::Local;
                let mut descended = false;
                while at != dst {
                    let d = t.choose(src, at, in_port, dst, |_| 0).expect("routable");
                    let v = mesh.neighbor(at, d).expect("off mesh");
                    let up = t.is_up(at, v);
                    if descended {
                        assert!(!up, "down->up turn at {at} for {src}->{dst}");
                    }
                    descended |= !up;
                    at = v;
                    in_port = d.opposite();
                }
            }
        }
    }

    #[test]
    fn severed_destination_is_reported_unroutable() {
        // Cut node 0 (corner) off entirely: both its links die.
        let mesh = Mesh::new(4, 4);
        let mut t = RouteTable::new(mesh);
        t.rebuild(&failed_links(
            mesh,
            &[(NodeId(0), Direction::East), (NodeId(0), Direction::South)],
        ));
        assert!(t.unroutable_pairs() > 0);
        assert_eq!(
            t.choose(NodeId(5), NodeId(5), Direction::Local, NodeId(0), |_| 0),
            None,
            "severed destination must be unroutable, not a loop"
        );
        assert_eq!(t.choose(NodeId(0), NodeId(0), Direction::Local, NodeId(5), |_| 0), None);
        // Other pairs still route.
        assert!(t.choose(NodeId(5), NodeId(5), Direction::Local, NodeId(15), |_| 0).is_some());
    }

    #[test]
    fn health_bias_prefers_the_cleaner_permitted_output() {
        let mesh = Mesh::new(4, 4);
        let t = RouteTable::new(mesh);
        // From n5 (1,1) to n15 (3,3): odd column 1 eastbound offers
        // both South and East. Penalizing East must flip the choice.
        let src = NodeId(5);
        let p = permitted(&t, src, src, Direction::Local, NodeId(15));
        assert!(p.contains(&Direction::East) && p.contains(&Direction::South), "{p:?}");
        let east_bad = t.choose(src, src, Direction::Local, NodeId(15), |d| {
            u32::from(d == Direction::East) * ChannelState::Degraded { until: 0 }.penalty()
        });
        assert_eq!(east_bad, Some(Direction::South));
        let south_bad = t.choose(src, src, Direction::Local, NodeId(15), |d| {
            u32::from(d == Direction::South) * ChannelState::Degraded { until: 0 }.penalty()
        });
        assert_eq!(south_bad, Some(Direction::East));
    }

    #[test]
    fn rebuild_to_empty_returns_to_odd_even() {
        let mesh = Mesh::new(4, 4);
        let mut t = RouteTable::new(mesh);
        let mut failed = vec![false; 4 * mesh.nodes()];
        failed[mesh.channel_id(NodeId(5), Direction::East)] = true;
        t.rebuild(&failed);
        assert!(!t.order.is_empty(), "a failure selects up*/down*");
        t.rebuild(&vec![false; 4 * mesh.nodes()]);
        assert!(t.order.is_empty(), "a whole mesh selects odd-even");
        // Odd-even again: minimal everywhere.
        assert_eq!(
            t.choose(NodeId(0), NodeId(0), Direction::Local, NodeId(3), |_| 0),
            Some(Direction::East)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn choose_is_the_argmin_of_permitted(
            dims in (2u16..7, 2u16..7),
            kills in proptest::collection::vec((any::<u16>(), 0usize..4), 0..7),
            picks in (any::<u16>(), any::<u16>(), any::<u16>(), 0usize..5),
            scores in proptest::collection::vec(0u32..3, 5..6),
        ) {
            let mesh = Mesh::new(dims.0, dims.1);
            let n = mesh.nodes() as u16;
            let mut failed = vec![false; 4 * mesh.nodes()];
            for &(node, dir) in &kills {
                let node = NodeId(node % n);
                let dir = Direction::CARDINAL[dir];
                // Both dimensions are at least 2, so an edge port's
                // opposite always has a neighbour.
                let dir = if mesh.neighbor(node, dir).is_some() { dir } else { dir.opposite() };
                failed[mesh.channel_id(node, dir)] = true;
            }
            let mut t = RouteTable::new(mesh);
            t.rebuild(&failed);
            let (src, at, dst) = (NodeId(picks.0 % n), NodeId(picks.1 % n), NodeId(picks.2 % n));
            let ports: Vec<Direction> = Direction::ALL
                .into_iter()
                .filter(|&d| d == Direction::Local || mesh.neighbor(at, d).is_some())
                .collect();
            let in_port = ports[picks.3 % ports.len()];
            let score = |d: Direction| scores[d.index()];
            let argmin = permitted(&t, src, at, in_port, dst)
                .into_iter()
                .min_by_key(|&d| (score(d), d.index()));
            prop_assert_eq!(t.choose(src, at, in_port, dst, score), argmin);
        }
    }
}
