//! The 5-port input-buffered wormhole switch.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::{Direction, Flit, PacketId};

/// One router of the mesh: five input FIFOs (N/S/E/W/Local), a route
/// decision per head flit (delegated to the network's route table —
/// the router itself holds no routing policy), round-robin output
/// arbitration, and wormhole locking (an output granted to a packet
/// stays granted until its tail passes).
#[derive(Debug)]
pub struct Router {
    inputs: [VecDeque<Flit>; 5],
    capacity: usize,
    /// Which input and packet currently own each output (wormhole
    /// lock). Tracking the packet id (not just the input) lets the
    /// lock survive interleaved arrivals and lets reconfiguration
    /// salvage or sever it precisely.
    output_owner: [Option<(usize, PacketId)>; 5],
    /// Round-robin arbitration pointer per output.
    rr: [usize; 5],
}

impl Router {
    /// Creates a router with the given per-input FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "input queue needs capacity");
        Router {
            inputs: Default::default(),
            capacity,
            output_owner: [None; 5],
            rr: [0; 5],
        }
    }

    /// Free slots in the input FIFO of `port`.
    pub fn free_slots(&self, port: Direction) -> usize {
        self.capacity - self.inputs[port.index()].len()
    }

    /// Total buffered flits across all inputs.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(|q| q.len()).sum()
    }

    /// Enqueues an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the input FIFO is full (callers must check
    /// [`Router::free_slots`] — the channel models backpressure).
    pub fn accept(&mut self, port: Direction, flit: Flit) {
        let q = &mut self.inputs[port.index()];
        assert!(q.len() < self.capacity, "input overrun on the {port:?} port");
        q.push_back(flit);
    }

    /// Arbitration + switch traversal for one cycle: returns up to one
    /// flit per output port as `(output, flit)`.
    ///
    /// `route(in_port, head)` is the single routing decision point: it
    /// names the output the head flit (which arrived on `in_port`)
    /// must take, or `None` if the destination is currently
    /// unroutable (the head waits; the flow watchdog names persistent
    /// cases). `can_send(output)` tells the router whether the
    /// downstream channel can accept a flit this cycle (`Local`
    /// ejection is always possible).
    ///
    /// Arbitration runs on request masks. At the start of the step
    /// every input whose front flit is a head of a packet owning no
    /// output here is routed once, and sets its bit in the 5-bit mask
    /// of the output it names (a U-turn request is dropped). Outputs
    /// are then visited in [`Direction::ALL`] order: a free output
    /// grants the first requesting input at or after its round-robin
    /// pointer, and an owned output forwards one flit of its packet.
    /// Each pop lets the input's new front request in turn, so a
    /// forwarded single-flit packet can expose a head that a later
    /// output grants in the same step.
    ///
    /// `route` is called at most once per input head per step and must
    /// be pure within a step: static XY is a function of the head, and
    /// adaptive routing chooses over scores frozen before the step.
    /// A packet's flits sit in one input, so no packet requests twice.
    pub fn step<R, F>(&mut self, mut route: R, mut can_send: F) -> Vec<(Direction, Flit)>
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut requests = [0u32; 5];
        for ii in 0..5 {
            self.request(ii, &mut route, &mut requests);
        }
        let mut moves = Vec::new();
        for out in Direction::ALL {
            let oi = out.index();
            // Grant the output if free: rotating the mask by the
            // round-robin pointer puts the first requester in scan
            // order (rr, rr+1, … mod 5) at the lowest bit.
            let mask = requests[oi];
            if self.output_owner[oi].is_none() && mask != 0 {
                let rr = self.rr[oi];
                let rotated = (mask >> rr | mask << (5 - rr)) & 0x1f;
                let ii = (rr + rotated.trailing_zeros() as usize) % 5;
                let head = self.inputs[ii].front().expect("a request has a head flit");
                self.output_owner[oi] = Some((ii, head.packet));
                self.rr[oi] = (ii + 1) % 5;
            }
            // Traverse: forward one flit from the owning input.
            if let Some((ii, pid)) = self.output_owner[oi] {
                if !can_send(out) {
                    continue;
                }
                // The owning input's front flit may not have arrived yet.
                let Some(front) = self.inputs[ii].front() else { continue };
                // Only forward flits of the owning packet — the head
                // established the claim; body/tail follow in FIFO
                // order, so a different packet at the front means the
                // owner's next flit is still in flight upstream.
                if front.packet != pid {
                    continue;
                }
                let flit = *front;
                self.inputs[ii].pop_front();
                if flit.is_tail() {
                    self.output_owner[oi] = None;
                }
                moves.push((out, flit));
                // The popped front belonged to this output's packet, so
                // the input held no request; its new front may.
                self.request(ii, &mut route, &mut requests);
            }
        }
        moves
    }

    /// Sets input `ii`'s bit in the mask of the output its front flit
    /// routes to, if that flit is a head whose packet owns no output.
    fn request<R>(&self, ii: usize, route: &mut R, requests: &mut [u32; 5])
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
    {
        let Some(head) = self.inputs[ii].front() else { return };
        // An adaptive route may prefer a different output each cycle
        // as queue depths shift; a packet that already owns an output
        // must not be granted a second one, or the worm splits across
        // outputs and the abandoned lock is orphaned forever.
        if !head.is_head()
            || self.output_owner.iter().any(|o| o.is_some_and(|(_, p)| p == head.packet))
        {
            return;
        }
        let Some(out) = route(Direction::ALL[ii], head) else { return };
        // No U-turns.
        if out.index() != ii || out == Direction::Local {
            requests[out.index()] |= 1 << ii;
        }
    }

    /// Reconfiguration surgery: removes every queued flit of the
    /// `doomed` packets and releases any wormhole lock they own.
    /// Returns the number of flits removed.
    pub(crate) fn purge(&mut self, doomed: &BTreeSet<PacketId>) -> u64 {
        let mut removed = 0u64;
        for q in &mut self.inputs {
            let before = q.len();
            q.retain(|f| !doomed.contains(&f.packet));
            removed += (before - q.len()) as u64;
        }
        for owner in &mut self.output_owner {
            if owner.is_some_and(|(_, pid)| doomed.contains(&pid)) {
                *owner = None;
            }
        }
        removed
    }

    /// Reconfiguration surgery: releases the wormhole lock on `out`
    /// (whose downstream channel just died) and reports the owning
    /// packet. The second element is `true` if the packet is
    /// *salvageable* — its head flit is still queued here, so after a
    /// route-table rebuild it simply re-routes; `false` means the
    /// head already crossed the dead wire and the packet is severed.
    pub(crate) fn disown_output(&mut self, out: Direction) -> Option<(PacketId, bool)> {
        let (ii, pid) = self.output_owner[out.index()].take()?;
        let head_still_here = self.inputs[ii]
            .front()
            .is_some_and(|f| f.packet == pid && f.is_head());
        Some((pid, head_still_here))
    }

    /// Every queued head flit with the input port it arrived on (the
    /// reconfiguration sweep checks each against the rebuilt table).
    pub(crate) fn queued_heads(&self) -> impl Iterator<Item = (Direction, &Flit)> {
        Direction::ALL.into_iter().flat_map(move |d| {
            self.inputs[d.index()].iter().filter(|f| f.is_head()).map(move |f| (d, f))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;
    use crate::{FlitKind, Mesh, NodeId, Packet};

    fn flits_of(id: u64, dst: NodeId, len: u32) -> Vec<Flit> {
        Packet { id: PacketId(id), src: NodeId(0), dst, len_flits: len }.flits()
    }

    /// The pre-reroute behaviour: static XY from the mesh.
    fn xy(mesh: Mesh, node: NodeId) -> impl FnMut(Direction, &Flit) -> Option<Direction> {
        move |_in, f| Some(mesh.route_xy(node, f.dst))
    }

    #[test]
    fn routes_local_injection_east() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(4);
        for f in flits_of(1, mesh.node(2, 0), 3) {
            r.accept(Direction::Local, f);
        }
        let mut all = Vec::new();
        for _ in 0..3 {
            all.extend(r.step(xy(mesh, node), |_| true));
        }
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(d, _)| *d == Direction::East));
        assert_eq!(all.last().unwrap().1.kind, FlitKind::Tail);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn wormhole_lock_excludes_interleaving() {
        // Two packets from different inputs both want East; flits must
        // not interleave.
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        let mut r = Router::new(8);
        let dst = mesh.node(2, 1);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::West, f);
        }
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            for (d, f) in r.step(xy(mesh, mid), |_| true) {
                assert_eq!(d, Direction::East);
                order.push(f.packet.0);
            }
        }
        assert_eq!(order.len(), 6);
        // All of one packet, then all of the other.
        assert!(order == [1, 1, 1, 2, 2, 2] || order == [2, 2, 2, 1, 1, 1], "{order:?}");
    }

    #[test]
    fn backpressure_holds_flits() {
        let mesh = Mesh::new(2, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(4);
        for f in flits_of(1, mesh.node(1, 0), 2) {
            r.accept(Direction::Local, f);
        }
        let moves = r.step(xy(mesh, node), |_| false); // channel refuses
        assert!(moves.is_empty());
        assert_eq!(r.occupancy(), 2);
        let moves = r.step(xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn ejects_at_destination() {
        let mesh = Mesh::new(2, 2);
        let n = mesh.node(1, 1);
        let mut r = Router::new(4);
        for f in flits_of(9, n, 1) {
            r.accept(Direction::North, f);
        }
        let moves = r.step(xy(mesh, n), |_| true);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, Direction::Local);
    }

    #[test]
    fn unroutable_head_waits() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(4);
        for f in flits_of(1, mesh.node(2, 0), 2) {
            r.accept(Direction::Local, f);
        }
        let moves = r.step(|_, _| None, |_| true);
        assert!(moves.is_empty(), "unroutable head must wait, not misroute");
        assert_eq!(r.occupancy(), 2);
        // Routability restored (reconfiguration): traffic resumes.
        let moves = r.step(xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn a_flapping_route_cannot_split_a_worm_across_outputs() {
        let mesh = Mesh::new(3, 3);
        let dst = mesh.node(2, 2);
        let mut r = Router::new(8);
        for f in flits_of(7, dst, 3) {
            r.accept(Direction::Local, f);
        }
        // Cycle 1: the adaptive route prefers East; East is granted
        // but its channel refuses.
        assert!(r.step(|_, _| Some(Direction::East), |d| d != Direction::East).is_empty());
        // Cycle 2: queue-depth bias now prefers South. The packet
        // already owns East, so South must not be granted too —
        // otherwise the worm splits across outputs and East's lock is
        // orphaned forever once the tail leaves through South.
        assert!(r.step(|_, _| Some(Direction::South), |d| d != Direction::East).is_empty());
        // East reopens: the whole worm leaves through it, whatever
        // the route closure says now.
        let mut outs = Vec::new();
        for _ in 0..4 {
            for (d, f) in r.step(|_, _| Some(Direction::South), |_| true) {
                outs.push((d, f.packet.0));
            }
        }
        assert_eq!(outs, vec![(Direction::East, 7); 3]);
        // The tail released the lock: a new packet can claim East.
        for f in flits_of(8, dst, 1) {
            r.accept(Direction::West, f);
        }
        assert_eq!(r.step(|_, _| Some(Direction::East), |_| true).len(), 1);
    }

    #[test]
    fn purge_removes_flits_and_releases_locks() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Router::new(8);
        let dst = mesh.node(2, 0);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::West, f);
        }
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        // Grant the East output to packet 1 (West input wins the round
        // robin) and move its head out.
        let moves = r.step(xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
        let removed = r.purge(&BTreeSet::from([PacketId(1)]));
        assert_eq!(removed, 2, "two queued flits of packet 1 removed");
        // The lock was released: packet 2 wins East immediately.
        let moves = r.step(xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].1.packet, PacketId(2));
    }

    #[test]
    fn disown_reports_salvage_only_before_the_head_crossed() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let dst = mesh.node(2, 0);
        // Case 1: lock granted, head forwarded — severed.
        let mut r = Router::new(8);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert_eq!(r.step(xy(mesh, node), |_| true).len(), 1);
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(1), false)));
        // Case 2: lock granted but channel refused — head still here,
        // salvageable.
        let mut r = Router::new(8);
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert!(r.step(xy(mesh, node), |_| false).is_empty());
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(2), true)));
        // Unlocked outputs report nothing.
        assert_eq!(r.disown_output(Direction::West), None);
    }

    /// The scan-per-output allocator the request masks replaced: each
    /// free output scans the inputs from its round-robin pointer and
    /// routes every eligible head it meets. The oracle for `step`.
    fn reference_step<R, F>(r: &mut Router, mut route: R, mut can_send: F) -> Vec<(Direction, Flit)>
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut moves = Vec::new();
        for out in Direction::ALL {
            let oi = out.index();
            if r.output_owner[oi].is_none() {
                for k in 0..5 {
                    let ii = (r.rr[oi] + k) % 5;
                    if ii == oi && out != Direction::Local {
                        continue;
                    }
                    if let Some(head) = r.inputs[ii].front() {
                        let already_owns =
                            r.output_owner.iter().any(|o| o.is_some_and(|(_, p)| p == head.packet));
                        if head.is_head()
                            && !already_owns
                            && route(Direction::ALL[ii], head) == Some(out)
                        {
                            r.output_owner[oi] = Some((ii, head.packet));
                            r.rr[oi] = (ii + 1) % 5;
                            break;
                        }
                    }
                }
            }
            if let Some((ii, pid)) = r.output_owner[oi] {
                if !can_send(out) {
                    continue;
                }
                let Some(front) = r.inputs[ii].front() else { continue };
                if front.packet != pid {
                    continue;
                }
                let flit = *front;
                r.inputs[ii].pop_front();
                if flit.is_tail() {
                    r.output_owner[oi] = None;
                }
                moves.push((out, flit));
            }
        }
        moves
    }

    /// Packet ids a drawn router can hold: three per input plus one
    /// lock owner per empty input.
    const MAX_PACKETS: usize = 20;

    /// Entries of one step's route table, input × packet.
    const ROUTES: usize = 5 * MAX_PACKETS;

    /// Builds a drawn router. Input `i` holds the in-order flits of
    /// `fifos[i]`'s packets, each `(length, flits already gone)` (only
    /// the first may have lost flits), cut at `capacity`. `locks[i] <
    /// 5` locks that output to input `i`'s front packet, or to a packet
    /// still upstream if the input is empty. Returns the router and
    /// each packet id's input.
    fn build(
        capacity: usize,
        fifos: &[Vec<(u32, u32)>],
        locks: &[usize],
        rr: &[usize],
    ) -> (Router, Vec<usize>) {
        let mut r = Router::new(capacity);
        let mut input_of = Vec::new();
        for (ii, packets) in fifos.iter().enumerate() {
            let port = Direction::ALL[ii];
            for (k, &(len, gone)) in packets.iter().enumerate() {
                let id = input_of.len() as u64;
                input_of.push(ii);
                let skip = if k == 0 { gone % len } else { 0 };
                for f in flits_of(id, NodeId(0), len).into_iter().skip(skip as usize) {
                    if r.free_slots(port) > 0 {
                        r.accept(port, f);
                    }
                }
            }
            let out = locks[ii];
            if out < 5 && r.output_owner[out].is_none() {
                let owner = match r.inputs[ii].front() {
                    Some(f) => f.packet,
                    None => {
                        input_of.push(ii);
                        PacketId(input_of.len() as u64 - 1)
                    }
                };
                r.output_owner[out] = Some((ii, owner));
            }
        }
        r.rr.copy_from_slice(rr);
        (r, input_of)
    }

    thread_local! {
        /// Steps of the oracle run that met each case the masks must
        /// get right: a single-flit packet exposing a head that a later
        /// output grants; a head refused a second output while its
        /// packet owns a blocked one; a router holding no flit.
        static SEEN: Cell<[u32; 3]> = const { Cell::new([0; 3]) };
    }

    fn note(case: usize) {
        SEEN.with(|s| {
            let mut seen = s.get();
            seen[case] += 1;
            s.set(seen);
        });
    }

    // No `#[test]`: the test below runs it, then checks `SEEN`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        fn masks_agree_with_the_scan(
            capacity in 1usize..9,
            fifos in proptest::collection::vec(
                proptest::collection::vec((1u32..5, 0u32..4), 0..4),
                5..6,
            ),
            locks in proptest::collection::vec(0usize..10, 5..6),
            rr in proptest::collection::vec(0usize..5, 5..6),
            steps in proptest::collection::vec(
                (proptest::collection::vec(0usize..7, ROUTES..ROUTES + 1), 0u32..32),
                1..8,
            ),
        ) {
            let (mut fast, input_of) = build(capacity, &fifos, &locks, &rr);
            let (mut slow, _) = build(capacity, &fifos, &locks, &rr);
            for (table, can) in &steps {
                // A fresh pure route table per step, U-turns included:
                // a locked packet's head may "flap" between steps.
                let route = |i: Direction, f: &Flit| {
                    let entry = table[i.index() * MAX_PACKETS + f.packet.0 as usize];
                    Direction::ALL.get(entry).copied()
                };
                let can_send = |d: Direction| can & 1 << d.index() != 0;
                let before = (fast.inputs.clone(), fast.output_owner, fast.rr);
                // A head whose packet owns a blocked output and routes
                // to another free one, which it must not be granted.
                for (out, owner) in fast.output_owner.iter().enumerate() {
                    let Some((ii, pid)) = *owner else { continue };
                    let head = fast.inputs[ii].front().filter(|f| f.packet == pid && f.is_head());
                    let other = head.and_then(|h| route(Direction::ALL[ii], h)).map(Direction::index);
                    let grantable = |o: usize| fast.output_owner[o].is_none() && (o != ii || o == 4);
                    if !can_send(Direction::ALL[out]) && other.is_some_and(grantable) {
                        note(1);
                    }
                }
                let mut routed = Vec::new();
                let moves = fast.step(
                    |i, f| {
                        routed.push((i.index(), f.packet));
                        route(i, f)
                    },
                    can_send,
                );
                let expected = reference_step(&mut slow, route, can_send);
                prop_assert_eq!(&moves, &expected);
                prop_assert_eq!(&fast.inputs, &slow.inputs);
                prop_assert_eq!(fast.output_owner, slow.output_owner);
                prop_assert_eq!(fast.rr, slow.rr);
                let calls = routed.len();
                routed.sort();
                routed.dedup();
                prop_assert_eq!(routed.len(), calls, "a head was routed twice in one step");
                let mut owners: Vec<_> = fast.output_owner.iter().flatten().map(|o| o.1).collect();
                owners.sort();
                owners.dedup();
                let locks = fast.output_owner.iter().flatten().count();
                prop_assert_eq!(owners.len(), locks, "a packet owns two outputs");
                if before.0.iter().all(VecDeque::is_empty) {
                    note(2);
                    prop_assert!(moves.is_empty());
                    prop_assert_eq!((fast.inputs.clone(), fast.output_owner, fast.rr), before);
                }
                let exposed = moves.iter().enumerate().any(|(k, (_, a))| {
                    a.kind == FlitKind::HeadTail
                        && moves[k + 1..].iter().any(|(_, b)| {
                            b.is_head()
                                && input_of[b.packet.0 as usize] == input_of[a.packet.0 as usize]
                        })
                });
                if exposed {
                    note(0);
                }
            }
        }
    }

    #[test]
    fn request_masks_match_the_scan_per_output_allocator() {
        masks_agree_with_the_scan();
        let seen = SEEN.with(Cell::get);
        assert!(seen.iter().all(|&n| n > 0), "the oracle run missed a case: {seen:?}");
    }
}
