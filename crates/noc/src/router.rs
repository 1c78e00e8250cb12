//! The 5-port input-buffered wormhole switch.

use std::collections::BTreeSet;

use crate::packet::{Flit, PacketId};
use crate::{Direction, NodeId};

/// One router of the mesh: five input FIFOs (N/S/E/W/Local), a route
/// decision per head flit (delegated to the network's route table —
/// the router itself holds no routing policy), round-robin output
/// arbitration, and wormhole locking (an output granted to a packet
/// stays granted until its tail passes).
///
/// Its five input FIFOs are rings in one flit buffer, allocated once
/// for all routers ([`Router::buffer`]) and passed to each call:
/// input `i` holds `len[i]` flits in slots `base + i * capacity..`,
/// from offset `head[i]`, wrapping.
#[derive(Debug)]
pub(crate) struct Router {
    base: usize,
    capacity: usize,
    head: [usize; 5],
    len: [usize; 5],
    /// Which input and packet currently own each output (wormhole
    /// lock). Tracking the packet id (not just the input) lets the
    /// lock survive interleaved arrivals and lets reconfiguration
    /// salvage or sever it precisely.
    output_owner: [Option<(usize, PacketId)>; 5],
    /// Bit `i` set: input `i` owns an output, so its front flit is the
    /// owning packet's or absent (DESIGN.md §5h).
    locked: u32,
    /// Round-robin arbitration pointer per output.
    rr: [usize; 5],
}

impl Router {
    /// The flit buffer of `routers` routers with `capacity`-flit FIFOs;
    /// slots past a FIFO's `len` hold stale flits, never read.
    pub(crate) fn buffer(routers: usize, capacity: usize) -> Vec<Flit> {
        let empty = Flit::of_packet(PacketId(0), NodeId(0), NodeId(0), 1).next().expect("a flit");
        vec![empty; routers * 5 * capacity]
    }

    /// The `index`-th router of a [`Router::buffer`] of `capacity`-flit FIFOs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(index: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "input queue needs capacity");
        Router {
            base: index * 5 * capacity,
            capacity,
            head: [0; 5],
            len: [0; 5],
            output_owner: [None; 5],
            locked: 0,
            rr: [0; 5],
        }
    }

    /// Free slots in the input FIFO of `port`.
    pub(crate) fn free_slots(&self, port: Direction) -> usize {
        self.capacity - self.len[port.index()]
    }

    /// Total buffered flits across all inputs.
    pub(crate) fn occupancy(&self) -> usize {
        self.len.iter().sum()
    }

    /// Slot of the `k`-th queued flit of input `ii`.
    fn slot(&self, ii: usize, k: usize) -> usize {
        let at = self.head[ii] + k;
        self.base + ii * self.capacity + if at >= self.capacity { at - self.capacity } else { at }
    }

    /// The flits queued at input `ii`, front first.
    pub(crate) fn fifo<'a>(&'a self, buf: &'a [Flit], ii: usize) -> impl Iterator<Item = &'a Flit> {
        (0..self.len[ii]).map(move |k| &buf[self.slot(ii, k)])
    }

    /// Enqueues an arriving flit.
    ///
    /// # Panics
    ///
    /// Panics if the input FIFO is full (callers must check
    /// [`Router::free_slots`] — the channel models backpressure).
    pub(crate) fn accept(&mut self, buf: &mut [Flit], port: Direction, flit: Flit) {
        let ii = port.index();
        assert!(self.len[ii] < self.capacity, "input overrun on the {port:?} port");
        buf[self.slot(ii, self.len[ii])] = flit;
        self.len[ii] += 1;
    }

    /// Releases output `oi`'s lock, returning its owner.
    fn release(&mut self, oi: usize) -> Option<(usize, PacketId)> {
        let owner = self.output_owner[oi].take()?;
        self.locked &= !(1 << owner.0);
        Some(owner)
    }

    /// Arbitration + switch traversal for one cycle: appends up to one
    /// flit per output port to `moves` as `(output, flit)`.
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
    /// every unlocked input whose front flit is a head is routed once,
    /// and sets its bit in the 5-bit mask of the output it names (a
    /// U-turn request is dropped). Outputs are then visited in
    /// [`Direction::ALL`] order: a free output grants the first
    /// requesting input at or after its round-robin pointer, and an
    /// owned output forwards one flit of its packet. Each pop lets the
    /// input's new front request in turn, so a forwarded single-flit
    /// packet can expose a head that a later output grants in the same
    /// step.
    ///
    /// `route` is called at most once per input head per step and must
    /// be pure within a step: static XY is a function of the head, and
    /// adaptive routing chooses over scores frozen before the step.
    /// A packet's flits sit in one input, so no packet requests twice.
    pub(crate) fn step<R, F>(
        &mut self,
        buf: &[Flit],
        mut route: R,
        mut can_send: F,
        moves: &mut Vec<(Direction, Flit)>,
    ) where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
        F: FnMut(Direction) -> bool,
    {
        let mut requests = [0u32; 5];
        for ii in 0..5 {
            self.request(buf, ii, &mut route, &mut requests);
        }
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
                let head = self.fifo(buf, ii).next().expect("a request has a head flit");
                self.output_owner[oi] = Some((ii, head.packet));
                self.locked |= 1 << ii;
                self.rr[oi] = (ii + 1) % 5;
            }
            // Traverse: forward one flit from the owning input.
            if let Some((ii, pid)) = self.output_owner[oi] {
                if !can_send(out) {
                    continue;
                }
                // The owning input's front flit may not have arrived yet.
                let Some(&flit) = self.fifo(buf, ii).next() else { continue };
                // Only forward flits of the owning packet — the head
                // established the claim; body/tail follow in FIFO
                // order, so a different packet at the front means the
                // owner's next flit is still in flight upstream.
                if flit.packet != pid {
                    continue;
                }
                let next = self.head[ii] + 1;
                self.head[ii] = if next == self.capacity { 0 } else { next };
                self.len[ii] -= 1;
                if flit.tail {
                    self.release(oi);
                }
                moves.push((out, flit));
                // The popped front belonged to this output's packet, so
                // the input held no request; its new front may.
                self.request(buf, ii, &mut route, &mut requests);
            }
        }
    }

    /// Sets input `ii`'s bit in the mask of the output its front flit
    /// routes to, if the input is unlocked and that flit is a head.
    fn request<R>(&self, buf: &[Flit], ii: usize, route: &mut R, requests: &mut [u32; 5])
    where
        R: FnMut(Direction, &Flit) -> Option<Direction>,
    {
        // An adaptive route may prefer a different output each cycle
        // as queue depths shift; a packet that already owns an output
        // (its input is locked) must not be granted a second one, or
        // the worm splits across outputs and the abandoned lock is
        // orphaned forever.
        if self.locked & 1 << ii != 0 {
            return;
        }
        let Some(head) = self.fifo(buf, ii).next().filter(|f| f.head) else { return };
        let Some(out) = route(Direction::ALL[ii], head) else { return };
        // No U-turns.
        if out.index() != ii || out == Direction::Local {
            requests[out.index()] |= 1 << ii;
        }
    }

    /// Reconfiguration surgery: removes every queued flit of the
    /// `doomed` packets and releases any wormhole lock they own.
    /// Returns the number of flits removed.
    pub(crate) fn purge(&mut self, buf: &mut [Flit], doomed: &BTreeSet<PacketId>) -> u64 {
        let before = self.occupancy();
        for ii in 0..5 {
            // Compact the survivors toward the front, in order.
            let mut kept = 0;
            for k in 0..self.len[ii] {
                let flit = buf[self.slot(ii, k)];
                if !doomed.contains(&flit.packet) {
                    buf[self.slot(ii, kept)] = flit;
                    kept += 1;
                }
            }
            self.len[ii] = kept;
        }
        for oi in 0..5 {
            if self.output_owner[oi].is_some_and(|(_, pid)| doomed.contains(&pid)) {
                self.release(oi);
            }
        }
        (before - self.occupancy()) as u64
    }

    /// Reconfiguration surgery: releases the wormhole lock on `out`
    /// (whose downstream channel just died) and reports the owning
    /// packet. The second element is `true` if the packet is
    /// *salvageable* — its head flit is still queued here, so after a
    /// route-table rebuild it simply re-routes; `false` means the
    /// head already crossed the dead wire and the packet is severed.
    pub(crate) fn disown_output(
        &mut self,
        buf: &[Flit],
        out: Direction,
    ) -> Option<(PacketId, bool)> {
        let (ii, pid) = self.release(out.index())?;
        let head = self.fifo(buf, ii).next().is_some_and(|f| f.packet == pid && f.head);
        Some((pid, head))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::Mesh;

    fn flits_of(id: u32, dst: NodeId, len: u32) -> impl Iterator<Item = Flit> {
        Flit::of_packet(PacketId(id), NodeId(0), dst, len)
    }

    /// A router with a flit buffer of its own; it derefs to the
    /// router's state.
    struct Lone {
        r: Router,
        buf: Vec<Flit>,
    }

    impl std::ops::Deref for Lone {
        type Target = Router;
        fn deref(&self) -> &Router {
            &self.r
        }
    }

    impl std::ops::DerefMut for Lone {
        fn deref_mut(&mut self) -> &mut Router {
            &mut self.r
        }
    }

    impl Lone {
        fn new(capacity: usize) -> Self {
            Lone { r: Router::new(0, capacity), buf: Router::buffer(1, capacity) }
        }

        fn accept(&mut self, port: Direction, flit: Flit) {
            self.r.accept(&mut self.buf, port, flit);
        }

        /// One step's moves.
        fn step<R, F>(&mut self, route: R, can_send: F) -> Vec<(Direction, Flit)>
        where
            R: FnMut(Direction, &Flit) -> Option<Direction>,
            F: FnMut(Direction) -> bool,
        {
            let mut moves = Vec::new();
            self.r.step(&self.buf, route, can_send, &mut moves);
            moves
        }

        fn fifo(&self, ii: usize) -> impl Iterator<Item = &Flit> {
            self.r.fifo(&self.buf, ii)
        }

        fn purge(&mut self, doomed: &BTreeSet<PacketId>) -> u64 {
            self.r.purge(&mut self.buf, doomed)
        }

        fn disown_output(&mut self, out: Direction) -> Option<(PacketId, bool)> {
            self.r.disown_output(&self.buf, out)
        }
    }

    /// The pre-reroute behaviour: static XY from the mesh.
    fn xy(mesh: Mesh, node: NodeId) -> impl FnMut(Direction, &Flit) -> Option<Direction> {
        move |_in, f| Some(mesh.route_xy(node, f.dst))
    }

    #[test]
    fn routes_local_injection_east() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Lone::new(4);
        for f in flits_of(1, mesh.node(2, 0), 3) {
            r.accept(Direction::Local, f);
        }
        let mut all = Vec::new();
        for _ in 0..3 {
            all.extend(r.step(xy(mesh, node), |_| true));
        }
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|(d, _)| *d == Direction::East));
        assert!(all.last().unwrap().1.tail);
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn wormhole_lock_excludes_interleaving() {
        // Two packets from different inputs both want East; flits must
        // not interleave.
        let mesh = Mesh::new(3, 3);
        let mid = mesh.node(1, 1);
        let mut r = Lone::new(8);
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
        let mut r = Lone::new(4);
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
        let mut r = Lone::new(4);
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
        let mut r = Lone::new(4);
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
        let mut r = Lone::new(8);
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
    fn a_head_holding_a_blocked_grant_is_not_routed_again_until_disowned() {
        let mut r = Lone::new(4);
        for f in flits_of(3, NodeId(2), 2) {
            r.accept(Direction::Local, f);
        }
        let calls = Cell::new(0);
        let route = |d| {
            let calls = &calls;
            move |_: Direction, _: &Flit| {
                calls.set(calls.get() + 1);
                Some(d)
            }
        };
        // Granted East, which refuses: the head stays at the front.
        assert!(r.step(route(Direction::East), |_| false).is_empty());
        assert_eq!(calls.get(), 1);
        for _ in 0..3 {
            assert!(r.step(route(Direction::South), |_| false).is_empty());
        }
        assert_eq!(calls.get(), 1, "a head holding a lock was routed again");
        // Salvaged: the lock goes and the head re-arbitrates at once.
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(3), true)));
        let moves = r.step(route(Direction::South), |_| true);
        assert_eq!(calls.get(), 2);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].0, Direction::South);
        assert!(moves[0].1.head);
    }

    #[test]
    fn purge_removes_flits_and_releases_locks() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let mut r = Lone::new(8);
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
    fn a_purged_owner_unlocks_its_input_for_the_next_head() {
        // Packet 2 queues behind packet 1 at the West input, in a ring
        // that has wrapped. Purging packet 1 mid-worm must unlock West,
        // so packet 2's head requests in the very next step.
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(1, 0);
        let dst = mesh.node(2, 0);
        let mut r = Lone::new(4);
        for f in flits_of(5, dst, 2) {
            r.accept(Direction::West, f);
        }
        assert_eq!(r.step(xy(mesh, node), |_| true).len(), 1);
        assert_eq!(r.step(xy(mesh, node), |_| true).len(), 1);
        for f in flits_of(1, dst, 3).chain(flits_of(2, dst, 1)) {
            r.accept(Direction::West, f);
        }
        assert_eq!(r.step(xy(mesh, node), |_| true)[0].1.packet, PacketId(1));
        assert_eq!(r.purge(&BTreeSet::from([PacketId(1)])), 2);
        assert_eq!(r.occupancy(), 1);
        let moves = r.step(xy(mesh, node), |_| true);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0], (Direction::East, flits_of(2, dst, 1).next().unwrap()));
    }

    #[test]
    fn disown_reports_salvage_only_before_the_head_crossed() {
        let mesh = Mesh::new(3, 1);
        let node = mesh.node(0, 0);
        let dst = mesh.node(2, 0);
        // Case 1: lock granted, head forwarded — severed.
        let mut r = Lone::new(8);
        for f in flits_of(1, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert_eq!(r.step(xy(mesh, node), |_| true).len(), 1);
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(1), false)));
        // Case 2: lock granted but channel refused — head still here,
        // salvageable.
        let mut r = Lone::new(8);
        for f in flits_of(2, dst, 3) {
            r.accept(Direction::Local, f);
        }
        assert!(r.step(xy(mesh, node), |_| false).is_empty());
        assert_eq!(r.disown_output(Direction::East), Some((PacketId(2), true)));
        // Unlocked outputs report nothing.
        assert_eq!(r.disown_output(Direction::West), None);
    }

    /// The allocator the request and lock masks replaced, on a
    /// `VecDeque` per input: each free output scans the inputs from its
    /// round-robin pointer and routes every eligible head it meets, a
    /// head being eligible only if no output here is owned by its
    /// packet. The oracle for [`Router`], fed the same arrivals.
    #[derive(Debug, Default)]
    struct Reference {
        inputs: [VecDeque<Flit>; 5],
        output_owner: [Option<(usize, PacketId)>; 5],
        rr: [usize; 5],
    }

    impl Reference {
        fn step<R, F>(&mut self, mut route: R, mut can_send: F) -> Vec<(Direction, Flit)>
        where
            R: FnMut(Direction, &Flit) -> Option<Direction>,
            F: FnMut(Direction) -> bool,
        {
            let mut moves = Vec::new();
            for out in Direction::ALL {
                let oi = out.index();
                if self.output_owner[oi].is_none() {
                    for k in 0..5 {
                        let ii = (self.rr[oi] + k) % 5;
                        if ii == oi && out != Direction::Local {
                            continue;
                        }
                        if let Some(head) = self.inputs[ii].front() {
                            let already_owns = self
                                .output_owner
                                .iter()
                                .any(|o| o.is_some_and(|(_, p)| p == head.packet));
                            if head.head
                                && !already_owns
                                && route(Direction::ALL[ii], head) == Some(out)
                            {
                                self.output_owner[oi] = Some((ii, head.packet));
                                self.rr[oi] = (ii + 1) % 5;
                                break;
                            }
                        }
                    }
                }
                if let Some((ii, pid)) = self.output_owner[oi] {
                    if !can_send(out) {
                        continue;
                    }
                    let Some(front) = self.inputs[ii].front() else { continue };
                    if front.packet != pid {
                        continue;
                    }
                    let flit = *front;
                    self.inputs[ii].pop_front();
                    if flit.tail {
                        self.output_owner[oi] = None;
                    }
                    moves.push((out, flit));
                }
            }
            moves
        }

        fn purge(&mut self, doomed: &BTreeSet<PacketId>) -> u64 {
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

        fn disown_output(&mut self, out: Direction) -> Option<(PacketId, bool)> {
            let (ii, pid) = self.output_owner[out.index()].take()?;
            let head_still_here =
                self.inputs[ii].front().is_some_and(|f| f.packet == pid && f.head);
            Some((pid, head_still_here))
        }
    }

    /// A router and its oracle built from one draw, plus what is still
    /// upstream of each input: the flits of its drawn packets that did
    /// not fit, in order, as a channel would deliver them.
    struct Pair {
        fast: Lone,
        slow: Reference,
        upstream: [VecDeque<Flit>; 5],
        /// The input each packet id was created for; ids are dense.
        input_of: Vec<usize>,
    }

    impl Pair {
        /// Input `i` is offered the in-order flits of `fifos[i]`'s
        /// packets, each `(length, flits already gone)` (only the first
        /// may have lost flits), as far as `capacity` lets them in.
        /// `locks[i] < 5` locks that output to input `i`'s front packet,
        /// or to a packet still upstream if the input is empty.
        fn build(capacity: usize, fifos: &[Vec<(u32, u32)>], locks: &[usize], rr: &[usize]) -> Self {
            let mut pair = Pair {
                fast: Lone::new(capacity),
                slow: Reference::default(),
                upstream: Default::default(),
                input_of: Vec::new(),
            };
            for (ii, packets) in fifos.iter().enumerate() {
                for (k, &(len, gone)) in packets.iter().enumerate() {
                    let skip = if k == 0 { gone % len } else { 0 };
                    let id = pair.new_packet(ii);
                    pair.upstream[ii].extend(flits_of(id, NodeId(0), len).skip(skip as usize));
                }
                while pair.fast.free_slots(Direction::ALL[ii]) > 0 && pair.arrive(ii) {}
                let out = locks[ii];
                if out < 5 && pair.fast.output_owner[out].is_none() {
                    let front = pair.fast.fifo(ii).next().map(|f| f.packet);
                    let owner = front.unwrap_or_else(|| {
                        // The head crossed; body and tail are upstream.
                        let id = pair.new_packet(ii);
                        pair.upstream[ii].extend(flits_of(id, NodeId(0), 3).skip(1));
                        PacketId(id)
                    });
                    pair.fast.output_owner[out] = Some((ii, owner));
                    pair.fast.locked |= 1 << ii;
                    pair.slow.output_owner[out] = Some((ii, owner));
                }
            }
            pair.fast.rr.copy_from_slice(rr);
            pair.slow.rr.copy_from_slice(rr);
            pair
        }

        fn new_packet(&mut self, ii: usize) -> u32 {
            self.input_of.push(ii);
            self.input_of.len() as u32 - 1
        }

        /// Delivers input `ii`'s next upstream flit to both, if any.
        fn arrive(&mut self, ii: usize) -> bool {
            let Some(f) = self.upstream[ii].pop_front() else { return false };
            self.fast.accept(Direction::ALL[ii], f);
            self.slow.inputs[ii].push_back(f);
            true
        }

        /// Both sides' state agree, and the router's lock mask matches
        /// its owners.
        fn check(&self) -> Result<(), String> {
            for ii in 0..5 {
                let queued: Vec<Flit> = self.fast.fifo(ii).copied().collect();
                prop_assert_eq!(&queued, &Vec::from(self.slow.inputs[ii].clone()), "input {}", ii);
            }
            prop_assert_eq!(self.fast.output_owner, self.slow.output_owner);
            prop_assert_eq!(self.fast.rr, self.slow.rr);
            let locked = self.fast.output_owner.iter().flatten().fold(0, |m, (ii, _)| m | 1 << ii);
            prop_assert_eq!(self.fast.locked, locked);
            Ok(())
        }
    }

    /// Packet ids per input in one step's route table; ids beyond it
    /// share entries.
    const MAX_PACKETS: usize = 20;

    /// Entries of one step's route table, input × packet.
    const ROUTES: usize = 5 * MAX_PACKETS;

    thread_local! {
        /// Steps of the oracle run that met each case the masks must
        /// get right: a single-flit packet exposing a head that a later
        /// output grants; a head refused a second output while its
        /// packet owns a blocked one; a router holding no flit; a head
        /// held at its input by a blocked grant, not routed again; a
        /// salvaged head routed again after `disown_output`; a head
        /// routed at an input a purge unlocked; an input's ring
        /// wrapping past its last slot.
        static SEEN: Cell<[u32; 7]> = const { Cell::new([0; 7]) };
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
                (
                    proptest::collection::vec(0usize..7, ROUTES..ROUTES + 1),
                    0u32..32,
                    0usize..16,
                    any::<u64>(),
                    (0u32..128, 1u32..5),
                ),
                1..8,
            ),
        ) {
            let mut pair = Pair::build(capacity, &fifos, &locks, &rr);
            pair.check()?;
            for (table, can, surgery, doomed, (fresh, len)) in &steps {
                // Surgery first, as a reconfiguration epoch would do it
                // between steps: release one output's lock, or purge a
                // drawn set of packets from the queues, the locks and
                // upstream.
                let mut unlocked = Vec::new();
                if let Some(&out) = Direction::ALL.get(*surgery) {
                    let got = pair.fast.disown_output(out);
                    prop_assert_eq!(got, pair.slow.disown_output(out));
                    if let Some((pid, true)) = got {
                        unlocked.push((pid, 4));
                    }
                } else if *surgery == 5 {
                    let doomed: BTreeSet<PacketId> =
                        (0..pair.input_of.len() as u32)
                            .filter(|&p| doomed & 1 << (p % 64) != 0)
                            .map(PacketId)
                            .collect();
                    let held = pair.fast.locked;
                    prop_assert_eq!(pair.fast.purge(&doomed), pair.slow.purge(&doomed));
                    for q in &mut pair.upstream {
                        q.retain(|f| !doomed.contains(&f.packet));
                    }
                    for ii in (0..5).filter(|&ii| held & !pair.fast.locked & 1 << ii != 0) {
                        if let Some(f) = pair.fast.fifo(ii).next().filter(|f| f.head) {
                            unlocked.push((f.packet, 5));
                        }
                    }
                }
                pair.check()?;
                // A fresh pure route table per step, U-turns included:
                // a locked packet's head may "flap" between steps.
                let route = |i: Direction, f: &Flit| {
                    let entry = table[i.index() * MAX_PACKETS + f.packet.0 as usize % MAX_PACKETS];
                    Direction::ALL.get(entry).copied()
                };
                let can_send = |d: Direction| can & 1 << d.index() != 0;
                let fast = &pair.fast;
                let before = (fast.buf.clone(), fast.head, fast.len, fast.output_owner, fast.rr);
                let mut blocked_heads = Vec::new();
                for (out, owner) in fast.output_owner.iter().enumerate() {
                    let Some((ii, pid)) = *owner else { continue };
                    let head = fast.fifo(ii).next().filter(|f| f.packet == pid && f.head);
                    if head.is_none() || can_send(Direction::ALL[out]) {
                        continue;
                    }
                    // A granted head whose output refuses: it stays at
                    // the front holding the lock and must not request.
                    note(3);
                    blocked_heads.push((ii, pid));
                    // Its route may name another free output, which it
                    // must not be granted.
                    let other = head.and_then(|h| route(Direction::ALL[ii], h)).map(Direction::index);
                    let grantable = |o: usize| fast.output_owner[o].is_none() && (o != ii || o == 4);
                    if other.is_some_and(grantable) {
                        note(1);
                    }
                }
                let mut routed = Vec::new();
                let moves = pair.fast.step(
                    |i, f| {
                        routed.push((i.index(), f.packet));
                        route(i, f)
                    },
                    can_send,
                );
                let expected = pair.slow.step(route, can_send);
                prop_assert_eq!(&moves, &expected);
                pair.check()?;
                let calls = routed.len();
                routed.sort();
                routed.dedup();
                prop_assert_eq!(routed.len(), calls, "a head was routed twice in one step");
                for held in &blocked_heads {
                    prop_assert!(!routed.contains(held), "a head holding a lock was routed");
                }
                for &(pid, case) in &unlocked {
                    prop_assert!(routed.iter().any(|&(_, p)| p == pid), "unlocked head {:?} not routed", pid);
                    note(case);
                }
                let mut owners: Vec<_> = pair.fast.output_owner.iter().flatten().map(|o| o.1).collect();
                owners.sort();
                owners.dedup();
                let locks = pair.fast.output_owner.iter().flatten().count();
                prop_assert_eq!(owners.len(), locks, "a packet owns two outputs");
                if before.2.iter().all(|&n| n == 0) {
                    note(2);
                    prop_assert!(moves.is_empty());
                    let f = &pair.fast;
                    prop_assert_eq!((f.buf.clone(), f.head, f.len, f.output_owner, f.rr), before);
                }
                let exposed = moves.iter().enumerate().any(|(k, (_, a))| {
                    a.head && a.tail
                        && moves[k + 1..].iter().any(|(_, b)| {
                            let input = |f: &Flit| pair.input_of[f.packet.0 as usize];
                            b.head && input(b) == input(a)
                        })
                });
                if exposed {
                    note(0);
                }
                // Arrivals: a new packet starts upstream of each input
                // whose bit is drawn and whose channel is idle (three
                // draws in four set no bit), and every input takes one
                // upstream flit if it has room.
                for ii in 0..5 {
                    if fresh & 1 << ii != 0 && pair.upstream[ii].is_empty() {
                        let id = pair.new_packet(ii);
                        pair.upstream[ii].extend(flits_of(id, NodeId(0), *len));
                    }
                    if pair.fast.free_slots(Direction::ALL[ii]) > 0 {
                        pair.arrive(ii);
                    }
                    if pair.fast.head[ii] + pair.fast.len[ii] > capacity {
                        note(6);
                    }
                }
                pair.check()?;
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
