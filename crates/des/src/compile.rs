//! Netlist compilation: spec-driven execution of combinational cells.
//!
//! The interpreted kernel routes *every* gate evaluation through the
//! global three-tier event queue and a `dyn Component` dispatch. For
//! the combinational regions between state cells that is pure
//! overhead: the cells are side-effect-free functions of their
//! committed inputs, their drives are inertial, and their fanout is
//! static. The compiler exploits this. Cell builders register a
//! [`CombSpec`] — a closed description of the cell's boolean function,
//! pins and nominal delay — alongside the component, and
//! [`Simulator::compile`](crate::Simulator::compile) then flips every
//! specced, transparent, non-loop-exempt component into *compiled*
//! execution:
//!
//! - evaluation reads the committed input values and computes the
//!   output directly from the spec (no box, no virtual call);
//! - the resulting inertial drive is scheduled on a small private
//!   **calendar** owned by the compiled engine instead of the global
//!   event queue, so the dominant gate-delay churn never touches the
//!   queue's near-lane insertion path;
//! - state cells (latches, flops, C-elements), matched-delay chains,
//!   handshake edges, environment models and the loop-closing inverter
//!   of a ring oscillator keep their event-queue semantics untouched —
//!   their *timing* is the design under test, not an implementation
//!   detail to optimise away.
//!
//! Equivalence contract: a compiled run commits the same per-signal
//! `(time, value)` sequences, toggle counts and energies as the
//! interpreted run. The proof obligation is local: a compiled
//! evaluation goes through the kernel's one inertial-drive rule, the
//! one [`Ctx::drive`](crate::Ctx::drive) applies, and calendar entries
//! are validated against the signal's drive epoch at pop time and
//! committed by the same commit core as queued drive events. Intra-timestamp *interleaving*
//! (delta boundaries, evaluation counts) may differ in designs with
//! same-femtosecond data/trigger races — the races the lint's timing
//! pass exists to flag.

use std::collections::VecDeque;

use crate::{ComponentId, LaneValues, SignalId, Time, Value};

/// The boolean function of a gate: one enum for the interpreted `Gate`
/// cell of `sal-cells` (which re-exports it) and the compiled engine's
/// [`CombFunc::Gate`]. It lives here because `sal-des` sits *below*
/// the cell crates in the dependency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOp {
    /// Buffer (single input).
    Buf,
    /// Inverter (single input).
    Inv,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
}

/// The function a [`CombSpec`] computes, one variant per combinational
/// cell shape in the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombFunc {
    /// A word-wide gate; 1-bit inputs broadcast across the word.
    Gate {
        /// Boolean operation.
        op: GateOp,
        /// Input signals (1, or 2..=4 depending on `op`).
        inputs: Vec<SignalId>,
        /// Output width in bits.
        width: u8,
        /// Nominal propagation delay.
        delay: Time,
    },
    /// A word-wide 2-way multiplexer: `out = if sel { b } else { a }`.
    Mux2 {
        /// 1-bit select.
        sel: SignalId,
        /// Selected when `sel` is low.
        a: SignalId,
        /// Selected when `sel` is high.
        b: SignalId,
        /// Nominal propagation delay.
        delay: Time,
    },
    /// Pure routing: a bit range of a bus on its own signal.
    Slice {
        /// Source bus.
        src: SignalId,
        /// Low bit of the extracted range.
        lo: u8,
        /// Width of the extracted range.
        width: u8,
    },
    /// Pure routing: buses concatenated low-bits-first.
    Concat {
        /// Source buses, first occupies the low bits.
        parts: Vec<SignalId>,
    },
}

/// A compiled description of one combinational component: its output
/// signal and the function that computes it. Registered by the cell
/// builders via
/// [`Simulator::set_comb_spec`](crate::Simulator::set_comb_spec);
/// inert until [`Simulator::compile`](crate::Simulator::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombSpec {
    out: SignalId,
    func: CombFunc,
}

impl CombSpec {
    /// Creates a spec computing `func` onto `out`.
    pub fn new(out: SignalId, func: CombFunc) -> CombSpec {
        CombSpec { out, func }
    }

    /// The output signal the spec drives.
    pub fn out(&self) -> SignalId {
        self.out
    }

    /// The spec's function.
    pub fn func(&self) -> &CombFunc {
        &self.func
    }

    /// The nominal drive delay — the wiring variants (`Slice`,
    /// `Concat`) use the same 1 fs token delay as their interpreted
    /// counterparts.
    pub fn delay(&self) -> Time {
        match &self.func {
            CombFunc::Gate { delay, .. } | CombFunc::Mux2 { delay, .. } => *delay,
            CombFunc::Slice { .. } | CombFunc::Concat { .. } => Time::from_fs(1),
        }
    }

    /// Visits every input signal the function reads.
    pub fn for_each_input(&self, mut f: impl FnMut(SignalId)) {
        match &self.func {
            CombFunc::Gate { inputs, .. } => inputs.iter().copied().for_each(&mut f),
            CombFunc::Mux2 { sel, a, b, .. } => [*sel, *a, *b].into_iter().for_each(&mut f),
            CombFunc::Slice { src, .. } => f(*src),
            CombFunc::Concat { parts } => parts.iter().copied().for_each(&mut f),
        }
    }
}

/// Replicates the interpreted `Gate`'s input broadcast: a 1-bit input
/// spreads across the gate's word width.
fn broadcast(v: Value, width: u8) -> Value {
    if v.width() == width {
        v
    } else {
        assert_eq!(v.width(), 1, "gate input width must be 1 or the gate width");
        match v.as_logic() {
            crate::Logic::Zero => Value::zero(width),
            crate::Logic::One => Value::ones(width),
            crate::Logic::X => Value::all_x(width),
        }
    }
}

/// Lowered opcode of a [`LowNode`]: [`CombFunc`] flattened to a plain
/// selector for the hot evaluation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LowOp {
    Buf,
    Inv,
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Mux2,
    Slice,
    Concat,
}

/// Number of input pins a [`LowNode`] stores inline; wider pin lists
/// (big concats) spill into the shared pool.
const INLINE_INS: usize = 4;

/// One member's [`CombSpec`] lowered into a flat, fixed-size record:
/// opcode, inline pin list, output and delay all in one ~40-byte copy
/// — no enum-with-`Vec` indirection on the hot path. Evaluation reads
/// input values from the engine's dense committed-value shadow, so a
/// two-input gate usually gathers both operands from a single cache
/// line instead of two scattered `SignalState` records.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LowNode {
    op: LowOp,
    /// Gate/slice output width (unused by `Mux2`/`Concat`, which take
    /// their width from their operands like the interpreted cells).
    width: u8,
    /// Slice low bit (`Slice` only).
    lo: u8,
    /// Number of input pins.
    n: u8,
    /// Start of the pin list in the pool when `n > INLINE_INS`.
    spill: u32,
    /// Output signal.
    pub out: SignalId,
    ins: [SignalId; INLINE_INS],
    /// Nominal propagation delay.
    pub delay: Time,
}

impl LowNode {
    /// Lowers a spec, spilling wide pin lists into `pool`.
    fn lower(spec: &CombSpec, pool: &mut Vec<SignalId>) -> LowNode {
        let mut node = LowNode {
            op: LowOp::Buf,
            width: 0,
            lo: 0,
            n: 0,
            spill: 0,
            out: spec.out(),
            ins: [SignalId(0); INLINE_INS],
            delay: spec.delay(),
        };
        let mut pins: Vec<SignalId> = Vec::new();
        spec.for_each_input(|s| pins.push(s));
        node.n = u8::try_from(pins.len()).expect("pin count fits u8");
        if pins.len() <= INLINE_INS {
            node.ins[..pins.len()].copy_from_slice(&pins);
        } else {
            node.spill = u32::try_from(pool.len()).expect("pool fits u32");
            pool.extend_from_slice(&pins);
        }
        match spec.func() {
            CombFunc::Gate { op, width, .. } => {
                node.width = *width;
                node.op = match op {
                    GateOp::Buf => LowOp::Buf,
                    GateOp::Inv => LowOp::Inv,
                    GateOp::And => LowOp::And,
                    GateOp::Or => LowOp::Or,
                    GateOp::Nand => LowOp::Nand,
                    GateOp::Nor => LowOp::Nor,
                    GateOp::Xor => LowOp::Xor,
                    GateOp::Xnor => LowOp::Xnor,
                };
            }
            CombFunc::Mux2 { .. } => node.op = LowOp::Mux2,
            CombFunc::Slice { lo, width, .. } => {
                node.op = LowOp::Slice;
                node.lo = *lo;
                node.width = *width;
            }
            CombFunc::Concat { .. } => node.op = LowOp::Concat,
        }
        node
    }

    /// The node's input pins.
    #[inline]
    fn inputs<'a>(&'a self, pool: &'a [SignalId]) -> &'a [SignalId] {
        let n = self.n as usize;
        if n <= INLINE_INS {
            &self.ins[..n]
        } else {
            &pool[self.spill as usize..self.spill as usize + n]
        }
    }

    /// Evaluates the node over the dense committed-value shadow,
    /// replicating the interpreted cells bit for bit: the same `Value`
    /// algebra, the 1-bit-to-word broadcast and the width panics.
    #[inline]
    pub fn eval(&self, values: &[Value], pool: &[SignalId]) -> Value {
        let ins = self.inputs(pool);
        let read = |s: SignalId| values[s.index()];
        match self.op {
            LowOp::Mux2 => Value::mux(&read(ins[0]), &read(ins[1]), &read(ins[2])),
            LowOp::Slice => read(ins[0]).slice(self.lo, self.width),
            LowOp::Concat => {
                let first = read(ins[0]);
                ins[1..].iter().fold(first, |acc, &s| acc.concat(&read(s)))
            }
            op => {
                let w = self.width;
                let n = ins.len();
                let first = broadcast(read(ins[0]), w);
                if n == 1 {
                    match op {
                        LowOp::Buf => first,
                        LowOp::Inv => first.not(),
                        _ => unreachable!("multi-input op with one input"),
                    }
                } else if n == 2 {
                    let b = broadcast(read(ins[1]), w);
                    match op {
                        LowOp::And => first.and(&b),
                        LowOp::Or => first.or(&b),
                        LowOp::Nand => first.and(&b).not(),
                        LowOp::Nor => first.or(&b).not(),
                        LowOp::Xor => first.xor(&b),
                        LowOp::Xnor => first.xor(&b).not(),
                        _ => unreachable!("1-input op with two inputs"),
                    }
                } else {
                    let it = ins[1..].iter().map(|&s| broadcast(read(s), w));
                    match op {
                        LowOp::And => it.fold(first, |a, b| a.and(&b)),
                        LowOp::Or => it.fold(first, |a, b| a.or(&b)),
                        LowOp::Nand => it.fold(first, |a, b| a.and(&b)).not(),
                        LowOp::Nor => it.fold(first, |a, b| a.or(&b)).not(),
                        _ => unreachable!("op {op:?} cannot have {n} inputs"),
                    }
                }
            }
        }
    }

    /// Lane-parallel [`LowNode::eval`]: the identical function lifted
    /// over [`LaneValues`] planes. Lane `k`'s result is exactly what
    /// [`LowNode::eval`] would compute from lane `k`'s input values —
    /// the equivalence the sliced campaign engine rests on.
    pub fn eval_lanes<F: Fn(SignalId) -> LaneValues>(
        &self,
        read: F,
        pool: &[SignalId],
    ) -> LaneValues {
        let ins = self.inputs(pool);
        match self.op {
            LowOp::Mux2 => LaneValues::mux(&read(ins[0]), &read(ins[1]), &read(ins[2])),
            LowOp::Slice => read(ins[0]).slice(self.lo, self.width),
            LowOp::Concat => {
                let first = read(ins[0]);
                ins[1..].iter().fold(first, |acc, &s| acc.concat(&read(s)))
            }
            op => {
                let w = self.width;
                let n = ins.len();
                let first = spread(read(ins[0]), w);
                if n == 1 {
                    match op {
                        LowOp::Buf => first,
                        LowOp::Inv => first.not(),
                        _ => unreachable!("multi-input op with one input"),
                    }
                } else if n == 2 {
                    let b = spread(read(ins[1]), w);
                    match op {
                        LowOp::And => first.and(&b),
                        LowOp::Or => first.or(&b),
                        LowOp::Nand => first.and(&b).not(),
                        LowOp::Nor => first.or(&b).not(),
                        LowOp::Xor => first.xor(&b),
                        LowOp::Xnor => first.xor(&b).not(),
                        _ => unreachable!("1-input op with two inputs"),
                    }
                } else {
                    let it = ins[1..].iter().map(|&s| spread(read(s), w));
                    match op {
                        LowOp::And => it.fold(first, |a, b| a.and(&b)),
                        LowOp::Or => it.fold(first, |a, b| a.or(&b)),
                        LowOp::Nand => it.fold(first, |a, b| a.and(&b)).not(),
                        LowOp::Nor => it.fold(first, |a, b| a.or(&b)).not(),
                        _ => unreachable!("op {op:?} cannot have {n} inputs"),
                    }
                }
            }
        }
    }
}

/// Lane-parallel twin of [`broadcast`]: a 1-bit lane set spreads
/// across the gate's word width.
fn spread(v: LaneValues, width: u8) -> LaneValues {
    if v.width() == width {
        v
    } else {
        v.broadcast_to(width)
    }
}

/// One in-flight compiled drive on the calendar. Ordered by `(time,
/// seq)` so same-time entries commit in scheduling order, mirroring
/// the global queue's FIFO-within-timestamp contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CalEntry {
    pub time: Time,
    pub seq: u64,
    pub signal: SignalId,
    pub epoch: u64,
}

/// The active compiled engine: membership table, private calendar of
/// in-flight compiled drives, and profiling counters.
#[derive(Debug, Default)]
pub(crate) struct Compiled {
    /// `node_of[comp]` — index of the component's lowered node in
    /// `nodes`, or [`NO_NODE`] for non-members. One lookup answers
    /// both membership and dispatch.
    node_of: Vec<u32>,
    /// Lowered execution table, one record per member.
    nodes: Vec<LowNode>,
    /// Spilled pin lists for nodes wider than [`INLINE_INS`].
    pool: Vec<SignalId>,
    /// Dense shadow of every signal's committed value, maintained by
    /// the kernel's commit paths. Spec evaluation gathers operands
    /// here — 24-byte entries packed back to back — instead of walking
    /// the fat, scattered `SignalState` records.
    pub values: Vec<Value>,
    /// In-flight compiled drives, kept sorted by `(time, seq)`. The
    /// same nearly-sorted-append trick as the queue's near lane: gate
    /// delays push monotonically increasing timestamps, so the common
    /// push is an O(1) `push_back` and the occasional out-of-order one
    /// (a short delay scheduled after a long one in the same delta)
    /// pays a binary-searched insert into a handful of entries —
    /// cheaper than a binary heap's sift on both ends.
    calendar: VecDeque<CalEntry>,
    /// Monotone scheduling order for same-time calendar entries.
    seq: u64,
    /// Weakly-connected compiled regions found at `compile()` time.
    pub cones_built: u64,
    /// Spec evaluations performed.
    pub cone_evals: u64,
    /// Global-queue events avoided (calendar pushes).
    pub events_avoided: u64,
}

/// [`Compiled::node_of`] marker for components without a lowered node.
pub(crate) const NO_NODE: u32 = u32::MAX;

impl Compiled {
    /// Creates an engine from the lowered tables and a snapshot of the
    /// committed signal values, empty calendar.
    pub fn new(
        node_of: Vec<u32>,
        nodes: Vec<LowNode>,
        pool: Vec<SignalId>,
        values: Vec<Value>,
        cones_built: u64,
    ) -> Compiled {
        Compiled { node_of, nodes, pool, values, cones_built, ..Compiled::default() }
    }

    /// The lowered node of a member component.
    ///
    /// # Panics
    ///
    /// Panics if `comp` is not a member.
    #[inline]
    pub fn node(&self, comp: ComponentId) -> LowNode {
        self.nodes[self.node_of[comp.index()] as usize]
    }

    /// The spilled-pin pool backing wide nodes.
    #[inline]
    pub fn pool(&self) -> &[SignalId] {
        &self.pool
    }

    /// Earliest calendar timestamp, if any drive is in flight.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.calendar.front().map(|e| e.time)
    }

    /// Schedules a compiled inertial drive.
    #[inline]
    pub fn push(&mut self, time: Time, signal: SignalId, epoch: u64) {
        self.seq += 1;
        self.events_avoided += 1;
        let e = CalEntry { time, seq: self.seq, signal, epoch };
        if self.calendar.back().is_none_or(|b| *b <= e) {
            self.calendar.push_back(e);
        } else {
            let i = self.calendar.partition_point(|x| *x <= e);
            self.calendar.insert(i, e);
        }
    }

    /// Pops the next calendar entry if it is due at exactly `time`.
    #[inline]
    pub fn pop_at(&mut self, time: Time) -> Option<CalEntry> {
        match self.calendar.front() {
            Some(e) if e.time == time => self.calendar.pop_front(),
            _ => None,
        }
    }

    /// True when `comp` executes through its spec.
    #[inline]
    pub fn is_member(&self, comp: ComponentId) -> bool {
        self.node_of.get(comp.index()).is_some_and(|&n| n != NO_NODE)
    }

    /// Lowers one spec into the node table (compile-time only).
    pub fn add_node(&mut self, comp: ComponentId, spec: &CombSpec) {
        let idx = u32::try_from(self.nodes.len()).expect("node count fits u32");
        self.node_of[comp.index()] = idx;
        self.nodes.push(LowNode::lower(spec, &mut self.pool));
    }
}

/// Union-find over component indices, used to count the
/// weakly-connected compiled regions ("cones") at compile time.
pub(crate) struct ConeForest {
    parent: Vec<u32>,
}

impl ConeForest {
    pub fn new(n: usize) -> ConeForest {
        ConeForest { parent: (0..n as u32).collect() }
    }

    pub fn find(&mut self, i: u32) -> u32 {
        let mut root = i;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = i;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    pub fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_orders_by_time_then_seq() {
        let mut c = Compiled::default();
        let s = SignalId(0);
        c.push(Time::from_ps(5), s, 1);
        c.push(Time::from_ps(3), SignalId(1), 2);
        c.push(Time::from_ps(3), SignalId(2), 3);
        assert_eq!(c.peek_time(), Some(Time::from_ps(3)));
        let first = c.pop_at(Time::from_ps(3)).unwrap();
        assert_eq!(first.signal, SignalId(1), "same-time entries pop in push order");
        let second = c.pop_at(Time::from_ps(3)).unwrap();
        assert_eq!(second.signal, SignalId(2));
        assert_eq!(c.pop_at(Time::from_ps(3)), None, "remaining entry is later");
        assert_eq!(c.peek_time(), Some(Time::from_ps(5)));
        assert_eq!(c.events_avoided, 3);
    }

    #[test]
    fn cone_forest_counts_components() {
        let mut f = ConeForest::new(5);
        f.union(0, 1);
        f.union(3, 4);
        f.union(1, 3);
        assert_eq!(f.find(0), f.find(4));
        assert_ne!(f.find(2), f.find(0));
    }
}
