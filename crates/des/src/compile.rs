//! Combinational cells: the node table and its one evaluator.
//!
//! A combinational cell (a gate, a mux, a slice or a concat) is a
//! side-effect-free function of its committed inputs with a fixed
//! nominal delay. [`Simulator::add_comb`](crate::Simulator::add_comb)
//! lowers its [`CombFunc`] once into a flat [`LowNode`] record that the
//! simulator owns (opcode, inline pin list, output and delay), and the
//! kernel evaluates that record itself on every input commit: no box
//! and no virtual call. One function body, [`LowNode::eval`], computes
//! a node over any [`CombValue`]: a [`Value`] in a scalar run, a
//! [`LaneValues`] plane set for the lanes of a sliced campaign, with
//! one 1-bit-to-word input broadcast rule for both.
//!
//! The two engines differ only in where a node's operands come from
//! and what else an evaluation feeds:
//!
//! - uncompiled, a node reads the committed values and drives through
//!   [`Ctx::drive`](crate::Ctx::drive), exactly as a behavioural cell
//!   would. So does every node that
//!   [`Simulator::compile`](crate::Simulator::compile) leaves out: one
//!   whose cell class is not transparent, or the loop-closing inverter
//!   of a ring oscillator, whose free-running timing is the design
//!   under test;
//! - compiled, a node reads the dense committed-value shadow, advances
//!   the lanes of a sliced campaign beside the carrier, and feeds the
//!   compiled counters. `compile()` lowers nothing: it picks the member
//!   nodes, counts their cones and snapshots the shadow.
//!
//! Either way the drive goes through the kernel's one inertial-drive
//! rule onto the kernel's one event queue. State cells (latches,
//! flops, C-elements), matched-delay chains, handshake edges and
//! environment models are behavioural components in both engines:
//! their *timing* is the design under test, not an implementation
//! detail to optimise away.
//!
//! Equivalence contract: a compiled run commits exactly the events of
//! the uncompiled run, in the same order — the same transition trace
//! record for record, the same toggle counts and energies, and the same
//! `events`, `deltas`, `commits` and `wakes` counters. Both engines
//! compute a node with the same function from the same committed
//! values, in the same delta, and push the same drive onto the same
//! queue at the same point, so every event carries the same `(time,
//! seq)` key in both runs and pops in the same order.

use crate::{LaneValues, Logic, SignalId, Time, Value};

/// The boolean function of a gate (see [`CombFunc::Gate`]).
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

/// The function of a combinational cell, one variant per cell shape in
/// the library. The output signal handed to
/// [`Simulator::add_comb`](crate::Simulator::add_comb) sets the width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombFunc {
    /// A word-wide gate; 1-bit inputs broadcast across the word.
    Gate {
        /// Boolean operation.
        op: GateOp,
        /// Input signals (1, or 2..=4 depending on `op`).
        inputs: Vec<SignalId>,
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
    /// Pure routing: a bit range of a bus, as wide as the output, on
    /// its own signal.
    Slice {
        /// Source bus.
        src: SignalId,
        /// Low bit of the extracted range.
        lo: u8,
    },
    /// Pure routing: buses concatenated low-bits-first.
    Concat {
        /// Source buses, first occupies the low bits.
        parts: Vec<SignalId>,
    },
}

/// The operand algebra a [`LowNode`] evaluates over: [`Value`] for a
/// scalar run (and a sliced pass's carrier), [`LaneValues`] for the
/// lanes of a sliced pass. Each method is the type's own operator.
pub(crate) trait CombValue: Sized {
    fn width(&self) -> u8;
    fn not(&self) -> Self;
    fn and(&self, other: &Self) -> Self;
    fn or(&self, other: &Self) -> Self;
    fn xor(&self, other: &Self) -> Self;
    fn mux(sel: &Self, a: &Self, b: &Self) -> Self;
    fn slice(&self, lo: u8, width: u8) -> Self;
    fn concat(&self, hi: &Self) -> Self;
    /// Spreads a 1-bit value across `width` bits: a known 0 becomes
    /// all zeros, a known 1 all ones, an X all X.
    fn broadcast_to(&self, width: u8) -> Self;
}

impl CombValue for Value {
    fn width(&self) -> u8 {
        Value::width(self)
    }
    fn not(&self) -> Self {
        Value::not(self)
    }
    fn and(&self, other: &Self) -> Self {
        Value::and(self, other)
    }
    fn or(&self, other: &Self) -> Self {
        Value::or(self, other)
    }
    fn xor(&self, other: &Self) -> Self {
        Value::xor(self, other)
    }
    fn mux(sel: &Self, a: &Self, b: &Self) -> Self {
        Value::mux(sel, a, b)
    }
    fn slice(&self, lo: u8, width: u8) -> Self {
        Value::slice(self, lo, width)
    }
    fn concat(&self, hi: &Self) -> Self {
        Value::concat(self, hi)
    }
    fn broadcast_to(&self, width: u8) -> Self {
        match self.as_logic() {
            Logic::Zero => Value::zero(width),
            Logic::One => Value::ones(width),
            Logic::X => Value::all_x(width),
        }
    }
}

impl CombValue for LaneValues {
    fn width(&self) -> u8 {
        LaneValues::width(self)
    }
    fn not(&self) -> Self {
        LaneValues::not(self)
    }
    fn and(&self, other: &Self) -> Self {
        LaneValues::and(self, other)
    }
    fn or(&self, other: &Self) -> Self {
        LaneValues::or(self, other)
    }
    fn xor(&self, other: &Self) -> Self {
        LaneValues::xor(self, other)
    }
    fn mux(sel: &Self, a: &Self, b: &Self) -> Self {
        LaneValues::mux(sel, a, b)
    }
    fn slice(&self, lo: u8, width: u8) -> Self {
        LaneValues::slice(self, lo, width)
    }
    fn concat(&self, hi: &Self) -> Self {
        LaneValues::concat(self, hi)
    }
    fn broadcast_to(&self, width: u8) -> Self {
        LaneValues::broadcast_to(self, width)
    }
}

/// The gate input rule: an input as wide as the gate passes through, a
/// 1-bit input spreads across the gate's word width.
fn broadcast<V: CombValue>(v: V, width: u8) -> V {
    if v.width() == width {
        v
    } else {
        assert_eq!(v.width(), 1, "gate input width must be 1 or the gate width");
        v.broadcast_to(width)
    }
}

/// Lowered opcode of a [`LowNode`]: [`CombFunc`] flattened to a plain
/// selector for the hot evaluation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LowOp {
    Gate(GateOp),
    Mux2,
    /// A slice from this low bit.
    Slice(u8),
    Concat,
}

/// Number of input pins a [`LowNode`] stores inline; wider pin lists
/// (big concats) spill into the simulator's shared pin pool.
const INLINE_INS: usize = 4;

/// One [`CombFunc`] lowered into a flat, fixed-size record: opcode,
/// inline pin list, output and delay all in one ~40-byte copy — no
/// enum-with-`Vec` indirection on the hot path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LowNode {
    op: LowOp,
    /// Gate/slice output width (unused by `Mux2`/`Concat`, which take
    /// their width from their operands).
    width: u8,
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
    /// Lowers `func` computing the `width`-bit `out`, spilling a pin
    /// list wider than [`INLINE_INS`] into `pool`. Slices and concats
    /// drive after a 1 fs token delay.
    ///
    /// # Panics
    ///
    /// Panics if a gate's input count does not suit its operation (1
    /// for Buf/Inv, exactly 2 for Xor/Xnor, 2..=4 otherwise).
    pub fn lower(out: SignalId, width: u8, func: &CombFunc, pool: &mut Vec<SignalId>) -> LowNode {
        let (op, pins, delay) = match func {
            CombFunc::Gate { op, inputs, delay } => {
                let n = inputs.len();
                let ok = match op {
                    GateOp::Buf | GateOp::Inv => n == 1,
                    GateOp::Xor | GateOp::Xnor => n == 2,
                    _ => (2..=4).contains(&n),
                };
                assert!(ok, "gate {op:?} cannot have {n} inputs");
                (LowOp::Gate(*op), inputs.clone(), *delay)
            }
            CombFunc::Mux2 { sel, a, b, delay } => (LowOp::Mux2, vec![*sel, *a, *b], *delay),
            CombFunc::Slice { src, lo } => (LowOp::Slice(*lo), vec![*src], Time::from_fs(1)),
            CombFunc::Concat { parts } => (LowOp::Concat, parts.clone(), Time::from_fs(1)),
        };
        let mut ins = [SignalId(0); INLINE_INS];
        let mut spill = 0;
        if pins.len() <= INLINE_INS {
            ins[..pins.len()].copy_from_slice(&pins);
        } else {
            spill = u32::try_from(pool.len()).expect("pool fits u32");
            pool.extend_from_slice(&pins);
        }
        let n = u8::try_from(pins.len()).expect("pin count fits u8");
        LowNode { op, width, n, spill, out, ins, delay }
    }

    /// The node's input pins, in the order they wake it.
    #[inline]
    pub fn inputs<'a>(&'a self, pool: &'a [SignalId]) -> &'a [SignalId] {
        let n = self.n as usize;
        if n <= INLINE_INS {
            &self.ins[..n]
        } else {
            &pool[self.spill as usize..self.spill as usize + n]
        }
    }

    /// Evaluates the node over the operands `read` returns, with the
    /// operand type's own algebra, the 1-bit-to-word broadcast and the
    /// width panics. Because a scalar run and every lane of a sliced
    /// pass go through this one body, lane `k` of a [`LaneValues`]
    /// evaluation is exactly the [`Value`] evaluation of lane `k`'s
    /// inputs — the equivalence the sliced campaign engine rests on.
    #[inline]
    pub fn eval<V: CombValue>(&self, pool: &[SignalId], read: impl Fn(SignalId) -> V) -> V {
        let ins = self.inputs(pool);
        match self.op {
            LowOp::Mux2 => V::mux(&read(ins[0]), &read(ins[1]), &read(ins[2])),
            LowOp::Slice(lo) => read(ins[0]).slice(lo, self.width),
            LowOp::Concat => ins[1..].iter().fold(read(ins[0]), |acc, &s| acc.concat(&read(s))),
            LowOp::Gate(op) => {
                let arg = |s: SignalId| broadcast(read(s), self.width);
                let first = arg(ins[0]);
                // One- and two-input gates are the bulk of every
                // netlist: straight-line paths for them, a fold for
                // the rest. `lower` checked each op's input count.
                if let [_] = ins {
                    match op {
                        GateOp::Buf => first,
                        GateOp::Inv => first.not(),
                        _ => unreachable!("multi-input op with one input"),
                    }
                } else if let [_, b] = ins {
                    let b = arg(*b);
                    match op {
                        GateOp::And => first.and(&b),
                        GateOp::Or => first.or(&b),
                        GateOp::Nand => first.and(&b).not(),
                        GateOp::Nor => first.or(&b).not(),
                        GateOp::Xor => first.xor(&b),
                        GateOp::Xnor => first.xor(&b).not(),
                        GateOp::Buf | GateOp::Inv => unreachable!("1-input op with two inputs"),
                    }
                } else {
                    let rest = ins[1..].iter().map(|&s| arg(s));
                    match op {
                        GateOp::And => rest.fold(first, |a, b| a.and(&b)),
                        GateOp::Or => rest.fold(first, |a, b| a.or(&b)),
                        GateOp::Nand => rest.fold(first, |a, b| a.and(&b)).not(),
                        GateOp::Nor => rest.fold(first, |a, b| a.or(&b)).not(),
                        _ => unreachable!("op {op:?} cannot have {} inputs", ins.len()),
                    }
                }
            }
        }
    }
}

/// The active compiled engine: the committed-value shadow its nodes
/// read, and profiling counters.
#[derive(Debug, Default)]
pub(crate) struct Compiled {
    /// Dense shadow of every signal's committed value, maintained by
    /// the kernel's commit paths. Compiled nodes gather their operands
    /// here — 24-byte entries packed back to back — instead of walking
    /// the fat, scattered `SignalState` records.
    pub values: Vec<Value>,
    /// Weakly-connected compiled regions found at `compile()` time.
    pub cones_built: u64,
    /// Compiled node evaluations performed.
    pub cone_evals: u64,
    /// Drives compiled nodes scheduled on the event queue.
    pub events_avoided: u64,
}

impl Compiled {
    /// Creates an engine over a snapshot of the committed signal
    /// values, its counters at zero.
    pub fn new(values: Vec<Value>, cones_built: u64) -> Compiled {
        Compiled { values, cones_built, ..Compiled::default() }
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
    use crate::{CellClass, Simulator};

    /// A stimulus schedule for one cell input.
    type Schedule<'a> = &'a [(Time, Value)];

    /// Builds one `add_comb` cell of output width `width` over fresh
    /// inputs (each a width and its schedule) and samples the output
    /// at each of `at`, uncompiled and compiled. The two runs must
    /// agree on every sample, on the output's toggle count and on its
    /// last change; returns the samples.
    fn both_engines(
        width: u8,
        inputs: &[(u8, Schedule<'_>)],
        func: impl Fn(Vec<SignalId>) -> CombFunc,
        at: &[Time],
    ) -> Vec<Value> {
        let run = |compiled: bool| {
            let mut sim = Simulator::new();
            let ins: Vec<SignalId> =
                (0..inputs.len()).map(|i| sim.add_signal(&format!("i{i}"), inputs[i].0)).collect();
            let out = sim.add_signal("out", width);
            let id = sim.add_comb("c", out, func(ins.clone()));
            sim.set_component_class(id, CellClass::Comb);
            sim.connect_driver(id, out).unwrap();
            for (&s, &(_, schedule)) in ins.iter().zip(inputs) {
                sim.stimulus(s, schedule);
            }
            if compiled {
                assert_eq!(sim.compile(), 1, "the cell runs compiled");
            }
            let samples: Vec<Value> = at
                .iter()
                .map(|&t| {
                    sim.run_until(t).unwrap();
                    sim.value(out)
                })
                .collect();
            (samples, sim.toggles(out), sim.signal_info(out).last_change)
        };
        let uncompiled = run(false);
        assert_eq!(run(true), uncompiled, "compiled and uncompiled runs disagree");
        uncompiled.0
    }

    fn run_gate(op: GateOp, ins: &[u64], width: u8) -> Value {
        let schedules: Vec<[(Time, Value); 1]> =
            ins.iter().map(|&v| [(Time::ZERO, Value::from_u64(width, v))]).collect();
        let inputs: Vec<(u8, Schedule<'_>)> = schedules.iter().map(|s| (width, &s[..])).collect();
        let gate = |inputs| CombFunc::Gate { op, inputs, delay: Time::from_ps(5) };
        both_engines(width, &inputs, gate, &[Time::MAX])[0]
    }

    #[test]
    fn basic_truth_tables() {
        assert_eq!(run_gate(GateOp::And, &[0b1100, 0b1010], 4).to_u64(), Some(0b1000));
        assert_eq!(run_gate(GateOp::Or, &[0b1100, 0b1010], 4).to_u64(), Some(0b1110));
        assert_eq!(run_gate(GateOp::Nand, &[0b11, 0b01], 2).to_u64(), Some(0b10));
        assert_eq!(run_gate(GateOp::Nor, &[0b00, 0b01], 2).to_u64(), Some(0b10));
        assert_eq!(run_gate(GateOp::Xor, &[0b1100, 0b1010], 4).to_u64(), Some(0b0110));
        assert_eq!(run_gate(GateOp::Xnor, &[0b1100, 0b1010], 4).to_u64(), Some(0b1001));
        assert_eq!(run_gate(GateOp::Inv, &[0b1010], 4).to_u64(), Some(0b0101));
        assert_eq!(run_gate(GateOp::Buf, &[0b1010], 4).to_u64(), Some(0b1010));
    }

    #[test]
    fn three_input_and() {
        assert_eq!(run_gate(GateOp::And, &[0b1111, 0b1101, 0b1001], 4).to_u64(), Some(0b1001));
    }

    #[test]
    #[should_panic(expected = "cannot have")]
    fn xor_rejects_three_inputs() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let out = sim.add_signal("o", 1);
        let inputs = vec![a, a, a];
        sim.add_comb("x", out, CombFunc::Gate { op: GateOp::Xor, inputs, delay: Time::from_ps(1) });
    }

    #[test]
    fn one_bit_control_broadcasts_over_bus() {
        let bus = [(Time::ZERO, Value::from_u64(8, 0xA5))];
        let en = [(Time::ZERO, Value::zero(1)), (Time::from_ps(50), Value::one(1))];
        let and = |inputs| CombFunc::Gate { op: GateOp::And, inputs, delay: Time::from_ps(5) };
        let out = both_engines(8, &[(8, &bus), (1, &en)], and, &[Time::from_ps(30), Time::MAX]);
        assert_eq!(out[0].to_u64(), Some(0));
        assert_eq!(out[1].to_u64(), Some(0xA5));
    }

    #[test]
    fn mux_switches_buses() {
        let sel = [(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))];
        let a = [(Time::ZERO, Value::from_u64(8, 0x11))];
        let b = [(Time::ZERO, Value::from_u64(8, 0x22))];
        let delay = Time::from_ps(5);
        let mux = |ins: Vec<SignalId>| CombFunc::Mux2 { sel: ins[0], a: ins[1], b: ins[2], delay };
        let at = [Time::from_ps(50), Time::MAX];
        let out = both_engines(8, &[(1, &sel), (8, &a), (8, &b)], mux, &at);
        assert_eq!(out[0].to_u64(), Some(0x11));
        assert_eq!(out[1].to_u64(), Some(0x22));
    }

    /// A concat of more parts than a node stores inline reads its pins
    /// from the pool, in both engines.
    #[test]
    fn wide_concat_spills_its_pins_and_agrees_across_engines() {
        let widths = [1u8, 3, 4, 8, 2, 6];
        let parts: Vec<SignalId> = (0..widths.len() as u32).map(SignalId).collect();
        let mut pool = vec![SignalId(99)];
        let func = CombFunc::Concat { parts: parts.clone() };
        let node = LowNode::lower(SignalId(6), 24, &func, &mut pool);
        assert_eq!(pool.len(), 1 + widths.len(), "the pins spill into the pool");
        assert_eq!(node.inputs(&pool), &parts[..]);
        // Part k holds k + 1 from the start and goes all-ones at
        // (k + 1) * 10 ps.
        let schedules: Vec<[(Time, Value); 2]> = (0..widths.len())
            .map(|k| {
                let (w, k) = (widths[k], k as u64);
                let change = Time::from_ps(10 * (k + 1));
                [(Time::ZERO, Value::from_u64(w, k + 1)), (change, Value::ones(w))]
            })
            .collect();
        let inputs: Vec<(u8, Schedule<'_>)> =
            widths.iter().zip(&schedules).map(|(&w, s)| (w, &s[..])).collect();
        let at: Vec<Time> = (0..=widths.len() as u64).map(|k| Time::from_ps(10 * k + 5)).collect();
        let out = both_engines(24, &inputs, |parts| CombFunc::Concat { parts }, &at);
        // Low bits first: 1 | 2 << 1 | 3 << 4 | 4 << 8 | (5 & 3) << 16 | 6 << 18.
        assert_eq!(out[0].to_u64(), Some(0x19_0435));
        assert_eq!(out[1].to_u64(), Some(0x19_0435), "part 0 was already all-ones");
        assert_eq!(out[2].to_u64(), Some(0x19_043F));
        assert_eq!(out[widths.len()], Value::ones(24));
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
