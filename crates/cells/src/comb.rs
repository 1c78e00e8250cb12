//! Combinational cells.

use sal_des::{Component, Ctx, GateOp, SignalId, Time, Value};

/// A word-wide combinational gate.
///
/// All inputs must either match the output width or be 1 bit wide, in
/// which case they are broadcast across the word — the common "control
/// signal gates a bus" idiom (e.g. a latch-enable ANDed with 8 data
/// bits costs 8 AND cells, which is how the builder accounts area).
#[derive(Debug)]
pub struct Gate {
    op: GateOp,
    /// Input signals, stored inline: the constructor caps gates at 4
    /// inputs, and keeping them out of a separate heap allocation
    /// saves a dependent load on every evaluation of the hot loop.
    inputs: [SignalId; 4],
    n_inputs: u8,
    out: SignalId,
    width: u8,
    delay: Time,
}

impl Gate {
    /// Creates a gate. Prefer the [`CircuitBuilder`](crate::CircuitBuilder)
    /// methods, which also handle driver registration and accounting.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not suit the operation (1 for
    /// Buf/Inv, exactly 2 for Xor/Xnor, 2..=4 otherwise).
    pub fn new(op: GateOp, inputs: Vec<SignalId>, out: SignalId, width: u8, delay: Time) -> Self {
        let n = inputs.len();
        let ok = match op {
            GateOp::Buf | GateOp::Inv => n == 1,
            GateOp::Xor | GateOp::Xnor => n == 2,
            _ => (2..=4).contains(&n),
        };
        assert!(ok, "gate {op:?} cannot have {n} inputs");
        let mut arr = [out; 4]; // placeholder; only ..n is ever read
        arr[..n].copy_from_slice(&inputs);
        Gate { op, inputs: arr, n_inputs: n as u8, out, width, delay }
    }

    fn broadcast(v: Value, width: u8) -> Value {
        if v.width() == width {
            v
        } else {
            assert_eq!(v.width(), 1, "gate input width must be 1 or the gate width");
            match v.as_logic() {
                sal_des::Logic::Zero => Value::zero(width),
                sal_des::Logic::One => Value::ones(width),
                sal_des::Logic::X => Value::all_x(width),
            }
        }
    }
}

impl Component for Gate {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let w = self.width;
        let n = self.n_inputs as usize;
        let first = Self::broadcast(ctx.read(self.inputs[0]), w);
        // One- and two-input gates are the bulk of every netlist in
        // this repository; give them straight-line paths instead of
        // the generic fold.
        let v = if n == 1 {
            match self.op {
                GateOp::Buf => first,
                GateOp::Inv => first.not(),
                _ => unreachable!("multi-input op with one input"),
            }
        } else if n == 2 {
            let b = Self::broadcast(ctx.read(self.inputs[1]), w);
            match self.op {
                GateOp::And => first.and(&b),
                GateOp::Or => first.or(&b),
                GateOp::Nand => first.and(&b).not(),
                GateOp::Nor => first.or(&b).not(),
                GateOp::Xor => first.xor(&b),
                GateOp::Xnor => first.xor(&b).not(),
                GateOp::Buf | GateOp::Inv => unreachable!("1-input op with two inputs"),
            }
        } else {
            let it = self.inputs[1..n].iter().map(|&s| Self::broadcast(ctx.read(s), w));
            match self.op {
                GateOp::And => it.fold(first, |a, b| a.and(&b)),
                GateOp::Or => it.fold(first, |a, b| a.or(&b)),
                GateOp::Nand => it.fold(first, |a, b| a.and(&b)).not(),
                GateOp::Nor => it.fold(first, |a, b| a.or(&b)).not(),
                _ => unreachable!("op {:?} cannot have {n} inputs", self.op),
            }
        };
        ctx.drive(self.out, v, self.delay);
    }
}

/// A word-wide 2-way multiplexer: `out = if sel { b } else { a }`.
#[derive(Debug)]
pub struct Mux2 {
    sel: SignalId,
    a: SignalId,
    b: SignalId,
    out: SignalId,
    delay: Time,
}

impl Mux2 {
    /// Creates a multiplexer; `sel` must be 1 bit wide, `a`/`b`/`out`
    /// share the word width.
    pub fn new(sel: SignalId, a: SignalId, b: SignalId, out: SignalId, delay: Time) -> Self {
        Mux2 { sel, a, b, out, delay }
    }
}

impl Component for Mux2 {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let sel = ctx.read(self.sel);
        let a = ctx.read(self.a);
        let b = ctx.read(self.b);
        ctx.drive(self.out, Value::mux(&sel, &a, &b), self.delay);
    }
}

/// Zero-cost wiring: extracts a bit range of a bus onto its own signal
/// (pure routing, no cell — no area, no energy, negligible delay).
#[derive(Debug)]
pub struct SliceWire {
    src: SignalId,
    lo: u8,
    width: u8,
    out: SignalId,
}

impl SliceWire {
    /// Creates a slice view of `src[lo .. lo+width]`.
    pub fn new(src: SignalId, lo: u8, width: u8, out: SignalId) -> Self {
        SliceWire { src, lo, width, out }
    }
}

impl Component for SliceWire {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let v = ctx.read(self.src).slice(self.lo, self.width);
        ctx.drive(self.out, v, Time::from_fs(1));
    }
}

/// Zero-cost wiring: concatenates several buses (first input occupies
/// the low bits) onto one signal.
#[derive(Debug)]
pub struct ConcatWire {
    parts: Vec<SignalId>,
    out: SignalId,
}

impl ConcatWire {
    /// Creates a concatenation of `parts` (low bits first).
    pub fn new(parts: Vec<SignalId>, out: SignalId) -> Self {
        ConcatWire { parts, out }
    }
}

impl Component for ConcatWire {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let mut it = self.parts.iter();
        let first = ctx.read(*it.next().expect("concat of nothing"));
        let v = it.fold(first, |acc, &s| acc.concat(&ctx.read(s)));
        ctx.drive(self.out, v, Time::from_fs(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_des::Simulator;

    fn run_gate(op: GateOp, ins: &[u64], width: u8) -> Value {
        let mut sim = Simulator::new();
        let sigs: Vec<SignalId> =
            (0..ins.len()).map(|i| sim.add_signal(&format!("i{i}"), width)).collect();
        let out = sim.add_signal("out", width);
        let g = Gate::new(op, sigs.clone(), out, width, Time::from_ps(5));
        let id = sim.add_component("g", g, &sigs);
        sim.connect_driver(id, out).unwrap();
        for (s, &v) in sigs.iter().zip(ins) {
            sim.stimulus(*s, &[(Time::ZERO, Value::from_u64(width, v))]);
        }
        sim.run_to_quiescence().unwrap();
        sim.value(out)
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
        let _ = Gate::new(GateOp::Xor, vec![a, a, a], out, 1, Time::from_ps(1));
    }

    #[test]
    fn one_bit_control_broadcasts_over_bus() {
        let mut sim = Simulator::new();
        let bus = sim.add_signal("bus", 8);
        let en = sim.add_signal("en", 1);
        let out = sim.add_signal("out", 8);
        let g = Gate::new(GateOp::And, vec![bus, en], out, 8, Time::from_ps(5));
        let id = sim.add_component("g", g, &[bus, en]);
        sim.connect_driver(id, out).unwrap();
        sim.stimulus(bus, &[(Time::ZERO, Value::from_u64(8, 0xA5))]);
        sim.stimulus(
            en,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(50), Value::one(1))],
        );
        sim.run_until(Time::from_ps(30)).unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0xA5));
    }

    #[test]
    fn mux_switches_buses() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 8);
        let b = sim.add_signal("b", 8);
        let sel = sim.add_signal("sel", 1);
        let out = sim.add_signal("out", 8);
        let id = sim.add_component("m", Mux2::new(sel, a, b, out, Time::from_ps(5)), &[sel, a, b]);
        sim.connect_driver(id, out).unwrap();
        sim.stimulus(a, &[(Time::ZERO, Value::from_u64(8, 0x11))]);
        sim.stimulus(b, &[(Time::ZERO, Value::from_u64(8, 0x22))]);
        sim.stimulus(
            sel,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        sim.run_until(Time::from_ps(50)).unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0x11));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0x22));
    }
}
