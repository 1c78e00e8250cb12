//! The circuit builder: ergonomic netlist construction with area and
//! energy bookkeeping.

use std::collections::BTreeMap;

use sal_des::{
    within_scope, CellClass, CombFunc, ComponentId, GateOp, ScopeId, SignalId, SimResult, Simulator,
    Time, Value,
};

use crate::async_cells::{CElement, DavidCell};
use crate::error::BuildError;
use crate::kind::{CellKind, CellParams, Library};
use crate::seq::{DLatch, Dff};
use crate::sources::{ClockGen, ConstDriver};

/// Layout area accumulated per scope path, in µm².
///
/// Populated by [`CircuitBuilder`] as cells are instantiated; queried
/// afterwards to regenerate the paper's Table 1 and Table 2.
#[derive(Debug, Clone, Default)]
pub struct AreaLedger {
    entries: BTreeMap<String, f64>,
}

impl AreaLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `area_um2` to the given scope path.
    pub fn add(&mut self, path: &str, area_um2: f64) {
        // Cells land in the current scope many times in a row, so the
        // existing-key path must not allocate a lookup String.
        if let Some(a) = self.entries.get_mut(path) {
            *a += area_um2;
        } else {
            self.entries.insert(path.to_string(), area_um2);
        }
    }

    /// Total area across all scopes, µm².
    pub fn total_um2(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Area of the subtree rooted at `prefix` (inclusive,
    /// [`within_scope`]), µm².
    pub fn subtree_um2(&self, prefix: &str) -> f64 {
        self.entries.iter().filter(|(p, _)| within_scope(p, prefix)).map(|(_, a)| a).sum()
    }

    /// Iterates over `(scope path, exclusive area)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(p, a)| (p.as_str(), *a))
    }
}

/// Builds gate-level circuits into a [`Simulator`], pulling cell
/// parameters from a [`Library`], annotating per-signal switching
/// energy and accumulating an [`AreaLedger`].
///
/// Most methods create one cell: they allocate the output signal
/// (named after the cell), instantiate the component, register it as
/// the signal's driver, and account area/energy. Cells that close a
/// feedback loop also come in an `*_into` form, which drives a net
/// declared earlier with [`CircuitBuilder::net`]; the plain form
/// declares its output and calls it. See the [crate-level
/// example](crate).
///
/// # Error handling
///
/// Construction errors (double-driven outputs, width mismatches, bad
/// stage counts…) do not panic at the offending call. Instead the
/// *first* error poisons the builder: it is recorded, the offending
/// cell is skipped (methods return undriven placeholder signals so
/// call chains stay well-formed), and the error surfaces at the end —
/// as a `Result` from [`CircuitBuilder::try_finish`], or as a panic
/// from [`CircuitBuilder::finish`] for top-level code that prefers
/// failing loudly.
pub struct CircuitBuilder<'a> {
    sim: &'a mut Simulator,
    lib: &'a dyn Library,
    area: AreaLedger,
    /// First construction error; later calls on a poisoned builder
    /// still execute (they cannot make things worse) but their errors
    /// are dropped so diagnosis points at the root cause.
    error: Option<BuildError>,
}

impl<'a> CircuitBuilder<'a> {
    /// Wraps a simulator and a technology library.
    pub fn new(sim: &'a mut Simulator, lib: &'a dyn Library) -> Self {
        CircuitBuilder { sim, lib, area: AreaLedger::new(), error: None }
    }

    /// The underlying simulator (escape hatch for monitors, stimuli…).
    pub fn sim(&mut self) -> &mut Simulator {
        self.sim
    }

    /// The library this builder instantiates from.
    pub fn library(&self) -> &dyn Library {
        self.lib
    }

    /// The first construction error recorded, if any.
    pub fn error(&self) -> Option<&BuildError> {
        self.error.as_ref()
    }

    /// Records a construction error if none is recorded yet. Exposed
    /// so netlist assemblers layered on the builder can report their
    /// own configuration failures through the same channel.
    pub fn record_error(&mut self, err: BuildError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    /// An undriven stand-in signal returned after a recorded error, so
    /// the caller's wiring code keeps flowing to `try_finish`.
    fn placeholder(&mut self, name: &str, width: u8) -> SignalId {
        self.sim.add_signal(name, width.clamp(1, Value::MAX_WIDTH))
    }

    /// Folds a driver-connection result into the poison state.
    fn check_driver(&mut self, cell: &str, result: SimResult<()>) {
        if let Err(e) = result {
            self.record_error(BuildError::AlreadyDriven { cell: cell.to_string(), source: e });
        }
    }

    /// Checks an exact width requirement; on mismatch records the
    /// error and returns `false` (the caller skips building the cell).
    fn width_ok(&mut self, cell: &str, expected: u8, actual: u8) -> bool {
        if expected == actual {
            true
        } else {
            self.record_error(BuildError::WidthMismatch {
                cell: cell.to_string(),
                expected,
                actual,
            });
            false
        }
    }

    /// Checks a structural parameter; on failure records the error and
    /// returns `false` (the caller skips building the cell).
    fn param_ok(&mut self, cond: bool, cell: &str, message: &str) -> bool {
        if !cond {
            self.record_error(BuildError::BadParameter {
                cell: cell.to_string(),
                message: message.to_string(),
            });
        }
        cond
    }

    /// Finishes building and returns the accumulated area ledger.
    ///
    /// # Panics
    ///
    /// Panics if a construction error was recorded. Library code that
    /// wants the graceful path uses [`CircuitBuilder::try_finish`].
    pub fn finish(self) -> AreaLedger {
        match self.try_finish() {
            Ok(area) => area,
            Err(e) => panic!("netlist construction failed: {e}"),
        }
    }

    /// Finishes building: the accumulated area ledger, or the first
    /// construction error recorded.
    pub fn try_finish(self) -> Result<AreaLedger, BuildError> {
        match self.error {
            None => Ok(self.area),
            Some(e) => Err(e),
        }
    }

    /// Extracts the poison state without consuming the builder, for
    /// assemblers that return `Result` mid-construction.
    pub fn take_error(&mut self) -> Option<BuildError> {
        self.error.take()
    }

    /// Enters a child scope (hierarchy for names, energy and area).
    pub fn push_scope(&mut self, name: &str) -> ScopeId {
        self.sim.push_scope(name)
    }

    /// Leaves the current scope.
    pub fn pop_scope(&mut self) {
        self.sim.pop_scope();
    }

    /// Declares a net the block drives itself later: a feedback wire
    /// such as an acknowledge running against the build direction, or
    /// a flag read by the logic that computes its own set and clear.
    /// An `*_into` cell closes it. Unlike a port, a net that is read
    /// but never driven is a connectivity-lint error.
    pub fn net(&mut self, name: &str, width: u8) -> SignalId {
        if !self.param_ok(
            (1..=Value::MAX_WIDTH).contains(&width),
            name,
            "signal width must be 1..=64",
        ) {
            return self.placeholder(name, width);
        }
        self.sim.add_signal(name, width)
    }

    /// Declares a block port: an input driven from outside the block,
    /// by a stimulus or an enclosing netlist. Ports are exempt from
    /// the connectivity lint's undriven-signal check; a wire the block
    /// drives itself is a [`CircuitBuilder::net`].
    pub fn input(&mut self, name: &str, width: u8) -> SignalId {
        let sig = self.net(name, width);
        self.sim.mark_port(sig);
        sig
    }

    fn account(&mut self, kind: CellKind, width: u8) -> CellParams {
        let p = self.lib.params(kind);
        let path = self.sim.scope_path_str(self.sim.current_scope());
        self.area.add(path, p.area_um2 * width as f64);
        p
    }

    /// The one placement sequence every cell goes through: `add` puts
    /// the cell in the netlist with its wake list (a behavioural
    /// component, or a combinational node the kernel evaluates); tag
    /// its class and nominal delay (metadata only; see
    /// `sal_des::NetGraph`); let `meta` add the cell's own annotations
    /// and switching energy; register it as the driver of `out`.
    fn place(
        &mut self,
        name: &str,
        add: impl FnOnce(&mut Simulator) -> ComponentId,
        out: SignalId,
        class: CellClass,
        delay: Time,
        meta: impl FnOnce(&mut Simulator, ComponentId),
    ) -> ComponentId {
        let id = add(self.sim);
        self.sim.set_component_class(id, class);
        self.sim.set_component_delay(id, delay);
        meta(self.sim, id);
        let res = self.sim.connect_driver(id, out);
        self.check_driver(name, res);
        id
    }

    /// Places a combinational cell (gate, buffer, wire segment, mux,
    /// slice or concat) computing `func` onto `out`, charging
    /// `energy_fj` per output toggle; pure wiring charges none.
    fn place_comb(
        &mut self,
        name: &str,
        out: SignalId,
        func: CombFunc,
        class: CellClass,
        delay: Time,
        energy_fj: Option<f64>,
    ) -> ComponentId {
        let add = |sim: &mut Simulator| sim.add_comb(name, out, func);
        self.place(name, add, out, class, delay, |sim, _| {
            if let Some(fj) = energy_fj {
                sim.set_signal_energy(out, fj);
            }
        })
    }

    /// A library gate driving the pre-declared `out`; `None` when an
    /// error was recorded and the cell skipped.
    fn gate_into(
        &mut self,
        name: &str,
        out: SignalId,
        op: GateOp,
        kind: CellKind,
        inputs: &[SignalId],
    ) -> Option<ComponentId> {
        let Some(width) = inputs.iter().map(|&s| self.sim.signal_width(s)).max() else {
            self.record_error(BuildError::EmptyInputs { cell: name.to_string() });
            return None;
        };
        // A 1-bit input is broadcast across the word; any other input
        // must be as wide as the gate.
        let inputs_ok = inputs.iter().all(|&s| {
            let w = self.sim.signal_width(s);
            w == 1 || self.width_ok(name, width, w)
        });
        if !inputs_ok || !self.width_ok(name, width, self.sim.signal_width(out)) {
            return None;
        }
        let p = self.account(kind, width);
        let func = CombFunc::Gate { op, inputs: inputs.to_vec(), delay: p.delay };
        Some(self.place_comb(name, out, func, CellClass::Comb, p.delay, Some(p.energy_fj)))
    }

    fn gate(&mut self, name: &str, op: GateOp, kind: CellKind, inputs: &[SignalId]) -> SignalId {
        let width = inputs.iter().map(|&s| self.sim.signal_width(s)).max();
        let out = self.net(name, width.unwrap_or(1));
        self.gate_into(name, out, op, kind, inputs);
        out
    }

    /// Inverter; returns the output signal.
    pub fn inv(&mut self, name: &str, a: SignalId) -> SignalId {
        self.gate(name, GateOp::Inv, CellKind::Inv, &[a])
    }

    /// Buffer; returns the output signal.
    pub fn buf(&mut self, name: &str, a: SignalId) -> SignalId {
        self.gate(name, GateOp::Buf, CellKind::Buf, &[a])
    }

    /// Buffer driving a *pre-declared* output signal (closes feedback
    /// loops such as acknowledge wires running against the build
    /// direction).
    ///
    /// If `out` already has a driver or widths mismatch, the error is
    /// recorded and the cell is skipped.
    pub fn buf_into(&mut self, name: &str, out: SignalId, src: SignalId) {
        self.gate_into(name, out, GateOp::Buf, CellKind::Buf, &[src]);
    }

    /// 2-input AND.
    pub fn and2(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.gate(name, GateOp::And, CellKind::And(2), &[a, b])
    }

    /// 3-input AND.
    pub fn and3(&mut self, name: &str, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        self.gate(name, GateOp::And, CellKind::And(3), &[a, b, c])
    }

    /// 2-input OR.
    pub fn or2(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.gate(name, GateOp::Or, CellKind::Or(2), &[a, b])
    }

    /// 3-input OR.
    pub fn or3(&mut self, name: &str, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        self.gate(name, GateOp::Or, CellKind::Or(3), &[a, b, c])
    }

    /// 4-input OR.
    pub fn or4(
        &mut self,
        name: &str,
        a: SignalId,
        b: SignalId,
        c: SignalId,
        d: SignalId,
    ) -> SignalId {
        self.gate(name, GateOp::Or, CellKind::Or(4), &[a, b, c, d])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.gate(name, GateOp::Nand, CellKind::Nand(2), &[a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.gate(name, GateOp::Xor, CellKind::Xor2, &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, name: &str, a: SignalId, b: SignalId) -> SignalId {
        self.gate(name, GateOp::Xnor, CellKind::Xnor2, &[a, b])
    }

    /// Word-wide 2-way multiplexer (`sel` 1 bit; `a`, `b` same width).
    pub fn mux2(&mut self, name: &str, sel: SignalId, a: SignalId, b: SignalId) -> SignalId {
        let width = self.sim.signal_width(a);
        if !self.width_ok(name, 1, self.sim.signal_width(sel))
            || !self.width_ok(name, width, self.sim.signal_width(b))
        {
            return self.placeholder(name, width);
        }
        let p = self.account(CellKind::Mux2, width);
        let out = self.net(name, width);
        let func = CombFunc::Mux2 { sel, a, b, delay: p.delay };
        self.place_comb(name, out, func, CellClass::Comb, p.delay, Some(p.energy_fj));
        out
    }

    /// Word-wide transparent-high D latch.
    pub fn dlatch(
        &mut self,
        name: &str,
        d: SignalId,
        en: SignalId,
        rstn: Option<SignalId>,
    ) -> SignalId {
        let width = self.sim.signal_width(d);
        let p = self.account(CellKind::DLatch, width);
        let q = self.net(name, width);
        let comp = DLatch::new(d, en, rstn, q, width, p.delay);
        let wake: Vec<SignalId> = [d, en].into_iter().chain(rstn).collect();
        let add = |sim: &mut Simulator| sim.add_component(name, comp, &wake);
        self.place(name, add, q, CellClass::Latch, p.delay, |sim, id| {
            sim.set_component_pins(id, &[d], &[en]);
            sim.set_capture_rule(q, d);
            sim.set_signal_energy(q, p.energy_fj);
        });
        q
    }

    /// Word-wide positive-edge D flip-flop with async active-low reset.
    pub fn dff(
        &mut self,
        name: &str,
        d: SignalId,
        clk: SignalId,
        rstn: Option<SignalId>,
    ) -> SignalId {
        let q = self.net(name, self.sim.signal_width(d));
        self.dff_into(name, q, d, clk, rstn);
        q
    }

    /// Word-wide D flip-flop driving a *pre-declared* output signal
    /// (for registers whose own output feeds their input logic, e.g.
    /// write-enable muxed registers).
    ///
    /// If `q` already has a driver or widths mismatch, the error is
    /// recorded (see the struct-level error-handling notes) and the
    /// cell is skipped.
    pub fn dff_into(
        &mut self,
        name: &str,
        q: SignalId,
        d: SignalId,
        clk: SignalId,
        rstn: Option<SignalId>,
    ) {
        let width = self.sim.signal_width(d);
        if !self.width_ok(name, width, self.sim.signal_width(q)) {
            return;
        }
        let p = self.account(CellKind::Dff, width);
        let comp = Dff::new(d, clk, rstn, q, width, p.delay);
        // Edge-triggered sensitivity: a `d`-only change cannot move
        // `q` (the clock level is unchanged, so no rising edge is
        // detected), so waking the flop on data activity would only
        // burn no-op evaluations. `d` is still read at the edge.
        let wake: Vec<SignalId> = [clk].into_iter().chain(rstn).collect();
        let add = |sim: &mut Simulator| sim.add_component(name, comp, &wake);
        self.place(name, add, q, CellClass::Dff, p.delay, |sim, id| {
            sim.set_component_pins(id, &[d], &[clk]);
            sim.declare_read(id, d);
            sim.set_capture_rule(q, d);
            sim.set_signal_energy(q, p.energy_fj);
        });
    }

    /// 2-input Muller C-element (resettable to `init`).
    pub fn celement2(
        &mut self,
        name: &str,
        a: SignalId,
        b: SignalId,
        rstn: Option<SignalId>,
        init: bool,
    ) -> SignalId {
        self.celement(name, &[a, b], rstn, init)
    }

    /// N-input Muller C-element (N = 2..=3).
    pub fn celement(
        &mut self,
        name: &str,
        inputs: &[SignalId],
        rstn: Option<SignalId>,
        init: bool,
    ) -> SignalId {
        let p = self.account(CellKind::CElement(inputs.len() as u8), 1);
        let z = self.net(name, 1);
        let comp = CElement::new(inputs.to_vec(), rstn, z, p.delay, init);
        let wake: Vec<SignalId> = inputs.iter().copied().chain(rstn).collect();
        let add = |sim: &mut Simulator| sim.add_component(name, comp, &wake);
        self.place(name, add, z, CellClass::CElement, p.delay, |sim, id| {
            sim.set_component_pins(id, &[], inputs);
            sim.set_signal_energy(z, p.energy_fj);
        });
        z
    }

    /// David cell: token set by `set`, cleared by `clr`, reset to
    /// `init` while `rstn` is low.
    pub fn david_cell(
        &mut self,
        name: &str,
        set: SignalId,
        clr: SignalId,
        rstn: Option<SignalId>,
        init: bool,
    ) -> SignalId {
        let out = self.net(name, 1);
        self.david_cell_into(name, out, set, clr, rstn, init);
        out
    }

    /// David cell driving a *pre-declared* output signal (for flags
    /// read by the logic that computes their own set/clear inputs).
    ///
    /// If `out` already has a driver or is not 1 bit wide, the error
    /// is recorded and the cell is skipped.
    pub fn david_cell_into(
        &mut self,
        name: &str,
        out: SignalId,
        set: SignalId,
        clr: SignalId,
        rstn: Option<SignalId>,
        init: bool,
    ) {
        if !self.width_ok(name, 1, self.sim.signal_width(out)) {
            return;
        }
        let p = self.account(CellKind::DavidCell, 1);
        let comp = DavidCell::new(set, clr, rstn, out, p.delay, init);
        let wake: Vec<SignalId> = [set, clr].into_iter().chain(rstn).collect();
        let add = |sim: &mut Simulator| sim.add_component(name, comp, &wake);
        self.place(name, add, out, CellClass::DavidCell, p.delay, |sim, id| {
            sim.set_component_pins(id, &[], &[set, clr]);
            sim.set_signal_energy(out, p.energy_fj);
        });
    }

    /// Constant driver (tie cell).
    pub fn tie(&mut self, name: &str, value: Value) -> SignalId {
        let p = self.account(CellKind::Tie, value.width());
        let out = self.net(name, value.width());
        let add = |sim: &mut Simulator| sim.add_component(name, ConstDriver::new(out, value), &[]);
        self.place(name, add, out, CellClass::Source, Time::ZERO, |sim, id| {
            sim.set_signal_energy(out, p.energy_fj);
            sim.schedule_wake(id, Time::ZERO);
        });
        out
    }

    /// Ideal clock source with the given period (no area — the clock
    /// tree cost is modelled analytically by the technology layer).
    pub fn clock(&mut self, name: &str, period: Time) -> SignalId {
        let out = self.net(name, 1);
        let add = |sim: &mut Simulator| sim.add_component(name, ClockGen::new(out, period), &[]);
        self.place(name, add, out, CellClass::Source, Time::ZERO, |sim, id| {
            sim.schedule_wake(id, Time::ZERO);
        });
        out
    }

    /// Adds the switching load of `length_um` micrometres of routed
    /// wire to an existing signal (0.5·C·V² per bit toggle).
    pub fn add_wire_load(&mut self, sig: SignalId, length_um: f64) {
        let c_ff = self.lib.wire_cap_ff_per_um() * length_um;
        let vdd = self.lib.vdd();
        // fF × V² = fJ (per full swing); half attributed per toggle.
        self.sim.add_signal_energy(sig, 0.5 * c_ff * vdd * vdd);
    }

    // ------------------------------------------------------------------
    // Structural compounds
    // ------------------------------------------------------------------

    /// A chain of `n` word-wide D flip-flops clocked together; returns
    /// the `n` stage outputs (`out[0]` is the first stage).
    pub fn shift_register(
        &mut self,
        name: &str,
        d: SignalId,
        clk: SignalId,
        rstn: Option<SignalId>,
        n: usize,
    ) -> Vec<SignalId> {
        if !self.param_ok(n >= 1, name, "shift register needs at least one stage") {
            return Vec::new();
        }
        let mut outs = Vec::with_capacity(n);
        let mut prev = d;
        for i in 0..n {
            let q = self.dff(&format!("{name}_{i}"), prev, clk, rstn);
            outs.push(q);
            prev = q;
        }
        outs
    }

    /// Pure-wiring view of `bus[lo .. lo+width]` (no area, no energy).
    pub fn slice(&mut self, name: &str, bus: SignalId, lo: u8, width: u8) -> SignalId {
        let bus_width = self.sim.signal_width(bus);
        if !self.param_ok(
            width >= 1 && lo.checked_add(width).is_some_and(|hi| hi <= bus_width),
            name,
            "slice range exceeds bus width",
        ) {
            return self.placeholder(name, width);
        }
        let out = self.net(name, width);
        let func = CombFunc::Slice { src: bus, lo };
        self.place_comb(name, out, func, CellClass::Route, Time::ZERO, None);
        out
    }

    /// Pure-wiring concatenation of buses, first part in the low bits
    /// (no area, no energy).
    pub fn concat(&mut self, name: &str, parts: &[SignalId]) -> SignalId {
        if parts.is_empty() {
            self.record_error(BuildError::EmptyInputs { cell: name.to_string() });
            return self.placeholder(name, 1);
        }
        let width: u32 = parts.iter().map(|&p| self.sim.signal_width(p) as u32).sum();
        if !self.param_ok(
            width <= Value::MAX_WIDTH as u32,
            name,
            "concatenated width exceeds 64 bits",
        ) {
            return self.placeholder(name, 1);
        }
        let out = self.net(name, width as u8);
        let func = CombFunc::Concat { parts: parts.to_vec() };
        self.place_comb(name, out, func, CellClass::Route, Time::ZERO, None);
        out
    }

    /// A transport element modelling a routed wire segment: repeats
    /// `src` after `delay`, charging `energy_fj` per bit toggle. No
    /// cell area (wiring area is accounted separately by the wire
    /// geometry model).
    pub fn transport(
        &mut self,
        name: &str,
        src: SignalId,
        delay: Time,
        energy_fj: f64,
    ) -> SignalId {
        let out = self.net(name, self.sim.signal_width(src));
        self.transport_into(name, out, src, delay, energy_fj);
        out
    }

    /// Like [`CircuitBuilder::transport`], but driving a
    /// *pre-declared* output signal (for backward wires such as
    /// acknowledges that must exist before their driver is built).
    ///
    /// If `out` already has a driver or widths mismatch, the error is
    /// recorded and the cell is skipped.
    pub fn transport_into(
        &mut self,
        name: &str,
        out: SignalId,
        src: SignalId,
        delay: Time,
        energy_fj: f64,
    ) {
        if self.width_ok(name, self.sim.signal_width(src), self.sim.signal_width(out)) {
            let func = CombFunc::Gate { op: GateOp::Buf, inputs: vec![src], delay };
            self.place_comb(name, out, func, CellClass::Wire, delay, Some(energy_fj));
        }
    }

    /// A chain of `n` buffers (a matched delay line, as inserted on
    /// request wires to cover the bundled-data constraint). Returns
    /// the delayed signal.
    pub fn buf_chain(&mut self, name: &str, src: SignalId, n: usize) -> SignalId {
        let mut s = src;
        for i in 0..n {
            s = self.buf(&format!("{name}_{i}"), s);
        }
        s
    }

    /// A balanced tree of 2-input XOR cells reducing `bits` to their
    /// parity (high iff an odd number of inputs are high). This is the
    /// parity/CRC generator-and-checker primitive of the link
    /// protection layer: built from real `Xor2` cells so the reduction
    /// carries area, delay and switching energy. A single input is
    /// returned unchanged; an empty list is a [`BuildError`].
    pub fn xor_tree(&mut self, name: &str, bits: &[SignalId]) -> SignalId {
        self.reduce_tree(name, bits, |b, n, x, y| b.xor2(n, x, y))
    }

    /// A balanced tree of 2-input OR cells reducing `bits` to their
    /// disjunction (the error-flag aggregator of the protection
    /// checker). A single input is returned unchanged; an empty list
    /// is a [`BuildError`].
    pub fn or_tree(&mut self, name: &str, bits: &[SignalId]) -> SignalId {
        self.reduce_tree(name, bits, |b, n, x, y| b.or2(n, x, y))
    }

    fn reduce_tree(
        &mut self,
        name: &str,
        bits: &[SignalId],
        mut op: impl FnMut(&mut Self, &str, SignalId, SignalId) -> SignalId,
    ) -> SignalId {
        if bits.is_empty() {
            self.record_error(BuildError::EmptyInputs { cell: name.to_string() });
            return self.placeholder(name, 1);
        }
        let mut level: Vec<SignalId> = bits.to_vec();
        let mut depth = 0usize;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for (i, pair) in level.chunks(2).enumerate() {
                next.push(if pair.len() == 2 {
                    op(self, &format!("{name}_l{depth}_{i}"), pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
            depth += 1;
        }
        level[0]
    }

    /// An `n`-stage asynchronous ripple counter built from toggle
    /// flip-flops: stage 0 toggles on each rising `clk` edge and each
    /// later stage is clocked by the previous stage's inverted output,
    /// so tap `i` first rises after `2^i` rising `clk` edges and the
    /// interval doubles per tap. Clocked by a gated ring oscillator
    /// this is a *counter-gated delay chain* — the exponential-backoff
    /// timeout element of the link recovery layer. All stages clear
    /// asynchronously while `rstn` is low. Returns the `n` tap
    /// outputs (`taps[0]` is the fastest).
    pub fn ripple_counter(
        &mut self,
        name: &str,
        clk: SignalId,
        rstn: Option<SignalId>,
        n: usize,
    ) -> Vec<SignalId> {
        if !self.param_ok(n >= 1, name, "ripple counter needs at least one stage") {
            return Vec::new();
        }
        let mut taps = Vec::with_capacity(n);
        let mut stage_clk = clk;
        for i in 0..n {
            let q = self.net(&format!("{name}_q{i}"), 1);
            let nq = self.inv(&format!("{name}_n{i}"), q);
            self.dff_into(&format!("{name}_q{i}"), q, nq, stage_clk, rstn);
            taps.push(q);
            stage_clk = nq;
        }
        taps
    }

    /// A self-starting one-hot ring counter: `n` flip-flops clocked by
    /// `clk`, exactly one token output high after reset (token 0),
    /// advancing one position per rising clock edge.
    ///
    /// Stage 0 stores its token inverted (so the all-zero register
    /// state after the async reset reads as "token at stage 0") — the
    /// standard preset-free trick. Functionally this is the David-cell
    /// one-hot sequencer of the paper's Figs 4–6 with the handshake
    /// completion signal acting as the advance clock.
    ///
    /// Requires `n >= 2` (recorded as a [`BuildError`] otherwise).
    pub fn ring_counter(
        &mut self,
        name: &str,
        clk: SignalId,
        rstn: Option<SignalId>,
        n: usize,
    ) -> Vec<SignalId> {
        if !self.param_ok(n >= 2, name, "ring counter needs at least two stages") {
            return Vec::new();
        }
        // q0 holds the complement of token 0: d0 = inv(token[n-1]),
        // token0 = inv(q0); later stages store tokens directly, the
        // last one driving the pre-declared feedback net.
        let tok_last = self.net(&format!("{name}_t{}", n - 1), 1);
        let d0 = self.inv(&format!("{name}_d0"), tok_last);
        let q0 = self.dff(&format!("{name}_q0"), d0, clk, rstn);
        let mut tokens = vec![self.inv(&format!("{name}_t0"), q0)];
        for k in 1..n - 1 {
            let q = self.dff(&format!("{name}_q{k}"), tokens[k - 1], clk, rstn);
            tokens.push(q);
        }
        self.dff_into(&format!("{name}_q{}", n - 1), tok_last, tokens[n - 2], clk, rstn);
        tokens.push(tok_last);
        tokens
    }

    /// A one-hot ring counter with a synchronous advance enable: the
    /// token moves one position on rising clock edges where `en` is
    /// high and holds otherwise. Same token encoding as
    /// [`CircuitBuilder::ring_counter`]. Each stage costs a mux plus a
    /// flip-flop (the standard enabled-register idiom).
    ///
    /// Requires `n >= 2` (recorded as a [`BuildError`] otherwise).
    pub fn ring_counter_en(
        &mut self,
        name: &str,
        clk: SignalId,
        en: SignalId,
        rstn: Option<SignalId>,
        n: usize,
    ) -> Vec<SignalId> {
        if !self.param_ok(n >= 2, name, "ring counter needs at least two stages") {
            return Vec::new();
        }
        let tok_last = self.net(&format!("{name}_t{}", n - 1), 1);
        // What stage k loads when enabled: the previous token (stage 0
        // stores the complement of its token).
        let mut next = self.inv(&format!("{name}_n0"), tok_last);
        let mut tokens = Vec::with_capacity(n);
        for k in 0..n {
            let q = if k == n - 1 { tok_last } else { self.net(&format!("{name}_q{k}"), 1) };
            let d = self.mux2(&format!("{name}_m{k}"), en, q, next);
            self.dff_into(&format!("{name}_q{k}"), q, d, clk, rstn);
            next = if k == 0 { self.inv(&format!("{name}_t0"), q) } else { q };
            tokens.push(next);
        }
        tokens
    }

    /// A one-hot multiplexer (AND-OR structure): selects `data[k]`
    /// where `tokens[k]` is high. All data signals share one width;
    /// tokens are 1-bit and assumed one-hot.
    ///
    /// Empty slices or mismatched lengths are recorded as a
    /// [`BuildError`].
    pub fn onehot_mux(
        &mut self,
        name: &str,
        tokens: &[SignalId],
        data: &[SignalId],
    ) -> SignalId {
        if tokens.is_empty() {
            let width = data.first().map_or(1, |&d| self.sim.signal_width(d));
            self.record_error(BuildError::EmptyInputs { cell: name.to_string() });
            return self.placeholder(name, width);
        }
        if !self.param_ok(tokens.len() == data.len(), name, "token/data count mismatch") {
            let width = data.first().map_or(1, |&d| self.sim.signal_width(d));
            return self.placeholder(name, width);
        }
        let terms: Vec<SignalId> = tokens
            .iter()
            .zip(data)
            .enumerate()
            .map(|(k, (&t, &d))| self.and2(&format!("{name}_and{k}"), d, t))
            .collect();
        self.or4_tree(&format!("{name}_or"), &terms)
    }

    /// A tree of OR gates of up to four inputs each, reducing `bits` to
    /// their disjunction in [`CircuitBuilder::or4_tree_depth`] levels;
    /// gate `j` of level `l` is named `{prefix}{l}_{j}`. A single input
    /// is returned unchanged; an empty list is a [`BuildError`].
    pub fn or4_tree(&mut self, prefix: &str, bits: &[SignalId]) -> SignalId {
        if bits.is_empty() {
            self.record_error(BuildError::EmptyInputs { cell: prefix.to_string() });
            return self.placeholder(prefix, 1);
        }
        let mut terms = bits.to_vec();
        let mut level = 0;
        while terms.len() > 1 {
            let mut next = Vec::with_capacity(terms.len().div_ceil(4));
            for (j, chunk) in terms.chunks(4).enumerate() {
                let nm = format!("{prefix}{level}_{j}");
                let out = match *chunk {
                    [a] => a,
                    [a, b] => self.or2(&nm, a, b),
                    [a, b, c] => self.or3(&nm, a, b, c),
                    [a, b, c, d] => self.or4(&nm, a, b, c, d),
                    _ => unreachable!("chunks(4) yields 1..=4 items"),
                };
                next.push(out);
            }
            terms = next;
            level += 1;
        }
        terms[0]
    }

    /// Gate levels of a [`CircuitBuilder::or4_tree`] over `n` inputs:
    /// none for one input, then one per factor of four.
    pub fn or4_tree_depth(n: usize) -> usize {
        let mut levels = 0;
        let mut w = n;
        while w > 1 {
            w = w.div_ceil(4);
            levels += 1;
        }
        levels
    }

    /// A gated ring oscillator: one NAND (gating with `enable`) plus
    /// `stages - 1` inverters in a loop. `stages` must be odd so the
    /// loop inverts. Returns the oscillator output node. The paper's
    /// word-level serializer derives its burst timing from exactly
    /// this structure ("5 back to back invertors", §IV).
    ///
    /// An even or too-small stage count is recorded as a
    /// [`BuildError`].
    pub fn ring_oscillator(&mut self, name: &str, enable: SignalId) -> SignalId {
        self.ring_oscillator_stages(name, enable, 5)
    }

    /// Ring oscillator with an explicit stage count (see
    /// [`CircuitBuilder::ring_oscillator`]).
    pub fn ring_oscillator_stages(
        &mut self,
        name: &str,
        enable: SignalId,
        stages: usize,
    ) -> SignalId {
        if !self.param_ok(
            stages % 2 == 1 && stages >= 3,
            name,
            "ring oscillator needs an odd stage count >= 3",
        ) {
            return self.placeholder(name, 1);
        }
        // Feedback node must exist before the NAND that closes the loop.
        let fb = self.net(&format!("{name}_fb"), 1);
        let mut node = self.nand2(&format!("{name}_nand"), enable, fb);
        for i in 0..stages - 2 {
            node = self.inv(&format!("{name}_inv{i}"), node);
        }
        // Close the loop with the final inverter driving fb. A ring
        // oscillator is the one intentional combinational loop in the
        // paper's designs (the I3 burst clock); exempting its
        // loop-closing inverter lets the loop lint downgrade every
        // cycle through it to an informational finding.
        let close = format!("{name}_inv_fb");
        if let Some(id) = self.gate_into(&close, fb, GateOp::Inv, CellKind::Inv, &[node]) {
            self.sim.set_loop_exempt(id);
        }
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::UnitLibrary;

    #[test]
    fn area_ledger_accumulates_per_scope() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let a = b.input("a", 1);
        b.push_scope("blk");
        let _ = b.inv("i0", a);
        let bus = b.input("bus", 8);
        let _ = b.buf("b0", bus); // 8 bits => 8 µm² in UnitLibrary
        b.pop_scope();
        let _ = b.inv("i1", a);
        let ledger = b.finish();
        assert!((ledger.subtree_um2("blk") - 9.0).abs() < 1e-9);
        assert!((ledger.total_um2() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_prefix_is_component_wise() {
        let mut l = AreaLedger::new();
        l.add("link", 1.0);
        l.add("link.ser", 2.0);
        l.add("linker", 4.0);
        assert!((l.subtree_um2("link") - 3.0).abs() < 1e-9);
        assert!((l.subtree_um2("") - 7.0).abs() < 1e-9);
    }

    #[test]
    fn shift_register_shifts() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let d = b.input("d", 1);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", Time::from_ns(1));
        let taps = b.shift_register("sr", d, clk, Some(rstn), 3);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
        // One-cycle pulse on d.
        sim.stimulus(
            d,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ps(200), Value::one(1)),
                (Time::from_ps(1200), Value::zero(1)),
            ],
        );
        // Rising edges at 0.5, 1.5, 2.5, 3.5 ns.
        sim.run_until(Time::from_ns(1)).unwrap();
        assert!(sim.value(taps[0]).is_high());
        sim.run_until(Time::from_ns(2)).unwrap();
        assert!(sim.value(taps[0]).is_low());
        assert!(sim.value(taps[1]).is_high());
        sim.run_until(Time::from_ns(3)).unwrap();
        assert!(sim.value(taps[2]).is_high());
        sim.run_until(Time::from_ns(4)).unwrap();
        assert!(sim.value(taps[2]).is_low());
    }

    #[test]
    fn xor_tree_computes_parity() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let bus = b.input("bus", 8);
        let bits: Vec<SignalId> =
            (0..8u8).map(|i| b.slice(&format!("b{i}"), bus, i, 1)).collect();
        let parity = b.xor_tree("par", &bits);
        let any = b.or_tree("any", &bits);
        b.finish();
        let patterns = [0x00u64, 0x01, 0xA5, 0xFF, 0x80, 0x7E];
        let sched: Vec<(Time, Value)> = patterns
            .iter()
            .enumerate()
            .map(|(i, &p)| (Time::from_ns(i as u64), Value::from_u64(8, p)))
            .collect();
        sim.stimulus(bus, &sched);
        for (i, &pattern) in patterns.iter().enumerate() {
            sim.run_until(Time::from_ns(i as u64) + Time::from_ps(900)).unwrap();
            let expect = u64::from(pattern.count_ones() % 2 == 1);
            assert_eq!(sim.value(parity).to_u64(), Some(expect), "pattern {pattern:#x}");
            assert_eq!(sim.value(any).to_u64(), Some(u64::from(pattern != 0)));
        }
    }

    #[test]
    fn ripple_counter_taps_double_per_stage() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", Time::from_ns(1));
        let taps = b.ripple_counter("cnt", clk, Some(rstn), 4);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
        // Rising clock edges at 0.5, 1.5, 2.5 … ns; tap i first rises
        // after 2^i edges. Running to `n` ns covers exactly `n` edges
        // plus settle time.
        let first_high = |sim: &mut Simulator, tap: SignalId| -> u64 {
            let mut edges = 0u64;
            while sim.value(tap).is_low() {
                edges += 1;
                assert!(edges <= 16, "tap never rose");
                sim.run_until(Time::from_ns(edges)).unwrap();
            }
            edges
        };
        // Settle the async reset so taps read 0 (not X) before edge 1.
        sim.run_until(Time::from_ps(200)).unwrap();
        for (i, &tap) in taps.iter().enumerate() {
            assert_eq!(first_high(&mut sim, tap), 1 << i, "tap {i}");
        }
    }

    #[test]
    fn ring_oscillator_runs_when_enabled() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let en = b.input("en", 1);
        let osc = b.ring_oscillator("ro", en);
        b.finish();
        sim.stimulus(en, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))]);
        sim.run_until(Time::from_ns(1)).unwrap();
        let toggles_disabled = sim.toggles(osc);
        sim.run_until(Time::from_ns(3)).unwrap();
        let toggles_enabled = sim.toggles(osc) - toggles_disabled;
        // Period = 2 × 5 stages × 10 ps = 100 ps -> 20 half-periods per ns.
        assert!(toggles_enabled >= 30, "oscillator barely ran: {toggles_enabled}");
    }

    #[test]
    fn ring_oscillator_stops_when_disabled() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let en = b.input("en", 1);
        let osc = b.ring_oscillator("ro", en);
        b.finish();
        // Enable must start low: from an all-X loop state the oscillator
        // cannot self-start (X is a fixed point of the inverter chain),
        // exactly like an unreset physical ring needs a known seed.
        sim.stimulus(
            en,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ps(500), Value::one(1)),
                (Time::from_ns(2), Value::zero(1)),
            ],
        );
        sim.run_until(Time::from_ns(2)).unwrap();
        assert!(sim.toggles(osc) > 10);
        let at_disable = sim.toggles(osc);
        sim.run_until(Time::from_ns(4)).unwrap();
        assert!(
            sim.toggles(osc) <= at_disable + 2,
            "oscillator kept running after disable"
        );
    }

    #[test]
    fn ring_counter_walks_one_hot() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", Time::from_ns(1));
        let toks = b.ring_counter("ring", clk, Some(rstn), 4);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
        let read = |sim: &Simulator, toks: &[SignalId]| -> Vec<u64> {
            toks.iter().map(|&t| sim.value(t).to_u64().unwrap_or(9)).collect()
        };
        // After reset, before any clock edge: token at stage 0.
        sim.run_until(Time::from_ps(400)).unwrap();
        assert_eq!(read(&sim, &toks), vec![1, 0, 0, 0]);
        // Rising edges at 0.5, 1.5, 2.5, 3.5, 4.5 ns.
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(read(&sim, &toks), vec![0, 1, 0, 0]);
        sim.run_until(Time::from_ns(2)).unwrap();
        assert_eq!(read(&sim, &toks), vec![0, 0, 1, 0]);
        sim.run_until(Time::from_ns(3)).unwrap();
        assert_eq!(read(&sim, &toks), vec![0, 0, 0, 1]);
        sim.run_until(Time::from_ns(4)).unwrap();
        assert_eq!(read(&sim, &toks), vec![1, 0, 0, 0]); // wrapped
        // Exactly one token at all times after settling.
        let total: u64 = read(&sim, &toks).iter().sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn ring_counter_en_holds_and_advances() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let en = b.input("en", 1);
        let clk = b.clock("clk", Time::from_ns(1));
        let toks = b.ring_counter_en("ring", clk, en, Some(rstn), 4);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
        // Enabled for exactly one edge (the 1.5 ns edge), then hold.
        sim.stimulus(
            en,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ps(1200), Value::one(1)),
                (Time::from_ps(1800), Value::zero(1)),
            ],
        );
        let read = |sim: &Simulator, toks: &[SignalId]| -> Vec<u64> {
            toks.iter().map(|&t| sim.value(t).to_u64().unwrap_or(9)).collect()
        };
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(read(&sim, &toks), vec![1, 0, 0, 0]); // held (en=0 at 0.5 ns edge)
        sim.run_until(Time::from_ns(2)).unwrap();
        assert_eq!(read(&sim, &toks), vec![0, 1, 0, 0]); // advanced at 1.5 ns
        sim.run_until(Time::from_ns(5)).unwrap();
        assert_eq!(read(&sim, &toks), vec![0, 1, 0, 0]); // held since
    }

    #[test]
    fn slice_concat_and_transport() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let bus = b.input("bus", 32);
        let lo = b.slice("lo", bus, 0, 16);
        let hi = b.slice("hi", bus, 16, 16);
        let back = b.concat("back", &[lo, hi]);
        let wired = b.transport("seg", back, Time::from_ps(7), 2.5);
        let ledger = b.finish();
        assert_eq!(ledger.total_um2(), 0.0, "wiring must not add cell area");
        sim.stimulus(bus, &[(Time::ZERO, Value::from_u64(32, 0xCAFE_F00D))]);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(lo).to_u64(), Some(0xF00D));
        assert_eq!(sim.value(hi).to_u64(), Some(0xCAFE));
        assert_eq!(sim.value(back).to_u64(), Some(0xCAFE_F00D));
        assert_eq!(sim.value(wired).to_u64(), Some(0xCAFE_F00D));
        assert!((sim.signal_info(wired).energy_per_toggle_fj - 2.5).abs() < 1e-12);
    }

    #[test]
    fn onehot_mux_selects_by_token() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let t: Vec<SignalId> = (0..4).map(|i| b.input(&format!("t{i}"), 1)).collect();
        let d: Vec<SignalId> = (0..4).map(|i| b.input(&format!("d{i}"), 8)).collect();
        let out = b.onehot_mux("m", &t, &d);
        b.finish();
        for (i, &di) in d.iter().enumerate() {
            sim.stimulus(di, &[(Time::ZERO, Value::from_u64(8, 0x10 + i as u64))]);
        }
        for (i, &ti) in t.iter().enumerate() {
            sim.stimulus(
                ti,
                &[
                    (Time::ZERO, Value::from_bool(i == 0)),
                    (Time::from_ns(1), Value::from_bool(i == 2)),
                ],
            );
        }
        sim.run_until(Time::from_ps(500)).unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0x10));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0x12));
    }

    #[test]
    fn or4_tree_reduces_in_its_stated_depth() {
        let depths: Vec<usize> =
            [1, 2, 4, 5, 16, 17].into_iter().map(CircuitBuilder::or4_tree_depth).collect();
        assert_eq!(depths, [0, 1, 1, 2, 2, 3]);
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let bits: Vec<SignalId> = (0..6).map(|i| b.input(&format!("b{i}"), 1)).collect();
        let out = b.or4_tree("any_", &bits);
        b.finish();
        // Level 0 ORs b0..b3 and b4..b5, level 1 the two results.
        let gates: Vec<String> = sim.netgraph().components.iter().map(|c| c.name.clone()).collect();
        assert_eq!(gates, ["any_0_0", "any_0_1", "any_1_0"]);
        for (i, &bit) in bits.iter().enumerate() {
            sim.stimulus(bit, &[(Time::ZERO, Value::from_bool(i == 5))]);
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(1));
    }

    #[test]
    fn buf_chain_delays() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let a = b.input("a", 1);
        let y = b.buf_chain("d", a, 5);
        let ledger = b.finish();
        assert!((ledger.total_um2() - 5.0).abs() < 1e-9);
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))]);
        sim.run_until(Time::from_ns(1) + Time::from_ps(49)).unwrap();
        assert!(sim.value(y).is_low());
        sim.run_to_quiescence().unwrap();
        assert!(sim.value(y).is_high());
        assert_eq!(sim.signal_info(y).last_change, Time::from_ns(1) + Time::from_ps(50));
    }

    #[test]
    fn tie_and_wire_load() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let t = b.tie("hi", Value::one(1));
        // 100 µm of wire at 0.2 fF/µm, 1.2 V: 0.5×20×1.44 = 14.4 fJ/toggle
        // on top of the cell's 1.0.
        b.add_wire_load(t, 100.0);
        b.finish();
        sim.run_to_quiescence().unwrap();
        let info = sim.signal_info(t);
        assert!((info.energy_per_toggle_fj - 15.4).abs() < 1e-9);
        assert!(sim.value(t).is_high());
    }

    #[test]
    fn dff_and_dff_into_share_the_edge_rule() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let d = b.input("d", 4);
        let clk = b.input("clk", 1);
        let rstn = b.input("rstn", 1);
        let _ = b.dff("plain", d, clk, Some(rstn));
        let q = b.net("q", 4);
        b.dff_into("into", q, d, clk, Some(rstn));
        b.finish();
        let graph = sim.netgraph();
        let pins = |name: &str| {
            let c = graph.components.iter().find(|c| c.name == name).expect("flop placed");
            (c.inputs.clone(), c.reads.clone(), c.data_pins.clone(), c.trigger_pins.clone())
        };
        assert_eq!(pins("plain"), pins("into"));
        // `clk` and `rstn` wake the flop; `d` is only read at the edge.
        assert_eq!(pins("into"), (vec![clk, rstn], vec![d], vec![d], vec![clk]));
    }

    #[test]
    fn double_drive_is_recorded_not_panicked() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let a = b.input("a", 1);
        let y = sim_target(&mut b, a);
        // Drive `y` a second time through buf_into: the conflict must
        // be recorded, not panic, and later calls become no-ops.
        b.buf_into("dup", y, a);
        assert!(matches!(b.error(), Some(BuildError::AlreadyDriven { .. })));
        // Poisoned builder: further construction is inert.
        let z = b.inv("after", a);
        assert_eq!(sim_width(&b, z), 1);
        let err = b.try_finish().unwrap_err();
        assert!(err.to_string().contains("dup"));
    }

    fn sim_target(b: &mut CircuitBuilder<'_>, a: SignalId) -> SignalId {
        b.inv("first", a)
    }

    fn sim_width(b: &CircuitBuilder<'_>, s: SignalId) -> u8 {
        b.sim.signal_info(s).width
    }

    #[test]
    fn bad_parameter_poisons_builder() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let clk = b.input("clk", 1);
        let toks = b.ring_counter("ring", clk, None, 1); // n < 2
        assert!(toks.is_empty());
        match b.try_finish() {
            Err(BuildError::BadParameter { cell, message }) => {
                assert_eq!(cell, "ring");
                assert!(message.contains("two stages"));
            }
            other => panic!("expected BadParameter, got {other:?}"),
        }
    }

    #[test]
    fn width_mismatch_is_recorded() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let a = b.input("a", 4);
        let s = b.input("s", 1);
        let bwide = b.input("b", 8);
        let _ = b.mux2("m0", s, a, bwide);
        assert!(matches!(
            b.take_error(),
            Some(BuildError::WidthMismatch { expected: 4, actual: 8, .. })
        ));
        // take_error clears the poison; the builder is usable again.
        let _ = b.inv("i0", s);
        assert!(b.try_finish().is_ok());
    }

    /// Builds one cell with `build` on fresh inputs `s` (1 bit), `s2`
    /// (2 bits), `w4` and `w8`, then runs the netlist for a few ns.
    fn build_and_run(
        build: impl FnOnce(&mut CircuitBuilder<'_>, [SignalId; 4]),
    ) -> Result<AreaLedger, BuildError> {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let ins = [b.input("s", 1), b.input("s2", 2), b.input("w4", 4), b.input("w8", 8)];
        build(&mut b, ins);
        let res = b.try_finish();
        for (sig, width) in ins.into_iter().zip([1, 2, 4, 8]) {
            let edges = [(Time::ZERO, Value::zero(width)), (Time::from_ns(1), Value::ones(width))];
            sim.stimulus(sig, &edges);
        }
        sim.run_until(Time::from_ns(3)).unwrap();
        res
    }

    #[test]
    fn bad_width_muxes_and_gates_are_recorded_not_built() {
        let mismatch = |res: Result<AreaLedger, BuildError>| match res {
            Err(BuildError::WidthMismatch { cell, expected, actual }) => (cell, expected, actual),
            other => panic!("expected a width mismatch, got {other:?}"),
        };
        // A multi-bit select.
        let res = build_and_run(|b, [_, s2, w4, _]| {
            b.mux2("m", s2, w4, w4);
        });
        assert_eq!(mismatch(res), ("m".to_string(), 1, 2));
        // Gate inputs neither 1 bit nor the gate width.
        let res = build_and_run(|b, [_, s2, _, w8]| {
            b.and2("g", s2, w8);
        });
        assert_eq!(mismatch(res), ("g".to_string(), 8, 2));
        let res = build_and_run(|b, [s, _, w4, w8]| {
            b.or3("o", w8, s, w4);
        });
        assert_eq!(mismatch(res), ("o".to_string(), 8, 4));
        // The legal shapes beside them build: a 1-bit input broadcast
        // across the word, and a 1-bit select.
        let broadcast = build_and_run(|b, [s, _, _, w8]| {
            b.and2("g", s, w8);
        });
        let select = build_and_run(|b, [s, _, w4, _]| {
            b.mux2("m", s, w4, w4);
        });
        assert!(broadcast.is_ok() && select.is_ok());
    }

    #[test]
    #[should_panic(expected = "netlist construction failed")]
    fn finish_panics_on_recorded_error() {
        let mut sim = Simulator::new();
        let lib = UnitLibrary;
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let _ = b.onehot_mux("oh", &[], &[]);
        b.finish();
    }
}
