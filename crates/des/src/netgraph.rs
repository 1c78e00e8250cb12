//! Static connectivity graph of a constructed netlist.
//!
//! The simulator records, next to the dynamic event machinery, a set
//! of *side tables* describing the netlist structure: which component
//! drives which signal, which signals each component is sensitive to
//! or reads, what kind of cell each component models, and which
//! signal pairs form bundled-data launch/capture relations or
//! four-phase handshakes. [`Simulator::netgraph`](crate::Simulator::netgraph)
//! snapshots those tables into a [`NetGraph`] — a plain, immutable
//! value that static-analysis passes (the `sal-lint` crate) can walk
//! without touching the simulator.
//!
//! Everything here is metadata only: registering classes, bundles or
//! captures never changes simulation results. The annotations are
//! written by `sal-cells::CircuitBuilder` and the `sal-link` block
//! constructors as the netlist is built.

use crate::component::ComponentId;
use crate::signal::SignalId;
use crate::time::Time;

/// Coarse behavioural class of a netlist component, used by static
/// analysis to decide how signals propagate through it.
///
/// The classes matter to the lint passes along three axes:
///
/// * **loop transparency** — [`Comb`](CellClass::Comb),
///   [`Wire`](CellClass::Wire) and [`Route`](CellClass::Route) forward
///   transitions combinationally, so a cycle made only of them is a
///   combinational loop; every other class breaks such a cycle.
/// * **timing traversal** — data and strobe cones pass through cells
///   differently per class (a latch is transparent to data via its
///   `d` pin, a flip-flop launches data from its clock pin, …).
/// * **exemption** — [`Source`](CellClass::Source),
///   [`Env`](CellClass::Env) and [`Monitor`](CellClass::Monitor)
///   model stimulus, testbench and observation; they are exempt from
///   width and connectivity rules that only make sense for silicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Combinational gate (AND, OR, inverter, mux, buffer, …).
    Comb,
    /// Routed-wire transport element: repeats its input after a wire
    /// delay. Combinationally transparent, like [`CellClass::Comb`],
    /// but carries no cell area.
    Wire,
    /// Pure wiring view (slice/concat): zero delay, zero energy.
    Route,
    /// Level-sensitive latch: transparent to data while enabled.
    Latch,
    /// Edge-triggered flip-flop: output launches from the clock pin.
    Dff,
    /// Muller C-element (async state-holding, hysteresis on inputs).
    CElement,
    /// David cell (async set/clear token element).
    DavidCell,
    /// Stimulus, tie or clock generator: originates transitions, has
    /// no netlist inputs worth tracing through.
    Source,
    /// Testbench machinery (producers, consumers, switch models).
    Env,
    /// Pure observer: reads signals, drives nothing.
    Monitor,
    /// Not annotated. Treated conservatively: opaque to loop and
    /// timing traversal, exempt from width checks.
    Unknown,
}

impl CellClass {
    /// Whether a combinational cycle through this cell is a real
    /// combinational loop (`true`) or is broken by state (`false`).
    pub fn is_transparent(self) -> bool {
        matches!(self, CellClass::Comb | CellClass::Wire | CellClass::Route)
    }

    /// Whether the width-consistency lint applies to this cell's
    /// reads (testbench/observer/source cells are exempt, as is
    /// pure routing, which reshapes widths by design).
    pub fn is_width_checked(self) -> bool {
        matches!(
            self,
            CellClass::Comb
                | CellClass::Wire
                | CellClass::Latch
                | CellClass::Dff
                | CellClass::CElement
                | CellClass::DavidCell
        )
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CellClass::Comb => "comb",
            CellClass::Wire => "wire",
            CellClass::Route => "route",
            CellClass::Latch => "latch",
            CellClass::Dff => "dff",
            CellClass::CElement => "celement",
            CellClass::DavidCell => "david",
            CellClass::Source => "source",
            CellClass::Env => "env",
            CellClass::Monitor => "monitor",
            CellClass::Unknown => "unknown",
        }
    }
}

/// One signal of the snapshot: identity, structure and annotations.
#[derive(Debug, Clone)]
pub struct NetSignal {
    /// The signal's id in the simulator that produced the snapshot.
    pub id: SignalId,
    /// Local name (within its scope).
    pub name: String,
    /// Full dotted hierarchical path.
    pub path: String,
    /// Width in bits.
    pub width: u8,
    /// Every component registered as driving this signal (the unique
    /// kernel driver plus any declared extra drivers).
    pub drivers: Vec<ComponentId>,
    /// Every component that reacts to or reads this signal
    /// (sensitivity fanout plus declared non-sensitized reads).
    pub readers: Vec<ComponentId>,
    /// Declared as a block port: expected to be driven externally
    /// (stimulus, another block), so "undriven" is not a defect.
    pub is_port: bool,
    /// Declared as legitimately multiply-driven (arbiter output).
    pub is_arbited: bool,
}

/// One component of the snapshot.
#[derive(Debug, Clone)]
pub struct NetComponent {
    /// The component's id in the simulator that produced the snapshot.
    pub id: ComponentId,
    /// Instance name.
    pub name: String,
    /// Dotted path of the scope the component lives in.
    pub scope_path: String,
    /// Behavioural class (see [`CellClass`]).
    pub class: CellClass,
    /// Nominal propagation delay, when annotated.
    pub delay: Option<Time>,
    /// Signals whose changes trigger evaluation (sensitivity list).
    pub inputs: Vec<SignalId>,
    /// Signals read without sensitization (e.g. a flip-flop's `d`
    /// pin, sampled only at the clock edge).
    pub reads: Vec<SignalId>,
    /// Signals this component drives.
    pub outputs: Vec<SignalId>,
    /// Data pins: inputs whose value flows to the output (a latch's
    /// `d`). Empty when the distinction was not annotated.
    pub data_pins: Vec<SignalId>,
    /// Trigger pins: inputs whose transitions launch the output (a
    /// flip-flop's clock, a latch's enable, a David cell's set/clear).
    /// Empty when the distinction was not annotated.
    pub trigger_pins: Vec<SignalId>,
    /// Member of an allowlisted intentional combinational loop (ring
    /// oscillator): cycles through it are reported as info, not error.
    pub loop_exempt: bool,
}

/// Generator parameters a bundled-data launch point was built with.
///
/// Attached by width/ratio-parameterized generators (the `LinkSpec`
/// machinery in `sal-link`) so lint reports and timing fixtures can
/// name the design point a bundle belongs to without re-deriving it
/// from the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleParams {
    /// Parallel word width the serializer carries, bits.
    pub word_width: u16,
    /// Serialization ratio (word width / slice width).
    pub serial_ratio: u16,
}

/// A bundled-data launch point: the event on `origin` that launches
/// both a data transition and the strobe that captures it.
#[derive(Debug, Clone)]
pub struct NetBundle {
    /// Human-readable label (block path).
    pub label: String,
    /// The signal whose transition constitutes the launch event; the
    /// static timing pass traces data and strobe cones back to it.
    pub origin: SignalId,
    /// Head start of the data over the strobe at the origin: the data
    /// event actually fired this much *before* the strobe event (e.g.
    /// the I3 serializer muxes the next slice on the previous
    /// half-period of its ring oscillator). Zero for same-event
    /// launches.
    pub data_lead: Time,
    /// Generator parameters, when the bundle came from a
    /// parameterized generator (`None` for hand-registered bundles).
    pub params: Option<BundleParams>,
}

/// A bundled-data capture point: `trigger` closes a storage element
/// over `data`, so the data must arrive (setup) before the trigger.
#[derive(Debug, Clone)]
pub struct NetCapture {
    /// The captured data signal (a latch or flip-flop data pin).
    pub data: SignalId,
    /// The capturing strobe signal (the enable or clock pin).
    pub trigger: SignalId,
}

/// A registered four-phase req/ack pair (from `watch_handshake`),
/// extended to a req/nack/ack triple on protected links.
#[derive(Debug, Clone)]
pub struct NetWatch {
    /// The label the pair was registered under.
    pub label: String,
    /// Request signal.
    pub req: SignalId,
    /// Acknowledge signal.
    pub ack: SignalId,
    /// Negative-acknowledge signal that can answer the same request
    /// (retransmission demand), when one was registered.
    pub nack: Option<SignalId>,
}

/// An immutable snapshot of the netlist's static structure, produced
/// by [`Simulator::netgraph`](crate::Simulator::netgraph).
///
/// Signals and components are indexed by their id (`signals[i]` has
/// `id == SignalId(i)`), so passes can use plain vectors for
/// per-node state.
#[derive(Debug, Clone)]
pub struct NetGraph {
    /// All signals, indexed by [`SignalId::index`].
    pub signals: Vec<NetSignal>,
    /// All components, indexed by [`ComponentId::index`].
    pub components: Vec<NetComponent>,
    /// Registered bundled-data launch points.
    pub bundles: Vec<NetBundle>,
    /// Registered bundled-data capture points.
    pub captures: Vec<NetCapture>,
    /// Registered handshake pairs.
    pub watches: Vec<NetWatch>,
}

impl NetGraph {
    /// The signal record for `id`.
    pub fn signal(&self, id: SignalId) -> &NetSignal {
        &self.signals[id.index()]
    }

    /// The component record for `id`.
    pub fn component(&self, id: ComponentId) -> &NetComponent {
        &self.components[id.index()]
    }
}

/// Annotation side tables accumulated during netlist construction.
/// Lives in the [`Simulator`](crate::Simulator) but is kept out of
/// the kernel: nothing here is touched by the event loop.
#[derive(Default)]
pub(crate) struct NetMeta {
    /// Behavioural class per component (lazily grown; missing entries
    /// read as [`CellClass::Unknown`]).
    pub classes: Vec<CellClass>,
    /// Nominal delay per component (lazily grown).
    pub delays: Vec<Option<Time>>,
    /// Loop-exemption flag per component (lazily grown).
    pub loop_exempt: Vec<bool>,
    /// Data-pin annotations, `(component, signal)`.
    pub data_pins: Vec<(ComponentId, SignalId)>,
    /// Trigger-pin annotations, `(component, signal)`.
    pub trigger_pins: Vec<(ComponentId, SignalId)>,
    /// Declared non-sensitized reads, `(component, signal)`.
    pub declared_reads: Vec<(ComponentId, SignalId)>,
    /// Signals declared as externally driven block ports.
    pub ports: Vec<SignalId>,
    /// Signals declared as legitimately multiply-driven.
    pub arbited: Vec<SignalId>,
    /// Extra drivers beyond the kernel's unique one, `(signal,
    /// component)`. Metadata only — the kernel still enforces a
    /// single dynamic driver.
    pub extra_drivers: Vec<(SignalId, ComponentId)>,
    /// Registered bundled-data launch points.
    pub bundles: Vec<NetBundle>,
    /// Registered bundled-data capture points.
    pub captures: Vec<NetCapture>,
}

impl NetMeta {
    fn grow(&mut self, comp: ComponentId) {
        let need = comp.index() + 1;
        if self.classes.len() < need {
            self.classes.resize(need, CellClass::Unknown);
            self.delays.resize(need, None);
            self.loop_exempt.resize(need, false);
        }
    }

    pub fn set_class(&mut self, comp: ComponentId, class: CellClass) {
        self.grow(comp);
        self.classes[comp.index()] = class;
    }

    pub fn class(&self, comp: ComponentId) -> CellClass {
        self.classes.get(comp.index()).copied().unwrap_or(CellClass::Unknown)
    }

    pub fn set_delay(&mut self, comp: ComponentId, delay: Time) {
        self.grow(comp);
        self.delays[comp.index()] = Some(delay);
    }

    pub fn set_loop_exempt(&mut self, comp: ComponentId) {
        self.grow(comp);
        self.loop_exempt[comp.index()] = true;
    }
}
