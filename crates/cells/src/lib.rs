//! # sal-cells — primitive cell library
//!
//! Gate-level building blocks for the circuits of *Serialized
//! Asynchronous Links for NoC* (Ogg et al., DATE 2008):
//!
//! * **Combinational**: inverters, buffers, N-input AND/OR/NAND/NOR,
//!   XOR/XNOR, 2-way multiplexers and slice/concat wiring — all
//!   word-wide (a 32-bit bus is one signal; area and energy scale
//!   with the width). The builder places them with
//!   [`Simulator::add_comb`](sal_des::Simulator::add_comb) as nodes
//!   the kernel evaluates itself; they have no component type here.
//!
//! The other cells are [`sal_des`] components:
//!
//! * **Sequential**: transparent D-latches and positive-edge D
//!   flip-flops with asynchronous active-low reset.
//! * **Asynchronous** (Fig 3 of the paper): the Muller **C-element**
//!   and the **David cell**, the two control cells from which the
//!   paper's serializer, deserializer and interface sequencers are
//!   built.
//! * **Sources**: ideal clock generators, constant ties, plus
//!   structural compounds (ring oscillator, shift register) used by the
//!   word-level link.
//!
//! Cells take their delay/area/energy parameters from a [`Library`]
//! implementation (the real 0.12 µm-flavoured numbers live in
//! `sal-tech`). The [`CircuitBuilder`] wraps a
//! [`Simulator`](sal_des::Simulator) to instantiate cells, wire them
//! up, annotate per-signal switching energy and keep a per-scope area
//! ledger — which is how the paper's Table 1/Table 2 area numbers are
//! regenerated.
//!
//! ```
//! use sal_cells::{CircuitBuilder, UnitLibrary};
//! use sal_des::{Simulator, Time, Value};
//!
//! let mut sim = Simulator::new();
//! let lib = UnitLibrary::default();
//! let mut b = CircuitBuilder::new(&mut sim, &lib);
//! let a = b.input("a", 1);
//! let y = b.inv("i0", a);
//! let z = b.and2("a0", a, y); // a AND NOT a == 0 once settled
//! b.finish();
//! sim.stimulus(a, &[(Time::ZERO, Value::one(1))]);
//! sim.run_to_quiescence()?;
//! assert!(sim.value(z).is_low());
//! # Ok::<(), sal_des::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_cells;
mod builder;
mod error;
mod kind;
mod seq;
mod sources;

pub use async_cells::{CElement, DavidCell};
pub use builder::{AreaLedger, CircuitBuilder};
pub use error::BuildError;
pub use kind::{CellKind, CellParams, Library, UnitLibrary};
pub use seq::{DLatch, Dff};
pub use sources::{ClockGen, ConstDriver};
