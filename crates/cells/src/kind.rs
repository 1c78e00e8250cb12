//! Cell kinds and the technology-library abstraction.

use sal_des::Time;

/// Every primitive cell type the builder can instantiate.
///
/// The set mirrors a small standard-cell library plus the two
/// asynchronous control cells of the paper's Fig 3. A technology
/// library maps each kind to [`CellParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (also used as a wire repeater).
    Buf,
    /// N-input AND (N = 2..=4).
    And(u8),
    /// N-input OR (N = 2..=4).
    Or(u8),
    /// N-input NAND (N = 2..=4).
    Nand(u8),
    /// N-input NOR (N = 2..=4).
    Nor(u8),
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2-way multiplexer.
    Mux2,
    /// Transparent-high D latch.
    DLatch,
    /// Positive-edge D flip-flop with asynchronous active-low reset.
    Dff,
    /// Muller C-element with N inputs (N = 2..=3), resettable.
    CElement(u8),
    /// David cell (set/clear token-holding cell, Fig 3 of the paper).
    DavidCell,
    /// Constant tie-high/tie-low cell.
    Tie,
}

impl CellKind {
    /// A short lowercase mnemonic (used in component names/reports).
    pub fn mnemonic(self) -> String {
        match self {
            CellKind::Inv => "inv".into(),
            CellKind::Buf => "buf".into(),
            CellKind::And(n) => format!("and{n}"),
            CellKind::Or(n) => format!("or{n}"),
            CellKind::Nand(n) => format!("nand{n}"),
            CellKind::Nor(n) => format!("nor{n}"),
            CellKind::Xor2 => "xor2".into(),
            CellKind::Xnor2 => "xnor2".into(),
            CellKind::Mux2 => "mux2".into(),
            CellKind::DLatch => "dlatch".into(),
            CellKind::Dff => "dff".into(),
            CellKind::CElement(n) => format!("c{n}"),
            CellKind::DavidCell => "dc".into(),
            CellKind::Tie => "tie".into(),
        }
    }
}

/// Per-cell technology parameters.
///
/// `area_um2` and `energy_fj` are per *bit* of cell width: a 32-bit
/// register bank built as one word-wide `Dff` component accounts
/// exactly like 32 single-bit flip-flops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Propagation delay from any input to the output.
    pub delay: Time,
    /// Layout area per bit, µm².
    pub area_um2: f64,
    /// Switching energy per output bit-toggle, femtojoules. Includes
    /// the cell's internal energy and its typical local-interconnect
    /// load.
    pub energy_fj: f64,
}

/// A technology library: maps cell kinds to parameters and exposes the
/// global electrical constants the wire model needs.
///
/// Implemented by `sal-tech`'s 0.12 µm model; [`UnitLibrary`] is a
/// trivial instance for unit tests.
pub trait Library {
    /// Parameters for a cell kind.
    ///
    /// # Panics
    ///
    /// Implementations may panic on kinds they do not provide (e.g. a
    /// 9-input AND); the builder only requests kinds listed in
    /// [`CellKind`] with valid arities.
    fn params(&self, kind: CellKind) -> CellParams;

    /// Supply voltage, volts.
    fn vdd(&self) -> f64;

    /// Wire capacitance per micrometre of routed length, femtofarads.
    fn wire_cap_ff_per_um(&self) -> f64;
}

/// A featureless library for tests: every cell has a 10 ps delay,
/// 1 µm² area and 1 fJ switching energy; VDD = 1.2 V.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitLibrary;

impl Library for UnitLibrary {
    fn params(&self, _kind: CellKind) -> CellParams {
        CellParams { delay: Time::from_ps(10), area_um2: 1.0, energy_fj: 1.0 }
    }

    fn vdd(&self) -> f64 {
        1.2
    }

    fn wire_cap_ff_per_um(&self) -> f64 {
        0.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics() {
        assert_eq!(CellKind::And(3).mnemonic(), "and3");
        assert_eq!(CellKind::CElement(2).mnemonic(), "c2");
        assert_eq!(CellKind::DavidCell.mnemonic(), "dc");
    }

    #[test]
    fn unit_library_is_uniform() {
        let lib = UnitLibrary;
        let p = lib.params(CellKind::Inv);
        assert_eq!(p.delay, Time::from_ps(10));
        assert_eq!(lib.params(CellKind::Dff).area_um2, 1.0);
    }
}
