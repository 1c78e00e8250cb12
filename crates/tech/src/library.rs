//! The 0.12 µm-flavoured standard-cell datasheet.

use sal_cells::{CellKind, CellParams, Library};
use sal_des::Time;

use crate::wire::CAP_FF_PER_UM;

/// A process/voltage/temperature corner of the technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Fast silicon, high voltage, low temperature: ~0.8× delays.
    Fast,
    /// The characterised typical corner.
    Typical,
    /// Slow silicon, low voltage, high temperature: ~1.35× delays.
    Slow,
}

impl Corner {
    /// Delay scale factor relative to typical.
    pub fn delay_scale(self) -> f64 {
        match self {
            Corner::Fast => 0.8,
            Corner::Typical => 1.0,
            Corner::Slow => 1.35,
        }
    }

    /// Energy scale factor relative to typical (fast corners burn more
    /// through higher voltage; slow corners less).
    pub fn energy_scale(self) -> f64 {
        match self {
            Corner::Fast => 1.15,
            Corner::Typical => 1.0,
            Corner::Slow => 0.9,
        }
    }
}

/// A standard-cell library modelled on ST's 0.12 µm CORE9GPLL flavour
/// (the technology of the paper's experiments).
///
/// Delays are anchored to the inverter delay the paper quotes from the
/// datasheet (0.011 ns, §V) and scaled by relative drive complexity
/// for other cells. Areas follow typical 0.12 µm cell footprints
/// (track-height 3.6 µm standard cells), tuned once so the full link
/// netlists land on the paper's Table 2 block areas. Energies are
/// per-bit-toggle switching energies at 1.2 V.
///
/// The process corner is the one setting: [`St012Library::at_corner`]
/// scales the typical delays and energies, which
/// [`St012Library::default`] — the calibrated baseline used throughout
/// the benchmarks — keeps. Supply, area calibration and wire model are
/// fixed.
///
/// # Examples
///
/// ```
/// use sal_cells::{CellKind, Library};
/// use sal_tech::St012Library;
/// let lib = St012Library::default();
/// // The paper's quoted inverter delay: 0.011 ns.
/// assert_eq!(lib.params(CellKind::Inv).delay.as_ps(), 11.0);
/// ```
#[derive(Debug, Clone)]
pub struct St012Library {
    corner: Corner,
}

/// Supply voltage, volts.
const VDD: f64 = 1.2;

/// Typical inverter propagation delay, ps (paper: 0.011 ns).
const INV_DELAY_PS: f64 = 11.0;

/// Uniform scale factor on all cell areas, calibrated once against the
/// paper's Table 2 block-area anchors (sync->async interface
/// 9 408 um^2, deserializer 1 030 um^2, ...): the netlist cell counts
/// come out of the circuits, this factor absorbs the row-utilisation
/// and drive-sizing overhead of the authors' synthesis flow.
const AREA_SCALE: f64 = 1.3;

impl Default for St012Library {
    fn default() -> Self {
        Self::at_corner(Corner::Typical)
    }
}

impl St012Library {
    /// The library characterised at a process corner: delays and
    /// energies scaled from the typical datasheet. The self-timed
    /// links track the corner automatically (they run as fast as the
    /// silicon allows); a synchronous design's margin is fixed by its
    /// clock — the ablation benchmark quantifies exactly that.
    pub fn at_corner(corner: Corner) -> Self {
        St012Library { corner }
    }

    /// Inverter propagation delay at this corner, ps.
    fn inv_delay_ps(&self) -> f64 {
        INV_DELAY_PS * self.corner.delay_scale()
    }

    /// Relative delay of a cell in inverter-delay units.
    fn rel_delay(kind: CellKind) -> f64 {
        match kind {
            CellKind::Inv => 1.0,
            CellKind::Buf => 1.8,
            CellKind::Nand(n) | CellKind::Nor(n) => 1.0 + 0.3 * (n as f64 - 2.0) + 0.2,
            CellKind::And(n) | CellKind::Or(n) => 2.0 + 0.3 * (n as f64 - 2.0),
            CellKind::Xor2 | CellKind::Xnor2 => 2.6,
            CellKind::Mux2 => 2.4,
            CellKind::DLatch => 3.0,
            CellKind::Dff => 5.0,
            CellKind::CElement(n) => 2.6 + 0.4 * (n as f64 - 2.0),
            CellKind::DavidCell => 3.2,
            CellKind::Tie => 1.0,
        }
    }

    /// Cell footprint, µm² per bit (0.12 µm, 3.6 µm row height).
    fn base_area(kind: CellKind) -> f64 {
        match kind {
            CellKind::Inv => 4.4,
            CellKind::Buf => 5.9,
            CellKind::Nand(n) | CellKind::Nor(n) => 4.4 + 1.5 * (n as f64 - 2.0) + 1.5,
            CellKind::And(n) | CellKind::Or(n) => 7.3 + 1.5 * (n as f64 - 2.0),
            CellKind::Xor2 | CellKind::Xnor2 => 11.7,
            CellKind::Mux2 => 10.2,
            CellKind::DLatch => 16.1,
            CellKind::Dff => 33.7,
            CellKind::CElement(n) => 13.2 + 2.9 * (n as f64 - 2.0),
            CellKind::DavidCell => 17.6,
            CellKind::Tie => 2.9,
        }
    }

    /// Switching energy per output bit-toggle, fJ, including typical
    /// local interconnect. Sequential cells cost more because their
    /// internal nodes (master stage, local clock inverters) switch
    /// alongside the output.
    fn base_energy(kind: CellKind) -> f64 {
        match kind {
            CellKind::Inv => 1.1,
            CellKind::Buf => 1.9,
            CellKind::Nand(n) | CellKind::Nor(n) => 1.4 + 0.3 * (n as f64 - 2.0),
            CellKind::And(n) | CellKind::Or(n) => 2.1 + 0.3 * (n as f64 - 2.0),
            CellKind::Xor2 | CellKind::Xnor2 => 3.2,
            CellKind::Mux2 => 2.8,
            CellKind::DLatch => 4.6,
            CellKind::Dff => 9.4,
            CellKind::CElement(n) => 3.4 + 0.7 * (n as f64 - 2.0),
            CellKind::DavidCell => 4.8,
            CellKind::Tie => 0.0,
        }
    }

    /// Energy drawn from the clock net per flip-flop per clock *cycle*
    /// (two clock-pin toggles plus internal clock buffering), fJ.
    /// This is the per-sink coefficient of the synchronous link's
    /// dominant power term.
    pub fn clock_energy_per_ff_fj(&self) -> f64 {
        34.0 * self.corner.energy_scale()
    }
}

impl Library for St012Library {
    fn params(&self, kind: CellKind) -> CellParams {
        CellParams {
            delay: Time::from_ps_f64(Self::rel_delay(kind) * self.inv_delay_ps()),
            area_um2: Self::base_area(kind) * AREA_SCALE,
            energy_fj: Self::base_energy(kind) * self.corner.energy_scale(),
        }
    }

    fn vdd(&self) -> f64 {
        VDD
    }

    fn wire_cap_ff_per_um(&self) -> f64 {
        CAP_FF_PER_UM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverter_matches_paper_quote() {
        let lib = St012Library::default();
        assert!((lib.params(CellKind::Inv).delay.as_ns() - 0.011).abs() < 1e-9);
    }

    #[test]
    fn ordering_of_cell_complexity() {
        let lib = St012Library::default();
        let d = |k| lib.params(k).delay;
        assert!(d(CellKind::Inv) < d(CellKind::Nand(2)));
        assert!(d(CellKind::Nand(2)) < d(CellKind::Dff));
        let a = |k| lib.params(k).area_um2;
        assert!(a(CellKind::Inv) < a(CellKind::DLatch));
        assert!(a(CellKind::DLatch) < a(CellKind::Dff));
        let e = |k| lib.params(k).energy_fj;
        assert!(e(CellKind::Inv) < e(CellKind::Dff));
    }

    #[test]
    fn arity_scaling_is_monotone() {
        let lib = St012Library::default();
        for mk in [CellKind::And, CellKind::Or, CellKind::Nand, CellKind::Nor] {
            let p2 = lib.params(mk(2));
            let p4 = lib.params(mk(4));
            assert!(p2.delay < p4.delay);
            assert!(p2.area_um2 < p4.area_um2);
        }
        assert!(
            lib.params(CellKind::CElement(2)).area_um2 < lib.params(CellKind::CElement(3)).area_um2
        );
    }

    #[test]
    fn scale_knobs_apply() {
        // A corner scales energy and delay by its factors, never area.
        let lib = St012Library::at_corner(Corner::Fast);
        let base = St012Library::default();
        let k = CellKind::Nand(2);
        assert!((lib.params(k).energy_fj - 1.15 * base.params(k).energy_fj).abs() < 1e-12);
        let delay_ratio = lib.params(k).delay.as_ps() / base.params(k).delay.as_ps();
        assert!((delay_ratio - 0.8).abs() < 1e-3, "delay ratio {delay_ratio}");
        assert_eq!(lib.params(k).area_um2, base.params(k).area_um2);
        assert_eq!(lib.vdd(), 1.2);
    }

    #[test]
    fn corners_scale_delay_and_energy() {
        let fast = St012Library::at_corner(Corner::Fast);
        let slow = St012Library::at_corner(Corner::Slow);
        let typ = St012Library::at_corner(Corner::Typical);
        let d = |l: &St012Library| l.params(CellKind::Inv).delay;
        assert!(d(&fast) < d(&typ));
        assert!(d(&typ) < d(&slow));
        assert_eq!(d(&typ), St012Library::default().params(CellKind::Inv).delay);
        let e = |l: &St012Library| l.params(CellKind::Dff).energy_fj;
        assert!(e(&fast) > e(&typ));
        assert!(e(&slow) < e(&typ));
    }
}