//! Global-metal wire geometry and electricals.

use sal_des::Time;

/// The METAL6 global-layer wire model of the paper's §V plus standard
/// 0.12 µm electrical constants; the geometry and electricals are
/// fixed.
///
/// The wiring-area formula is the paper's own:
///
/// ```text
/// AREA = L × (N·MetW + (N+1)·MetG)
/// ```
///
/// with `MetW` = 0.44 µm minimum width and `MetG` = 0.46 µm minimum
/// gap for the ST 0.12 µm METAL6 layer. This reproduces the paper's
/// Fig 11 anchor points exactly (≈7 500 µm² for 8 wires × 1 000 µm,
/// ≈30 000 µm² for 32 wires × 1 000 µm).
///
/// # Examples
///
/// ```
/// use sal_tech::WireModel;
/// let w = WireModel;
/// let a8 = w.area_um2(8, 1000.0);
/// let a32 = w.area_um2(32, 1000.0);
/// assert!((a8 - 7660.0).abs() < 1.0);
/// assert!((a32 - 29260.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireModel;

/// Minimum metal width, µm (ST 0.12 µm METAL6).
const MET_W_UM: f64 = 0.44;

/// Minimum metal gap, µm (ST 0.12 µm METAL6).
const MET_G_UM: f64 = 0.46;

/// Wire capacitance per µm, fF (typical global metal).
pub(crate) const CAP_FF_PER_UM: f64 = 0.2;

/// Wire resistance per µm, Ω (typical global metal).
const RES_OHM_PER_UM: f64 = 0.075;

impl WireModel {
    /// The paper's wiring-area equation (µm²) for `n` parallel wires of
    /// length `length_um`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `length_um` is negative.
    pub fn area_um2(&self, n: u32, length_um: f64) -> f64 {
        assert!(n > 0, "a link needs at least one wire");
        assert!(length_um >= 0.0, "negative wire length");
        length_um * (n as f64 * MET_W_UM + (n as f64 + 1.0) * MET_G_UM)
    }

    /// Total capacitance of one wire of the given length, fF.
    pub fn cap_ff(&self, length_um: f64) -> f64 {
        CAP_FF_PER_UM * length_um
    }

    /// Distributed-RC (Elmore) propagation delay of an unbuffered wire
    /// segment: `0.38 · R · C` with `R`, `C` the total segment
    /// resistance and capacitance — the standard first-order model for
    /// an unrepeated on-chip wire.
    pub fn delay(&self, length_um: f64) -> Time {
        let r = RES_OHM_PER_UM * length_um;
        let c = self.cap_ff(length_um) * 1e-15;
        Time::from_ps_f64(0.38 * r * c * 1e12)
    }

    /// Switching energy per full-swing toggle of a wire of the given
    /// length at supply `vdd`, fJ (½·C·V²).
    pub fn toggle_energy_fj(&self, length_um: f64, vdd: f64) -> f64 {
        0.5 * self.cap_ff(length_um) * vdd * vdd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig11_anchors() {
        let w = WireModel;
        // §V: "assuming a wire length of 1000 µm, I3 has a wiring area
        // cost of approximately 7,500 µm² whereas the synchronous link
        // (I1) is approximately 30,000 µm²".
        assert!((w.area_um2(8, 1000.0) - 7660.0).abs() < 1e-6);
        assert!((w.area_um2(32, 1000.0) - 29260.0).abs() < 1e-6);
    }

    #[test]
    fn area_scales_linearly_in_length() {
        let w = WireModel;
        let a1 = w.area_um2(8, 500.0);
        let a2 = w.area_um2(8, 1000.0);
        assert!((a2 - 2.0 * a1).abs() < 1e-9);
    }

    #[test]
    fn delay_is_quadratic_in_length() {
        let w = WireModel;
        let d1 = w.delay(1000.0).as_ps();
        let d2 = w.delay(2000.0).as_ps();
        assert!((d2 / d1 - 4.0).abs() < 0.05, "expected ~4x, got {}", d2 / d1);
        // 1 mm of global wire: 0.38 × 75 Ω × 200 fF ≈ 5.7 ps.
        assert!(d1 > 3.0 && d1 < 10.0, "1 mm delay {d1} ps out of plausible range");
    }

    #[test]
    fn wire_energy() {
        let w = WireModel;
        // 1000 µm at 1.2 V: 0.5 × 200 fF × 1.44 ≈ 144 fJ.
        assert!((w.toggle_energy_fj(1000.0, 1.2) - 144.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_wires_rejected() {
        let _ = WireModel.area_um2(0, 100.0);
    }
}
