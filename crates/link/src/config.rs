//! Link configuration.

use sal_des::Time;

/// Switch-to-switch wire length, µm: the paper's 1 000 µm link, split
/// into equal segments between the buffer stations and spanned by
/// I1's clock tree.
pub const LENGTH_UM: f64 = 1000.0;

/// Depth of each sync↔async interface FIFO: the paper's 4, giving 8
/// spaces along the whole link.
pub(crate) const FIFO_DEPTH: usize = 4;

/// The physical base a link is built on: geometry and the switch
/// clock.
///
/// The defaults are the paper's experimental setup: 32-bit flits
/// serialized to 8 bits, 4 buffers along the wires and a 100 MHz
/// switch clock. The paper's fixed geometry — a [`LENGTH_UM`] wire
/// and a 4-deep FIFO in each clock-domain interface — is not
/// configurable.
///
/// A `LinkConfig` checks nothing itself: links are built from a
/// [`LinkSpec`](crate::LinkSpec), which holds every design choice
/// (family, word width, ratio, buffers, protection, I3 receiver) and
/// the rules they must meet. [`LinkSpec::apply`](crate::LinkSpec::apply)
/// merges a spec onto a base config: the spec overrides the geometry
/// and the base supplies the clock.
///
/// # Examples
///
/// ```
/// use sal_link::LinkConfig;
/// let cfg = LinkConfig::default();
/// assert_eq!(cfg.slices(), 4);
/// assert_eq!(cfg.wires_sync(), 33);   // 32 data + valid
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Flit (parallel word) width `m` in bits.
    pub flit_width: u8,
    /// Serial slice width `n` in bits; must divide `flit_width`.
    pub slice_width: u8,
    /// Number of buffer stations along the wires (pipeline registers
    /// for I1, latch-controller buffers for I2, inverter pairs for I3).
    pub buffers: u32,
    /// Switch clock period (both ends share one slow clock).
    pub clk_period: Time,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { flit_width: 32, slice_width: 8, buffers: 4, clk_period: Time::from_ns(10) }
    }
}

impl LinkConfig {
    /// Number of slices per flit (`m / n`).
    pub fn slices(&self) -> usize {
        (self.flit_width / self.slice_width) as usize
    }

    /// Wires between switches for the synchronous link I1:
    /// data + valid.
    pub fn wires_sync(&self) -> u32 {
        self.flit_width as u32 + 1
    }

    /// Length of one wire segment between adjacent buffer stations
    /// (the wire is divided into `buffers + 1` equal segments), µm.
    pub fn segment_um(&self) -> f64 {
        LENGTH_UM / (self.buffers as f64 + 1.0)
    }

    /// The switch clock frequency in Hz.
    pub fn clk_hz(&self) -> f64 {
        self.clk_period.period_to_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_setup() {
        let c = LinkConfig::default();
        assert_eq!(c.flit_width, 32);
        assert_eq!(c.slice_width, 8);
        assert_eq!(c.slices(), 4);
        assert_eq!(c.buffers, 4);
    }

    #[test]
    fn wire_counts() {
        let c = LinkConfig::default();
        assert_eq!(c.wires_sync(), 33);
        let c16 = LinkConfig { flit_width: 16, slice_width: 4, ..c };
        assert_eq!(c16.wires_sync(), 17);
    }

    #[test]
    fn segments() {
        let c = LinkConfig { buffers: 4, ..Default::default() };
        assert!((c.segment_um() - 200.0).abs() < 1e-9);
    }
}
