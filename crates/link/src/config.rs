//! Link configuration.

use sal_des::Time;

/// Switch-to-switch wire length, µm: the paper's 1 000 µm link, split
/// into equal segments between the buffer stations and spanned by
/// I1's clock tree.
pub const LENGTH_UM: f64 = 1000.0;

/// Depth of each sync↔async interface FIFO: the paper's 4, giving 8
/// spaces along the whole link.
pub(crate) const FIFO_DEPTH: usize = 4;

/// Parameters shared by all three link implementations.
///
/// The defaults are the paper's experimental setup: 32-bit flits
/// serialized to 8 bits and 4 buffers along the wires. The paper's
/// fixed geometry — a [`LENGTH_UM`] wire and a 4-deep FIFO in each
/// clock-domain interface — is not configurable.
///
/// A `LinkConfig` checks nothing itself: links are built from a
/// [`LinkSpec`](crate::LinkSpec), whose builder holds the rules for
/// the fields a spec decides (flit and slice width, buffers,
/// protection), merged onto a base config that supplies the rest.
///
/// # Examples
///
/// ```
/// use sal_link::LinkConfig;
/// let cfg = LinkConfig::default();
/// assert_eq!(cfg.slices(), 4);
/// assert_eq!(cfg.wires_sync(), 33);   // 32 data + valid
/// assert_eq!(cfg.wires_async(), 10);  // 8 data + req + ack
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
    /// The word-level (I3) receiver: the paper's shift register, the
    /// de-multiplexer its Fig 14 discussion weighs against it, or the
    /// shift register with the early word acknowledge of its future
    /// work.
    pub word_rx_style: WordRxStyle,
    /// Error detection over the serialized wire ([`ProtectionMode::Off`]
    /// by default). When enabled, the link widens its internal word
    /// with check bits, the receiver verifies every word and answers a
    /// corrupted one with a NACK, and the transmitter retransmits from
    /// the interface FIFO (which doubles as the replay register).
    pub protection: ProtectionMode,
}

/// Error-detection scheme layered over the serialized wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionMode {
    /// No protection: the seed datapath, bit-identical netlist (the
    /// generator/checker/retry blocks are not built at all).
    Off,
    /// One parity bit per slice, carried on a widened slice (`n+1`
    /// wires): detects any odd number of flipped bits within a slice.
    Parity,
    /// CRC-8 (polynomial `x^8+x^2+x+1`, 0x07) over the word, appended
    /// as a trailing check byte serialized like data: detects all
    /// burst errors up to 8 bits and any odd number of bit flips.
    Crc8,
}

impl ProtectionMode {
    /// Short lowercase label (`"off"`, `"parity"`, `"crc"`) used in
    /// benchmark tables and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            ProtectionMode::Off => "off",
            ProtectionMode::Parity => "parity",
            ProtectionMode::Crc8 => "crc",
        }
    }

    /// Check bits appended to a word of `slices` slices (0 when off,
    /// one per slice for parity, 8 for CRC-8).
    pub(crate) fn check_bits(self, slices: u8) -> u8 {
        match self {
            ProtectionMode::Off => 0,
            ProtectionMode::Parity => slices,
            ProtectionMode::Crc8 => 8,
        }
    }
}

/// Word-level (I3) receiver style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordRxStyle {
    /// The paper's Fig 8b shift register: every stage latches on every
    /// strobe (more switching, simpler control).
    ShiftRegister,
    /// A one-hot de-multiplexer (like Fig 6b, strobe-clocked): only
    /// one slice register latches per strobe.
    Demux,
    /// The shift register with an early word acknowledge — the paper's
    /// stated future work ("further improvements … could be achieved
    /// by earlier acknowledging"): the receiver copies the rebuilt word
    /// into a holding latch and acknowledges at last-slice arrival,
    /// overlapping the interface hand-off with the next burst.
    ///
    /// A protected I3 link cannot take it
    /// ([`SpecError::ProtectionWithEarlyAck`](crate::SpecError::ProtectionWithEarlyAck));
    /// I1 and I2 build no word receiver and ignore the setting.
    EarlyAck,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            flit_width: 32,
            slice_width: 8,
            buffers: 4,
            clk_period: Time::from_ns(10),
            word_rx_style: WordRxStyle::ShiftRegister,
            protection: ProtectionMode::Off,
        }
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

    /// Wires between switches for the serialized asynchronous links
    /// I2/I3: slice data + request/valid forward + acknowledge back.
    /// Protection is physically honest about its wire cost: the slice
    /// may widen (parity) and the NACK-back + resync-forward wires are
    /// added.
    pub fn wires_async(&self) -> u32 {
        let base = self.inner_slice_width() as u32 + 2;
        match self.protection {
            ProtectionMode::Off => base,
            _ => base + 2, // + nack back, + resync forward
        }
    }

    /// Check bits appended to each word by the configured protection
    /// (0 when off, one per slice for parity, 8 for CRC-8).
    pub fn check_bits(&self) -> u8 {
        self.protection.check_bits(self.slices() as u8)
    }

    /// Width of the word actually serialized over the wire:
    /// `flit_width` plus [`LinkConfig::check_bits`].
    pub fn protected_width(&self) -> u8 {
        self.flit_width + self.check_bits()
    }

    /// Slice width carried per wire transfer once protection widens
    /// the word. Parity interleaves one check bit into every slice
    /// (`n+1`); CRC-8 appends a check byte serialized as ordinary
    /// trailing slices (`n`).
    pub fn inner_slice_width(&self) -> u8 {
        match self.protection {
            ProtectionMode::Parity => self.slice_width + 1,
            _ => self.slice_width,
        }
    }

    /// The configuration the serializer/deserializer core is built
    /// with: the protected word width and slice width, protection
    /// cleared (the core blocks are protection-agnostic — the
    /// generator, checker and retry blocks wrap around them).
    pub(crate) fn inner(&self) -> LinkConfig {
        LinkConfig {
            flit_width: self.protected_width(),
            slice_width: self.inner_slice_width(),
            protection: ProtectionMode::Off,
            ..self.clone()
        }
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
        assert_eq!(c.wires_async(), 10);
        let c16 = LinkConfig { flit_width: 16, slice_width: 4, ..c };
        assert_eq!(c16.wires_sync(), 17);
        assert_eq!(c16.wires_async(), 6);
    }

    #[test]
    fn segments() {
        let c = LinkConfig { buffers: 4, ..Default::default() };
        assert!((c.segment_um() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn protection_widths_and_wire_costs() {
        let c = LinkConfig::default();
        assert_eq!(c.check_bits(), 0);
        assert_eq!(c.protected_width(), 32);
        let p = LinkConfig { protection: ProtectionMode::Parity, ..c.clone() };
        assert_eq!(p.check_bits(), 4);
        assert_eq!(p.protected_width(), 36);
        assert_eq!(p.inner_slice_width(), 9);
        assert_eq!(p.wires_async(), 13); // 9 data + req + ack + nack + resync
        let inner = p.inner();
        assert_eq!((inner.flit_width, inner.slice_width), (36, 9));
        assert_eq!(inner.slices(), 4);
        let g = LinkConfig { protection: ProtectionMode::Crc8, ..c };
        assert_eq!(g.protected_width(), 40);
        assert_eq!(g.inner_slice_width(), 8);
        assert_eq!(g.wires_async(), 12);
        assert_eq!(g.inner().slices(), 5); // the check byte rides as a 5th slice
    }
}
