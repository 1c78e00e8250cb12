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
    /// Flit (parallel word) width `m` in bits; 1..=64.
    pub flit_width: u8,
    /// Serial slice width `n` in bits; must divide `flit_width`.
    pub slice_width: u8,
    /// Number of buffer stations along the wires (pipeline registers
    /// for I1, latch-controller buffers for I2, inverter pairs for I3).
    pub buffers: u32,
    /// Switch clock period (both ends share one slow clock).
    pub clk_period: Time,
    /// Early word acknowledgement for I3 — the paper's stated future
    /// work ("further improvements … could be achieved by earlier
    /// acknowledging"): the receiver double-buffers the rebuilt word
    /// and acknowledges at last-slice arrival, overlapping the
    /// interface handoff with the next burst.
    pub early_word_ack: bool,
    /// Receiver datapath style for the word-level link (the comparison
    /// behind the paper's Fig 14 discussion of shift-register vs
    /// de-multiplexer deserializers).
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
}

/// Word-level (I3) receiver datapath style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordRxStyle {
    /// The paper's Fig 8b shift register: every stage latches on every
    /// strobe (more switching, simpler control).
    ShiftRegister,
    /// A one-hot de-multiplexer (like Fig 6b, strobe-clocked): only
    /// one slice register latches per strobe.
    Demux,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            flit_width: 32,
            slice_width: 8,
            buffers: 4,
            clk_period: Time::from_ns(10),
            early_word_ack: false,
            word_rx_style: WordRxStyle::ShiftRegister,
            protection: ProtectionMode::Off,
        }
    }
}

/// A structured description of the first inconsistency found in a
/// [`LinkConfig`].
///
/// Every variant carries the offending values, so sweeps can match on
/// the *kind* of misconfiguration instead of parsing a message. The
/// [`Display`](std::fmt::Display) form keeps the historical one-line
/// messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `flit_width` outside `1..=64`.
    FlitWidth {
        /// The rejected flit width.
        width: u8,
    },
    /// `slice_width` outside `1..=flit_width`.
    SliceWidth {
        /// The rejected slice width.
        slice: u8,
        /// The flit width it was checked against.
        flit: u8,
    },
    /// `slice_width` does not divide `flit_width`.
    SliceNotDividing {
        /// The rejected slice width.
        slice: u8,
        /// The flit width it must divide.
        flit: u8,
    },
    /// Fewer than 2 slices per flit — nothing to serialize.
    TooFewSlices {
        /// The resulting slice count.
        slices: u8,
    },
    /// The word widened by check bits exceeds the 64-bit datapath.
    ProtectionTooWide {
        /// The protected width (`flit_width` + check bits).
        width: u32,
    },
    /// CRC-8 protection needs the slice width to divide the widened
    /// word (`flit_width + 8`), i.e. to divide 8.
    CrcSliceMismatch {
        /// The rejected slice width.
        slice: u8,
        /// The protected word width it must divide.
        protected: u8,
    },
    /// Protection combined with `early_word_ack`: the early ack
    /// completes the word handshake at last-slice arrival, *before*
    /// the checker can veto the word — detection would come too late
    /// to NACK, so the combination is rejected outright.
    ProtectionWithEarlyAck,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::FlitWidth { width } => {
                write!(f, "flit width must be 1..=64 (got {width})")
            }
            ConfigError::SliceWidth { slice, flit } => {
                write!(f, "slice width must be 1..=flit width (got {slice} of {flit})")
            }
            ConfigError::SliceNotDividing { slice, flit } => {
                write!(f, "slice width must divide flit width ({slice} does not divide {flit})")
            }
            ConfigError::TooFewSlices { slices } => {
                write!(f, "need at least 2 slices (got {slices})")
            }
            ConfigError::ProtectionTooWide { width } => {
                write!(f, "protected word width must be <= 64 (got {width})")
            }
            ConfigError::CrcSliceMismatch { slice, protected } => {
                write!(
                    f,
                    "CRC-8 protection needs the slice width to divide the widened word \
                     ({slice} does not divide {protected})"
                )
            }
            ConfigError::ProtectionWithEarlyAck => {
                write!(
                    f,
                    "protection is incompatible with early_word_ack (the early ack completes \
                     the handshake before the word is checked)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for sal_cells::BuildError {
    fn from(e: ConfigError) -> Self {
        sal_cells::BuildError::Config { message: e.to_string() }
    }
}

impl LinkConfig {
    /// Validates internal consistency: `Err` carries the first
    /// inconsistency found as a typed [`ConfigError`]. Never panics —
    /// sweeps probe unbuildable corners through this.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(self.flit_width >= 1 && self.flit_width <= 64) {
            return Err(ConfigError::FlitWidth { width: self.flit_width });
        }
        if !(self.slice_width >= 1 && self.slice_width <= self.flit_width) {
            return Err(ConfigError::SliceWidth {
                slice: self.slice_width,
                flit: self.flit_width,
            });
        }
        if !self.flit_width.is_multiple_of(self.slice_width) {
            return Err(ConfigError::SliceNotDividing {
                slice: self.slice_width,
                flit: self.flit_width,
            });
        }
        if self.flit_width / self.slice_width < 2 {
            return Err(ConfigError::TooFewSlices {
                slices: self.flit_width / self.slice_width,
            });
        }
        if self.protection != ProtectionMode::Off {
            let width = self.flit_width as u32 + self.check_bits() as u32;
            if width > 64 {
                return Err(ConfigError::ProtectionTooWide { width });
            }
            if self.protection == ProtectionMode::Crc8
                && !(self.flit_width + 8).is_multiple_of(self.slice_width)
            {
                return Err(ConfigError::CrcSliceMismatch {
                    slice: self.slice_width,
                    protected: self.flit_width + 8,
                });
            }
            if self.early_word_ack {
                return Err(ConfigError::ProtectionWithEarlyAck);
            }
        }
        Ok(())
    }

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
        match self.protection {
            ProtectionMode::Off => 0,
            ProtectionMode::Parity => self.slices() as u8,
            ProtectionMode::Crc8 => 8,
        }
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
        c.check().expect("default config is valid");
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
    fn bad_slice_width_rejected() {
        let err = LinkConfig { slice_width: 5, ..Default::default() }.check().unwrap_err();
        assert_eq!(err, ConfigError::SliceNotDividing { slice: 5, flit: 32 });
        assert!(err.to_string().contains("divide"));
    }

    #[test]
    fn unserialized_config_rejected() {
        let err = LinkConfig { slice_width: 32, ..Default::default() }.check().unwrap_err();
        assert_eq!(err, ConfigError::TooFewSlices { slices: 1 });
        assert!(err.to_string().contains("2 slices"));
    }

    #[test]
    fn protection_widths_and_wire_costs() {
        let c = LinkConfig::default();
        assert_eq!(c.check_bits(), 0);
        assert_eq!(c.protected_width(), 32);
        let p = LinkConfig { protection: ProtectionMode::Parity, ..c.clone() };
        p.check().expect("parity on the paper setup is valid");
        assert_eq!(p.check_bits(), 4);
        assert_eq!(p.protected_width(), 36);
        assert_eq!(p.inner_slice_width(), 9);
        assert_eq!(p.wires_async(), 13); // 9 data + req + ack + nack + resync
        let inner = p.inner();
        assert_eq!((inner.flit_width, inner.slice_width), (36, 9));
        assert_eq!(inner.slices(), 4);
        inner.check().expect("the widened core config is itself valid");
        let g = LinkConfig { protection: ProtectionMode::Crc8, ..c };
        g.check().expect("crc on the paper setup is valid");
        assert_eq!(g.protected_width(), 40);
        assert_eq!(g.inner_slice_width(), 8);
        assert_eq!(g.wires_async(), 12);
        assert_eq!(g.inner().slices(), 5); // the check byte rides as a 5th slice
    }

    #[test]
    fn bad_protection_configs_rejected() {
        let too_wide = LinkConfig {
            flit_width: 64,
            slice_width: 8,
            protection: ProtectionMode::Crc8,
            ..Default::default()
        };
        assert_eq!(too_wide.check().unwrap_err(), ConfigError::ProtectionTooWide { width: 72 });
        let mismatch = LinkConfig {
            flit_width: 32,
            slice_width: 16,
            protection: ProtectionMode::Crc8,
            ..Default::default()
        };
        assert_eq!(
            mismatch.check().unwrap_err(),
            ConfigError::CrcSliceMismatch { slice: 16, protected: 40 }
        );
        let early = LinkConfig {
            protection: ProtectionMode::Crc8,
            early_word_ack: true,
            ..Default::default()
        };
        assert_eq!(early.check().unwrap_err(), ConfigError::ProtectionWithEarlyAck);
    }

    #[test]
    fn config_error_threads_into_build_error() {
        let err = LinkConfig { flit_width: 65, ..Default::default() }.check().unwrap_err();
        assert_eq!(err, ConfigError::FlitWidth { width: 65 });
        let build: sal_cells::BuildError = err.into();
        assert!(matches!(
            build,
            sal_cells::BuildError::Config { ref message } if message.contains("flit width")
        ));
    }
}
