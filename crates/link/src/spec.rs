//! Declarative link specification: the validated, hashable description
//! of one point in the serialization design space.
//!
//! The paper evaluates exactly three hand-assembled links — I1/I2/I3
//! at a fixed 32-bit width and 4:1 serialization ratio. A [`LinkSpec`]
//! names a *family* plus every design choice the generator can sweep:
//!
//! * [`LinkFamily`] — synchronous parallel (I1), serialized
//!   per-transfer ack (I2), serialized per-word ack (I3);
//! * `word_width` — 8..=64 bits;
//! * `serial_ratio` — 2:1, 4:1, 8:1 or 16:1 (slice width is
//!   `word_width / serial_ratio`);
//! * `buffer_depth` — stations along the wire;
//! * [`ProtectionMode`];
//! * [`WordRxStyle`] — I3's word receiver.
//!
//! A constructed `LinkSpec` is always valid: [`LinkSpecBuilder::build`]
//! holds every rule a spec must meet and reports the first it breaks
//! as a typed [`SpecError`]; [`generate`] and
//! [`run_spec`](crate::measure::run_spec) merge a spec onto its base
//! config (the clock) and check nothing again.
//! [`LinkSpec::content_hash`] gives a canonical 64-bit digest, the
//! `spec_hash` of `sal-bench`'s Pareto records.
//!
//! ```
//! use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
//! let spec = LinkSpec::builder()
//!     .family(LinkFamily::PerWord)
//!     .word_width(16)
//!     .serial_ratio(8)
//!     .build()
//!     .unwrap();
//! assert_eq!(spec.slice_width(), 2);
//! // The paper's three points are one constructor away:
//! let i2 = LinkSpec::paper(LinkFamily::PerTransfer);
//! assert_eq!((i2.word_width(), i2.serial_ratio()), (32, 4));
//! ```

use sal_cells::{BuildError, CircuitBuilder};

use crate::assembly::{build_family, LinkHandles};
use crate::config::LinkConfig;

/// The three link architectures of the paper's Fig 9, as *families*
/// the generator parameterizes over width, ratio, depth, protection
/// and (for I3) the word receiver. (The pre-spec `LinkKind` enum, whose variants named the
/// three fixed paper points, is gone — the spec path is the only one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkFamily {
    /// I1 — fully synchronous parallel link (clocked pipeline
    /// buffers, no serialization on the wire).
    Sync,
    /// I2 — asynchronous serialized link, per-transfer (per-slice)
    /// acknowledgement through four-phase wire buffers.
    PerTransfer,
    /// I3 — asynchronous serialized link, per-word acknowledgement
    /// with a ring-oscillator-paced source-synchronous burst.
    PerWord,
}

impl LinkFamily {
    /// All three families, in the paper's order.
    pub const ALL: [LinkFamily; 3] =
        [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord];

    /// The paper's label (I1/I2/I3).
    pub fn label(self) -> &'static str {
        match self {
            LinkFamily::Sync => "I1",
            LinkFamily::PerTransfer => "I2",
            LinkFamily::PerWord => "I3",
        }
    }
}

impl std::fmt::Display for LinkFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error-detection scheme layered over the serialized wire.
///
/// When enabled, the link widens its internal word with check bits,
/// the receiver verifies every word and answers a corrupted one with a
/// NACK, and the transmitter retransmits from the interface FIFO
/// (which doubles as the replay register).
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
    fn check_bits(self, slices: u8) -> u8 {
        match self {
            ProtectionMode::Off => 0,
            ProtectionMode::Parity => slices,
            ProtectionMode::Crc8 => 8,
        }
    }
}

/// Word-level (I3) receiver style. I1 and I2 build no word receiver:
/// their specs always hold the default, [`WordRxStyle::ShiftRegister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// ([`SpecError::ProtectionWithEarlyAck`]).
    EarlyAck,
}

/// Why a [`LinkSpecBuilder`] refused to construct a [`LinkSpec`], or
/// [`LinkSpec::from_config`] to recover one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecError {
    /// `word_width` outside `8..=64`.
    WordWidth {
        /// The rejected width.
        width: u8,
    },
    /// `serial_ratio` not one of 2, 4, 8, 16.
    SerialRatio {
        /// The rejected ratio.
        ratio: u8,
    },
    /// `serial_ratio` does not divide `word_width`, so no integral
    /// slice width exists.
    WidthNotDivisible {
        /// The word width.
        width: u8,
        /// The ratio that fails to divide it.
        ratio: u8,
    },
    /// A config's slice width is zero or does not divide its flit
    /// width ([`LinkSpec::from_config`]).
    SliceWidth {
        /// The flit width.
        width: u8,
        /// The slice width that fails to divide it.
        slice: u8,
    },
    /// `buffer_depth` outside `1..=16`.
    BufferDepth {
        /// The rejected depth.
        depth: u32,
    },
    /// The synchronous parallel link carries its flit and valid tag
    /// on one concatenated bus, so its word width tops out one bit
    /// short of the kernel's 64-bit signal limit.
    SyncWordTooWide {
        /// The rejected width.
        width: u8,
    },
    /// The family cannot carry this protection mode (the synchronous
    /// parallel link has no serialized wire to protect).
    FamilyProtection {
        /// The family.
        family: LinkFamily,
        /// The rejected protection mode.
        protection: ProtectionMode,
    },
    /// The word widened by its check bits exceeds the 64-bit
    /// datapath.
    ProtectionTooWide {
        /// The protected width (word width + check bits).
        width: u8,
    },
    /// CRC-8 protection needs the slice width to divide the widened
    /// word (word width + 8), i.e. to divide 8.
    CrcSliceMismatch {
        /// The rejected slice width.
        slice: u8,
        /// The protected word width it must divide.
        protected: u8,
    },
    /// A protected I3 spec with the [`WordRxStyle::EarlyAck`]
    /// receiver: the early acknowledge completes the word handshake at
    /// last-slice arrival, *before* the checker can veto the word, so
    /// detection would come too late to NACK.
    ProtectionWithEarlyAck,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::WordWidth { width } => {
                write!(f, "word width must be 8..=64 (got {width})")
            }
            SpecError::SerialRatio { ratio } => {
                write!(f, "serialization ratio must be 2, 4, 8 or 16 (got {ratio})")
            }
            SpecError::WidthNotDivisible { width, ratio } => {
                write!(f, "serialization ratio must divide the word width ({ratio} does not divide {width})")
            }
            SpecError::SliceWidth { width, slice } => {
                write!(f, "slice width must divide the flit width (got {slice} of {width})")
            }
            SpecError::BufferDepth { depth } => {
                write!(f, "buffer depth must be 1..=16 (got {depth})")
            }
            SpecError::SyncWordTooWide { width } => {
                write!(
                    f,
                    "the synchronous link carries flit+valid on one bus, so its word \
                     width must be 8..=63 (got {width})"
                )
            }
            SpecError::FamilyProtection { family, protection } => {
                write!(
                    f,
                    "the {} family has no serialized wire to protect (got {})",
                    family.label(),
                    protection.label()
                )
            }
            SpecError::ProtectionTooWide { width } => {
                write!(f, "protected word width must be <= 64 (got {width})")
            }
            SpecError::CrcSliceMismatch { slice, protected } => {
                write!(
                    f,
                    "CRC-8 protection needs the slice width to divide the widened word \
                     ({slice} does not divide {protected})"
                )
            }
            SpecError::ProtectionWithEarlyAck => {
                write!(
                    f,
                    "protection is incompatible with the early word acknowledge (the early \
                     ack completes the handshake before the word is checked)"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A validated point in the serialization design space.
///
/// Fields are private: every `LinkSpec` in existence passed
/// [`LinkSpecBuilder::build`], so downstream code (the generator, the
/// Pareto campaign) never re-validates. Construct with
/// [`LinkSpec::builder`], [`LinkSpec::paper`] or
/// [`LinkSpec::from_config`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    family: LinkFamily,
    word_width: u8,
    serial_ratio: u8,
    buffer_depth: u32,
    protection: ProtectionMode,
    word_rx_style: WordRxStyle,
}

impl LinkSpec {
    /// Starts a builder at the paper's operating point (I2 family,
    /// 32-bit word, 4:1 ratio, 4 buffers, no protection, the shift
    /// register receiver).
    pub fn builder() -> LinkSpecBuilder {
        LinkSpecBuilder::default()
    }

    /// The paper point of `family`: 32-bit word, 4:1 ratio, 4
    /// buffers, no protection, the shift register receiver.
    /// Infallible by construction.
    pub fn paper(family: LinkFamily) -> LinkSpec {
        LinkSpec {
            family,
            word_width: 32,
            serial_ratio: 4,
            buffer_depth: 4,
            protection: ProtectionMode::Off,
            word_rx_style: WordRxStyle::ShiftRegister,
        }
    }

    /// Recovers the unprotected, shift-register spec whose geometry a
    /// [`LinkConfig`] describes, for config-first call sites such as
    /// `sal-switch`'s fabrics. Fails when the config sits outside the
    /// spec lattice: a slice width that is zero or does not divide the
    /// flit width ([`SpecError::SliceWidth`]), or a serialization ratio
    /// that is not a supported power of two.
    pub fn from_config(family: LinkFamily, cfg: &LinkConfig) -> Result<LinkSpec, SpecError> {
        if cfg.slice_width == 0 || !cfg.flit_width.is_multiple_of(cfg.slice_width) {
            return Err(SpecError::SliceWidth { width: cfg.flit_width, slice: cfg.slice_width });
        }
        LinkSpec::builder()
            .family(family)
            .word_width(cfg.flit_width)
            .serial_ratio(cfg.flit_width / cfg.slice_width)
            .buffer_depth(cfg.buffers)
            .build()
    }

    /// The link family.
    pub fn family(&self) -> LinkFamily {
        self.family
    }

    /// Parallel word width `m`, bits.
    pub fn word_width(&self) -> u8 {
        self.word_width
    }

    /// Serialization ratio `m : n` (2, 4, 8 or 16).
    pub fn serial_ratio(&self) -> u8 {
        self.serial_ratio
    }

    /// Serial slice width `n = word_width / serial_ratio`, bits.
    pub fn slice_width(&self) -> u8 {
        self.word_width / self.serial_ratio
    }

    /// Buffer stations along the wire.
    pub fn buffer_depth(&self) -> u32 {
        self.buffer_depth
    }

    /// Error-detection scheme over the serialized wire.
    pub fn protection(&self) -> ProtectionMode {
        self.protection
    }

    /// The word-level (I3) receiver; always
    /// [`WordRxStyle::ShiftRegister`] for I1 and I2, which build none.
    pub fn word_rx_style(&self) -> WordRxStyle {
        self.word_rx_style
    }

    /// Check bits appended to each word by the protection (0 when
    /// off, one per slice for parity, 8 for CRC-8).
    pub fn check_bits(&self) -> u8 {
        self.protection.check_bits(self.serial_ratio)
    }

    /// Width of the word actually serialized over the wire:
    /// `word_width` plus [`LinkSpec::check_bits`].
    pub fn protected_width(&self) -> u8 {
        self.word_width + self.check_bits()
    }

    /// Slice width carried per wire transfer once protection widens
    /// the word. Parity interleaves one check bit into every slice
    /// (`n+1`); CRC-8 appends a check byte serialized as ordinary
    /// trailing slices (`n`).
    pub fn inner_slice_width(&self) -> u8 {
        match self.protection {
            ProtectionMode::Parity => self.slice_width() + 1,
            _ => self.slice_width(),
        }
    }

    /// Switch-to-switch wires a link of this spec occupies (the
    /// paper's Fig 10 axis): I1's data and valid, or I2/I3's slice
    /// data, request/valid forward and acknowledge back. Protection is
    /// physically honest about its wire cost: the slice may widen
    /// (parity) and the NACK-back and resync-forward wires are added.
    pub fn wires(&self) -> u32 {
        match (self.family, self.protection) {
            (LinkFamily::Sync, _) => u32::from(self.word_width) + 1,
            (_, ProtectionMode::Off) => u32::from(self.slice_width()) + 2,
            _ => u32::from(self.inner_slice_width()) + 4,
        }
    }

    /// Merges the spec onto a physical base configuration: the spec
    /// decides word width, slice width and buffer count; `base`
    /// supplies the clock period. The paper spec over the default base
    /// reproduces [`LinkConfig::default`] exactly — bit-identical
    /// netlists.
    pub fn apply(&self, base: &LinkConfig) -> LinkConfig {
        LinkConfig {
            flit_width: self.word_width,
            slice_width: self.slice_width(),
            buffers: self.buffer_depth,
            clk_period: base.clk_period,
        }
    }

    /// The geometry the serializer/deserializer core is built with,
    /// over the merged `cfg`: the protected word and slice widths (the
    /// core blocks are protection-agnostic — the generator, checker
    /// and retry blocks wrap around them). Equal to `cfg` when
    /// protection is off.
    pub(crate) fn inner(&self, cfg: &LinkConfig) -> LinkConfig {
        LinkConfig {
            flit_width: self.protected_width(),
            slice_width: self.inner_slice_width(),
            ..cfg.clone()
        }
    }

    /// Canonical FNV-1a content hash over the spec's logical fields.
    ///
    /// Stable across processes and runs — two specs hash equal iff
    /// they are equal — so it is the `spec_hash` that keys each record
    /// of `sal-bench`'s committed `BENCH_pareto.json`.
    ///
    /// ```
    /// use sal_link::{LinkFamily, LinkSpec};
    /// let a = LinkSpec::paper(LinkFamily::PerWord);
    /// let b = LinkSpec::builder().family(LinkFamily::PerWord).build().unwrap();
    /// assert_eq!(a.content_hash(), b.content_hash());
    /// ```
    pub fn content_hash(&self) -> u64 {
        let family = match self.family {
            LinkFamily::Sync => 1u8,
            LinkFamily::PerTransfer => 2,
            LinkFamily::PerWord => 3,
        };
        let protection = match self.protection {
            ProtectionMode::Off => 0u8,
            ProtectionMode::Parity => 1,
            ProtectionMode::Crc8 => 2,
        };
        // The last four bytes once encoded an optional retry policy
        // (a presence flag and three policy fields). The policy is now
        // fixed, so they are always zero — exactly what every spec
        // without a policy hashed — which keeps every recorded
        // `spec_hash` valid.
        let bytes = [
            1, // encoding version
            family,
            self.word_width,
            self.serial_ratio,
            self.buffer_depth.min(255) as u8,
            protection,
            0,
            0,
            0,
            0,
        ];
        // The receiver joined the spec after that encoding was fixed:
        // the paper's shift register adds no byte, so every recorded
        // hash still holds.
        let receiver = match self.word_rx_style {
            WordRxStyle::ShiftRegister => None,
            WordRxStyle::Demux => Some(1u8),
            WordRxStyle::EarlyAck => Some(2),
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes.into_iter().chain(receiver) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Builder for [`LinkSpec`] — the only way to construct one.
///
/// Defaults to the paper point of the I2 family; every setter is a
/// consuming `#[must_use]` method so specs compose in one expression.
#[derive(Debug, Clone)]
pub struct LinkSpecBuilder {
    family: LinkFamily,
    word_width: u8,
    serial_ratio: u8,
    buffer_depth: u32,
    protection: ProtectionMode,
    word_rx_style: WordRxStyle,
}

impl Default for LinkSpecBuilder {
    fn default() -> Self {
        LinkSpecBuilder {
            family: LinkFamily::PerTransfer,
            word_width: 32,
            serial_ratio: 4,
            buffer_depth: 4,
            protection: ProtectionMode::Off,
            word_rx_style: WordRxStyle::ShiftRegister,
        }
    }
}

impl LinkSpecBuilder {
    /// Selects the link family.
    #[must_use]
    pub fn family(mut self, family: LinkFamily) -> Self {
        self.family = family;
        self
    }

    /// Sets the parallel word width (8..=64 bits).
    #[must_use]
    pub fn word_width(mut self, bits: u8) -> Self {
        self.word_width = bits;
        self
    }

    /// Sets the serialization ratio (2, 4, 8 or 16).
    #[must_use]
    pub fn serial_ratio(mut self, ratio: u8) -> Self {
        self.serial_ratio = ratio;
        self
    }

    /// Sets the number of buffer stations along the wire (1..=16).
    #[must_use]
    pub fn buffer_depth(mut self, depth: u32) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Selects the error-detection scheme.
    #[must_use]
    pub fn protection(mut self, protection: ProtectionMode) -> Self {
        self.protection = protection;
        self
    }

    /// Selects I3's word receiver. I1 and I2 build none, so their
    /// specs keep [`WordRxStyle::ShiftRegister`] whatever is set here.
    #[must_use]
    pub fn word_rx_style(mut self, style: WordRxStyle) -> Self {
        self.word_rx_style = style;
        self
    }

    /// Validates and constructs the spec: every rule a spec must meet
    /// lives here, checked once, and the first one broken comes back
    /// as its [`SpecError`].
    // Inlined across crates: grid enumerations such as
    // `sal_bench::pareto::full_grid` build hundreds of specs, and with
    // the receiver rule an out-of-line `build` made them ~3x slower.
    #[inline]
    pub fn build(self) -> Result<LinkSpec, SpecError> {
        if !(8..=64).contains(&self.word_width) {
            return Err(SpecError::WordWidth { width: self.word_width });
        }
        if !matches!(self.serial_ratio, 2 | 4 | 8 | 16) {
            return Err(SpecError::SerialRatio { ratio: self.serial_ratio });
        }
        if !self.word_width.is_multiple_of(self.serial_ratio) {
            return Err(SpecError::WidthNotDivisible {
                width: self.word_width,
                ratio: self.serial_ratio,
            });
        }
        if !(1..=16).contains(&self.buffer_depth) {
            return Err(SpecError::BufferDepth { depth: self.buffer_depth });
        }
        if self.family == LinkFamily::Sync && self.word_width == 64 {
            return Err(SpecError::SyncWordTooWide { width: self.word_width });
        }
        if self.family == LinkFamily::Sync && self.protection != ProtectionMode::Off {
            return Err(SpecError::FamilyProtection {
                family: self.family,
                protection: self.protection,
            });
        }
        let protected = self.word_width + self.protection.check_bits(self.serial_ratio);
        if protected > 64 {
            return Err(SpecError::ProtectionTooWide { width: protected });
        }
        let slice = self.word_width / self.serial_ratio;
        if self.protection == ProtectionMode::Crc8 && !protected.is_multiple_of(slice) {
            return Err(SpecError::CrcSliceMismatch { slice, protected });
        }
        let per_word = self.family == LinkFamily::PerWord;
        if per_word
            && self.protection != ProtectionMode::Off
            && self.word_rx_style == WordRxStyle::EarlyAck
        {
            return Err(SpecError::ProtectionWithEarlyAck);
        }
        Ok(LinkSpec {
            family: self.family,
            word_width: self.word_width,
            serial_ratio: self.serial_ratio,
            buffer_depth: self.buffer_depth,
            protection: self.protection,
            word_rx_style: if per_word { self.word_rx_style } else { WordRxStyle::ShiftRegister },
        })
    }
}

/// Generates a link from its spec in scope `name` — the single
/// constructor behind the declarative API. `base` supplies the clock
/// period, the one parameter the spec does not name.
///
/// In debug builds (every test run) a link generated into an empty
/// simulator is passed through every `sal-lint` pass and the first
/// error aborts the build — generated links are lint-clean by
/// construction. A link generated into a larger design is linted
/// with it: `sal-switch` lints each finished fabric once.
///
/// ```
/// use sal_cells::CircuitBuilder;
/// use sal_des::Simulator;
/// use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
/// let spec = LinkSpec::builder().family(LinkFamily::PerWord).serial_ratio(8).build().unwrap();
/// let mut sim = Simulator::new();
/// let lib = sal_tech::St012Library::default();
/// let mut b = CircuitBuilder::new(&mut sim, &lib);
/// let handles = generate(&mut b, &spec, "link", &LinkConfig::default()).unwrap();
/// assert_eq!(handles.family, LinkFamily::PerWord);
/// ```
pub fn generate(
    b: &mut CircuitBuilder<'_>,
    spec: &LinkSpec,
    name: &str,
    base: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    build_family(b, spec, name, &spec.apply(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTECTIONS: [ProtectionMode; 3] =
        [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8];
    const RECEIVERS: [WordRxStyle; 3] =
        [WordRxStyle::ShiftRegister, WordRxStyle::Demux, WordRxStyle::EarlyAck];

    /// Folds a spec's content hash into an FNV-1a digest.
    fn fold_hash(digest: &mut u64, spec: &LinkSpec) {
        for b in spec.content_hash().to_le_bytes() {
            *digest ^= u64::from(b);
            *digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    }

    #[test]
    fn paper_specs_reproduce_the_default_config() {
        for family in LinkFamily::ALL {
            let spec = LinkSpec::paper(family);
            assert_eq!(spec.apply(&LinkConfig::default()), LinkConfig::default());
            assert_eq!(spec.slice_width(), 8);
        }
    }

    #[test]
    fn builder_defaults_are_the_paper_point() {
        let spec = LinkSpec::builder().build().expect("default spec valid");
        assert_eq!(spec, LinkSpec::paper(LinkFamily::PerTransfer));
    }

    /// Each rule a spec must meet, the variant it returns and a piece
    /// of the message it prints: the builder's rules, then the slice
    /// width `from_config` checks before it reaches the builder.
    #[test]
    fn every_spec_error_variant_fires() {
        use ProtectionMode::{Crc8, Parity};
        use SpecError as E;
        let b = LinkSpec::builder;
        let sliced = |slice_width| {
            let cfg = LinkConfig { slice_width, ..LinkConfig::default() };
            LinkSpec::from_config(LinkFamily::PerTransfer, &cfg)
        };
        let table = [
            ("word width", b().word_width(4).build(), E::WordWidth { width: 4 }, "8..=64"),
            ("word width", b().word_width(65).build(), E::WordWidth { width: 65 }, "8..=64"),
            ("ratio", b().serial_ratio(3).build(), E::SerialRatio { ratio: 3 }, "2, 4, 8 or 16"),
            (
                "divisibility",
                b().word_width(24).serial_ratio(16).build(),
                E::WidthNotDivisible { width: 24, ratio: 16 },
                "16 does not divide 24",
            ),
            ("depth", b().buffer_depth(0).build(), E::BufferDepth { depth: 0 }, "1..=16"),
            ("depth", b().buffer_depth(17).build(), E::BufferDepth { depth: 17 }, "1..=16"),
            (
                "sync word",
                b().family(LinkFamily::Sync).word_width(64).build(),
                E::SyncWordTooWide { width: 64 },
                "8..=63",
            ),
            (
                "family protection",
                b().family(LinkFamily::Sync).protection(Parity).build(),
                E::FamilyProtection { family: LinkFamily::Sync, protection: Parity },
                "I1 family",
            ),
            (
                "protection width",
                b().word_width(64).protection(Crc8).build(),
                E::ProtectionTooWide { width: 72 },
                "<= 64 (got 72)",
            ),
            (
                "protection width",
                b().word_width(64).serial_ratio(2).protection(Parity).build(),
                E::ProtectionTooWide { width: 66 },
                "<= 64 (got 66)",
            ),
            (
                "CRC slice",
                b().word_width(32).serial_ratio(2).protection(Crc8).build(),
                E::CrcSliceMismatch { slice: 16, protected: 40 },
                "16 does not divide 40",
            ),
            (
                "early acknowledge",
                b().family(LinkFamily::PerWord)
                    .protection(Crc8)
                    .word_rx_style(WordRxStyle::EarlyAck)
                    .build(),
                E::ProtectionWithEarlyAck,
                "early word acknowledge",
            ),
            ("slice width", sliced(5), E::SliceWidth { width: 32, slice: 5 }, "got 5 of 32"),
            ("slice width", sliced(0), E::SliceWidth { width: 32, slice: 0 }, "got 0 of 32"),
        ];
        for (rule, got, want, message) in table {
            let err = got.expect_err(rule);
            assert_eq!(err, want, "{rule}");
            assert!(err.to_string().contains(message), "{rule}: {err}");
        }
        // The edges of the rules still build.
        assert!(b().family(LinkFamily::PerWord).word_width(64).build().is_ok());
        assert!(b().word_width(48).serial_ratio(16).protection(Parity).build().is_ok());
        assert!(b().word_width(32).serial_ratio(4).protection(Crc8).build().is_ok());
    }

    /// Only I3 builds a word receiver, so only a protected I3 spec
    /// refuses the early word acknowledge; I1 and I2 keep the default
    /// receiver, so their early-acknowledge specs are their default
    /// specs, with the same hash.
    #[test]
    fn early_ack_is_refused_only_by_protected_i3() {
        for family in LinkFamily::ALL {
            for protection in PROTECTIONS {
                let b = LinkSpec::builder().family(family).protection(protection);
                let Ok(default) = b.clone().build() else {
                    assert_eq!(family, LinkFamily::Sync, "{family} {protection:?}");
                    continue;
                };
                let early = b.word_rx_style(WordRxStyle::EarlyAck).build();
                if family != LinkFamily::PerWord {
                    assert_eq!(early.as_ref(), Ok(&default), "{family} {protection:?}");
                    assert_eq!(default.word_rx_style(), WordRxStyle::ShiftRegister);
                } else if protection != ProtectionMode::Off {
                    assert_eq!(early, Err(SpecError::ProtectionWithEarlyAck), "{protection:?}");
                } else {
                    let early = early.expect("an unprotected I3 takes the early acknowledge");
                    assert_eq!(early.word_rx_style(), WordRxStyle::EarlyAck);
                    assert_ne!(early.content_hash(), default.content_hash());
                }
            }
        }
    }

    #[test]
    fn content_hash_is_stable_and_injective_over_the_sweep() {
        // The committed `BENCH_pareto.json` records this hash as each
        // cell's `spec_hash`, so the encoding must not drift.
        assert_eq!(
            LinkSpec::paper(LinkFamily::PerTransfer).content_hash(),
            LinkSpec::builder().build().unwrap().content_hash()
        );
        let mut seen = std::collections::HashMap::new();
        for family in LinkFamily::ALL {
            for width in [8u8, 16, 24, 32, 48, 64] {
                for ratio in [2u8, 4, 8, 16] {
                    for depth in [1u32, 2, 4, 8, 16] {
                        for (protection, rx) in PROTECTIONS
                            .into_iter()
                            .flat_map(|p| RECEIVERS.into_iter().map(move |rx| (p, rx)))
                        {
                            let Ok(spec) = LinkSpec::builder()
                                .family(family)
                                .word_width(width)
                                .serial_ratio(ratio)
                                .buffer_depth(depth)
                                .protection(protection)
                                .word_rx_style(rx)
                                .build()
                            else {
                                continue;
                            };
                            let h = spec.content_hash();
                            if let Some(prev) = seen.insert(h, spec.clone()) {
                                assert_eq!(prev, spec, "hash collision");
                            }
                        }
                    }
                }
            }
        }
        assert!(seen.len() > 100, "sweep covered {} valid cells", seen.len());
    }

    /// Every verdict of both constructors over a box around the
    /// lattice, pinned as the count of accepted specs and an FNV-1a
    /// fold of their content hashes in sweep order: moving a rule
    /// between checks must not move a verdict. A config carries no
    /// protection, so the config half sets it through the builder on
    /// the geometry `from_config` recovers.
    #[test]
    fn spec_verdicts_are_pinned_exhaustively() {
        let mut accepted = 0u32;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |spec: Result<LinkSpec, SpecError>| {
            if let Ok(spec) = spec {
                accepted += 1;
                fold_hash(&mut digest, &spec);
            }
        };
        for family in LinkFamily::ALL {
            for protection in PROTECTIONS {
                for width in 0..=72u8 {
                    for ratio in 0..=17u8 {
                        for depth in 0..=17u32 {
                            fold(
                                LinkSpec::builder()
                                    .family(family)
                                    .protection(protection)
                                    .word_width(width)
                                    .serial_ratio(ratio)
                                    .buffer_depth(depth)
                                    .build(),
                            );
                        }
                    }
                }
            }
        }
        for family in LinkFamily::ALL {
            for protection in PROTECTIONS {
                for flit_width in 0..=72u8 {
                    for slice_width in 0..=72u8 {
                        let cfg = LinkConfig { flit_width, slice_width, ..LinkConfig::default() };
                        fold(LinkSpec::from_config(family, &cfg).and_then(|s| {
                            LinkSpec::builder()
                                .family(family)
                                .word_width(s.word_width())
                                .serial_ratio(s.serial_ratio())
                                .buffer_depth(s.buffer_depth())
                                .protection(protection)
                                .build()
                        }));
                    }
                }
            }
        }
        // 4 608 builder specs and 288 recovered from configs.
        assert_eq!((accepted, digest), (4896, 0xf17d_cfb5_7090_641a));
    }

    /// The receiver axis over the builder's box: a receiver moves no
    /// verdict but protected I3's early acknowledge, and the accepted
    /// specs are pinned as a count and a digest like the lattice's.
    #[test]
    fn receiver_verdicts_are_pinned_exhaustively() {
        let (mut accepted, mut refused) = (0u32, 0u32);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for family in LinkFamily::ALL {
            for protection in PROTECTIONS {
                for width in 0..=72u8 {
                    for ratio in 0..=17u8 {
                        for depth in 0..=17u32 {
                            let b = LinkSpec::builder()
                                .family(family)
                                .protection(protection)
                                .word_width(width)
                                .serial_ratio(ratio)
                                .buffer_depth(depth);
                            let paper_rx = b.clone().build();
                            for rx in RECEIVERS {
                                let spec = b.clone().word_rx_style(rx).build();
                                let early_refused = family == LinkFamily::PerWord
                                    && protection != ProtectionMode::Off
                                    && rx == WordRxStyle::EarlyAck
                                    && paper_rx.is_ok();
                                if early_refused {
                                    assert_eq!(spec, Err(SpecError::ProtectionWithEarlyAck));
                                    refused += 1;
                                    continue;
                                }
                                assert_eq!(spec.as_ref().err(), paper_rx.as_ref().err());
                                if let Ok(spec) = spec {
                                    accepted += 1;
                                    fold_hash(&mut digest, &spec);
                                }
                            }
                        }
                    }
                }
            }
        }
        // 3 x 4 608 builder verdicts: the 992 protected I3 specs
        // refuse the early acknowledge.
        assert_eq!((accepted, refused, digest), (12832, 992, 0x9c77_8fc8_8a76_f995));
    }

    #[test]
    fn from_config_round_trips() {
        let cfg = LinkConfig { flit_width: 16, slice_width: 2, buffers: 6, ..LinkConfig::default() };
        let spec = LinkSpec::from_config(LinkFamily::PerTransfer, &cfg).expect("valid");
        assert_eq!((spec.word_width(), spec.serial_ratio(), spec.buffer_depth()), (16, 8, 6));
        assert_eq!(spec.apply(&LinkConfig::default()), cfg);
        // A ratio outside the lattice is a typed error, not a panic.
        let odd = LinkConfig { flit_width: 24, slice_width: 8, ..LinkConfig::default() };
        assert_eq!(
            LinkSpec::from_config(LinkFamily::PerWord, &odd).unwrap_err(),
            SpecError::SerialRatio { ratio: 3 }
        );
    }

    #[test]
    fn protection_widths_and_wire_costs() {
        let b = || LinkSpec::builder().family(LinkFamily::PerWord);
        let off = b().build().unwrap();
        assert_eq!((off.check_bits(), off.protected_width()), (0, 32));
        let cfg = off.apply(&LinkConfig::default());
        assert_eq!(off.inner(&cfg), cfg);
        let p = b().protection(ProtectionMode::Parity).build().unwrap();
        assert_eq!((p.check_bits(), p.protected_width(), p.inner_slice_width()), (4, 36, 9));
        assert_eq!(p.wires(), 13); // 9 data + req + ack + nack + resync
        let inner = p.inner(&cfg);
        assert_eq!((inner.flit_width, inner.slice_width, inner.slices()), (36, 9, 4));
        let g = b().protection(ProtectionMode::Crc8).build().unwrap();
        assert_eq!((g.protected_width(), g.inner_slice_width()), (40, 8));
        assert_eq!(g.wires(), 12);
        assert_eq!(g.inner(&cfg).slices(), 5); // the check byte rides as a 5th slice
    }

    #[test]
    fn wires_track_protection_and_ratio() {
        let base = LinkSpec::paper(LinkFamily::PerTransfer);
        assert_eq!(base.wires(), 10); // 8 data + req + ack
        assert_eq!(LinkSpec::paper(LinkFamily::Sync).wires(), 33);
        let narrow = LinkSpec::builder().serial_ratio(16).build().unwrap();
        assert_eq!(narrow.wires(), 4); // 2 data + req + ack
        let narrow16 = LinkSpec::builder().word_width(16).build().unwrap();
        assert_eq!(narrow16.wires(), 6); // 4 data + req + ack
    }
}
