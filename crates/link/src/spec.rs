//! Declarative link specification: the validated, hashable description
//! of one point in the serialization design space.
//!
//! The paper evaluates exactly three hand-assembled links — I1/I2/I3
//! at a fixed 32-bit width and 4:1 serialization ratio. A [`LinkSpec`]
//! names a *family* plus the free axes the generator can sweep:
//!
//! * [`LinkFamily`] — synchronous parallel (I1), serialized
//!   per-transfer ack (I2), serialized per-word ack (I3);
//! * `word_width` — 8..=64 bits;
//! * `serial_ratio` — 2:1, 4:1, 8:1 or 16:1 (slice width is
//!   `word_width / serial_ratio`);
//! * `buffer_depth` — stations along the wire;
//! * [`ProtectionMode`].
//!
//! A constructed `LinkSpec` is always valid: [`LinkSpecBuilder::build`]
//! holds every rule a spec must meet and reports the first it breaks
//! as a typed [`SpecError`]. The one rule that also reads the base
//! config — no early word acknowledge on a protected I3 link — is
//! checked where [`generate`] and [`run_spec`](crate::measure::run_spec)
//! merge the spec onto its base; past that step nothing is checked
//! again. [`LinkSpec::content_hash`] gives a canonical 64-bit
//! digest, the `spec_hash` of `sal-bench`'s Pareto records.
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
use crate::config::{LinkConfig, ProtectionMode, WordRxStyle};

/// The three link architectures of the paper's Fig 9, as *families*
/// the generator parameterizes over width, ratio, depth and
/// protection. (The pre-spec `LinkKind` enum, whose variants named the
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

    /// Number of switch-to-switch wires a link of this family needs
    /// under `cfg`.
    pub fn wires(self, cfg: &LinkConfig) -> u32 {
        match self {
            LinkFamily::Sync => cfg.wires_sync(),
            _ => cfg.wires_async(),
        }
    }
}

impl std::fmt::Display for LinkFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a [`LinkSpecBuilder`] refused to construct a [`LinkSpec`], or
/// why a spec cannot be built over its base config
/// ([`SpecError::ProtectionWithEarlyAck`]).
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
    /// A protected I3 spec over a base asking for
    /// [`WordRxStyle::EarlyAck`]: the early acknowledge completes the
    /// word handshake at last-slice arrival, *before* the checker can
    /// veto the word, so detection would come too late to NACK.
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

impl From<SpecError> for BuildError {
    fn from(e: SpecError) -> Self {
        BuildError::Config { message: e.to_string() }
    }
}

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
}

impl LinkSpec {
    /// Starts a builder at the paper's operating point (I2 family,
    /// 32-bit word, 4:1 ratio, 4 buffers, no protection).
    pub fn builder() -> LinkSpecBuilder {
        LinkSpecBuilder::default()
    }

    /// The paper point of `family`: 32-bit word, 4:1 ratio, 4
    /// buffers, no protection. Infallible by construction.
    pub fn paper(family: LinkFamily) -> LinkSpec {
        LinkSpec {
            family,
            word_width: 32,
            serial_ratio: 4,
            buffer_depth: 4,
            protection: ProtectionMode::Off,
        }
    }

    /// Recovers the spec a [`LinkConfig`] describes, for migrating
    /// config-first call sites. Fails when the config sits outside
    /// the spec lattice (e.g. a serialization ratio that is not a
    /// supported power of two).
    pub fn from_config(family: LinkFamily, cfg: &LinkConfig) -> Result<LinkSpec, SpecError> {
        if cfg.slice_width == 0 || !cfg.flit_width.is_multiple_of(cfg.slice_width) {
            return Err(SpecError::WidthNotDivisible {
                width: cfg.flit_width,
                ratio: cfg.slice_width.max(1),
            });
        }
        LinkSpec::builder()
            .family(family)
            .word_width(cfg.flit_width)
            .serial_ratio(cfg.flit_width / cfg.slice_width)
            .buffer_depth(cfg.buffers)
            .protection(cfg.protection)
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

    /// Switch-to-switch wires a link of this spec occupies (the
    /// paper's Fig 10 axis). Independent of the physical base config.
    pub fn wires(&self) -> u32 {
        self.family.wires(&self.apply(&LinkConfig::default()))
    }

    /// Merges the spec onto a physical base configuration: the spec
    /// decides word width, slice width, buffer count and protection;
    /// `base` supplies the rest (clock period, receiver style). The
    /// paper spec over the default base reproduces
    /// [`LinkConfig::default`] exactly — bit-identical netlists.
    pub fn apply(&self, base: &LinkConfig) -> LinkConfig {
        let mut cfg = base.clone();
        cfg.flit_width = self.word_width;
        cfg.slice_width = self.slice_width();
        cfg.buffers = self.buffer_depth;
        cfg.protection = self.protection;
        cfg
    }

    /// The configuration a link of this spec is built from: [`apply`]
    /// plus the one rule that reads the base. Only I3 builds a word
    /// receiver, so only a protected I3 spec rejects the early word
    /// acknowledge. [`generate`] and [`run_spec`](crate::run_spec)
    /// both build through here, and nothing after it re-checks.
    ///
    /// [`apply`]: LinkSpec::apply
    pub(crate) fn build_config(&self, base: &LinkConfig) -> Result<LinkConfig, SpecError> {
        if self.family == LinkFamily::PerWord
            && self.protection != ProtectionMode::Off
            && base.word_rx_style == WordRxStyle::EarlyAck
        {
            return Err(SpecError::ProtectionWithEarlyAck);
        }
        Ok(self.apply(base))
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
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
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
}

impl Default for LinkSpecBuilder {
    fn default() -> Self {
        LinkSpecBuilder {
            family: LinkFamily::PerTransfer,
            word_width: 32,
            serial_ratio: 4,
            buffer_depth: 4,
            protection: ProtectionMode::Off,
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

    /// Validates and constructs the spec: every rule a spec must meet
    /// lives here, checked once, and the first one broken comes back
    /// as its [`SpecError`].
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
        Ok(LinkSpec {
            family: self.family,
            word_width: self.word_width,
            serial_ratio: self.serial_ratio,
            buffer_depth: self.buffer_depth,
            protection: self.protection,
        })
    }
}

/// Generates a link from its spec in scope `name` — the single
/// constructor behind the declarative API. `base` supplies the
/// parameters the spec does not name (clock period, receiver style);
/// a protected I3 spec over an early-acknowledge base is refused as
/// [`SpecError::ProtectionWithEarlyAck`].
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
    build_family(b, spec.family(), name, &spec.build_config(base)?)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    /// of the message it prints. Every rule but the last is the
    /// builder's; the early acknowledge is refused where a spec is
    /// merged onto its base.
    #[test]
    fn every_spec_error_variant_fires() {
        use ProtectionMode::{Crc8, Parity};
        use SpecError as E;
        let b = LinkSpec::builder;
        let early = LinkConfig { word_rx_style: WordRxStyle::EarlyAck, ..LinkConfig::default() };
        let i3_crc = b().family(LinkFamily::PerWord).protection(Crc8).build().unwrap();
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
        ];
        for (rule, got, want, message) in table {
            let err = got.expect_err(rule);
            assert_eq!(err, want, "{rule}");
            assert!(err.to_string().contains(message), "{rule}: {err}");
        }
        let err = i3_crc.build_config(&early).unwrap_err();
        assert_eq!(err, E::ProtectionWithEarlyAck);
        let build: BuildError = err.into();
        assert!(matches!(
            build,
            BuildError::Config { ref message } if message.contains("early word acknowledge")
        ));
        // The edges of the rules still build.
        assert!(b().family(LinkFamily::PerWord).word_width(64).build().is_ok());
        assert!(b().word_width(48).serial_ratio(16).protection(Parity).build().is_ok());
        assert!(b().word_width(32).serial_ratio(4).protection(Crc8).build().is_ok());
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
                        for protection in
                            [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8]
                        {
                            let Ok(spec) = LinkSpec::builder()
                                .family(family)
                                .word_width(width)
                                .serial_ratio(ratio)
                                .buffer_depth(depth)
                                .protection(protection)
                                .build()
                            else {
                                continue;
                            };
                            let h = spec.content_hash();
                            if let Some(prev) = seen.insert(h, spec.clone()) {
                                panic!("hash collision: {prev:?} vs {spec:?}");
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
    /// between checks must not move a verdict.
    #[test]
    fn spec_verdicts_are_pinned_exhaustively() {
        const PROTECTIONS: [ProtectionMode; 3] =
            [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8];
        let mut accepted = 0u32;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |spec: Result<LinkSpec, SpecError>| {
            if let Ok(spec) = spec {
                accepted += 1;
                for b in spec.content_hash().to_le_bytes() {
                    digest ^= u64::from(b);
                    digest = digest.wrapping_mul(0x100_0000_01b3);
                }
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
                        let cfg =
                            LinkConfig { flit_width, slice_width, protection, ..LinkConfig::default() };
                        fold(LinkSpec::from_config(family, &cfg));
                    }
                }
            }
        }
        // 4 608 builder specs and 288 recovered from configs.
        assert_eq!((accepted, digest), (4896, 0xf17d_cfb5_7090_641a));
    }

    #[test]
    fn from_config_round_trips() {
        let cfg = LinkConfig {
            flit_width: 16,
            slice_width: 2,
            buffers: 6,
            protection: ProtectionMode::Parity,
            ..LinkConfig::default()
        };
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
    fn from_config_of_a_protected_link_equals_the_builders_spec() {
        for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
            for protection in [ProtectionMode::Parity, ProtectionMode::Crc8] {
                let cfg = LinkConfig { protection, ..LinkConfig::default() };
                let derived = LinkSpec::from_config(family, &cfg).expect("valid");
                let built =
                    LinkSpec::builder().family(family).protection(protection).build().unwrap();
                assert_eq!(derived, built, "{family} {protection:?}");
                assert_eq!(derived.content_hash(), built.content_hash(), "{family} {protection:?}");
            }
        }
    }

    #[test]
    fn wires_track_protection_and_ratio() {
        let base = LinkSpec::paper(LinkFamily::PerTransfer);
        assert_eq!(base.wires(), 10); // 8 data + req + ack
        assert_eq!(LinkSpec::paper(LinkFamily::Sync).wires(), 33);
        let narrow = LinkSpec::builder().serial_ratio(16).build().unwrap();
        assert_eq!(narrow.wires(), 4); // 2 data + req + ack
    }
}
