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
//! front-loads every structural check as a typed [`SpecError`] (which
//! chains into [`BuildError`] and
//! [`RunFailure`](crate::RunFailure) via `source()`), so
//! [`generate`] and [`run_spec`](crate::measure::run_spec) can assume
//! consistency. [`LinkSpec::content_hash`] gives a canonical 64-bit
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
use crate::config::{ConfigError, LinkConfig, ProtectionMode};

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

/// Why a [`LinkSpecBuilder`] refused to construct a [`LinkSpec`].
///
/// Structural spec-level checks come first (width, ratio, depth,
/// family compatibility); anything the derived [`LinkConfig`] still
/// rejects — protection widening past 64 bits, CRC slice mismatches —
/// surfaces as [`SpecError::Config`] with the typed [`ConfigError`]
/// as its [`source`](std::error::Error::source).
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
    /// The derived [`LinkConfig`] failed its own validation.
    Config(ConfigError),
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
            SpecError::Config(e) => write!(f, "derived link configuration invalid: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Config(e)
    }
}

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
    /// `base` supplies the rest (clock period, early word
    /// acknowledge, receiver style). The paper spec over the default
    /// base reproduces [`LinkConfig::default`] exactly — bit-identical
    /// netlists.
    pub fn apply(&self, base: &LinkConfig) -> LinkConfig {
        let mut cfg = base.clone();
        cfg.flit_width = self.word_width;
        cfg.slice_width = self.slice_width();
        cfg.buffers = self.buffer_depth;
        cfg.protection = self.protection;
        cfg
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

    /// Validates and constructs the spec.
    ///
    /// Spec-level checks run first; whatever the derived
    /// [`LinkConfig`] still rejects (protection widening past the
    /// 64-bit datapath, CRC slice mismatches …) comes back as
    /// [`SpecError::Config`].
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
        let spec = LinkSpec {
            family: self.family,
            word_width: self.word_width,
            serial_ratio: self.serial_ratio,
            buffer_depth: self.buffer_depth,
            protection: self.protection,
        };
        // Anything the structural checks above cannot see (protection
        // widening, CRC divisibility against the widened word) is
        // caught by the derived config's own validation.
        spec.apply(&LinkConfig::default()).check()?;
        Ok(spec)
    }
}

/// Generates a link from its spec in scope `name` — the single
/// constructor behind the declarative API. `base` supplies the
/// parameters the spec does not name (clock period, early word
/// acknowledge, receiver style).
///
/// In debug builds (every test run) the freshly generated netlist is
/// passed through every `sal-lint` pass and the first error aborts
/// the build — generated links are lint-clean by construction.
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
    build_family(b, spec.family(), name, &spec.apply(base))
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

    #[test]
    fn every_spec_error_variant_fires() {
        use SpecError as E;
        let b = LinkSpec::builder;
        assert_eq!(b().word_width(65).build().unwrap_err(), E::WordWidth { width: 65 });
        assert_eq!(b().word_width(4).build().unwrap_err(), E::WordWidth { width: 4 });
        assert_eq!(b().serial_ratio(3).build().unwrap_err(), E::SerialRatio { ratio: 3 });
        assert_eq!(
            b().word_width(24).serial_ratio(16).build().unwrap_err(),
            E::WidthNotDivisible { width: 24, ratio: 16 }
        );
        assert_eq!(b().buffer_depth(0).build().unwrap_err(), E::BufferDepth { depth: 0 });
        assert_eq!(b().buffer_depth(17).build().unwrap_err(), E::BufferDepth { depth: 17 });
        assert_eq!(
            b().family(LinkFamily::Sync).protection(ProtectionMode::Parity).build().unwrap_err(),
            E::FamilyProtection { family: LinkFamily::Sync, protection: ProtectionMode::Parity }
        );
        assert_eq!(
            b().family(LinkFamily::Sync).word_width(64).build().unwrap_err(),
            E::SyncWordTooWide { width: 64 }
        );
        assert!(b().family(LinkFamily::PerWord).word_width(64).build().is_ok());
        // Derived-config failures chain through SpecError::Config.
        let err = b()
            .word_width(64)
            .protection(ProtectionMode::Crc8)
            .build()
            .unwrap_err();
        assert_eq!(err, E::Config(ConfigError::ProtectionTooWide { width: 72 }));
    }

    #[test]
    fn spec_error_chains_to_config_error() {
        use std::error::Error as _;
        let err = LinkSpec::builder()
            .word_width(32)
            .serial_ratio(2)
            .protection(ProtectionMode::Crc8)
            .build()
            .unwrap_err();
        let src = err.source().expect("Config variant chains");
        assert!(src.downcast_ref::<ConfigError>().is_some());
        assert!(LinkSpec::builder()
            .word_width(65)
            .build()
            .unwrap_err()
            .source()
            .is_none());
        // And onward into the builder error channel.
        let build: BuildError = err.into();
        assert!(matches!(
            build,
            BuildError::Config { ref message } if message.contains("CRC-8")
        ));
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
