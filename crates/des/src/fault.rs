//! Fault injection and timing-margin perturbation.
//!
//! A [`FaultPlan`] describes how a netlist should be perturbed before
//! a run: per-component gate-delay derating (a global multiplier, a
//! seeded Gaussian sigma, or both), stuck-at faults and transient
//! glitches (SEUs) on named signals, and bundled-data *skew* — extra
//! delay added to data wires but not to the request/VALID wires they
//! are supposed to travel with. Plans are applied once via
//! [`crate::Simulator::apply_fault_plan`]; an empty plan installs no
//! state at all, so the fault hook is exactly zero-cost when unused
//! and a faulted run differs from a clean one only through the plan.
//!
//! All randomness is derived from the plan's seed with splitmix64, so
//! the same plan on the same netlist produces bit-identical runs —
//! Monte Carlo margin sweeps are reproducible point by point.

use crate::{within_scope, SignalId, Time, Value};

/// Lower clamp for delay multipliers: a Gaussian sample far in the
/// left tail must not produce a zero or negative gate delay.
pub(crate) const MIN_DELAY_SCALE: f64 = 0.05;

/// A stuck-at fault: from `from` onward the signal is forced to
/// all-zeros or all-ones and every later drive of it is discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckAt {
    /// Full hierarchical path of the target signal.
    pub path: String,
    /// `true` = stuck-at-1 (all bits), `false` = stuck-at-0.
    pub value: bool,
    /// Absolute time the fault takes effect.
    pub from: Time,
}

/// A transient glitch (single-event upset): at `at` the signal's
/// committed value has `mask` XORed into it; after `width` the
/// original value is restored. Downstream inertial delays filter the
/// pulse exactly as they would a real SEU.
#[derive(Debug, Clone, PartialEq)]
pub struct Glitch {
    /// Full hierarchical path of the target signal.
    pub path: String,
    /// Absolute time of the upset.
    pub at: Time,
    /// Pulse width before the original value is restored.
    pub width: Time,
    /// Bit mask XORed into the committed value (truncated to the
    /// signal width).
    pub mask: u64,
}

/// Bundled-data skew: every signal whose full path contains
/// `substring` has `extra` added to *all* of its drive delays. Aiming
/// this at the data wires of a bundled-data link (and not at its
/// req/VALID wires) models the data lagging its timing reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewRule {
    /// Substring matched against each signal's full hierarchical path.
    pub substring: String,
    /// Extra delay added to each drive of a matching signal.
    pub extra: Time,
}

/// A declarative description of every perturbation to apply to one
/// simulation run. Construct with [`FaultPlan::new`] and the builder
/// methods, then install with [`crate::Simulator::apply_fault_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all derived randomness (per-component Gaussian draws).
    pub seed: u64,
    /// Global gate-delay multiplier (derating). 1.0 = nominal.
    pub delay_scale: f64,
    /// Sigma of the per-component multiplicative Gaussian delay
    /// variation: each component's delays are scaled by an independent
    /// draw from `N(1, sigma)`, clamped positive. 0.0 disables it.
    pub delay_sigma: f64,
    /// Scope-path prefixes the delay perturbation is restricted to
    /// (e.g. `"link.wire"`). Empty = every component.
    pub scopes: Vec<String>,
    /// Enable flip-flop setup-window checking for in-scope components:
    /// a flip-flop whose data input changed within its setup window
    /// before the active clock edge captures `X` (metastability)
    /// instead of a clean value. The window scales with the same
    /// per-component delay multiplier as the cell's own delays, so a
    /// uniformly derated self-timed block keeps its relative margins
    /// while logic racing a *fixed* clock loses slack.
    pub setup_check: bool,
    /// Stuck-at faults to install.
    pub stuck: Vec<StuckAt>,
    /// Transient glitches to install.
    pub glitches: Vec<Glitch>,
    /// Bundled-data skew rules to install.
    pub skews: Vec<SkewRule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty (no-op) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_scale: 1.0,
            delay_sigma: 0.0,
            scopes: Vec::new(),
            setup_check: false,
            stuck: Vec::new(),
            glitches: Vec::new(),
            skews: Vec::new(),
        }
    }

    /// Sets the global delay derating multiplier.
    pub fn with_delay_scale(mut self, scale: f64) -> Self {
        self.delay_scale = scale;
        self
    }

    /// Sets the per-component Gaussian delay-variation sigma.
    pub fn with_delay_sigma(mut self, sigma: f64) -> Self {
        self.delay_sigma = sigma;
        self
    }

    /// Restricts the delay perturbation to components whose scope path
    /// is within `prefix` ([`within_scope`]; `""` is the whole tree).
    /// May be called repeatedly; matching any listed prefix qualifies.
    pub fn in_scope(mut self, prefix: &str) -> Self {
        self.scopes.push(prefix.to_string());
        self
    }

    /// Enables flip-flop setup-window checking for in-scope
    /// components (see [`FaultPlan::setup_check`]).
    pub fn with_setup_check(mut self) -> Self {
        self.setup_check = true;
        self
    }

    /// Adds a stuck-at fault on the signal at `path`.
    pub fn stuck_at(mut self, path: &str, value: bool, from: Time) -> Self {
        self.stuck.push(StuckAt { path: path.to_string(), value, from });
        self
    }

    /// Adds a transient glitch on the signal at `path`.
    pub fn glitch(mut self, path: &str, at: Time, width: Time, mask: u64) -> Self {
        self.glitches.push(Glitch { path: path.to_string(), at, width, mask });
        self
    }

    /// Adds a skew rule: extra drive delay on every signal whose path
    /// contains `substring`.
    pub fn skew_matching(mut self, substring: &str, extra: Time) -> Self {
        self.skews.push(SkewRule { substring: substring.to_string(), extra });
        self
    }

    /// True if the plan perturbs nothing; applying it is a no-op and
    /// installs no per-drive overhead.
    pub fn is_empty(&self) -> bool {
        self.delay_scale == 1.0
            && self.delay_sigma == 0.0
            && !self.setup_check
            && self.stuck.is_empty()
            && self.glitches.is_empty()
            && self.skews.is_empty()
    }

    /// Whether a component in the scope with path `path` is subject to
    /// the delay perturbation.
    pub(crate) fn scope_matches(&self, path: &str) -> bool {
        if self.scopes.is_empty() {
            return true;
        }
        self.scopes.iter().any(|scope| within_scope(path, scope))
    }

    /// The deterministic delay multiplier for component index `comp`.
    pub(crate) fn sample_scale(&self, comp: usize) -> f64 {
        let mut m = self.delay_scale;
        if self.delay_sigma > 0.0 {
            let g = gaussian(self.seed ^ (comp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            m *= (1.0 + self.delay_sigma * g).max(MIN_DELAY_SCALE);
        }
        m.max(MIN_DELAY_SCALE)
    }
}

/// A scheduled fault action, executed by the kernel as its own event.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultAction {
    /// Force-commit `value` onto the signal, cancelling in-flight
    /// drives.
    Force { signal: SignalId, value: Value },
    /// XOR `mask` into the committed value and schedule a restoring
    /// `Force` after `width`.
    Glitch { signal: SignalId, mask: u64, width: Time },
}

/// The resolved, per-netlist form of a [`FaultPlan`], installed in the
/// kernel. Only present when a non-empty plan was applied — the fast
/// path tests a single `Option`.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Delay multiplier per component index (1.0 = untouched).
    pub comp_scale: Vec<f64>,
    /// Extra drive delay per signal index, femtoseconds (skew).
    pub extra_delay_fs: Vec<u64>,
    /// Time from which each signal is stuck (`Time::MAX` = never).
    pub stuck_from: Vec<Time>,
    /// Per-component flag: flip-flops at these indices perform setup-
    /// window checking (capture `X` on a data change inside the
    /// window).
    pub setup_check: Vec<bool>,
    /// Scheduled fault actions, referenced by index from fault events.
    /// Grows when a glitch schedules its own restore.
    pub actions: Vec<FaultAction>,
}

impl FaultState {
    /// Transforms one drive according to the installed perturbations:
    /// returns the adjusted delay, or `None` if the drive targets a
    /// stuck signal and must be discarded.
    #[inline]
    pub fn transform(
        &self,
        comp: crate::ComponentId,
        sig: SignalId,
        now: Time,
        delay: Time,
    ) -> Option<Time> {
        // Components and signals added *after* the plan was applied
        // (testbench sources, monitors) are beyond the resolved tables
        // and run at nominal timing.
        if self.stuck_from.get(sig.index()).is_some_and(|&from| now >= from) {
            return None;
        }
        let scale = self.comp_scale.get(comp.index()).copied().unwrap_or(1.0);
        let extra = self.extra_delay_fs.get(sig.index()).copied().unwrap_or(0);
        if scale == 1.0 && extra == 0 {
            return Some(delay);
        }
        let fs = (delay.as_fs() as f64 * scale).round() as u64 + extra;
        Some(Time::from_fs(fs))
    }
}

/// splitmix64: the canonical 64-bit mixing function. Used to derive
/// independent per-component streams from one plan seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in (0, 1] from one splitmix64 output — never zero,
/// so it is safe under `ln`.
fn unit_open(x: u64) -> f64 {
    ((x >> 11) as f64 + 1.0) * (1.0 / 9_007_199_254_740_992.0)
}

/// One standard-normal draw via Box–Muller, fully determined by the
/// seed.
pub(crate) fn gaussian(seed: u64) -> f64 {
    let a = splitmix64(seed);
    let b = splitmix64(a);
    let u1 = unit_open(a);
    let u2 = unit_open(b);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new(1).is_empty());
        assert!(!FaultPlan::new(1).with_delay_scale(2.0).is_empty());
        assert!(!FaultPlan::new(1).with_delay_sigma(0.1).is_empty());
        assert!(!FaultPlan::new(1).stuck_at("a", false, Time::ZERO).is_empty());
        assert!(!FaultPlan::new(1)
            .glitch("a", Time::from_ns(1), Time::from_ps(100), 1)
            .is_empty());
        assert!(!FaultPlan::new(1).skew_matching("seg_d", Time::from_ps(50)).is_empty());
        // A scope filter alone perturbs nothing.
        assert!(FaultPlan::new(1).in_scope("link").is_empty());
    }

    #[test]
    fn scope_prefix_matching_is_component_wise() {
        let p = FaultPlan::new(0).in_scope("link.wire");
        assert!(p.scope_matches("link.wire"));
        assert!(p.scope_matches("link.wire.buf0"));
        assert!(!p.scope_matches("link.wires"));
        assert!(!p.scope_matches("link"));
        let all = FaultPlan::new(0);
        assert!(all.scope_matches("anything.at.all"));
        // The empty scope is the root: it selects every component.
        assert!(FaultPlan::new(0).in_scope("").scope_matches("link.wire"));
    }

    #[test]
    fn gaussian_is_deterministic_and_plausible() {
        assert_eq!(gaussian(42), gaussian(42));
        assert_ne!(gaussian(42), gaussian(43));
        // Mean and sigma over a modest sample: loose sanity bounds.
        let n = 4096;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for i in 0..n {
            let g = gaussian(i);
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sample_scale_clamps_and_scales() {
        let p = FaultPlan::new(7).with_delay_scale(2.0);
        assert_eq!(p.sample_scale(0), 2.0);
        // An absurd sigma cannot drive the multiplier non-positive.
        let p = FaultPlan::new(7).with_delay_sigma(100.0);
        for c in 0..64 {
            assert!(p.sample_scale(c) >= MIN_DELAY_SCALE);
        }
        // Same seed, same component: bit-identical.
        let a = FaultPlan::new(9).with_delay_sigma(0.2);
        let b = FaultPlan::new(9).with_delay_sigma(0.2);
        for c in 0..16 {
            assert_eq!(a.sample_scale(c).to_bits(), b.sample_scale(c).to_bits());
        }
    }
}
