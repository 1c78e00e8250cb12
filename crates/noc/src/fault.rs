//! Dynamic channel fault processes and recovery accounting.
//!
//! The gate-level links have NACK/retry/timeout/degrade semantics;
//! this module gives the network layer the same by making loss an
//! *event*, not a static derate: every channel of a
//! [`Network`](crate::Network) can carry a seeded
//! [`ChannelFaults`] describing a per-word error process (i.i.d. or
//! bursty Gilbert–Elliott), the protection mode of the underlying
//! link (which decides whether an upset is *detected* and replayed or
//! slips through), and the escalation ladder the channel climbs when
//! the medium stays hostile — mirroring `sal-link::retry`:
//!
//! 1. **NACK replay** — a detected upset consumes the word at the
//!    receiver and pulses the backward NACK wire; the head-of-line
//!    flit is retransmitted after the NACK flight time.
//! 2. **Timeout** — some failures eat the handshake itself (a
//!    swallowed strobe has no word to NACK); the transmitter notices
//!    by timeout, with the horizon doubling per consecutive failure
//!    (exponential backoff from the counter-gated delay chain).
//! 3. **Resync** — after `RESYNC_AFTER` consecutive failures of the
//!    same flit the watchdog drains the link (return-to-zero) and
//!    replays; the channel is unavailable for the
//!    `RESYNC_PENALTY`-cycle drain window.
//! 4. **Transient degrade** — after `DEGRADE_AFTER` resyncs on one
//!    stuck flit the channel halves its bandwidth for
//!    `DEGRADE_CYCLES`, the network-level image of I3's degraded
//!    per-transfer pacing.
//! 5. **Permanent failure** — optionally, after
//!    [`ChannelFaults::fail_after_resyncs`] resyncs on one flit the
//!    channel is declared dead: nothing is ever delivered again and
//!    the flow-level progress watchdog is expected to name it.
//!
//! Everything is deterministic: each channel derives its own RNG from
//! the network seed and its `(node, direction)` coordinates, so
//! per-channel draws are independent of traffic on other channels and
//! of the injection stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-word (per-flit, at this abstraction) error process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorProcess {
    /// Independent, identically distributed upsets: each transmitted
    /// flit fails with probability `p`.
    Iid {
        /// Per-flit error probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst process: the medium wanders
    /// between a good state (error probability `p_good`) and a bad
    /// state (`p_bad`), with per-flit transition probabilities. Bursts
    /// arise because `bad_to_good` is small.
    GilbertElliott {
        /// Error probability per flit in the good state.
        p_good: f64,
        /// Error probability per flit in the bad state.
        p_bad: f64,
        /// Probability of switching good → bad per flit.
        good_to_bad: f64,
        /// Probability of switching bad → good per flit.
        bad_to_good: f64,
    },
}

impl ErrorProcess {
    /// A Gilbert–Elliott process with stationary mean error rate
    /// `mean_p`, bursty: the bad state errors at `p_bad` and persists
    /// for `1 / bad_to_good` flits on average.
    ///
    /// # Panics
    ///
    /// Panics if `mean_p` is not in `[0, p_bad]` or `p_bad` is not in
    /// `(0, 1]`.
    pub fn bursty(mean_p: f64, p_bad: f64, bad_to_good: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_bad) && p_bad > 0.0, "p_bad {p_bad} outside (0, 1]");
        assert!(
            (0.0..=p_bad).contains(&mean_p),
            "mean error rate {mean_p} above the bad-state rate {p_bad}"
        );
        // Stationary bad-state occupancy f solves f * p_bad = mean_p;
        // the transition rates then satisfy g2b/(g2b + b2g) = f.
        let f = mean_p / p_bad;
        let good_to_bad = if f >= 1.0 { 1.0 } else { f * bad_to_good / (1.0 - f) };
        ErrorProcess::GilbertElliott {
            p_good: 0.0,
            p_bad,
            good_to_bad: good_to_bad.min(1.0),
            bad_to_good,
        }
    }

    /// The stationary mean per-flit error probability of the process.
    pub fn mean_p(&self) -> f64 {
        match *self {
            ErrorProcess::Iid { p } => p,
            ErrorProcess::GilbertElliott { p_good, p_bad, good_to_bad, bad_to_good } => {
                if good_to_bad + bad_to_good == 0.0 {
                    return p_good;
                }
                let f_bad = good_to_bad / (good_to_bad + bad_to_good);
                p_good * (1.0 - f_bad) + p_bad * f_bad
            }
        }
    }

    /// True if the process can never produce an error (the lossy path
    /// must then be cycle-identical to the loss-free path).
    pub fn is_error_free(&self) -> bool {
        match *self {
            ErrorProcess::Iid { p } => p == 0.0,
            ErrorProcess::GilbertElliott { p_good, p_bad, good_to_bad, .. } => {
                p_good == 0.0 && (p_bad == 0.0 || good_to_bad == 0.0)
            }
        }
    }
}

/// Network-level image of the link protection modes of PR 5: decides
/// what fraction of upsets the receiver *detects* (and therefore
/// NACKs for replay) versus delivers corrupted, and what the
/// protection costs in channel bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelProtection {
    /// No link-level check: every upset is delivered as silent
    /// corruption. Only an end-to-end check can save the payload.
    Off,
    /// Per-slice parity: catches isolated upsets but is blind to the
    /// stale-slice-replay class the chaos-soak campaign exposed
    /// (a replayed slice is self-consistently parity-valid), modelled
    /// as a 90 % detection probability.
    Parity,
    /// Per-word CRC-8: detects everything the fault model can throw
    /// (the campaign measured zero undetected corruptions), at the
    /// cost of one check byte per four payload bytes of serial time.
    Crc8,
}

impl ChannelProtection {
    /// Probability that an upset flit is detected (NACKed + replayed)
    /// rather than delivered corrupted.
    pub fn detect_prob(self) -> f64 {
        match self {
            ChannelProtection::Off => 0.0,
            ChannelProtection::Parity => 0.9,
            ChannelProtection::Crc8 => 1.0,
        }
    }

    /// Bandwidth multiplier on the underlying
    /// [`LinkModel`](crate::LinkModel)'s `flits_per_cycle`: the CRC
    /// check byte rides the serial wire after each 32-bit word
    /// (`32/40`); parity rides a dedicated extra wire and costs no
    /// time.
    pub fn bandwidth_factor(self) -> f64 {
        match self {
            ChannelProtection::Off | ChannelProtection::Parity => 1.0,
            ChannelProtection::Crc8 => 32.0 / 40.0,
        }
    }

    /// Extra physical wires over the unprotected serialized channel
    /// (parity interleaves one odd-parity wire beside the data).
    pub fn extra_wires(self) -> u32 {
        match self {
            ChannelProtection::Off | ChannelProtection::Crc8 => 0,
            ChannelProtection::Parity => 1,
        }
    }

    /// Label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ChannelProtection::Off => "off",
            ChannelProtection::Parity => "parity",
            ChannelProtection::Crc8 => "crc8",
        }
    }
}

// The escalation ladder, proportioned like the gate-level
// controller: fast NACK, 25 % timeout discovery, resync after 4
// straight failures, degrade after 2 resyncs.

/// Cycles for a NACK to fly back and the replay to relaunch (beyond
/// the normal forward latency).
pub(crate) const NACK_LATENCY: u64 = 4;
/// Fraction of *detected* failures that are discovered by timeout
/// instead of NACK (the upset ate the handshake itself).
pub(crate) const TIMEOUT_FRAC: f64 = 0.25;
/// Base timeout horizon, cycles; doubles per consecutive failure.
pub(crate) const BASE_TIMEOUT: u64 = 16;
/// Consecutive failures of one flit before a watchdog resync.
pub(crate) const RESYNC_AFTER: u32 = 4;
/// Cycles the channel is unavailable during a resync drain.
pub(crate) const RESYNC_PENALTY: u64 = 32;
/// Resyncs on one stuck flit before a transient degrade.
pub(crate) const DEGRADE_AFTER: u32 = 2;
/// Cycles a transient degrade (halved bandwidth) lasts.
pub(crate) const DEGRADE_CYCLES: u64 = 512;

/// Seeded dynamic fault configuration for every channel of a network.
/// The escalation ladder it climbs is fixed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFaults {
    /// The per-flit error process.
    pub process: ErrorProcess,
    /// Link protection (decides detection vs. silent corruption).
    pub protection: ChannelProtection,
    /// Resyncs on one stuck flit before the channel fails permanently
    /// (`None`: never).
    pub fail_after_resyncs: Option<u32>,
}

impl ChannelFaults {
    /// The given process and protection, never a permanent failure.
    pub fn new(process: ErrorProcess, protection: ChannelProtection) -> Self {
        ChannelFaults { process, protection, fail_after_resyncs: None }
    }

    /// Enables permanent link failure after `n` resyncs on one flit.
    #[must_use]
    pub fn with_permanent_failure(mut self, n: u32) -> Self {
        self.fail_after_resyncs = Some(n);
        self
    }
}

/// Recovery counters of one channel, the network-level mirror of
/// `sal_link::RecoveryCounts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Upsets the error process produced on delivered-or-replayed
    /// flits (detected + undetected).
    pub errors: u64,
    /// Detected upsets discovered by NACK.
    pub nacks: u64,
    /// Detected upsets discovered by timeout.
    pub timeouts: u64,
    /// Head-of-line retransmissions (= nacks + timeouts).
    pub replays: u64,
    /// Watchdog resync drains.
    pub resyncs: u64,
    /// Transient degrade episodes (halved bandwidth).
    pub degrades: u64,
    /// Cycles spent in the degraded state.
    pub degraded_cycles: u64,
    /// Upsets delivered as silent corruption (protection missed them).
    pub undetected: u64,
    /// The channel failed permanently.
    pub failed: bool,
}

impl RecoveryCounts {
    /// True if nothing ever happened on this channel.
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryCounts::default()
    }

    /// Accumulates `other` into `self` (for network-wide totals;
    /// `failed` becomes a count via [`RecoveryTotals`], so here it
    /// ORs).
    pub fn absorb(&mut self, other: &RecoveryCounts) {
        self.errors += other.errors;
        self.nacks += other.nacks;
        self.timeouts += other.timeouts;
        self.replays += other.replays;
        self.resyncs += other.resyncs;
        self.degrades += other.degrades;
        self.degraded_cycles += other.degraded_cycles;
        self.undetected += other.undetected;
        self.failed |= other.failed;
    }
}

/// Aggregate recovery picture of a whole network run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Sum of all channels' counters (`failed` ORs; see
    /// [`RecoveryTotals::failed_links`] for the count).
    pub counts: RecoveryCounts,
    /// Channels that failed permanently.
    pub failed_links: u64,
}

/// Availability state of a channel: driven by the escalation ladder
/// on lossy channels, or set directly by a scheduled link kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelState {
    /// Normal operation.
    Up,
    /// Watchdog drain in progress until the given cycle.
    Resyncing {
        /// First cycle of normal operation after the drain.
        until: u64,
    },
    /// Transient degrade (halved bandwidth) until the given cycle.
    Degraded {
        /// First cycle of full-bandwidth operation.
        until: u64,
    },
    /// Permanently dead.
    Failed,
}

impl ChannelState {
    /// Short label for watchdog diagnoses and JSON.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ChannelState::Up => "up",
            ChannelState::Resyncing { .. } => "resyncing",
            ChannelState::Degraded { .. } => "degraded",
            ChannelState::Failed => "failed",
        }
    }

    /// Route-choice penalty of this state, in preference order (the
    /// network adds queue depth; `Failed` is effectively infinite).
    pub(crate) fn penalty(self) -> u32 {
        match self {
            ChannelState::Up => 0,
            ChannelState::Degraded { .. } => 64,
            ChannelState::Resyncing { .. } => 256,
            ChannelState::Failed => 1 << 24,
        }
    }
}

/// What the fault process decided for one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Upset {
    /// The flit arrived intact.
    Clean,
    /// Detected upset: the receiver NACKed the word.
    Nacked,
    /// Detected upset that ate the handshake: discovered by timeout.
    TimedOut,
    /// Undetected upset: delivered with the given nonzero payload
    /// bit-flip mask.
    Corrupted(u64),
}

/// The seeded per-channel fault engine: owns the RNG and the
/// Gilbert–Elliott state, produces an [`Upset`] per delivery attempt.
#[derive(Debug)]
pub(crate) struct FaultDice {
    cfg: ChannelFaults,
    rng: StdRng,
    ge_bad: bool,
}

impl FaultDice {
    /// Derives the channel RNG from the network seed and the channel
    /// coordinates (splitmix-style mixing keeps streams independent).
    pub(crate) fn new(cfg: ChannelFaults, network_seed: u64, node: u16, dir: usize) -> Self {
        let mixed = network_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(node) << 3 | dir as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        FaultDice { cfg, rng: StdRng::seed_from_u64(mixed), ge_bad: false }
    }

    pub(crate) fn cfg(&self) -> &ChannelFaults {
        &self.cfg
    }

    /// Rolls the dice for one flit delivery attempt.
    pub(crate) fn roll(&mut self) -> Upset {
        let p = match self.cfg.process {
            ErrorProcess::Iid { p } => p,
            ErrorProcess::GilbertElliott { p_good, p_bad, good_to_bad, bad_to_good } => {
                let flip = if self.ge_bad { bad_to_good } else { good_to_bad };
                if self.rng.gen_bool(flip.clamp(0.0, 1.0)) {
                    self.ge_bad = !self.ge_bad;
                }
                if self.ge_bad {
                    p_bad
                } else {
                    p_good
                }
            }
        };
        if !self.rng.gen_bool(p.clamp(0.0, 1.0)) {
            return Upset::Clean;
        }
        if self.rng.gen_bool(self.cfg.protection.detect_prob()) {
            if self.rng.gen_bool(TIMEOUT_FRAC) {
                Upset::TimedOut
            } else {
                Upset::Nacked
            }
        } else {
            // A single flipped payload bit: enough to falsify any
            // end-to-end check that actually looks at the payload.
            Upset::Corrupted(1u64 << self.rng.gen_range(0..64u32))
        }
    }

    /// Timeout horizon for the `consec`-th consecutive failure:
    /// exponential backoff, capped at 2^6 × base.
    pub(crate) fn timeout_horizon(&self, consec: u32) -> u64 {
        BASE_TIMEOUT << consec.min(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_process_hits_requested_mean() {
        let proc = ErrorProcess::bursty(0.05, 0.5, 0.02);
        assert!((proc.mean_p() - 0.05).abs() < 1e-12, "mean {}", proc.mean_p());
        let mut dice = FaultDice::new(
            ChannelFaults::new(proc, ChannelProtection::Crc8),
            42,
            3,
            1,
        );
        let n = 200_000;
        let errors = (0..n).filter(|_| dice.roll() != Upset::Clean).count();
        let rate = errors as f64 / f64::from(n);
        assert!((rate - 0.05).abs() < 0.01, "sampled error rate {rate}");
    }

    #[test]
    fn bursts_cluster_errors() {
        // With the same mean rate, the GE process must show a much
        // higher probability of back-to-back errors than i.i.d.
        let mean = 0.05;
        let count_pairs = |proc: ErrorProcess| {
            let mut dice =
                FaultDice::new(ChannelFaults::new(proc, ChannelProtection::Crc8), 7, 0, 0);
            let rolls: Vec<bool> = (0..100_000).map(|_| dice.roll() != Upset::Clean).collect();
            rolls.windows(2).filter(|w| w[0] && w[1]).count()
        };
        let iid_pairs = count_pairs(ErrorProcess::Iid { p: mean });
        let ge_pairs = count_pairs(ErrorProcess::bursty(mean, 0.5, 0.02));
        assert!(
            ge_pairs > iid_pairs * 3,
            "bursty pairs {ge_pairs} vs iid pairs {iid_pairs}"
        );
    }

    #[test]
    fn error_free_processes_never_upset() {
        for proc in [
            ErrorProcess::Iid { p: 0.0 },
            ErrorProcess::bursty(0.0, 0.5, 0.1),
        ] {
            assert!(proc.is_error_free());
            let mut dice =
                FaultDice::new(ChannelFaults::new(proc, ChannelProtection::Off), 1, 1, 1);
            assert!((0..10_000).all(|_| dice.roll() == Upset::Clean));
        }
    }

    #[test]
    fn protection_decides_detection() {
        let roll_kinds = |protection: ChannelProtection| {
            let mut dice = FaultDice::new(
                ChannelFaults::new(ErrorProcess::Iid { p: 1.0 }, protection),
                9,
                2,
                3,
            );
            let mut detected = 0;
            let mut corrupt = 0;
            for _ in 0..10_000 {
                match dice.roll() {
                    Upset::Nacked | Upset::TimedOut => detected += 1,
                    Upset::Corrupted(mask) => {
                        assert_ne!(mask, 0, "corruption must flip at least one bit");
                        corrupt += 1;
                    }
                    Upset::Clean => panic!("p = 1 cannot be clean"),
                }
            }
            (detected, corrupt)
        };
        let (d_off, c_off) = roll_kinds(ChannelProtection::Off);
        assert_eq!(d_off, 0);
        assert_eq!(c_off, 10_000);
        let (d_crc, c_crc) = roll_kinds(ChannelProtection::Crc8);
        assert_eq!(c_crc, 0);
        assert_eq!(d_crc, 10_000);
        let (d_par, c_par) = roll_kinds(ChannelProtection::Parity);
        assert!(c_par > 0 && d_par > c_par * 5, "parity split {d_par}/{c_par}");
    }

    #[test]
    fn timeout_backoff_doubles_and_caps() {
        let dice = FaultDice::new(
            ChannelFaults::new(ErrorProcess::Iid { p: 0.5 }, ChannelProtection::Crc8),
            1,
            0,
            0,
        );
        assert_eq!(dice.timeout_horizon(0), 16);
        assert_eq!(dice.timeout_horizon(1), 32);
        assert_eq!(dice.timeout_horizon(3), 128);
        assert_eq!(dice.timeout_horizon(6), 1024);
        assert_eq!(dice.timeout_horizon(60), 1024, "horizon must cap, not overflow");
    }

    #[test]
    fn recovery_counts_absorb_and_quiet() {
        let mut total = RecoveryCounts::default();
        assert!(total.is_quiet());
        let one = RecoveryCounts { errors: 3, nacks: 2, timeouts: 1, replays: 3, ..Default::default() };
        total.absorb(&one);
        total.absorb(&RecoveryCounts { failed: true, ..Default::default() });
        assert_eq!(total.errors, 3);
        assert_eq!(total.replays, 3);
        assert!(total.failed);
        assert!(!total.is_quiet());
    }

    #[test]
    fn channel_seeds_are_independent() {
        let cfg = ChannelFaults::new(ErrorProcess::Iid { p: 0.5 }, ChannelProtection::Crc8);
        let draws = |node: u16, dir: usize| {
            let mut d = FaultDice::new(cfg, 1234, node, dir);
            (0..64).map(|_| d.roll()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1, 2), draws(1, 2), "same coordinates, same stream");
        assert_ne!(draws(1, 2), draws(1, 3), "different dir, different stream");
        assert_ne!(draws(1, 2), draws(2, 2), "different node, different stream");
    }
}
