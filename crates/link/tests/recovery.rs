//! End-to-end error-detection and recovery tests: seeded transient
//! glitches on the serialized data wires must be *detected* by the
//! protection layer (parity or CRC), answered with a NACK, and healed
//! by retransmission — every word delivered exactly once, intact,
//! with the recovery counters recording the episode. The same storm
//! against an unprotected link demonstrably corrupts payloads, which
//! is the whole argument for paying for the check bits.

use proptest::prelude::*;
use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, LinkRun, MeasureOptions, RunFailure};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec, ProtectionMode};

/// Measures the paper point of `family` with `protection` over the
/// default base.
fn run_link(
    family: LinkFamily,
    protection: ProtectionMode,
    words: &[u64],
    opts: &MeasureOptions,
) -> Result<LinkRun, RunFailure> {
    let spec = LinkSpec::builder()
        .family(family)
        .protection(protection)
        .build()
        .expect("the paper points take every protection");
    run_spec(&spec, &LinkConfig::default(), words, opts)
}

fn opts_with(plan: FaultPlan) -> MeasureOptions {
    MeasureOptions {
        timeout: Time::from_us(20),
        fault_plan: Some(plan),
        ..MeasureOptions::default()
    }
}

/// A storm of transient single-bit glitches on one mid-link data
/// segment, spread across the pattern's in-use window so several land
/// on slices actually in flight (the words start flowing a few clock
/// periods after reset, one word cycle per 10 ns switch clock).
///
/// The pulse width matters: the kernel's glitch restores the wire's
/// *pre-upset* value at the end of the window, swallowing any drive
/// that landed inside it. Keeping the width under the slice cadence
/// (~370 ps for I2, ~280 ps for I3) means a glitch corrupts at most
/// one latched slice — the fault class the per-word check is sized
/// for. (A wider upset can swallow a whole word's only data
/// transition and replay the previous word wholesale; no word-local
/// code catches a replayed *valid* word — that residual class is what
/// the chaos campaign's `undetected` bucket exists to count.)
fn data_glitch_storm(path: &str) -> FaultPlan {
    let mut plan = FaultPlan::new(42);
    for k in 0..8u64 {
        plan = plan.glitch(path, Time::from_ns(25 + 9 * k), Time::from_ps(300), 0x08);
    }
    plan
}

#[test]
fn crc_protected_i2_recovers_from_data_glitches() {
    let words = worst_case_pattern(8, 32);
    let r = run_link(
        LinkFamily::PerTransfer,
        ProtectionMode::Crc8,
        &words,
        &opts_with(data_glitch_storm("link.wire.seg_d2")),
    )
    .expect("protected link must survive transient data glitches");
    assert!(r.integrity.is_clean(), "recovery must deliver every word intact: {}", r.integrity);
    let rec = r.recovery.expect("protected run reports recovery counts");
    assert!(
        rec.nacks >= 1 && rec.retries >= 1,
        "the storm must have been detected and retried at least once: {rec}"
    );
    assert_eq!(rec.gave_up, 0, "a transient glitch never exhausts the retry budget: {rec}");
}

#[test]
fn crc_protected_i3_recovers_from_data_glitches() {
    let words = worst_case_pattern(8, 32);
    let r = run_link(
        LinkFamily::PerWord,
        ProtectionMode::Crc8,
        &words,
        &opts_with(data_glitch_storm("link.wire.seg_d2")),
    )
    .expect("protected link must survive transient data glitches");
    assert!(r.integrity.is_clean(), "recovery must deliver every word intact: {}", r.integrity);
    let rec = r.recovery.expect("protected run reports recovery counts");
    assert!(
        rec.nacks >= 1 && rec.retries >= 1,
        "the storm must have been detected and retried at least once: {rec}"
    );
}

#[test]
fn parity_protected_i2_recovers_from_data_glitches() {
    // Parity's coverage is odd bit flips inside a latched slice, so
    // the glitches aim mid-word where slices are latched every
    // ~370 ps (a boundary-swallowing upset would replay a stale but
    // parity-*valid* slice — that class needs the CRC).
    let words = worst_case_pattern(8, 32);
    let mut plan = FaultPlan::new(7);
    for k in 0..3u64 {
        plan = plan.glitch(
            "link.wire.seg_d2",
            Time::from_ns(26 + 20 * k) + Time::from_ps(400),
            Time::from_ps(300),
            0x08,
        );
    }
    let r = run_link(LinkFamily::PerTransfer, ProtectionMode::Parity, &words, &opts_with(plan))
        .expect("parity-protected link must survive single-bit glitches");
    assert!(r.integrity.is_clean(), "{}", r.integrity);
    let rec = r.recovery.expect("protected run reports recovery counts");
    assert!(rec.nacks >= 1, "single-bit flips are exactly what parity catches: {rec}");
}

#[test]
fn unprotected_link_corrupts_under_the_same_storm() {
    // The known-bad companion: the identical storm against the bare
    // link. Handshake wires are untouched so the run usually
    // completes — with wrong payloads only the scoreboard sees.
    let words = worst_case_pattern(8, 32);
    match run_link(
        LinkFamily::PerTransfer,
        ProtectionMode::Off,
        &words,
        &opts_with(data_glitch_storm("link.wire.seg_d2")),
    ) {
        Ok(r) => {
            assert!(
                !r.integrity.is_clean(),
                "the storm was tuned to land on in-flight slices; an unprotected run \
                 sailing through clean means the protected tests above prove nothing: {}",
                r.integrity
            );
            assert!(r.recovery.is_none(), "no recovery layer is built when protection is off");
        }
        // A glitch raced into a latch window can also wedge the
        // four-phase protocol outright; a diagnosed deadlock is an
        // equally damning outcome for the bare link.
        Err(RunFailure::Deadlock { .. }) => {}
        Err(other) => panic!("unexpected failure: {other}"),
    }
}

#[test]
fn i3_spurious_strobe_heals_by_plain_retry() {
    // A glitch on the idle VALID wire injects a spurious slice strobe,
    // so the next burst assembles off-by-one and fails its CRC. The
    // checker's local consumption completes the word handshake, and
    // that acknowledge clears the deserializer's strobe pipeline —
    // realigning it as a side effect — so one NACK-driven
    // retransmission is enough; no resync, no degrade.
    let words = worst_case_pattern(8, 32);
    let plan = FaultPlan::new(9).glitch("link.wire.seg_v2", Time::from_ns(42), Time::from_ps(400), 1);
    let r = run_link(LinkFamily::PerWord, ProtectionMode::Crc8, &words, &opts_with(plan))
        .expect("a single spurious strobe is healed by retransmission");
    assert!(r.integrity.is_clean(), "all words must still arrive intact: {}", r.integrity);
    let rec = r.recovery.expect("protected run reports recovery counts");
    assert!(rec.nacks >= 1, "the misassembled word must have failed its CRC: {rec}");
    assert_eq!(rec.resyncs, 0, "the ack-driven pipeline clear realigns without a drain: {rec}");
}

#[test]
fn i3_swallowed_strobe_forces_a_resync() {
    // The nastier strobe fault: a glitch window *covering* a valid
    // pulse cancels its edges, so the deserializer under-counts and
    // never presents the word — no NACK is possible because the
    // checker never sees a request. The transmitter's ring-oscillator
    // watchdog times the word out and retries; the retry lands on the
    // leftover half-assembled state, misaligns, and fails its CRC.
    // Two consecutive failures trip the watchdog resync: the
    // return-to-zero drain of the link core realigns the
    // deserializer, the next retry completes, and the controller
    // sticks in degraded per-transfer-ack pacing for the rest of the
    // run — the full escalation ladder in one episode.
    let words = worst_case_pattern(8, 32);
    let plan = FaultPlan::new(9).glitch(
        "link.wire.seg_v2",
        Time::from_ns(47) + Time::from_ps(200),
        Time::from_ps(600),
        1,
    );
    let r = run_link(LinkFamily::PerWord, ProtectionMode::Crc8, &words, &opts_with(plan))
        .expect("the resync must realign the link and let the run finish");
    assert!(r.integrity.is_clean(), "all words must still arrive intact: {}", r.integrity);
    let rec = r.recovery.expect("protected run reports recovery counts");
    assert!(rec.timeouts >= 1, "a swallowed strobe is only observable as a timeout: {rec}");
    assert!(rec.resyncs >= 1, "the misaligned retry must escalate to a resync: {rec}");
    assert!(rec.degraded, "the first resync permanently degrades the I3 link's pacing: {rec}");
    assert_eq!(rec.gave_up, 0, "the escalation ladder recovers well within the budget: {rec}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The tentpole property (satellite #4): a seeded transient
    /// glitch on any protected data segment, at any time, never gets
    /// a corrupted word past a CRC-protected I3 link — and never
    /// costs a word either (a single upset is always within the retry
    /// budget). Harmless cases (glitch lands between bursts) pass
    /// trivially; the storm tests above pin down cases known to hit.
    #[test]
    fn crc_protected_i3_never_corrupts_under_data_glitches(
        seg in 0usize..5,
        at_ns in 40u64..400,
        bit in 0u32..8,
        width_ps in 120u64..350,
    ) {
        let words = worst_case_pattern(6, 32);
        let plan = FaultPlan::new(1).glitch(
            &format!("link.wire.seg_d{seg}"),
            Time::from_ns(at_ns),
            Time::from_ps(width_ps),
            1u64 << bit,
        );
        let r = run_link(LinkFamily::PerWord, ProtectionMode::Crc8, &words, &opts_with(plan));
        match r {
            Ok(r) => {
                prop_assert!(
                    r.integrity.is_clean(),
                    "seg_d{} at {}ns ({}ps wide, bit {}): {}",
                    seg, at_ns, width_ps, bit, r.integrity
                );
            }
            Err(e) => prop_assert!(
                false,
                "seg_d{} at {}ns ({}ps wide, bit {}): run failed: {}",
                seg, at_ns, width_ps, bit, e
            ),
        }
    }
}
