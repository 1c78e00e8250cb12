//! Transmit-side retransmission controller.
//!
//! Sits between the sync→async interface and the serializer. The
//! interface FIFO's head register already holds the in-flight word
//! until the word handshake completes, so it *is* the replay
//! register: a retry is simply re-raising the serializer's request
//! while the upstream request (and therefore the word) is held.
//!
//! Failure detection is two-pronged:
//!
//! * **NACK** — the receive-side checker consumed a corrupted word
//!   and pulsed the dedicated backward wire. The core's word
//!   acknowledge arrives *before* the verdict is knowable (for I2 it
//!   completes once the last slice enters the pipeline, while the
//!   word is still in flight; for I3 the per-word acknowledge is
//!   launched at burst arrival, before the check), so the controller
//!   holds the upstream completion through a matched-delay *verdict
//!   guard* sized to cover the worst-case flight-plus-check-plus-NACK
//!   return. A NACK inside the window classifies the word as failed
//!   while it is still pinned at the FIFO head; silence past the
//!   guard is a good completion.
//! * **Timeout** — a ring oscillator gated by the waiting condition
//!   clocks an asynchronous ripple counter; a thermometer-coded
//!   failure count selects which counter tap arms the timeout, so
//!   each consecutive retry doubles the horizon (exponential backoff
//!   from a counter-gated delay chain). This catches words that never
//!   complete at all — a wedged handshake, a glitch-eaten strobe.
//!
//! Escalation is bounded: after `RESYNC_RETRIES` consecutive failures
//! the controller executes a watchdog-triggered resync — a four-phase
//! return-to-zero drain of every David-cell stage along the link (the
//! serializer core, wire buffers, deserializer and checker see their
//! reset held low for the drain pulse) — and for the word-level link
//! I3 it also degrades permanently to per-transfer-ack pacing. After
//! `MAX_RETRIES` consecutive failures it gives up on the word:
//! completes the upstream handshake and lets the scoreboard account
//! the loss — delivery stays at-most-once-correct, never silently
//! corrupt.

use sal_cells::CircuitBuilder;
use sal_des::{SignalId, Value};

/// Observability taps into the recovery layer, exposed through
/// [`LinkHandles`](crate::LinkHandles) so the measurement layer can
/// count episodes without knowing the netlist internals.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySignals {
    /// The NACK as heard at the transmitter (one pulse per corrupted
    /// word the checker consumed).
    pub nack: SignalId,
    /// The backoff flag: high for the duration of each failure
    /// episode (one rising edge per retransmission attempt).
    pub retry: SignalId,
    /// The timeout detector output (one rising edge per timed-out
    /// attempt).
    pub timeout: SignalId,
    /// The resync drain pulse (one rising edge per watchdog-triggered
    /// link drain).
    pub resync: SignalId,
    /// I3 only: the sticky degrade flag — once high, the link paces
    /// requests per-transfer-ack style for the rest of its life.
    pub degraded: Option<SignalId>,
    /// The give-up flag: high while a word is being abandoned once its
    /// bounded retries are exhausted.
    pub gave_up: SignalId,
}

/// Ports of the retransmission controller.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPorts {
    /// Request toward the serializer (the upstream request, gated off
    /// during backoff and give-up).
    pub req_down: SignalId,
    /// Word acknowledge toward the sync→async interface (a *good*
    /// completion, or a give-up).
    pub ack_up: SignalId,
    /// The resync drain pulse — the assembly ANDs its inverse into
    /// the link core's reset.
    pub resync: SignalId,
    /// Observability taps (see [`RecoverySignals`]).
    pub signals: RecoverySignals,
}

/// Consecutive failures of one word before the transmitter gives up,
/// completes the upstream handshake and lets the scoreboard account
/// the word as lost — never silently corrupt.
const MAX_RETRIES: usize = 6;

/// Consecutive failures of one word after which the transmitter
/// executes a watchdog-triggered resync (a four-phase return-to-zero
/// drain of every David-cell stage along the link) and, for I3,
/// permanently degrades to per-transfer-ack pacing.
const RESYNC_RETRIES: usize = 2;

/// Base tap of the retransmission-timeout ripple counter: the first
/// timeout fires after `2^TIMEOUT_TAP` periods of the timer's ring
/// oscillator and each consecutive retry selects the next tap,
/// doubling the horizon (exponential backoff from a counter-gated
/// delay chain, not wall time) up to `2^(TIMEOUT_TAP + MAX_RETRIES - 1)`.
const TIMEOUT_TAP: usize = 6;

/// Stage count of the timer's gated ring oscillator.
const TIMER_OSC_STAGES: usize = 13;

/// Buffer count of the verdict guard: the delay between the core's
/// word acknowledge and the upstream completion, matched to cover the
/// residual pipeline flight, the receive-side check and the NACK's
/// return trip (measured ≈ 530 ps at nominal delays; 48 buffers give
/// a better-than-2× margin, and both sides of the race are plain gate
/// chains so uniform derating preserves the margin).
const VERDICT_BUFS: usize = 48;

/// Buffer count of the resync drain pulse: long enough for the
/// gated-off reset to propagate through every David-cell stage along
/// the link and back.
const DRAIN_BUFS: usize = 16;

/// Extra hold after the drain pulse clears before a retry may launch
/// (lets the released resets settle).
const DRAIN_TAIL_BUFS: usize = 8;

/// Buffer count of the degraded-mode pacing chain: a conservative
/// per-transfer-style spacing between word requests (covers a full
/// wire round trip at the default geometry).
const PACE_BUFS: usize = 24;

/// Builds the retransmission controller in scope `name`.
///
/// `req_up` is the interface's word request; `ack_core` the
/// serializer's word acknowledge; `nack_heard` the (pre-declared)
/// NACK as it arrives on the backward wire; `rstn` the *global* reset
/// — the controller must survive the resyncs it triggers. `degrade`
/// selects the I3 behaviour (sticky degrade to paced requests after
/// the first resync).
pub(crate) fn build_retry(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    req_up: SignalId,
    ack_core: SignalId,
    nack_heard: SignalId,
    rstn: SignalId,
    degrade: bool,
) -> RetryPorts {
    b.push_scope(name);
    let one = b.tie("one", Value::one(1));
    // Pre-declared flags: the logic computing their set/clear inputs
    // reads them back.
    let req_down = b.net("req_down", 1);
    let ack_up = b.net("ack_up", 1);
    let backoff = b.net("backoff", 1);
    let resync = b.net("resync", 1);

    let nack_n = b.inv("nack_n", nack_heard);
    let ack_n = b.inv("ack_n", ack_core);
    let nreq_up = b.inv("nreq_up", req_up);
    let nbackoff = b.inv("nbackoff", backoff);

    // Good/failed classification. The word stays pinned at the FIFO
    // head (request held, no upstream ack) until the verdict guard
    // expires, so a NACK arriving while the request is still up always
    // refers to the held word and can trigger a clean retransmission.
    //
    // `ack_ok` demands the *live* acknowledge alongside its guarded
    // copy: on a good word the four-phase core holds `ack_core` high
    // until the upstream request withdraws, so both terms overlap once
    // the guard delay expires; on a failure the backoff's
    // return-to-zero has already dropped the acknowledge by the time
    // the stale pulse drains out of the guard chain, and a delay-line
    // pulse still in flight is invisible to any latch-based interlock
    // — the live term is the only gate that reliably kills it.
    let ack_guard = b.buf_chain("ack_guard", ack_core, VERDICT_BUFS);
    let ack_ok0 = b.and3("ack_ok0", ack_guard, ack_core, nack_n);
    let ack_ok = b.and2("ack_ok", ack_ok0, nbackoff);
    let fail_nack = b.and2("fail_nack", nack_heard, req_down);

    // Timeout: gated ring oscillator + ripple counter, both cleared
    // whenever the controller is not actively waiting on the core.
    // `rstn` pins the oscillator's enable to a defined low during
    // reset — a NAND-closed ring only self-initialises while its
    // enable is low, and the request/acknowledge terms are still X
    // until the link's reset propagates.
    let waiting = b.and3("waiting", req_down, ack_n, rstn);
    let tosc = b.ring_oscillator_stages("tosc", waiting, TIMER_OSC_STAGES);
    let cnt_rstn = b.and2("cnt_rstn", rstn, waiting);
    let taps = b.ripple_counter("cnt", tosc, Some(cnt_rstn), TIMEOUT_TAP + MAX_RETRIES);

    // Consecutive-failure count: a thermometer shift register clocked
    // by each backoff episode, cleared by any completed handshake.
    let ack_up_n = b.inv("ack_up_n", ack_up);
    let rc_rstn = b.and2("rc_rstn", rstn, ack_up_n);
    let rc = b.shift_register("rc", one, backoff, Some(rc_rstn), MAX_RETRIES);

    // Tap selection: failure count j arms tap `TIMEOUT_TAP + j`, so
    // every consecutive retry waits twice as long before timing out.
    let mut armed = Vec::with_capacity(MAX_RETRIES);
    for j in 0..MAX_RETRIES {
        let sel = if j == 0 {
            b.inv("sel0", rc[0])
        } else {
            let hi_n = b.inv(&format!("nrc{j}"), rc[j]);
            b.and2(&format!("sel{j}"), rc[j - 1], hi_n)
        };
        armed.push(b.and2(&format!("arm{j}"), sel, taps[TIMEOUT_TAP + j]));
    }
    let timeout = b.or_tree("timeout", &armed);

    // Watchdog resync: after `RESYNC_RETRIES` consecutive failures,
    // pulse the drain. The set arm drops once the delayed copy comes
    // back (the David cell is set-dominant), letting the clear win;
    // the tail keeps the backoff held until the released resets have
    // settled.
    let drain_done = b.buf_chain("drain", resync, DRAIN_BUFS);
    let rs_trig = b.and2("rs_trig", backoff, rc[RESYNC_RETRIES - 1]);
    let ndrain = b.inv("ndrain", drain_done);
    let rs_set = b.and2("rs_set", rs_trig, ndrain);
    b.david_cell_into("resync", resync, rs_set, drain_done, Some(rstn), false);
    let rs_tail = b.buf_chain("rs_tail", resync, DRAIN_TAIL_BUFS);
    let hold = b.or2("rs_hold", resync, rs_tail);
    let hold_n = b.inv("rs_hold_n", hold);

    // Bounded retries: give up, complete the handshake upstream and
    // let the scoreboard account the lost word.
    let gu_set = b.and2("gu_set", backoff, rc[MAX_RETRIES - 1]);
    let giveup = b.david_cell("giveup", gu_set, nreq_up, Some(rstn), false);

    // The backoff episode flag: set by either failure kind, cleared
    // once the core has returned to zero, any drain has settled *and*
    // the verdict guard has drained — the guard trails the acknowledge
    // by its full delay, and releasing the backoff while the failed
    // word's guard is still high would let `ack_ok` fire a spurious
    // good-completion for a word that was just NACKed.
    let fail_any = b.or2("fail_any", fail_nack, timeout);
    let nguard = b.inv("nguard", ack_guard);
    let quiet0 = b.and3("retry_ok", ack_n, nack_n, hold_n);
    let quiet = b.and2("retry_quiet", quiet0, nguard);
    b.david_cell_into("backoff", backoff, fail_any, quiet, Some(rstn), false);

    let ngiveup = b.inv("ngiveup", giveup);
    let req_core = b.and3("req_core", req_up, nbackoff, ngiveup);
    let (req_out, degraded) = if degrade {
        // Sticky degrade to per-transfer-ack pacing: once the first
        // resync fires, every request crawls through the pace chain.
        let zero = b.tie("zero", Value::zero(1));
        let dg = b.david_cell("degraded", rs_trig, zero, Some(rstn), false);
        let slow = b.buf_chain("pace", req_core, PACE_BUFS);
        (b.mux2("req_sel", dg, req_core, slow), Some(dg))
    } else {
        (req_core, None)
    };
    b.buf_into("req_drv", req_down, req_out);

    let ack_up_core = b.or2("ack_up_core", ack_ok, giveup);
    b.buf_into("ack_up_drv", ack_up, ack_up_core);
    b.pop_scope();

    RetryPorts {
        req_down,
        ack_up,
        resync,
        signals: RecoverySignals {
            nack: nack_heard,
            retry: backoff,
            timeout,
            resync,
            degraded,
            gave_up: giveup,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_des::{Simulator, Time};
    use sal_tech::St012Library;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Rig {
        sim: Simulator,
        req_up: SignalId,
        ack_core: SignalId,
        nack: SignalId,
        ports: RetryPorts,
    }

    fn rig(degrade: bool) -> Rig {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let req_up = b.input("req_up", 1);
        let ack_core = b.input("ack_core", 1);
        let nack = b.input("nack", 1);
        let ports = build_retry(&mut b, "retry", req_up, ack_core, nack, rstn, degrade);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))]);
        Rig { sim, req_up, ack_core, nack, ports }
    }

    /// Counts rising edges of `sig` — catches pulses shorter than any
    /// polling interval.
    fn rising(sim: &mut Simulator, name: &str, sig: SignalId) -> Rc<Cell<u64>> {
        let count = Rc::new(Cell::new(0u64));
        let c = count.clone();
        let mut prev = false;
        sim.monitor(name, sig, move |_t, v| {
            let high = v.is_high();
            if high && !prev {
                c.set(c.get() + 1);
            }
            prev = high;
        });
        count
    }

    #[test]
    fn clean_word_passes_straight_through() {
        let mut r = rig(false);
        r.sim.stimulus(
            r.req_up,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))],
        );
        r.sim.stimulus(r.nack, &[(Time::ZERO, Value::zero(1))]);
        // The "core" acks shortly after seeing the request.
        r.sim.stimulus(
            r.ack_core,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(3), Value::one(1))],
        );
        // The upstream acknowledge waits out the verdict guard (the
        // NACK-or-silence window) before completing.
        r.sim.run_until(Time::from_ns(4)).unwrap();
        assert!(r.sim.value(r.ports.req_down).is_high(), "request forwarded");
        assert!(r.sim.value(r.ports.ack_up).is_low(), "completion held for the verdict window");
        r.sim.run_until(Time::from_ns(7)).unwrap();
        assert!(r.sim.value(r.ports.ack_up).is_high(), "good completion acked upstream");
        assert!(r.sim.value(r.ports.signals.retry).is_low(), "no backoff episode");
    }

    #[test]
    fn nack_triggers_a_retry_pulse() {
        let mut r = rig(false);
        r.sim.stimulus(
            r.req_up,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))],
        );
        // A failed word: NACK leads, ACK completes, both then return
        // to zero as the four-phase protocol drains.
        r.sim.stimulus(
            r.nack,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ns(3), Value::one(1)),
                (Time::from_ns(5), Value::zero(1)),
            ],
        );
        r.sim.stimulus(
            r.ack_core,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ps(3200), Value::one(1)),
                (Time::from_ps(4600), Value::zero(1)),
            ],
        );
        let mut saw_backoff = false;
        let mut req_dropped = false;
        let flag = r.ports.signals.retry;
        let req = r.ports.req_down;
        let mut t = Time::from_ns(3);
        while t < Time::from_ns(8) {
            r.sim.run_until(t).unwrap();
            saw_backoff |= r.sim.value(flag).is_high();
            if saw_backoff {
                req_dropped |= r.sim.value(req).is_low();
            }
            t += Time::from_ps(100);
        }
        assert!(saw_backoff, "NACK-classified completion raised the backoff flag");
        assert!(req_dropped, "request withdrawn for the return-to-zero retry");
        r.sim.run_until(Time::from_ns(10)).unwrap();
        assert!(r.sim.value(flag).is_low(), "backoff self-clears once the core is quiet");
        assert!(r.sim.value(req).is_high(), "request re-raised: the retry");
        assert!(r.sim.value(r.ports.ack_up).is_low(), "failed word was not acked upstream");
    }

    #[test]
    fn wedged_handshake_times_out_resyncs_and_gives_up() {
        // The fixed policy: first timeout after 2^6 oscillator
        // periods, doubling per retry; resync from the second failure
        // on; give up after the sixth, ≈1.2 µs in.
        let mut r = rig(false);
        let timeouts = rising(&mut r.sim, "timeouts", r.ports.signals.timeout);
        let resyncs = rising(&mut r.sim, "resyncs", r.ports.resync);
        // Raise the request at 1 ns; upstream withdraws it (as the
        // interface would on seeing the give-up ack) at 1.6 µs, far
        // past the whole escalation.
        r.sim.stimulus(
            r.req_up,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ns(1), Value::one(1)),
                (Time::from_ns(1600), Value::zero(1)),
            ],
        );
        r.sim.stimulus(r.nack, &[(Time::ZERO, Value::zero(1))]);
        // The core never answers: a wedged link.
        r.sim.stimulus(r.ack_core, &[(Time::ZERO, Value::zero(1))]);
        let mut gave_up = false;
        let mut t = Time::from_ns(1);
        while t < Time::from_ns(1500) && !gave_up {
            r.sim.run_until(t).unwrap();
            gave_up = r.sim.value(r.ports.signals.gave_up).is_high();
            t += Time::from_ns(1);
        }
        assert!(gave_up, "bounded retries ended in a give-up");
        assert_eq!(timeouts.get(), MAX_RETRIES as u64, "one timeout per attempt");
        assert_eq!(
            resyncs.get(),
            (MAX_RETRIES - RESYNC_RETRIES + 1) as u64,
            "a watchdog resync from the second failure on"
        );
        // Let the or2+buffer behind the give-up flag settle before
        // sampling the upstream acknowledge.
        r.sim.run_until(t + Time::from_ns(1)).unwrap();
        assert!(r.sim.value(r.ports.ack_up).is_high(), "give-up completes the upstream handshake");
        // Upstream withdraws at 1.6 µs; the give-up must clear for
        // the next word.
        r.sim.run_until(Time::from_ns(1620)).unwrap();
        assert!(r.sim.value(r.ports.signals.gave_up).is_low(), "give-up clears on withdrawal");
        assert!(r.sim.value(r.ports.ack_up).is_low());
    }

    #[test]
    fn degrade_flag_is_sticky_and_paces_requests() {
        let mut r = rig(true);
        let dg = r.ports.signals.degraded.expect("I3 controller exposes the degrade flag");
        r.sim.stimulus(
            r.req_up,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))],
        );
        r.sim.stimulus(r.nack, &[(Time::ZERO, Value::zero(1))]);
        r.sim.stimulus(r.ack_core, &[(Time::ZERO, Value::zero(1))]);
        let mut t = Time::from_ns(1);
        while t < Time::from_ns(400) && !r.sim.value(dg).is_high() {
            r.sim.run_until(t).unwrap();
            t += Time::from_ps(200);
        }
        assert!(r.sim.value(dg).is_high(), "first resync sets the degrade flag");
        // It never clears — even after the episode fully completes.
        r.sim.run_until(t + Time::from_ns(50)).unwrap();
        assert!(r.sim.value(dg).is_high(), "degrade is sticky");
    }
}
