//! The word-level-acknowledgement deserializer (paper Fig 8b, link I3).
//!
//! A shift-register receiver: every `VALID` strobe shifts the incoming
//! slice into an `m/n`-deep word-wide shift register, while a single
//! '1' walks down a one-bit shift register of the same length. When
//! the '1' reaches the end the whole word is present and `REQOUT` is
//! raised to the async→sync interface; the interface's acknowledge
//! clears the pulse register (removing `REQOUT`) and sets the per-word
//! acknowledge wire back to the transmitter, which is released again
//! by the first strobe of the next burst.

use sal_cells::CircuitBuilder;
use sal_des::{SignalId, Value};

use crate::LinkConfig;

/// Ports of the word-level deserializer.
#[derive(Debug, Clone, Copy)]
pub struct WordDeserializerPorts {
    /// Rebuilt word to the downstream interface.
    pub dout: SignalId,
    /// Word-level request downstream.
    pub reqout: SignalId,
    /// Per-word acknowledge wire back to the transmitter.
    pub ack_back: SignalId,
}

/// Builds the word-level deserializer in scope `name`.
///
/// * `din`/`valid` — slice data and strobe from the wire.
/// * `ackin` — word acknowledge from the async→sync interface.
pub fn build_word_deserializer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    valid: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> WordDeserializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    // Data shift register: slice 0 arrives first and ends in the last
    // stage, so the last stage holds the word's low bits.
    // Static-timing capture: each strobe edge clocks `din` into the
    // shift register, so the slice must be stable before `valid`.
    b.sim().register_capture(din, valid);
    let stages = b.shift_register("sh", din, valid, Some(rstn), k);
    let ordered: Vec<SignalId> = stages.iter().rev().copied().collect();
    let dout = b.concat("dout", &ordered);

    // One-bit pulse shift register, cleared by the acknowledge. The
    // clear is a one-shot pulse on the acknowledge's *rising* edge
    // (edge detector: ack ∧ ¬ack-delayed): an interface that holds its
    // acknowledge high for a long time must not wipe the next word's
    // arriving pulses.
    let one = b.tie("one", Value::one(1));
    let nack = b.inv("nack", ackin);
    let ack_d = b.buf_chain("ack_d", ackin, 4);
    let nack_d = b.inv("nack_d", ack_d);
    let clear_pulse = b.and2("clear_pulse", ackin, nack_d);
    let nclear = b.inv("nclear", clear_pulse);
    let p_rstn = b.and2("p_rstn", rstn, nclear);
    let pulses = b.shift_register("p", one, valid, Some(p_rstn), k);
    // Gate the request on the acknowledge having returned to zero, so
    // a new word arriving while a slow interface still holds the
    // previous acknowledge high does not violate the four-phase
    // protocol (request must only rise when acknowledge is low).
    //
    // `served` closes a delay-sensitive window: between the
    // acknowledge's return to zero (interface-paced) and the pulse
    // register's actual clearing (our own reset path), `pulses[k-1]`
    // is still high and the request would re-rise for a word the
    // interface already took — a duplicate delivery. The guard is set
    // with the clear one-shot and released only once the pulse
    // register is visibly empty, making the handoff insensitive to
    // how slow the clear path is relative to the interface.
    let npulse = b.inv("npulse", pulses[k - 1]);
    let served = b.david_cell("served", clear_pulse, npulse, Some(rstn), false);
    let nserved = b.inv("nserved", served);
    let reqout = b.and3("reqout", pulses[k - 1], nack, nserved);

    // Word acknowledge back to the transmitter: set by the interface
    // taking the word (the acknowledge's rising edge — the level may
    // stay high long into the next burst and must not re-trigger),
    // cleared by the next burst's first strobe.
    let ack_back = b.david_cell("ack_back", clear_pulse, valid, Some(rstn), false);

    b.pop_scope();
    WordDeserializerPorts { dout, reqout, ack_back }
}

/// Builds the **demux-style** word receiver: a one-hot token ring
/// advanced at each strobe fall selects which slice register latches,
/// so only one register switches per strobe (the alternative the
/// paper's Fig 14 discussion compares the shift register against).
pub fn build_word_deserializer_demux(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    valid: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> WordDeserializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    // Slice-select ring advanced at each strobe fall; slice i latches
    // while strobe ∧ token_i.
    let nvalid = b.inv("nvalid", valid);
    let tokens = b.ring_counter("sel", nvalid, Some(rstn), k);
    let regs: Vec<SignalId> = (0..k)
        .map(|i| {
            let le = b.and2(&format!("le{i}"), valid, tokens[i]);
            // Static-timing capture: the selected latch closes on the
            // strobe fall; the slice must be there first.
            b.sim().register_capture(din, le);
            b.dlatch(&format!("reg{i}"), din, le, None)
        })
        .collect();
    let dout = b.concat("dout", &regs);

    // Word-complete flag: sample the last token at each strobe fall;
    // cleared by a one-shot pulse on the interface acknowledge.
    let ack_d = b.buf_chain("ack_d", ackin, 4);
    let nack_d = b.inv("nack_d", ack_d);
    let clear_pulse = b.and2("clear_pulse", ackin, nack_d);
    let nclear = b.inv("nclear", clear_pulse);
    let done_rstn = b.and2("done_rstn", rstn, nclear);
    let done = b.dff("done", tokens[k - 1], nvalid, Some(done_rstn));
    let nack = b.inv("nack", ackin);
    // Same served guard as the shift-register receiver: `done` clears
    // through our (possibly slow) reset path while the interface's
    // acknowledge returns to zero at its own pace — without the guard
    // the request re-rises for an already-taken word.
    let ndone = b.inv("ndone", done);
    let served = b.david_cell("served", clear_pulse, ndone, Some(rstn), false);
    let nserved = b.inv("nserved", served);
    let reqout = b.and3("reqout", done, nack, nserved);

    let ack_back = b.david_cell("ack_back", clear_pulse, valid, Some(rstn), false);

    b.pop_scope();
    WordDeserializerPorts { dout, reqout, ack_back }
}

/// Builds the **early-acknowledge** word receiver — the paper's future
/// work ("further improvements to the upper bound throughput could be
/// achieved by earlier acknowledging"): the rebuilt word is copied
/// into a holding register the moment the last slice arrives and the
/// per-word acknowledge returns immediately, so the transmitter's next
/// burst overlaps the receiver's interface handoff. Backpressure is
/// preserved: if the holding register is still occupied, the copy —
/// and therefore the acknowledge — waits.
pub fn build_word_deserializer_early(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    valid: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> WordDeserializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    // Shift-register front end, exactly as the baseline Fig 8b.
    b.sim().register_capture(din, valid);
    let stages = b.shift_register("sh", din, valid, Some(rstn), k);
    let ordered: Vec<SignalId> = stages.iter().rev().copied().collect();
    let word_raw = b.concat("word_raw", &ordered);

    // Pulse register marking word arrival; cleared when the word is
    // copied into the holding register (NOT by the interface ack).
    let one = b.tie("one", sal_des::Value::one(1));
    let hold_full = b.net("hold_full", 1);
    let hold_free = b.inv("hold_free", hold_full);
    let copy_clr = b.net("copy_clr", 1);
    let ncopy_clr = b.inv("ncopy_clr", copy_clr);
    let p_rstn = b.and2("p_rstn", rstn, ncopy_clr);
    let pulses = b.shift_register("p", one, valid, Some(p_rstn), k);

    // Copy window: word present and the holding register free.
    let copy = b.and2("copy", pulses[k - 1], hold_free);
    let dout = b.dlatch("hold", word_raw, copy, None);
    // Delayed copy closes the loop: clears the pulse register (ending
    // the copy window) and marks the holding register occupied.
    let copy_d = b.buf_chain("copy_d", copy, 3);
    b.buf_into("copy_clr_drv", copy_clr, copy_d);

    // Holding-register occupancy: set by the copy, cleared by a
    // one-shot on the interface acknowledge.
    let ack_d = b.buf_chain("ack_d", ackin, 4);
    let nack_d = b.inv("nack_d", ack_d);
    let took = b.and2("took", ackin, nack_d);
    b.david_cell_into("hold_sr", hold_full, copy_d, took, Some(rstn), false);

    // Downstream handshake from the holding register, with the served
    // guard (see the shift-register receiver): the request must not
    // re-rise between the acknowledge's fall and `hold_full` actually
    // clearing through the David cell.
    let nack = b.inv("nack", ackin);
    let served = b.david_cell("served", took, hold_free, Some(rstn), false);
    let nserved = b.inv("nserved", served);
    let reqout = b.and3("reqout", hold_full, nack, nserved);

    // EARLY acknowledge: returned at the copy, not at the interface
    // handshake; cleared by the next burst's first strobe.
    let ack_back = b.david_cell("ack_back", copy_d, valid, Some(rstn), false);

    b.pop_scope();
    WordDeserializerPorts { dout, reqout, ack_back }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{attach_consumer, attach_producer, HsConsumer, HsProducer};
    use crate::word_serializer::build_word_serializer;
    use sal_des::{Simulator, Time};
    use sal_tech::St012Library;

    type BuildRx = fn(
        &mut CircuitBuilder<'_>,
        &str,
        &LinkConfig,
        SignalId,
        SignalId,
        SignalId,
        SignalId,
    ) -> WordDeserializerPorts;

    /// Word serializer wired straight into a word receiver variant,
    /// with a handshake consumer standing in for the async→sync
    /// interface.
    fn round_trip_with(
        build_rx: BuildRx,
        cfg: &LinkConfig,
        words: Vec<u64>,
        ack_delay: Time,
    ) -> Vec<u64> {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let ack_back_wire = b.net("ack_back", 1);
        let ser = build_word_serializer(&mut b, "wser", cfg, din, reqin, ack_back_wire, rstn);
        let ackin = b.input("ackin", 1);
        let des = build_rx(&mut b, "wdes", cfg, ser.dout, ser.valid, ackin, rstn);
        b.buf_into("ab_loop", ack_back_wire, des.ack_back);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
        );
        let (p, _) = HsProducer::new(reqin, din, ser.ackout, cfg.flit_width, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(des.reqout, des.dout, ackin);
        let c = c.with_ack_delay(ack_delay);
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_us(2)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        got
    }

    fn round_trip(cfg: &LinkConfig, words: Vec<u64>, ack_delay: Time) -> Vec<u64> {
        round_trip_with(build_word_deserializer, cfg, words, ack_delay)
    }

    #[test]
    fn word_round_trip_worst_case() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(4, 32);
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn word_round_trip_many() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> =
            (0..24).map(|i| (0x0F0F_0F0Fu64.wrapping_add(i * 0x0101_0101)) & 0xFFFF_FFFF).collect();
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn slow_interface_throttles_words() {
        let cfg = LinkConfig::default();
        let words = vec![0x1111_2222, 0x3333_4444, 0x5555_6666];
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ns(15)), words);
    }

    #[test]
    fn two_slice_words() {
        let cfg = LinkConfig { slice_width: 16, ..LinkConfig::default() };
        let words = vec![0xFACE_B00C, 0x0BAD_F00D];
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn demux_receiver_round_trip() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(6, 32);
        assert_eq!(
            round_trip_with(build_word_deserializer_demux, &cfg, words.clone(), Time::from_ps(60)),
            words
        );
    }

    #[test]
    fn demux_receiver_tolerates_slow_interface() {
        let cfg = LinkConfig::default();
        let words = vec![0x0102_0304, 0x0506_0708, 0x090A_0B0C];
        assert_eq!(
            round_trip_with(build_word_deserializer_demux, &cfg, words.clone(), Time::from_ns(12)),
            words
        );
    }

    #[test]
    fn early_ack_receiver_round_trip() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(6, 32);
        assert_eq!(
            round_trip_with(build_word_deserializer_early, &cfg, words.clone(), Time::from_ps(60)),
            words
        );
    }

    #[test]
    fn early_ack_receiver_backpressures_on_full_holding_register() {
        // A very slow interface: the holding register stays full, the
        // copy waits, the acknowledge is withheld, nothing is lost.
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=5).map(|i| i * 0x1111_1111).collect();
        assert_eq!(
            round_trip_with(build_word_deserializer_early, &cfg, words.clone(), Time::from_ns(20)),
            words
        );
    }

    #[test]
    fn early_ack_improves_word_cycle_time() {
        // Measure the spacing between word requests at the receiver:
        // with early acknowledgement the next burst overlaps the
        // interface handoff, so words arrive closer together.
        let spacing = |build_rx: BuildRx| -> f64 {
            let cfg = LinkConfig::default();
            let mut sim = Simulator::new();
            let lib = St012Library::default();
            let mut b = CircuitBuilder::new(&mut sim, &lib);
            let rstn = b.input("rstn", 1);
            let din = b.input("din", cfg.flit_width);
            let reqin = b.input("reqin", 1);
            let ack_back_wire = b.net("ack_back", 1);
            let ser =
                build_word_serializer(&mut b, "wser", &cfg, din, reqin, ack_back_wire, rstn);
            let ackin = b.input("ackin", 1);
            let des = build_rx(&mut b, "wdes", &cfg, ser.dout, ser.valid, ackin, rstn);
            b.buf_into("ab_loop", ack_back_wire, des.ack_back);
            b.finish();
            sim.stimulus(
                rstn,
                &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
            );
            let words: Vec<u64> = (0..12).map(|i| (i * 0x0808_0404) & 0xFFFF_FFFF).collect();
            let n = words.len();
            let (p, _) = HsProducer::new(reqin, din, ser.ackout, cfg.flit_width, words);
            attach_producer(&mut sim, "prod", p, Time::from_ns(1));
            // Interface with a realistic ~0.5 ns turnaround.
            let (c, rx) = HsConsumer::new(des.reqout, des.dout, ackin);
            let c = c.with_ack_delay(Time::from_ps(500));
            attach_consumer(&mut sim, "cons", c);
            sim.run_until(Time::from_us(2)).unwrap();
            let log = rx.borrow();
            assert_eq!(log.len(), n, "transfer incomplete");
            let t0 = log[1].0;
            let t1 = log[n - 1].0;
            (t1 - t0).as_ns() / (n - 2) as f64
        };
        let base = spacing(build_word_deserializer);
        let early = spacing(build_word_deserializer_early);
        assert!(
            early < base * 0.9,
            "early ack should shorten the word cycle: {early:.2} vs {base:.2} ns"
        );
    }
}