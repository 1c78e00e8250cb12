//! The word-level-acknowledgement deserializer (paper Fig 8b, link I3).
//!
//! One receiver in the three styles of [`WordRxStyle`], each a front
//! end joined to a hand-off:
//!
//! * the front end rebuilds the word from the `VALID`-strobed slices
//!   and raises a word flag once the last one is in. The paper's shift
//!   register (Fig 8b) shifts every slice into an `m/n`-deep word-wide
//!   shift register while a single '1' walks down a one-bit shift
//!   register of the same length; the demux latches each slice into
//!   the register a token ring selects (I2's latch bank) and samples
//!   the last token at each strobe fall;
//! * the hand-off offers the word to the async→sync interface and
//!   returns the per-word acknowledge wire to the transmitter, which is
//!   released again by the first strobe of the next burst. Waiting, the
//!   interface's acknowledge clears the word flag and sets the wire;
//!   early, the word is copied into a holding latch as soon as it is
//!   complete and the wire is set at the copy.

use sal_cells::CircuitBuilder;
use sal_des::{SignalId, Value};

use crate::deserializer::latch_bank;
use crate::{LinkConfig, WordRxStyle};

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

/// What raises a front end's word flag.
enum Flag {
    /// The shift register's walking '1' (the tie it shifts in).
    Walking(SignalId),
    /// The demux's last token, sampled at each strobe fall.
    LastToken { nvalid: SignalId, token: SignalId },
}

/// A one-shot `name` on the acknowledge's *rising* edge
/// (`ack ∧ ¬ack-delayed`, four buffers wide): an interface that holds
/// its acknowledge high for a long time must not re-trigger it.
fn ack_one_shot(b: &mut CircuitBuilder<'_>, name: &str, ackin: SignalId) -> SignalId {
    let ack_d = b.buf_chain("ack_d", ackin, 4);
    let nack_d = b.inv("nack_d", ack_d);
    b.and2(name, ackin, nack_d)
}

/// Builds the word-level deserializer of style `style` in scope
/// `name`, over the word and slice widths of `cfg`.
///
/// * `din`/`valid` — slice data and strobe from the wire.
/// * `ackin` — word acknowledge from the async→sync interface.
///
/// The early acknowledge is the paper's future work ("further
/// improvements to the upper bound throughput could be achieved by
/// earlier acknowledging"): the transmitter's next burst overlaps the
/// receiver's interface hand-off. Backpressure is preserved: while the
/// holding latch is occupied, the copy — and so the acknowledge —
/// waits.
pub fn build_word_deserializer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    style: WordRxStyle,
    din: SignalId,
    valid: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> WordDeserializerPorts {
    let k = cfg.slices();
    let early = style == WordRxStyle::EarlyAck;
    b.push_scope(name);

    // Front end, data half. Slice 0 arrives first and ends in the
    // shift register's last stage, which holds the word's low bits.
    let (word, source) = if style == WordRxStyle::Demux {
        let (nvalid, tokens, word) = latch_bank(b, "nvalid", din, valid, rstn, k);
        (word, Flag::LastToken { nvalid, token: tokens[k - 1] })
    } else {
        // Static-timing capture: each strobe edge clocks `din` into
        // the shift register, so the slice must be stable before `valid`.
        b.sim().register_capture(din, valid);
        let stages = b.shift_register("sh", din, valid, Some(rstn), k);
        let ordered: Vec<SignalId> = stages.iter().rev().copied().collect();
        let word = b.concat(if early { "word_raw" } else { "dout" }, &ordered);
        (word, Flag::Walking(b.tie("one", Value::one(1))))
    };

    // Hand-off, first half: what clears the word flag — the
    // acknowledge one-shot, or (early) the copy into the holding latch,
    // whose occupancy is pre-declared here. Construction order fixes
    // cell and signal ids, which the netlist digests pin: the
    // shift-register receiver inverts the acknowledge first.
    let nack = (style == WordRxStyle::ShiftRegister).then(|| b.inv("nack", ackin));
    let (clear, hold) = if early {
        let hold_full = b.net("hold_full", 1);
        let hold_free = b.inv("hold_free", hold_full);
        (b.net("copy_clr", 1), Some((hold_full, hold_free)))
    } else {
        (ack_one_shot(b, "clear_pulse", ackin), None)
    };

    // Front end, flag half: the word flag, held in reset while `clear`.
    let nclear = b.inv(if early { "ncopy_clr" } else { "nclear" }, clear);
    let flag = match source {
        Flag::Walking(one) => {
            let p_rstn = b.and2("p_rstn", rstn, nclear);
            b.shift_register("p", one, valid, Some(p_rstn), k)[k - 1]
        }
        Flag::LastToken { nvalid, token } => {
            let done_rstn = b.and2("done_rstn", rstn, nclear);
            b.dff("done", token, nvalid, Some(done_rstn))
        }
    };

    // Hand-off, second half: the word offered downstream, its
    // occupancy `full`, the one-shot that empties it, and what sets the
    // acknowledge back to the transmitter.
    let (dout, served_set, full, ack_set) = match hold {
        Some((hold_full, hold_free)) => {
            // Copy window: word present and the holding latch free. The
            // delayed copy closes the loop: it clears the word flag
            // (ending the window) and marks the latch occupied, until a
            // one-shot on the interface acknowledge frees it.
            let copy = b.and2("copy", flag, hold_free);
            let dout = b.dlatch("hold", word, copy, None);
            let copy_d = b.buf_chain("copy_d", copy, 3);
            b.buf_into("copy_clr_drv", clear, copy_d);
            let took = ack_one_shot(b, "took", ackin);
            b.david_cell_into("hold_sr", hold_full, copy_d, took, Some(rstn), false);
            (dout, took, hold_full, copy_d)
        }
        None => (word, clear, flag, clear),
    };
    let nack = nack.unwrap_or_else(|| b.inv("nack", ackin));
    let empty = match hold {
        Some((_, hold_free)) => hold_free,
        None => b.inv(if style == WordRxStyle::Demux { "ndone" } else { "npulse" }, flag),
    };

    // Gate the request on the acknowledge having returned to zero, so
    // a new word arriving while a slow interface still holds the
    // previous acknowledge high does not violate the four-phase
    // protocol (request must only rise when acknowledge is low).
    //
    // `served` closes a delay-sensitive window: between the
    // acknowledge's return to zero (interface-paced) and `full`
    // actually clearing (through our own reset path or David cell),
    // the request would re-rise for a word the interface already took
    // — a duplicate delivery. The guard is set with the one-shot and
    // released only once `full` is visibly empty, making the hand-off
    // insensitive to how slow the clear path is relative to the
    // interface.
    let served = b.david_cell("served", served_set, empty, Some(rstn), false);
    let nserved = b.inv("nserved", served);
    let reqout = b.and3("reqout", full, nack, nserved);

    // Word acknowledge back to the transmitter: set on the hand-off
    // (the acknowledge's rising edge, or the copy — a level that may
    // stay high long into the next burst must not re-trigger), cleared
    // by the next burst's first strobe.
    let ack_back = b.david_cell("ack_back", ack_set, valid, Some(rstn), false);

    b.pop_scope();
    WordDeserializerPorts { dout, reqout, ack_back }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{attach_consumer, attach_producer, HsConsumer, HsProducer};
    use crate::word_serializer::build_word_serializer;
    use crate::WordRxStyle::{Demux, EarlyAck, ShiftRegister};
    use sal_des::{Simulator, Time};
    use sal_tech::St012Library;

    /// Word serializer wired straight into the word receiver of
    /// `style`, with a handshake consumer standing in for the
    /// async→sync interface.
    fn round_trip(
        cfg: &LinkConfig,
        style: WordRxStyle,
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
        let des =
            build_word_deserializer(&mut b, "wdes", cfg, style, ser.dout, ser.valid, ackin, rstn);
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

    #[test]
    fn word_round_trip_worst_case() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(4, 32);
        assert_eq!(round_trip(&cfg, ShiftRegister, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn word_round_trip_many() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> =
            (0..24).map(|i| (0x0F0F_0F0Fu64.wrapping_add(i * 0x0101_0101)) & 0xFFFF_FFFF).collect();
        assert_eq!(round_trip(&cfg, ShiftRegister, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn slow_interface_throttles_words() {
        let cfg = LinkConfig::default();
        let words = vec![0x1111_2222, 0x3333_4444, 0x5555_6666];
        assert_eq!(round_trip(&cfg, ShiftRegister, words.clone(), Time::from_ns(15)), words);
    }

    #[test]
    fn two_slice_words() {
        let cfg = LinkConfig { slice_width: 16, ..LinkConfig::default() };
        let words = vec![0xFACE_B00C, 0x0BAD_F00D];
        assert_eq!(round_trip(&cfg, ShiftRegister, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn demux_receiver_round_trip() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(6, 32);
        assert_eq!(round_trip(&cfg, Demux, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn demux_receiver_tolerates_slow_interface() {
        let cfg = LinkConfig::default();
        let words = vec![0x0102_0304, 0x0506_0708, 0x090A_0B0C];
        assert_eq!(round_trip(&cfg, Demux, words.clone(), Time::from_ns(12)), words);
    }

    #[test]
    fn early_ack_receiver_round_trip() {
        let cfg = LinkConfig::default();
        let words = crate::testbench::worst_case_pattern(6, 32);
        assert_eq!(round_trip(&cfg, EarlyAck, words.clone(), Time::from_ps(60)), words);
    }

    #[test]
    fn early_ack_receiver_backpressures_on_full_holding_register() {
        // A very slow interface: the holding register stays full, the
        // copy waits, the acknowledge is withheld, nothing is lost.
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=5).map(|i| i * 0x1111_1111).collect();
        assert_eq!(round_trip(&cfg, EarlyAck, words.clone(), Time::from_ns(20)), words);
    }

    #[test]
    fn early_ack_improves_word_cycle_time() {
        // Measure the spacing between word requests at the receiver:
        // with early acknowledgement the next burst overlaps the
        // interface handoff, so words arrive closer together.
        let spacing = |style| -> f64 {
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
            let des =
                build_word_deserializer(&mut b, "wdes", &cfg, style, ser.dout, ser.valid, ackin, rstn);
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
        let base = spacing(ShiftRegister);
        let early = spacing(EarlyAck);
        assert!(
            early < base * 0.9,
            "early ack should shorten the word cycle: {early:.2} vs {base:.2} ns"
        );
    }
}