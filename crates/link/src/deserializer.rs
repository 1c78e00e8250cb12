//! The per-transfer asynchronous deserializer (paper Fig 6b).
//!
//! Rebuilds the `m`-bit flit from `m/n` slice handshakes. Each
//! arriving slice is captured in a transparent latch selected by a
//! one-hot token ring; when the last slice is present the word-level
//! request is raised downstream, and the last slice's acknowledge is
//! withheld until the downstream stage has taken the word — which is
//! what closes the flow-control loop end to end (§III/Fig 5: the
//! latch-enable C-elements are gated by the interface's flags).

use sal_cells::CircuitBuilder;
use sal_des::SignalId;

use crate::LinkConfig;

/// The token-ring latch bank of the demultiplexing receivers (this
/// one and I3's demux): a ring `sel` advanced at each fall of
/// `strobe` (inverted as `ninv`) selects which of the `k` slice
/// latches `reg{i}` captures `din` while `strobe ∧ token_i`, so only
/// one register switches per slice. Returns the inverted strobe, the
/// tokens and the concatenated word `dout`.
pub(crate) fn latch_bank(
    b: &mut CircuitBuilder<'_>,
    ninv: &str,
    din: SignalId,
    strobe: SignalId,
    rstn: SignalId,
    k: usize,
) -> (SignalId, Vec<SignalId>, SignalId) {
    let nstrobe = b.inv(ninv, strobe);
    let tokens = b.ring_counter("sel", nstrobe, Some(rstn), k);
    let regs: Vec<SignalId> = (0..k)
        .map(|i| {
            let le = b.and2(&format!("le{i}"), strobe, tokens[i]);
            // Static-timing capture: the selected latch closes on the
            // strobe fall; the slice must be there first.
            b.sim().register_capture(din, le);
            b.dlatch(&format!("reg{i}"), din, le, None)
        })
        .collect();
    let word = b.concat("dout", &regs);
    (nstrobe, tokens, word)
}

/// Ports of the per-transfer deserializer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeserializerPorts {
    /// Per-slice acknowledge back to the wire.
    pub ackout: SignalId,
    /// Rebuilt word to the downstream interface.
    pub dout: SignalId,
    /// Word-level request downstream.
    pub reqout: SignalId,
}

/// Builds the deserializer in its own scope.
///
/// * `din`/`reqin` — slice channel from the last wire buffer.
/// * `ackin` — word-level acknowledge from the async→sync interface.
///
/// Control:
/// * the token ring advances on each falling `reqin` edge;
/// * slice `i` latches while `reqin ∧ token_i` (transparent capture);
/// * `wordrdy = reqin_delayed ∧ token_last` raises the downstream
///   request as soon as the final slice is stable;
/// * `taken` (David cell) records the downstream acknowledge,
///   dropping the request (return-to-zero) and releasing the withheld
///   last-slice acknowledge.
pub(crate) fn build_deserializer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    reqin: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> DeserializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    // Matched-delayed request: latch enables settle before anything
    // derived from it fires.
    let req_d = b.buf_chain("req_dly", reqin, 3);

    // Token ring advanced when each slice handshake completes, and the
    // per-slice capture latches.
    let (_, tokens, dout) = latch_bank(b, "nreq", din, reqin, rstn, k);

    // Word-complete detection and downstream handshake. `delivered`
    // is a flip-flop clocked by the downstream acknowledge's rising
    // edge and held in reset while no word is pending, so it marks
    // "THIS word has been taken" even when the downstream consumer is
    // slow to return its acknowledge to zero across word boundaries.
    let wordrdy = b.and2("wordrdy", req_d, tokens[k - 1]);
    let one = b.tie("one", sal_des::Value::one(1));
    let delivered_rstn = b.and2("delivered_rstn", rstn, wordrdy);
    let delivered = b.dff("delivered", one, ackin, Some(delivered_rstn));
    let ndelivered = b.inv("ndelivered", delivered);
    let nack_down = b.inv("nack_down", ackin);
    let reqout = b.and3("reqout", wordrdy, ndelivered, nack_down);

    // Upstream acknowledge: immediate for all but the last slice; the
    // last slice acknowledges only once the word has been taken.
    let nlast = b.inv("nlast", tokens[k - 1]);
    let ack_fast = b.and2("ack_fast", req_d, nlast);
    let ack_last = b.and3("ack_last", req_d, tokens[k - 1], delivered);
    let ackout = b.or2("ackout", ack_fast, ack_last);

    b.pop_scope();
    DeserializerPorts { ackout, dout, reqout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::build_serializer;
    use crate::testbench::{
        attach_consumer, attach_producer, worst_case_pattern, HsConsumer, HsProducer,
    };
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    /// Serializer feeding deserializer directly (no wire buffers):
    /// words in must equal words out.
    fn round_trip(cfg: &LinkConfig, words: Vec<u64>, ack_delay: Time) -> Vec<u64> {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let ack_mid = b.net("ack_mid", 1); // deserializer -> serializer
        let ser = build_serializer(&mut b, "ser", cfg, din, reqin, ack_mid, rstn);
        let ack_end = b.input("ack_end", 1); // consumer -> deserializer
        let des = build_deserializer(&mut b, "des", cfg, ser.dout, ser.reqout, ack_end, rstn);
        // Close the slice-level acknowledge loop.
        b.buf_into("ack_loop", ack_mid, des.ackout);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
        );
        let (p, _) = HsProducer::new(reqin, din, ser.ackout, cfg.flit_width, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(des.reqout, des.dout, ack_end);
        let c = c.with_ack_delay(ack_delay);
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_us(4)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        got
    }

    #[test]
    fn direct_round_trip_worst_case() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(40)), words);
    }

    #[test]
    fn direct_round_trip_many_words() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (0..32).map(|i| 0x0101_0101u64.wrapping_mul(i) & 0xFFFF_FFFF).collect();
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(40)), words);
    }

    #[test]
    fn slow_word_consumer_backpressures_slices() {
        let cfg = LinkConfig::default();
        let words = vec![0xAAAA_5555, 0x5555_AAAA, 0x0000_FFFF];
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ns(9)), words);
    }

    #[test]
    fn two_slice_configuration() {
        let cfg = LinkConfig { slice_width: 16, ..LinkConfig::default() };
        let words = vec![0x1234_5678, 0x9ABC_DEF0];
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(40)), words);
    }

    #[test]
    fn eight_slice_configuration() {
        let cfg = LinkConfig { slice_width: 4, ..LinkConfig::default() };
        let words = vec![0xFEDC_BA98, 0x7654_3210];
        assert_eq!(round_trip(&cfg, words.clone(), Time::from_ps(40)), words);
    }
}
