//! The per-transfer asynchronous serializer (paper Fig 6a).
//!
//! Splits an `m`-bit flit into `m/n` slices and sends each over an
//! `n`-bit channel with its own four-phase request/acknowledge
//! handshake. A one-hot sequencer (the paper's David-cell chain;
//! here a self-starting ring advanced by each completed handshake)
//! selects the slice; after the last slice the upstream word
//! handshake is acknowledged.

use sal_cells::CircuitBuilder;
use sal_des::{BundleParams, SignalId, Time};

use crate::LinkConfig;

/// Matched-delay buffer count covering the worst-case one-hot-mux
/// settling path for `k` inputs: flip-flop + AND + each level of the
/// mux's OR tree, with margin.
pub(crate) fn matched_delay_bufs(k: usize) -> usize {
    3 + 2 * CircuitBuilder::or4_tree_depth(k).max(1)
}

/// Ports of the per-transfer serializer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SerializerPorts {
    /// Word-level acknowledge to the upstream interface.
    pub ackout: SignalId,
    /// Slice data to the wire.
    pub dout: SignalId,
    /// Slice request to the wire.
    pub reqout: SignalId,
}

/// Builds the serializer in its own scope.
///
/// * `din`/`reqin` — upstream bundled-data word channel (the
///   sync→async interface holds `din` stable for the whole word).
/// * `ackin` — per-slice acknowledge from the first wire buffer (or
///   the deserializer when the wire has no buffers).
///
/// Control structure:
/// * the slice token ring advances on each falling `ackin` edge (one
///   completed slice handshake);
/// * `done` (a David cell) is set when the **last** slice's
///   acknowledge arrives and cleared when the upstream request
///   withdraws, producing the word-level `ackout`;
/// * `reqout = reqin ∧ ¬ackin ∧ ¬done`, delayed through a matched
///   buffer chain so the freshly selected slice settles on `dout`
///   before the request reaches the receiver (the bundled-data
///   constraint).
pub(crate) fn build_serializer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    reqin: SignalId,
    ackin: SignalId,
    rstn: SignalId,
) -> SerializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    // Slice views of the input word (pure wiring).
    let slices: Vec<SignalId> = (0..k)
        .map(|i| b.slice(&format!("slice{i}"), din, i as u8 * cfg.slice_width, cfg.slice_width))
        .collect();

    // Token ring advanced at the end of each slice handshake
    // (acknowledge falling edge).
    let nack = b.inv("nack", ackin);
    let tokens = b.ring_counter("sel", nack, Some(rstn), k);

    // Word-complete: the last slice's acknowledge sets `done`;
    // the upstream request falling clears it (return to zero).
    let last_ack = b.and2("last_ack", ackin, tokens[k - 1]);
    let nreq = b.inv("nreq", reqin);
    let done = b.david_cell("done", last_ack, nreq, Some(rstn), false);
    let ackout = b.buf("ackout", done);

    // Slice select multiplexer.
    let dout = b.onehot_mux("dout", &tokens, &slices);

    // Request generation with matched delay (covers the token-ring →
    // mux settling path after each acknowledge falls). The one-hot
    // multiplexer is an OR tree whose depth grows with the slice
    // count, so the matched delay scales with it.
    let ndone = b.inv("ndone", done);
    let req_core = b.and3("req_core", reqin, nack, ndone);
    let reqout = b.buf_chain("req_dly", req_core, matched_delay_bufs(k));

    // Static-timing launch point: every slice of data is launched by
    // the acknowledge edge that advances the token ring (`nack`), and
    // the matched `req_dly` chain must give the token ring + one-hot
    // mux time to settle before the strobe reaches any capture. The
    // annotation names the design point the generator built, so lint
    // fixtures can key on width and ratio.
    b.sim().register_bundle(
        name,
        nack,
        Time::ZERO,
        Some(BundleParams { word_width: u16::from(cfg.flit_width), serial_ratio: k as u16 }),
    );

    b.pop_scope();
    SerializerPorts { ackout, dout, reqout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{
        attach_consumer, attach_producer, worst_case_pattern, HsConsumer, HsProducer,
    };
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    fn fixture(
        cfg: &LinkConfig,
        words: Vec<u64>,
        ack_delay: Time,
    ) -> (Vec<u64>, Vec<u64>, usize) {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let ackin = b.input("ackin", 1);
        let ports = build_serializer(&mut b, "ser", cfg, din, reqin, ackin, rstn);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
        );
        let (p, _) = HsProducer::new(reqin, din, ports.ackout, cfg.flit_width, words.clone());
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        let (c, rx) = HsConsumer::new(ports.reqout, ports.dout, ackin);
        let c = c.with_ack_delay(ack_delay);
        attach_consumer(&mut sim, "cons", c);
        sim.run_until(Time::from_us(2)).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        // Reassemble slices into words for comparison.
        let k = cfg.slices();
        let rebuilt: Vec<u64> = got
            .chunks(k)
            .filter(|c| c.len() == k)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &s)| acc | (s << (i as u8 * cfg.slice_width)))
            })
            .collect();
        (got, rebuilt, words.len())
    }

    #[test]
    fn serializes_words_low_slice_first() {
        let cfg = LinkConfig::default();
        let words = vec![0x0403_0201, 0xDEAD_BEEF];
        let (slices, rebuilt, _) = fixture(&cfg, words.clone(), Time::from_ps(40));
        assert_eq!(slices[..4], [0x01, 0x02, 0x03, 0x04]);
        assert_eq!(rebuilt, words);
    }

    #[test]
    fn worst_case_pattern_all_buffer_counts() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let (_, rebuilt, _) = fixture(&cfg, words.clone(), Time::from_ps(40));
        assert_eq!(rebuilt, words);
    }

    #[test]
    fn slow_receiver_is_tolerated() {
        let cfg = LinkConfig::default();
        let words = vec![0x1234_5678, 0x9ABC_DEF0, 0x0F0F_0F0F];
        let (_, rebuilt, _) = fixture(&cfg, words.clone(), Time::from_ns(7));
        assert_eq!(rebuilt, words);
    }

    #[test]
    fn alternative_slice_widths() {
        // 32 -> 16 (2 slices) and 32 -> 4 (8 slices), per §III "the
        // circuit can easily be modified".
        for slice_width in [16u8, 4] {
            let cfg = LinkConfig { slice_width, ..LinkConfig::default() };
            let words = vec![0xA5A5_5A5A, 0x0102_0304];
            let (_, rebuilt, _) = fixture(&cfg, words.clone(), Time::from_ps(40));
            assert_eq!(rebuilt, words, "slice width {slice_width}");
        }
    }

    #[test]
    fn sixteen_bit_flits() {
        let cfg = LinkConfig {
            flit_width: 16,
            slice_width: 4,
            ..LinkConfig::default()
        };
        let words = vec![0xF00D, 0x0808];
        let (_, rebuilt, _) = fixture(&cfg, words.clone(), Time::from_ps(40));
        assert_eq!(rebuilt, words);
    }
}
