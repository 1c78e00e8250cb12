//! The word-level-acknowledgement serializer (paper Fig 8a, link I3).
//!
//! Instead of acknowledging every slice, the transmitter emits all
//! slices of a flit as a self-timed **burst**: a gated ring oscillator
//! ("5 back to back invertors" in the paper) paces one `VALID` strobe
//! per slice, a one-hot multiplexer steps through the slices, and a
//! single acknowledge wire returns once per *word* from the far end.
//! The paper: "To adjust the frequency … the number of invertors can
//! be altered"; the stage count follows the slice count (see
//! `BURST_OSC_STAGES`).

use sal_cells::{CellKind, CircuitBuilder};
use sal_des::{BundleParams, SignalId, Time};

use crate::LinkConfig;

/// Ring-oscillator stage count of a burst of up to 4 slices, chosen so
/// a 4-slice burst takes ≈1.1 ns, the paper's measured `Tburst`. Each
/// further level of the slice multiplexer's 4-ary OR tree adds 4
/// stages.
const BURST_OSC_STAGES: usize = 13;

/// Ports of the word-level serializer.
#[derive(Debug, Clone, Copy)]
pub struct WordSerializerPorts {
    /// Word-level acknowledge to the upstream interface.
    pub ackout: SignalId,
    /// Slice data to the wire.
    pub dout: SignalId,
    /// Source-synchronous slice strobe to the wire.
    pub valid: SignalId,
}

/// Builds the word-level serializer in scope `name`.
///
/// * `din`/`reqin` — upstream bundled-data word channel.
/// * `ack_back` — the per-word acknowledge wire from the receiver.
///
/// Control:
/// * `burst` (David cell) starts the ring oscillator on a new word and
///   stops it after the last slice;
/// * the slice token ring advances on each falling `VALID` edge;
/// * `done` samples the last token at each `VALID` fall, so it rises
///   exactly after the final slice; it is cleared asynchronously when
///   the upstream request withdraws;
/// * `ackout = done ∧ ack_back` — the upstream handshake completes
///   only when the receiver has taken the word.
pub fn build_word_serializer(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    din: SignalId,
    reqin: SignalId,
    ack_back: SignalId,
    rstn: SignalId,
) -> WordSerializerPorts {
    let k = cfg.slices();
    b.push_scope(name);

    let slices: Vec<SignalId> = (0..k)
        .map(|i| b.slice(&format!("slice{i}"), din, i as u8 * cfg.slice_width, cfg.slice_width))
        .collect();

    // Burst control: set on a fresh request, cleared when done.
    let done = b.net("done", 1);
    let ndone = b.inv("ndone", done);
    let start = b.and2("start", reqin, ndone);
    let burst = b.david_cell("burst", start, done, Some(rstn), false);

    // Self-timed slice pacing. VALID is gated by ¬done as well as the
    // burst flag: `done` asserts a short flip-flop delay after the
    // last slice's strobe falls, cutting the strobe path off *before*
    // the free-running oscillator's next rising edge — the burst
    // flag's own shutdown (through the start gate and the David cell)
    // is a gate slower than the oscillator half-period. This is the
    // paper's "timing of the VALID signal … can also be tuned"
    // robustness knob (§IV).
    // More slices deepen the select multiplexer's OR tree, so the
    // burst must be paced slower for the data to settle between
    // strobes — the knob the paper describes as altering the number
    // (or sizing) of the ring's inverters.
    let stages = BURST_OSC_STAGES + 4 * CircuitBuilder::or4_tree_depth(k).saturating_sub(1);
    let osc = b.ring_oscillator_stages("osc", burst, stages);
    let valid_core = b.and3("valid", burst, osc, ndone);
    let nvalid = b.inv("nvalid", valid_core);
    // The exported strobe trails the internal one by a short matched
    // delay: the slice mux settles on the strobe's *previous* fall, but
    // the first slice of a burst races the strobe out of the same
    // launch event, and the receiver's shift register needs data valid
    // strictly before its clock. Tuning VALID is the paper's §IV knob.
    let valid = b.buf_chain("valid_dly", valid_core, 3);

    // Static-timing launch point. The slice data is launched by the
    // strobe's *previous falling* edge (the token ring advances on
    // `nvalid`), so relative to the next rising `valid_core` edge the
    // data has a head start of one oscillator half-period — `stages`
    // inverter delays.
    let inv_delay = b.library().params(CellKind::Inv).delay;
    let half_period = Time::from_fs(inv_delay.as_fs() * stages as u64);
    b.sim().register_bundle(
        name,
        valid_core,
        half_period,
        Some(BundleParams { word_width: u16::from(cfg.flit_width), serial_ratio: k as u16 }),
    );

    // Slice select ring, advanced at each VALID fall.
    let tokens = b.ring_counter("sel", nvalid, Some(rstn), k);
    let dout = b.onehot_mux("dout", &tokens, &slices);

    // Word-complete: sample the last token at each VALID fall; held in
    // reset while no request is pending (asynchronous return to zero).
    let done_rstn = b.and2("done_rstn", rstn, reqin);
    b.dff_into("done_ff", done, tokens[k - 1], nvalid, Some(done_rstn));

    // Upstream acknowledge gated on the receiver's word acknowledge.
    let ackout = b.and2("ackout", done, ack_back);

    b.pop_scope();
    WordSerializerPorts { ackout, dout, valid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{attach_producer, worst_case_pattern, HsProducer};
    use sal_des::{Component, Ctx, Simulator, Time, Value};
    use sal_tech::St012Library;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A behavioural word-level receiver: counts VALID strobes,
    /// records each slice, raises ack_back after the last slice of
    /// each word, drops it at the next burst's first strobe.
    struct WordRx {
        valid: SignalId,
        data: SignalId,
        ack_back: SignalId,
        k: usize,
        count: usize,
        prev_valid: bool,
        slices: Rc<RefCell<Vec<(Time, u64)>>>,
    }

    impl Component for WordRx {
        fn on_input(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.read(self.valid).is_high();
            let rising = v && !self.prev_valid;
            self.prev_valid = v;
            if rising {
                let d = ctx.read(self.data).to_u64().unwrap_or(u64::MAX);
                let now = ctx.now();
                self.slices.borrow_mut().push((now, d));
                self.count += 1;
                if self.count.is_multiple_of(self.k) {
                    ctx.drive(self.ack_back, Value::one(1), Time::from_ps(300));
                } else if self.count % self.k == 1 {
                    ctx.drive(self.ack_back, Value::zero(1), Time::from_ps(50));
                }
            }
        }
        fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
            ctx.drive(self.ack_back, Value::zero(1), Time::ZERO);
        }
    }

    fn run_ser(cfg: &LinkConfig, words: Vec<u64>) -> Vec<u64> {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let ack_back = b.input("ack_back", 1);
        let ports = build_word_serializer(&mut b, "wser", cfg, din, reqin, ack_back, rstn);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))],
        );
        let slices = Rc::new(RefCell::new(Vec::new()));
        let rx = WordRx {
            valid: ports.valid,
            data: ports.dout,
            ack_back,
            k: cfg.slices(),
            count: 0,
            prev_valid: false,
            slices: slices.clone(),
        };
        let id = sim.add_component("rx", rx, &[ports.valid]);
        sim.connect_driver(id, ack_back).unwrap();
        sim.schedule_wake(id, Time::ZERO);
        let (p, _) = HsProducer::new(reqin, din, ports.ackout, cfg.flit_width, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(1));
        sim.run_until(Time::from_us(1)).unwrap();
        let seen = slices.borrow();
        let k = cfg.slices();
        seen.chunks(k)
            .filter(|c| c.len() == k)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &(_, s))| acc | (s << (i as u8 * cfg.slice_width)))
            })
            .collect()
    }

    #[test]
    fn bursts_carry_whole_words() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        assert_eq!(run_ser(&cfg, words.clone()), words);
    }

    #[test]
    fn burst_duration_matches_paper_tburst() {
        // 4 slices spaced by the ring-oscillator period: the paper
        // measures Tburst ≈ 1.1 ns. Check the strobe timing directly.
        let cfg = LinkConfig::default();
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let din = b.input("din", 32);
        let reqin = b.input("reqin", 1);
        let ack_back = b.input("ack_back", 1);
        let ports = build_word_serializer(&mut b, "wser", &cfg, din, reqin, ack_back, rstn);
        b.finish();
        sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(200), Value::one(1))]);
        sim.stimulus(ack_back, &[(Time::ZERO, Value::zero(1))]);
        sim.stimulus(din, &[(Time::ZERO, Value::from_u64(32, 0xA5A5_A5A5))]);
        sim.stimulus(reqin, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))]);
        let edges = Rc::new(RefCell::new(Vec::new()));
        let e2 = edges.clone();
        sim.monitor("vmon", ports.valid, move |t, v| {
            if v.is_high() {
                e2.borrow_mut().push(t);
            }
        });
        sim.run_until(Time::from_ns(10)).unwrap();
        let e = edges.borrow();
        assert_eq!(e.len(), 4, "expected exactly 4 VALID strobes, got {}", e.len());
        let tburst = e[3] - e[0] + (e[1] - e[0]); // 4 slice periods
        let ns = tburst.as_ns();
        assert!(
            (0.8..=1.5).contains(&ns),
            "Tburst {ns:.2} ns outside the paper's ≈1.1 ns ballpark"
        );
    }

    #[test]
    fn sixteen_to_four_bit_burst() {
        let cfg = LinkConfig {
            flit_width: 16,
            slice_width: 4,
            ..LinkConfig::default()
        };
        let words = vec![0xBEEF, 0x1234, 0xFFFF, 0x0001];
        assert_eq!(run_ser(&cfg, words.clone()), words);
    }
}
