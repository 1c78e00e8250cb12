//! The asynchronous→synchronous interface (paper Fig 5).
//!
//! The mirror image of Fig 4: an asynchronous latch *writer* and a
//! synchronous latch *reader*:
//!
//! * the deserializer's word handshake writes round-robin into `m`-bit
//!   transparent latches, gated by the register's occupancy flag (no
//!   acknowledge is returned while the target register is full — this
//!   is the FIFO's backpressure);
//! * each flag is set asynchronously by the write and cleared by a
//!   one-cycle synchronous pulse after the switch consumes the word;
//! * the sync side sees flags through **two-flip-flop synchronizers**
//!   and presents `FLIT_OUT`/`VALID` to the switch, honouring `STALL`.

use sal_cells::CircuitBuilder;
use sal_des::SignalId;

use crate::config::FIFO_DEPTH;
use crate::LinkConfig;

/// Ports and bookkeeping of the async→sync interface.
#[derive(Debug, Clone)]
pub struct AsInterfacePorts {
    /// Word-level acknowledge to the deserializer.
    pub ackout: SignalId,
    /// Flit to the receiving switch.
    pub flit_out: SignalId,
    /// Valid to the receiving switch.
    pub valid_out: SignalId,
    /// Flip-flop bits on the switch clock (clock-power accounting).
    pub clocked_bits: u32,
}

/// Builds the interface in scope `name`.
///
/// * Async side: `din`/`reqin` word channel from the deserializer.
/// * Sync side: `clk`, `stall` from the switch; drives
///   `flit_out`/`valid_out`.
pub fn build_as_interface(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    clk: SignalId,
    rstn: SignalId,
    din: SignalId,
    reqin: SignalId,
    stall: SignalId,
) -> AsInterfacePorts {
    b.push_scope(name);

    // ---------------- Asynchronous write side ----------------
    // Write pointer advances when each write handshake completes.
    let nreq = b.inv("nreq", reqin);
    let wtok = b.ring_counter("wtok", nreq, Some(rstn), FIFO_DEPTH);

    // Sync read pointer (pre-declared consume enable, below).
    let consume = b.input("consume_pre", 1);
    let rtok = b.ring_counter_en("rtok", clk, consume, Some(rstn), FIFO_DEPTH);

    let mut les = Vec::with_capacity(FIFO_DEPTH);
    let mut regs = Vec::with_capacity(FIFO_DEPTH);
    let mut fs = Vec::with_capacity(FIFO_DEPTH);
    for kidx in 0..FIFO_DEPTH {
        b.push_scope(&format!("cell{kidx}"));
        // Occupancy flag: async set by the latch-enable, cleared by a
        // one-cycle sync pulse after consumption.
        let clear = b.input("clear", 1);
        let flag = b.input("flag", 1);
        let nflag = b.inv("nflag", flag);
        let nclear = b.inv("nclear", clear);
        let free = b.and2("free", nflag, nclear);
        let le = b.and3("le", reqin, wtok[kidx], free);
        // flag = David cell(set = le, clr = clear), driving the
        // pre-declared flag signal.
        b.david_cell_into("flag_sr", flag, le, clear, Some(rstn), false);
        // Static-timing capture: the write latch closes when `le`
        // self-clears; the deserialized word must already be stable.
        b.sim().register_capture(din, le);
        let reg = b.dlatch("reg", din, le, None);
        // Two-FF synchronizer into the clock domain.
        let s1 = b.dff("sync1", flag, clk, Some(rstn));
        let s2 = b.dff("sync2", s1, clk, Some(rstn));
        // Clear pulse: the cycle after this register is consumed.
        let cons_k = b.and2("cons_k", rtok[kidx], consume);
        let clear_d = b.dff("clear_ff", cons_k, clk, Some(rstn));
        b.buf_into("clear_drv", clear, clear_d);
        les.push(le);
        regs.push(reg);
        fs.push(s2);
        b.pop_scope();
    }

    // Acknowledge: set by the write's latch-enable (with a small
    // matched delay so the data is captured before the handshake
    // closes) and held until the writer withdraws its request — a
    // four-phase *level*, not a pulse. The latch-enable itself
    // self-clears as soon as the occupancy flag sets, and a writer
    // slower than that sliver (an arbitrarily derated deserializer)
    // would simply never see it.
    let any_le = or_tree(b, "any_le", &les);
    let ack_sr = b.david_cell("ack_sr", any_le, nreq, Some(rstn), false);
    let ackout = b.buf_chain("ack_dly", ack_sr, 2);

    // Local interconnect loads (see the matching note in the Fig 4
    // interface): incoming word bus fans out to all latches; latch
    // outputs route to the read multiplexer; the flit bus drives the
    // switch input.
    b.add_wire_load(din, 100.0 * FIFO_DEPTH as f64);
    for &r in &regs {
        b.add_wire_load(r, 100.0);
    }

    // ---------------- Synchronous read side ----------------
    let valid_out = b.onehot_mux("valid", &rtok, &fs);
    let nstall = b.inv("nstall", stall);
    let consume_core = b.and2("consume_core", valid_out, nstall);
    b.buf_into("consume_drv", consume, consume_core);
    let flit_out = b.onehot_mux("flit", &rtok, &regs);
    b.add_wire_load(flit_out, 300.0);

    b.pop_scope();

    // Clocked bits: 2 synchronizer FFs + clear FF + read-ring FF per
    // cell, plus the switch-boundary resynchronisation register that
    // samples FLIT_OUT/VALID into the receiving clock domain (it
    // belongs to the link: a purely synchronous link needs no such
    // stage).
    let clocked_bits = FIFO_DEPTH as u32 * 4 + cfg.flit_width as u32 + 1;
    AsInterfacePorts { ackout, flit_out, valid_out, clocked_bits }
}

/// OR-tree over arbitrarily many 1-bit signals.
fn or_tree(b: &mut CircuitBuilder<'_>, name: &str, sigs: &[SignalId]) -> SignalId {
    assert!(!sigs.is_empty());
    let mut terms = sigs.to_vec();
    let mut level = 0;
    while terms.len() > 1 {
        let mut next = Vec::new();
        for (j, chunk) in terms.chunks(4).enumerate() {
            let nm = format!("{name}_{level}_{j}");
            let out = match *chunk {
                [a] => a,
                [a, b2] => b.or2(&nm, a, b2),
                [a, b2, c] => b.or3(&nm, a, b2, c),
                [a, b2, c, d] => b.or4(&nm, a, b2, c, d),
                _ => unreachable!(),
            };
            next.push(out);
        }
        terms = next;
        level += 1;
    }
    terms[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{
        attach_producer, attach_sync_sink, worst_case_pattern, HsProducer, SyncFlitSink,
    };
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    fn run_iface(
        cfg: &LinkConfig,
        words: Vec<u64>,
        stall_fn: Box<dyn FnMut(u64) -> bool>,
        run_for: Time,
    ) -> Vec<u64> {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", cfg.clk_period);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let stall = b.input("stall", 1);
        let ports = build_as_interface(&mut b, "as", cfg, clk, rstn, din, reqin, stall);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        let (p, _) = HsProducer::new(reqin, din, ports.ackout, cfg.flit_width, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(2));
        let (snk, rx) =
            SyncFlitSink::with_stall_fn(clk, ports.valid_out, ports.flit_out, stall, stall_fn);
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(run_for).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        got
    }

    #[test]
    fn words_reach_the_sync_domain_in_order() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let got = run_iface(&cfg, words.clone(), Box::new(|_| false), Time::from_us(1));
        assert_eq!(got, words);
    }

    #[test]
    fn sustained_stream() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (0..16).map(|i| 0x1111_1111u64.wrapping_mul(i) & 0xFFFF_FFFF).collect();
        let got = run_iface(&cfg, words.clone(), Box::new(|_| false), Time::from_us(2));
        assert_eq!(got, words);
    }

    #[test]
    fn stalling_switch_backpressures_writer() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=10).collect();
        // Accept one word every 8 cycles only.
        let got = run_iface(&cfg, words.clone(), Box::new(|c| c % 8 != 0), Time::from_us(4));
        assert_eq!(got, words);
    }

    #[test]
    fn full_fifo_withholds_acknowledge() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=8).collect();
        // Never consume: at most `depth` writes may be acknowledged.
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", cfg.clk_period);
        let din = b.input("din", cfg.flit_width);
        let reqin = b.input("reqin", 1);
        let stall = b.tie("stall", Value::one(1));
        let ports = build_as_interface(&mut b, "as", &cfg, clk, rstn, din, reqin, stall);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        let (p, sent) = HsProducer::new(reqin, din, ports.ackout, cfg.flit_width, words);
        attach_producer(&mut sim, "prod", p, Time::from_ns(2));
        sim.run_until(Time::from_us(1)).unwrap();
        // `sent` logs request *attempts*: depth words are acknowledged
        // and one further request hangs unanswered.
        assert_eq!(sent.borrow().len(), FIFO_DEPTH + 1);
    }
}
