//! The synchronous→asynchronous interface (paper Fig 4).
//!
//! A FIFO with a synchronous write side and an asynchronous read side:
//!
//! * `FIFO_DEPTH` (four) `m`-bit registers written round-robin by the
//!   switch clock when `VALID ∧ ¬STALL`;
//! * a per-register occupancy flag built from **two clocked D-type
//!   flip-flops with asynchronous clear** — the paper's metastability
//!   protection ("the use of two flip-flops to build a synchronizer is
//!   known to ensure protection against metastability", §III);
//! * an asynchronous one-hot read sequencer (the paper's David-cell
//!   chain) that offers each occupied register to the serializer over
//!   a four-phase bundled-data word handshake and clears the flag on
//!   acknowledge.

use sal_cells::CircuitBuilder;
use sal_des::SignalId;

use crate::config::FIFO_DEPTH;
use crate::LinkConfig;

/// Ports and bookkeeping of the sync→async interface.
#[derive(Debug, Clone)]
pub struct SaInterfacePorts {
    /// Backpressure to the sending switch (high = hold the flit).
    pub stall: SignalId,
    /// Word data to the serializer (stable for the whole handshake).
    pub dout: SignalId,
    /// Word request to the serializer.
    pub reqout: SignalId,
    /// Flip-flop bits on the switch clock (clock-power accounting).
    pub clocked_bits: u32,
}

/// Builds the interface in scope `name`.
///
/// * Sync side: `clk`, `flitin`, `valid` from the switch; drives
///   `stall` back.
/// * Async side: drives `dout`/`reqout`; `ackin` is the serializer's
///   word-level acknowledge.
pub fn build_sa_interface(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    clk: SignalId,
    rstn: SignalId,
    flitin: SignalId,
    valid: SignalId,
    ackin: SignalId,
) -> SaInterfacePorts {
    let m = cfg.flit_width;
    b.push_scope(name);

    // ---------------- Asynchronous read sequencer ----------------
    // Token advances when each word handshake completes (ack falls).
    let nack = b.inv("nack", ackin);
    let rtok = b.ring_counter("rtok", nack, Some(rstn), FIFO_DEPTH);

    // ---------------- Write side ----------------
    // Pre-declare the stall output (it gates the write-pointer ring
    // that in turn selects which flag the stall looks at).
    let mut flags = Vec::with_capacity(FIFO_DEPTH);
    let mut occupied = Vec::with_capacity(FIFO_DEPTH);
    let mut regs = Vec::with_capacity(FIFO_DEPTH);

    // Write pointer: advances on every accepted write.
    let stall_sig = b.input("stall_pre", 1);
    let nstall = b.inv("nstall", stall_sig);
    let wr_accept = b.and2("wr_accept", valid, nstall);
    let wtok = b.ring_counter_en("wtok", clk, wr_accept, Some(rstn), FIFO_DEPTH);

    for kidx in 0..FIFO_DEPTH {
        b.push_scope(&format!("cell{kidx}"));
        let wr_en = b.and2("wr_en", wtok[kidx], wr_accept);

        // Flag: two clocked DFFs, set at the write edge, cleared
        // asynchronously by the read side (paper Fig 4 "FLAG").
        let clear = b.and2("clear", ackin, rtok[kidx]);
        let nclear = b.inv("nclear", clear);
        let flag_rstn = b.and2("flag_rstn", rstn, nclear);
        let ff1 = b.input("ff1", 1);
        let set_or_hold = b.or2("set_or_hold", wr_en, ff1);
        b.dff_into("ff1_ff", ff1, set_or_hold, clk, Some(flag_rstn));
        let ff2 = b.dff("ff2", ff1, clk, Some(flag_rstn));
        flags.push(ff1);
        // A register also counts as unavailable while its asynchronous
        // clear is asserted (the reader may hold the acknowledge high
        // for a long time; writing then would set the flag straight
        // back into reset and lose the word).
        let occ = b.or2("occ", ff2, clear);
        occupied.push(occ);

        // Data register with write enable (mux + DFF).
        let q = b.input("reg", m);
        let d = b.mux2("wd", wr_en, q, flitin);
        b.dff_into("reg_ff", q, d, clk, Some(rstn));
        regs.push(q);
        b.pop_scope();
    }

    // STALL: *registered almost-full*. The occupancy flags clear
    // asynchronously (the reader's acknowledge), so a combinational
    // stall could change within a setup time of the clock edge and
    // the switch and the write logic could then disagree about
    // whether a word was accepted. Registering the stall makes it
    // stable for the whole cycle; because it is then one cycle stale,
    // it must assert while the *next* write target is still occupied
    // too (the almost-full threshold covers the staleness).
    let occ_cur = b.onehot_mux("occ_cur", &wtok, &occupied);
    let occ_rot: Vec<_> = (0..FIFO_DEPTH).map(|k| occupied[(k + 1) % FIFO_DEPTH]).collect();
    let occ_next = b.onehot_mux("occ_next", &wtok, &occ_rot);
    let stall_d = b.or2("stall_d", occ_cur, occ_next);
    b.dff_into("stall_ff", stall_sig, stall_d, clk, Some(rstn));

    // Local interconnect loads: the flit bus fans out to all FIFO
    // registers, each register output routes to the read multiplexer,
    // and the mux output drives the serializer. These intra-block
    // wires carry most of the interface's switched capacitance in the
    // synthesized design (the paper's Fig 14 shows the conversion
    // blocks dominating the asynchronous links' power).
    b.add_wire_load(flitin, 100.0 * FIFO_DEPTH as f64);
    for &q in &regs {
        b.add_wire_load(q, 100.0);
    }

    // ---------------- Asynchronous read data path ----------------
    let dout = b.onehot_mux("dout", &rtok, &regs);
    b.add_wire_load(dout, 300.0);
    let rdy = b.onehot_mux("rdy", &rtok, &flags);
    let req_core = b.and2("req_core", rdy, nack);
    let reqout =
        b.buf_chain("req_dly", req_core, crate::serializer::matched_delay_bufs(FIFO_DEPTH));

    b.pop_scope();

    // Free-running clock sinks: both flag FFs and the write-pointer FF
    // per cell. The data registers are written through a clock-gated
    // enable (Fig 4 drives REG from WR_EN), so their clock pins toggle
    // only on actual writes — that switching is already captured by
    // the activity-based energy accounting.
    let clocked_bits = FIFO_DEPTH as u32 * 3 + 1;
    SaInterfacePorts { stall: stall_sig, dout, reqout, clocked_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{
        attach_consumer, attach_sync_source, worst_case_pattern, HsConsumer, SyncFlitSource,
    };
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    fn run_iface(
        cfg: &LinkConfig,
        words: Vec<u64>,
        ack_delay: Time,
        run_for: Time,
    ) -> (Vec<u64>, Vec<(Time, u64)>) {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", cfg.clk_period);
        let flitin = b.input("flitin", cfg.flit_width);
        let valid = b.input("valid", 1);
        let ackin = b.input("ackin", 1);
        let ports = build_sa_interface(&mut b, "sa", cfg, clk, rstn, flitin, valid, ackin);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        let (src, sent) =
            SyncFlitSource::new(clk, ports.stall, flitin, valid, cfg.flit_width, words);
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        let (c, rx) = HsConsumer::new(ports.reqout, ports.dout, ackin);
        let c = c.with_ack_delay(ack_delay);
        attach_consumer(&mut sim, "cons", c, Time::ZERO);
        sim.run_until(run_for).unwrap();
        let got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        let sent_log = sent.borrow().clone();
        (got, sent_log)
    }

    #[test]
    fn words_cross_the_clock_boundary_in_order() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let (got, _) = run_iface(&cfg, words.clone(), Time::from_ps(40), Time::from_ns(300));
        assert_eq!(got, words);
    }

    #[test]
    fn many_words_sustained() {
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (0..20).map(|i| (i * 0x0101_0101) & 0xFFFF_FFFF).collect();
        let (got, _) = run_iface(&cfg, words.clone(), Time::from_ps(40), Time::from_us(1));
        assert_eq!(got, words);
    }

    #[test]
    fn slow_reader_stalls_the_switch() {
        // Reader takes ~80 ns per word; a 10 ns clock would otherwise
        // overrun the 4-deep FIFO. STALL must throttle the source and
        // no word may be lost or duplicated.
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=8).collect();
        let (got, sent) =
            run_iface(&cfg, words.clone(), Time::from_ns(40), Time::from_us(2));
        assert_eq!(got, words);
        // The source's accepted-send times must stretch far beyond 8
        // clock cycles (stall in action).
        let t_last = sent.last().unwrap().0;
        assert!(
            t_last > Time::from_ns(300),
            "expected stall to stretch sends, last send at {t_last}"
        );
    }

    #[test]
    fn fifo_fills_to_depth_before_stalling() {
        // With an infinitely slow reader, exactly `depth` words are
        // accepted before STALL pins the source.
        let cfg = LinkConfig::default();
        let words: Vec<u64> = (1..=8).collect();
        let (_, sent) = run_iface(&cfg, words.clone(), Time::from_us(10), Time::from_us(1));
        assert_eq!(sent.len(), FIFO_DEPTH);
    }
}
