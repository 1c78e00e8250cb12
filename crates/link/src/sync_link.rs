//! The fully synchronous reference link I1 (paper Fig 1a / Fig 9 top):
//! an `m`-bit parallel data path with a valid bit, pipelined through
//! clocked buffer stages, all driven by the global switch clock.
//!
//! Each stage is an *elastic* (skid) buffer: an always-clocked output
//! register plus a clock-gated skid register, so the link supports the
//! VALID/STALL flow control of the paper's Fig 2 without ever dropping
//! a flit when the stall wave propagates upstream one stage per cycle.
//! This two-registers-per-stage structure is also what the paper's
//! Table 1 area for I1 implies (a plain single register per stage
//! could not honour STALL).

use sal_cells::CircuitBuilder;
use sal_des::SignalId;

use crate::LinkConfig;

/// Ports and bookkeeping of the synchronous pipeline.
#[derive(Debug, Clone)]
pub(crate) struct SyncPipelinePorts {
    /// Flit output at the far switch.
    pub flit_out: SignalId,
    /// Valid output at the far switch.
    pub valid_out: SignalId,
    /// Backpressure to the sending switch.
    pub stall_out: SignalId,
    /// Backpressure input from the receiving switch (pre-declared;
    /// drive it from the sink).
    pub stall_in: SignalId,
    /// Flip-flop bits hanging on the free-running clock (the skid
    /// registers are clock-gated and excluded).
    pub clocked_bits: u32,
}

/// Builds one elastic (skid) buffer stage in the *current* scope:
/// an always-clocked output register plus a clock-gated skid register.
///
/// `data_in` carries payload and a valid bit in its MSB; `stall_down`
/// is the downstream not-ready level (pre-declare it and drive later
/// when it comes from logic built afterwards). Returns the registered
/// output bus and the upstream stall (high while the skid register
/// holds a deferred word). Lossless under any stall pattern: the skid
/// absorbs the word in flight when the stall wave arrives.
pub fn build_skid_stage(
    b: &mut CircuitBuilder<'_>,
    clk: SignalId,
    rstn: SignalId,
    data_in: SignalId,
    stall_down: SignalId,
) -> (SignalId, SignalId) {
    let w = {
        // Width of the bus including its valid MSB.
        let sim = b.sim();
        sim.signal_width(data_in)
    };
    let m = w - 1;
    let valid = b.slice("valid_in", data_in, m, 1);

    let use_skid = b.net("use_skid", 1);
    let nstall = b.inv("nstall", stall_down);
    let out_q = b.net("out_q", w);
    let valid_q = b.slice("valid_q", out_q, m, 1);
    let nvalidq = b.inv("nvalidq", valid_q);
    let out_en = b.or2("out_en", nstall, nvalidq);
    let nuse = b.inv("nuse", use_skid);
    let press = b.and2("press", stall_down, valid_q);
    let skid_en = b.and3("skid_en", nuse, valid, press);
    let nout_en = b.inv("nout_en", out_en);
    let hold = b.and2("hold", use_skid, nout_en);
    let use_next = b.or2("use_next", hold, skid_en);
    b.dff_into("use_skid_ff", use_skid, use_next, clk, Some(rstn));

    let skid_q = b.net("skid_q", w);
    let skid_d = b.mux2("skid_d", skid_en, skid_q, data_in);
    b.dff_into("skid_ff", skid_q, skid_d, clk, Some(rstn));

    let src = b.mux2("src", use_skid, data_in, skid_q);
    let out_d = b.mux2("out_d", out_en, out_q, src);
    b.dff_into("out_ff", out_q, out_d, clk, Some(rstn));

    (out_q, use_skid)
}

/// Builds `cfg.buffers` elastic pipeline stages inside scope `name`,
/// carrying `flit_in`/`valid_in` across the wire. Each of the
/// `buffers + 1` wire segments contributes its switching load to the
/// signal that drives it.
pub(crate) fn build_sync_pipeline(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
    clk: SignalId,
    rstn: SignalId,
    flit_in: SignalId,
    valid_in: SignalId,
) -> SyncPipelinePorts {
    let m = cfg.flit_width;
    b.push_scope(name);
    let seg = cfg.segment_um();

    let nstages = cfg.buffers as usize;
    // Pre-declare the stall wires (they run against the data flow).
    // stalls[k] is driven by stage k (k < nstages) or by the receiving
    // switch (k == nstages, the pipeline's port); stage k listens to
    // stalls[k + 1].
    let mut stalls: Vec<SignalId> =
        (0..nstages).map(|k| b.net(&format!("stall{k}"), 1)).collect();
    stalls.push(b.input(&format!("stall{nstages}"), 1));

    let mut flit = flit_in;
    let mut valid = valid_in;
    b.add_wire_load(flit, seg);
    b.add_wire_load(valid, seg);
    let mut clocked_bits = 0u32;
    for k in 0..nstages {
        b.push_scope(&format!("buf{k}"));
        let stall_down = stalls[k + 1];
        let data_in = b.concat("din", &[flit, valid]);
        let (out_q, use_skid) = build_skid_stage(b, clk, rstn, data_in, stall_down);
        // This stage's upstream stall is its skid-occupancy flag.
        b.buf_into("stall_drv", stalls[k], use_skid);
        flit = b.slice("flit_q", out_q, 0, m);
        valid = b.slice("valid_out", out_q, m, 1);
        // Only the output register and control FF hang on the clock.
        clocked_bits += m as u32 + 2;
        b.add_wire_load(flit, seg);
        b.add_wire_load(valid, seg);
        b.pop_scope();
    }
    b.pop_scope();
    SyncPipelinePorts {
        flit_out: flit,
        valid_out: valid,
        stall_out: stalls[0],
        stall_in: stalls[nstages],
        clocked_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{
        attach_sync_sink, attach_sync_source, worst_case_pattern, SyncFlitSink, SyncFlitSource,
    };
    use sal_des::{Simulator, Time, Value};
    use sal_tech::St012Library;

    fn run_pipeline(
        cfg: &LinkConfig,
        words: Vec<u64>,
        stall_fn: Box<dyn FnMut(u64) -> bool>,
    ) -> (Vec<(Time, u64)>, u32) {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", cfg.clk_period);
        let flit_in = b.input("flit_in", cfg.flit_width);
        let valid_in = b.input("valid_in", 1);
        let ports = build_sync_pipeline(&mut b, "i1", cfg, clk, rstn, flit_in, valid_in);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        let (src, _) = SyncFlitSource::new(
            clk,
            ports.stall_out,
            flit_in,
            valid_in,
            cfg.flit_width,
            words.clone(),
        );
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        let (snk, rx) = SyncFlitSink::with_stall_fn(
            clk,
            ports.valid_out,
            ports.flit_out,
            ports.stall_in,
            stall_fn,
        );
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(cfg.clk_period * (4 * words.len() as u64 + cfg.buffers as u64 + 12))
            .unwrap();
        let got = rx.borrow().clone();
        (got, ports.clocked_bits)
    }

    #[test]
    fn pipeline_delivers_in_order_at_full_rate() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let (got, bits) = run_pipeline(&cfg, words.clone(), Box::new(|_| false));
        let data: Vec<u64> = got.iter().map(|&(_, w)| w).collect();
        assert_eq!(data, words);
        assert_eq!(bits, 4 * 34);
        let times: Vec<Time> = got.iter().map(|&(t, _)| t).collect();
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], cfg.clk_period, "full throughput expected");
        }
    }

    #[test]
    fn throughput_at_several_clocks() {
        for period_ns in [10u64, 5, 3] {
            let cfg = LinkConfig {
                clk_period: Time::from_ns(period_ns),
                buffers: 2,
                ..LinkConfig::default()
            };
            let words: Vec<u64> = (1..=6).collect();
            let (got, _) = run_pipeline(&cfg, words.clone(), Box::new(|_| false));
            let data: Vec<u64> = got.iter().map(|&(_, w)| w).collect();
            assert_eq!(data, words);
        }
    }

    #[test]
    fn stall_waves_lose_nothing() {
        // The sink stalls in bursts; the skid buffers must absorb the
        // in-flight flits and deliver every word exactly once.
        let cfg = LinkConfig { buffers: 4, ..LinkConfig::default() };
        let words: Vec<u64> = (1..=12).collect();
        let (got, _) = run_pipeline(
            &cfg,
            words.clone(),
            Box::new(|c| (c / 3) % 2 == 0), // stall 3 cycles, go 3 cycles
        );
        let data: Vec<u64> = got.iter().map(|&(_, w)| w).collect();
        assert_eq!(data, words);
    }

    #[test]
    fn hard_stall_backpressures_to_source() {
        // Sink refuses everything: nothing may be delivered.
        let cfg = LinkConfig { buffers: 2, ..LinkConfig::default() };
        let words: Vec<u64> = (1..=6).collect();
        let (got, _) = run_pipeline(&cfg, words.clone(), Box::new(|_| true));
        assert!(got.is_empty());
    }
}
