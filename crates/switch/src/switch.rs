//! The five-port gate-level switch.

use sal_cells::CircuitBuilder;
use sal_des::{SignalId, Value};
use sal_link::build_skid_stage;

use crate::arbiter::fixed_priority;
use crate::compare::{equal, greater, or_tree};
use crate::flit::COORD_BITS;

/// Port order used by every per-port array: North, South, East, West,
/// Local.
pub const PORTS: [&str; 5] = ["n", "s", "e", "w", "l"];

/// Port indices matching [`PORTS`].
pub mod port {
    /// North (toward smaller y).
    pub const N: usize = 0;
    /// South (toward larger y).
    pub const S: usize = 1;
    /// East (toward larger x).
    pub const E: usize = 2;
    /// West (toward smaller x).
    pub const W: usize = 3;
    /// The attached core.
    pub const L: usize = 4;
}

/// Ports of one switch. All arrays are indexed N, S, E, W, Local.
#[derive(Debug, Clone)]
pub struct SwitchPorts {
    /// Flit inputs (pre-declared; drive them from links or sources).
    pub flit_in: Vec<SignalId>,
    /// Valid inputs (pre-declared).
    pub valid_in: Vec<SignalId>,
    /// Backpressure outputs toward the upstream links/sources.
    pub stall_out: Vec<SignalId>,
    /// Flit outputs toward the downstream links/sinks.
    pub flit_out: Vec<SignalId>,
    /// Valid outputs.
    pub valid_out: Vec<SignalId>,
    /// Backpressure inputs (pre-declared; drive them from links or
    /// sinks).
    pub stall_in: Vec<SignalId>,
    /// Flip-flop bits on the clock (input skid stages).
    pub clocked_bits: u32,
}

/// Builds a switch at mesh coordinates `(x, y)` in scope `name`.
///
/// Structure: per input port an elastic skid buffer; a gate-level XY
/// route unit comparing the buffered head flit's destination against
/// this switch's coordinates; a fixed-priority arbiter per output; and
/// one-hot crossbar multiplexers. Single-flit packets (see
/// [`crate::flit`]). All decisions are combinational within the
/// cycle; a buffered flit advances on the clock edge exactly when it
/// holds an unstalled output grant, so no flit is ever dropped or
/// duplicated.
pub fn build_switch(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    m: u8,
    (x, y): (u8, u8),
    clk: SignalId,
    rstn: SignalId,
) -> SwitchPorts {
    assert!(m > 2 * COORD_BITS, "flit too narrow for routing");
    b.push_scope(name);

    // Pre-declared externally driven inputs.
    let flit_in: Vec<SignalId> =
        (0..5).map(|i| b.input(&format!("flit_in_{}", PORTS[i]), m)).collect();
    let valid_in: Vec<SignalId> =
        (0..5).map(|i| b.input(&format!("valid_in_{}", PORTS[i]), 1)).collect();
    let stall_in: Vec<SignalId> =
        (0..5).map(|i| b.input(&format!("stall_in_{}", PORTS[i]), 1)).collect();

    // This switch's own coordinates as tie constants.
    let xc = b.tie("x_const", Value::from_u64(COORD_BITS, u64::from(x)));
    let yc = b.tie("y_const", Value::from_u64(COORD_BITS, u64::from(y)));

    // ---------------- Input stages + route units ----------------
    let mut fq = Vec::with_capacity(5);
    let mut stall_down_pre = Vec::with_capacity(5);
    let mut stall_out = Vec::with_capacity(5);
    // req[input][output]
    let mut req: Vec<Vec<SignalId>> = Vec::with_capacity(5);
    let mut clocked_bits = 0u32;
    for i in 0..5 {
        b.push_scope(&format!("in_{}", PORTS[i]));
        let bus = b.concat("bus", &[flit_in[i], valid_in[i]]);
        let stall_down = b.net("stall_down", 1);
        let (out_q, use_skid) = build_skid_stage(b, clk, rstn, bus, stall_down);
        clocked_bits += m as u32 + 2;
        let v = b.slice("vq", out_q, m, 1);
        let f = b.slice("fq", out_q, 0, m);

        // Route compute from the buffered flit's header.
        let dx = b.slice("dx", f, m - COORD_BITS, COORD_BITS);
        let dy = b.slice("dy", f, m - 2 * COORD_BITS, COORD_BITS);
        let eq_x = equal(b, "eq_x", dx, xc);
        let gt_x = greater(b, "gt_x", dx, xc);
        let lt_x = greater(b, "lt_x", xc, dx);
        let eq_y = equal(b, "eq_y", dy, yc);
        let gt_y = greater(b, "gt_y", dy, yc);
        let lt_y = greater(b, "lt_y", yc, dy);
        let samex = b.and2("samex", v, eq_x);
        // XY: resolve X first, then Y, then eject.
        let go_e = b.and2("go_e", v, gt_x);
        let go_w = b.and2("go_w", v, lt_x);
        let go_s = b.and2("go_s", samex, gt_y);
        let go_n = b.and2("go_n", samex, lt_y);
        let go_l = b.and2("go_l", samex, eq_y);
        b.pop_scope();

        fq.push(f);
        stall_down_pre.push(stall_down);
        stall_out.push(use_skid);
        req.push(vec![go_n, go_s, go_e, go_w, go_l]);
    }

    // ---------------- Arbiters + crossbar ----------------
    let mut flit_out = Vec::with_capacity(5);
    let mut valid_out = Vec::with_capacity(5);
    // acc_terms[i]: conditions under which input i's flit leaves.
    let mut acc_terms: Vec<Vec<SignalId>> = vec![Vec::new(); 5];
    for o in 0..5 {
        b.push_scope(&format!("out_{}", PORTS[o]));
        let reqs: Vec<SignalId> = (0..5).map(|i| req[i][o]).collect();
        let grants = fixed_priority(b, "arb", &reqs);
        let v = or_tree(b, "valid", &grants);
        let fo = b.onehot_mux("flit", &grants, &fq);
        let nstall = b.inv("nstall", stall_in[o]);
        for (i, &g) in grants.iter().enumerate() {
            let acc = b.and2(&format!("acc_{}", PORTS[i]), g, nstall);
            acc_terms[i].push(acc);
        }
        b.pop_scope();
        flit_out.push(fo);
        valid_out.push(v);
    }

    // An input advances exactly when some output accepted its flit.
    for i in 0..5 {
        b.push_scope(&format!("in_{}", PORTS[i]));
        let acc = or_tree(b, "acc", &acc_terms[i]);
        let nacc = b.inv("nacc", acc);
        b.buf_into("stall_drv", stall_down_pre[i], nacc);
        b.pop_scope();
    }

    b.pop_scope();
    SwitchPorts {
        flit_in,
        valid_in,
        stall_out,
        flit_out,
        valid_out,
        stall_in,
        clocked_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit;
    use sal_des::{Simulator, Time, Value};
    use sal_link::testbench::{
        attach_sync_sink, attach_sync_source, SyncFlitSink, SyncFlitSource,
    };
    use sal_tech::St012Library;

    /// One switch at (1,1): inject from Local, check the flit leaves
    /// through the XY-correct port.
    fn route_once(dest: (u8, u8)) -> usize {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", Time::from_ns(10));
        let sw = build_switch(&mut b, "sw", 32, (1, 1), clk, rstn);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(2), Value::one(1))],
        );
        // Tie off the four link-side inputs; stall every output so the
        // routed flit parks on its chosen port for inspection.
        for i in 0..4 {
            sim.stimulus(sw.valid_in[i], &[(Time::ZERO, Value::zero(1))]);
            sim.stimulus(sw.flit_in[i], &[(Time::ZERO, Value::zero(32))]);
        }
        for i in 0..5 {
            sim.stimulus(sw.stall_in[i], &[(Time::ZERO, Value::one(1))]);
        }
        let word = flit::pack(32, dest.0, dest.1, 0xBEEF);
        let (src, _) = SyncFlitSource::new(
            clk,
            sw.stall_out[port::L],
            sw.flit_in[port::L],
            sw.valid_in[port::L],
            32,
            vec![word],
        );
        let src = src.with_rstn(rstn);
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        sim.run_until(Time::from_ns(100)).unwrap();
        let mut hits = Vec::new();
        for (o, name) in PORTS.iter().enumerate() {
            if sim.value(sw.valid_out[o]).is_high() {
                assert_eq!(
                    sim.value(sw.flit_out[o]).to_u64(),
                    Some(word),
                    "wrong flit on port {name}",
                );
                hits.push(o);
            }
        }
        assert_eq!(hits.len(), 1, "flit must sit on exactly one output");
        hits[0]
    }

    #[test]
    fn xy_routing_per_port() {
        assert_eq!(route_once((2, 1)), port::E);
        assert_eq!(route_once((0, 1)), port::W);
        assert_eq!(route_once((2, 3)), port::E); // x first
        assert_eq!(route_once((1, 3)), port::S);
        assert_eq!(route_once((1, 0)), port::N);
        assert_eq!(route_once((1, 1)), port::L);
    }

    #[test]
    fn contention_is_arbitrated_without_loss() {
        // Two inputs (West and Local) both send to the East output;
        // both flits must come out, one per cycle, no duplicates.
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let rstn = b.input("rstn", 1);
        let clk = b.clock("clk", Time::from_ns(10));
        let sw = build_switch(&mut b, "sw", 32, (1, 1), clk, rstn);
        b.finish();
        sim.stimulus(
            rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(2), Value::one(1))],
        );
        for i in [port::N, port::S, port::E] {
            sim.stimulus(sw.valid_in[i], &[(Time::ZERO, Value::zero(1))]);
            sim.stimulus(sw.flit_in[i], &[(Time::ZERO, Value::zero(32))]);
        }
        for i in [port::N, port::S, port::W, port::L] {
            sim.stimulus(sw.stall_in[i], &[(Time::ZERO, Value::zero(1))]);
        }
        let w1 = flit::pack(32, 3, 1, 0x111);
        let w2 = flit::pack(32, 3, 1, 0x222);
        let (s1, _) = SyncFlitSource::new(
            clk,
            sw.stall_out[port::W],
            sw.flit_in[port::W],
            sw.valid_in[port::W],
            32,
            vec![w1],
        );
        let s1 = s1.with_rstn(rstn);
        attach_sync_source(&mut sim, "s1", s1, Time::ZERO);
        let (s2, _) = SyncFlitSource::new(
            clk,
            sw.stall_out[port::L],
            sw.flit_in[port::L],
            sw.valid_in[port::L],
            32,
            vec![w2],
        );
        let s2 = s2.with_rstn(rstn);
        attach_sync_source(&mut sim, "s2", s2, Time::ZERO);
        let (snk, rx) = SyncFlitSink::new(
            clk,
            sw.valid_out[port::E],
            sw.flit_out[port::E],
            sw.stall_in[port::E],
        );
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(Time::from_ns(200)).unwrap();
        let mut got: Vec<u64> = rx.borrow().iter().map(|&(_, w)| w).collect();
        got.sort_unstable();
        let mut want = vec![w1, w2];
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
