//! Full link assemblies: I1, I2 and I3 as evaluated in the paper's
//! Fig 9, with wire segments, block scopes matching the Fig 14 power
//! breakdown, and the bookkeeping the measurement layer needs.

use sal_cells::{BuildError, CircuitBuilder};
use sal_des::{SignalId, Time};

use crate::as_interface::build_as_interface;
use crate::deserializer::build_deserializer;
use crate::protect::{build_checker, build_protector};
use crate::retry::build_retry;
use crate::sa_interface::build_sa_interface;
use crate::serializer::build_serializer;
use crate::spec::{LinkFamily, LinkSpec, ProtectionMode};
use crate::sync_link::build_sync_pipeline;
use crate::wire_buffer::build_wire_buffer;
use crate::{build_word_deserializer, build_word_serializer, LinkConfig, RecoverySignals, LENGTH_UM};

/// Everything the testbench and the measurement layer need to drive a
/// built link.
#[derive(Debug, Clone)]
pub struct LinkHandles {
    /// Which link family was built.
    pub family: LinkFamily,
    /// The switch clock (shared by both ends, as in the paper).
    pub clk: SignalId,
    /// Global active-low reset (testbench-driven).
    pub rstn: SignalId,
    /// Flit input from the sending switch.
    pub flit_in: SignalId,
    /// Valid input from the sending switch.
    pub valid_in: SignalId,
    /// Backpressure to the sending switch.
    pub stall_out: SignalId,
    /// Flit output to the receiving switch.
    pub flit_out: SignalId,
    /// Valid output to the receiving switch.
    pub valid_out: SignalId,
    /// Backpressure from the receiving switch (testbench-driven).
    pub stall_in: SignalId,
    /// Root scope of the link instance (energy/area queries).
    pub scope: String,
    /// Free-running clock sinks per block scope, for the analytical
    /// clock power term: `(scope path, flip-flop bits)`.
    pub clock_sinks: Vec<(String, u32)>,
    /// Estimated clock distribution length, µm.
    pub clock_tree_um: f64,
    /// Observability taps into the protection/recovery layer — `None`
    /// for I1 and whenever [`LinkSpec::protection`] is off (the layer
    /// is not built at all).
    pub recovery: Option<RecoverySignals>,
}

/// A wire segment's first-order model: every segment of a link has
/// the same length, so one delay and one switching energy.
#[derive(Clone, Copy)]
struct Segment {
    delay: Time,
    energy_fj: f64,
}

impl Segment {
    fn new(b: &CircuitBuilder<'_>, cfg: &LinkConfig) -> Self {
        let lib = b.library();
        let seg = cfg.segment_um();
        let vdd = lib.vdd();
        let energy_fj = 0.5 * lib.wire_cap_ff_per_um() * seg * vdd * vdd;
        // First-order distributed RC for one segment.
        let r = 0.075 * seg;
        let c = lib.wire_cap_ff_per_um() * seg * 1e-15;
        let delay = Time::from_ps_f64((0.38 * r * c * 1e12).max(0.001));
        Segment { delay, energy_fj }
    }

    /// Lays a segment driven by `from`; returns its far end.
    fn lay(self, b: &mut CircuitBuilder<'_>, name: &str, from: SignalId) -> SignalId {
        b.transport(name, from, self.delay, self.energy_fj)
    }

    /// Lays a segment from `from` onto the pre-declared net `to`.
    fn lay_into(self, b: &mut CircuitBuilder<'_>, name: &str, to: SignalId, from: SignalId) {
        b.transport_into(name, to, from, self.delay, self.energy_fj);
    }
}

/// I3's wire station on one wire: the inverter pair `rep_{wire}{k}a`,
/// `rep_{wire}{k}b`.
fn repeat(b: &mut CircuitBuilder<'_>, wire: &str, k: usize, from: SignalId) -> SignalId {
    let a = b.inv(&format!("rep_{wire}{k}a"), from);
    b.inv(&format!("rep_{wire}{k}b"), a)
}

/// Lays a backward wire in the `wire` scope: segments `seg_{wire}0` …
/// `seg_{wire}{stations-1}` from `from`, an inverter pair after each
/// of them when `repeated`, and `seg_{wire}_last` onto the
/// transmitter's pre-declared `heard` net.
fn backward_wire(
    b: &mut CircuitBuilder<'_>,
    seg: Segment,
    wire: &str,
    from: SignalId,
    heard: SignalId,
    stations: usize,
    repeated: bool,
) {
    b.push_scope("wire");
    let mut w = from;
    for k in 0..stations {
        w = seg.lay(b, &format!("seg_{wire}{k}"), w);
        if repeated {
            w = repeat(b, wire, k, w);
        }
    }
    seg.lay_into(b, &format!("seg_{wire}_last"), heard, w);
    b.pop_scope();
}

/// Gates `rstn` with the inverse of a resync pulse.
fn reset_gate(
    b: &mut CircuitBuilder<'_>,
    inv: &str,
    name: &str,
    rstn: SignalId,
    resync: SignalId,
) -> SignalId {
    let n = b.inv(inv, resync);
    b.and2(name, rstn, n)
}

/// Builds the synchronous reference link I1 in scope `name`.
///
/// The sending switch drives `flit_in`/`valid_in`; `cfg.buffers`
/// elastic clocked buffers carry them across [`LENGTH_UM`] of wire
/// with full VALID/STALL flow control.
///
/// Returns the first netlist-construction error instead of
/// panicking.
pub(crate) fn build_i1(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    let clk = b.clock(&format!("{name}_clk"), cfg.clk_period);
    let rstn = b.input(&format!("{name}_rstn"), 1);
    b.push_scope(name);
    let flit_in = b.input("flit_in", cfg.flit_width);
    let valid_in = b.input("valid_in", 1);
    let ports = build_sync_pipeline(b, "buffers", cfg, clk, rstn, flit_in, valid_in);
    b.pop_scope();
    if let Some(e) = b.take_error() {
        return Err(e);
    }
    Ok(LinkHandles {
        family: LinkFamily::Sync,
        clk,
        rstn,
        flit_in,
        valid_in,
        stall_out: ports.stall_out,
        flit_out: ports.flit_out,
        valid_out: ports.valid_out,
        stall_in: ports.stall_in,
        scope: name.to_string(),
        clock_sinks: vec![(format!("{name}.buffers"), ports.clocked_bits)],
        clock_tree_um: LENGTH_UM,
        recovery: None,
    })
}

/// Builds one of the paper's asynchronous serialized links, I2
/// ([`LinkFamily::PerTransfer`]) or I3 ([`LinkFamily::PerWord`]), in
/// scope `name`: the spec's family, protection and receiver over the
/// merged config's geometry and clock.
///
/// Both families share the end interfaces and everything around the
/// serial core: the sync→async interface, the protection wrap (retry
/// controller, code generator and a resync-gated core reset; I3's
/// controller additionally degrades to per-transfer pacing after a
/// resync), the receive reset gated by the resync drain as it arrives
/// over the wire, the checker with its backward NACK wire, and the
/// async→sync interface. With protection off none of the wrap is
/// built. The serial cores differ:
/// - I2 (Fig 6): a four-phase serializer, `cfg.buffers` wire buffers
///   with a slice acknowledge returned over every segment, and a
///   four-phase deserializer;
/// - I3 (Figs 7–8): a source-synchronous burst serializer, data and
///   valid wires through inverter-pair stations, the receiver the
///   spec selects, and one repeated acknowledge wire that returns once
///   per word.
///
/// Every four-phase req/ack pair along the link (for I3, only the
/// word-level pairs at both interfaces; its burst has no per-slice
/// handshake) is registered with the kernel's handshake watchdog, so a
/// wedged transfer yields a [`DeadlockReport`](sal_des::DeadlockReport)
/// naming the stage.
pub(crate) fn build_serial(
    b: &mut CircuitBuilder<'_>,
    spec: &LinkSpec,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    let family = spec.family();
    let per_word = family == LinkFamily::PerWord;
    let seg = Segment::new(b, cfg);
    let stations = cfg.buffers as usize;
    // The serial core is protection-agnostic: it carries whatever
    // word/slice widths the (possibly widened) inner config names.
    // With protection off `icfg` equals `cfg` and no extra cell or
    // signal is built, keeping the netlist bit-identical to the seed.
    let icfg = spec.inner(cfg);
    let clk = b.clock(&format!("{name}_clk"), cfg.clk_period);
    let rstn = b.input(&format!("{name}_rstn"), 1);
    b.push_scope(name);

    let flit_in = b.input("flit_in", cfg.flit_width);
    let valid_in = b.input("valid_in", 1);
    let stall_in = b.input("stall_in", 1);

    // Word-level acknowledge wires (pre-declared feedback), and I3's
    // per-word acknowledge as heard by the transmitter.
    let ack_word_tx = b.net("ack_word_tx", 1);
    let ack_word_rx = b.net("ack_word_rx", 1);
    let ack_back_heard = per_word.then(|| b.net("ack_back_heard", 1));

    let tx = build_sa_interface(b, "tx_if", cfg, clk, rstn, flit_in, valid_in, ack_word_tx);

    // Protection/recovery wraps the core between the interfaces: the
    // retry controller gates the word request, the generator widens
    // the word, and the core's reset is gated so a watchdog resync
    // can drain it. `wrap` keeps the controller and the NACK net its
    // backward wire lands on.
    let (wrap, ser_din, ser_req, ser_ack, core_rstn) = match spec.protection() {
        ProtectionMode::Off => (None, tx.dout, tx.reqout, ack_word_tx, rstn),
        _ => {
            let nack_heard = b.net("nack_heard", 1);
            let ack_core = b.net("ack_core", 1);
            let rt = build_retry(b, "retry", tx.reqout, ack_core, nack_heard, rstn, per_word);
            let (data, req) = build_protector(b, "prot", spec, tx.dout, rt.req_down);
            b.buf_into("ack_word_tx_drv", ack_word_tx, rt.ack_up);
            let core_rstn = reset_gate(b, "resync_n", "core_rstn", rstn, rt.resync);
            (Some((rt, nack_heard)), data, req, ack_core, core_rstn)
        }
    };

    // The serializer: its word acknowledge, slice data and slice
    // strobe (I2's request, I3's valid). I2's acks_in[k] is the slice
    // acknowledge heard by stage k-1 (acks_in[0] by the serializer).
    let (acks_in, ser_ackout, ser_dout, ser_strobe) = match ack_back_heard {
        Some(heard) => {
            let ser = build_word_serializer(b, "ser", &icfg, ser_din, ser_req, heard, core_rstn);
            (Vec::new(), ser.ackout, ser.dout, ser.valid)
        }
        None => {
            let acks_in: Vec<SignalId> =
                (0..=stations).map(|k| b.net(&format!("ack_in{k}"), 1)).collect();
            let ser = build_serializer(b, "ser", &icfg, ser_din, ser_req, acks_in[0], core_rstn);
            (acks_in, ser.ackout, ser.dout, ser.reqout)
        }
    };
    let drv = if wrap.is_some() { "ack_core_drv" } else { "ack_word_tx_drv" };
    b.buf_into(drv, ser_ack, ser_ackout);
    let nack_heard = wrap.map(|(_, nack_heard)| nack_heard);
    b.sim().watch_handshake(&format!("{name}.tx_if word"), tx.reqout, ack_word_tx, nack_heard);
    if !per_word {
        b.sim().watch_handshake(&format!("{name}.ser slice"), ser_strobe, acks_in[0], None);
    }

    // Forward wire: segment → station → segment → … → segment, for the
    // data, the strobe and (when protected) the resync drain, which
    // travels its own wire so every station's reset is gated by the
    // locally heard pulse.
    let strobe = if per_word { "v" } else { "r" };
    b.push_scope("wire");
    let mut rs = wrap.map(|(rt, _)| seg.lay(b, "seg_rs0", rt.resync));
    let mut d = seg.lay(b, "seg_d0", ser_dout);
    let mut s = seg.lay(b, &format!("seg_{strobe}0"), ser_strobe);
    for k in 0..stations {
        let (d_out, s_out) = if per_word {
            (repeat(b, "d", k, d), repeat(b, "v", k, s))
        } else {
            let buf_rstn = rs.map_or(rstn, |rs| {
                reset_gate(b, &format!("rs_n{k}"), &format!("buf{k}_rstn"), rstn, rs)
            });
            let ports = build_wire_buffer(b, &format!("buf{k}"), d, s, acks_in[k + 1], buf_rstn);
            // Watch the stage boundary as the *upstream* side
            // experiences it: its transported request against the
            // transported acknowledge it listens to. A fault anywhere
            // along the return path then shows up at the boundary
            // that actually starves.
            b.sim().watch_handshake(&format!("{name}.wire.buf{k} slice"), s, acks_in[k], None);
            // The acknowledge travels back over segment k.
            seg.lay_into(b, &format!("seg_a{k}"), acks_in[k], ports.ack_to_prev);
            (ports.dout, ports.reqout)
        };
        d = seg.lay(b, &format!("seg_d{}", k + 1), d_out);
        s = seg.lay(b, &format!("seg_{strobe}{}", k + 1), s_out);
        rs = rs.map(|rs| {
            let rs = if per_word { repeat(b, "rs", k, rs) } else { rs };
            seg.lay(b, &format!("seg_rs{}", k + 1), rs)
        });
    }
    b.pop_scope();

    // Receive-side core reset: gated by the resync pulse as it
    // arrives over the wire.
    let rx_rstn = rs.map_or(rstn, |rs| reset_gate(b, "rs_rx_n", "rx_core_rstn", rstn, rs));
    let des_ack = if wrap.is_some() { b.net("des_ack", 1) } else { ack_word_rx };
    // The deserializer and its acknowledge return: I2's over the last
    // segment, I3's over the repeated backward wire.
    let (des_dout, des_req) = match ack_back_heard {
        Some(heard) => {
            let style = spec.word_rx_style();
            let des = build_word_deserializer(b, "des", &icfg, style, d, s, des_ack, rx_rstn);
            backward_wire(b, seg, "ab", des.ack_back, heard, stations, true);
            (des.dout, des.reqout)
        }
        None => {
            let des = build_deserializer(b, "des", &icfg, d, s, des_ack, rx_rstn);
            seg.lay_into(b, &format!("seg_a{stations}"), acks_in[stations], des.ackout);
            (des.dout, des.reqout)
        }
    };

    // The checker verifies every word, self-acknowledges corrupted
    // ones and launches the NACK back over its own wire (repeated
    // like I3's acknowledge).
    let chk = wrap.map(|(_, nack_heard)| {
        let chk = build_checker(b, "chk", spec, des_dout, des_req, ack_word_rx, rx_rstn);
        b.buf_into("des_ack_drv", des_ack, chk.ack_down);
        backward_wire(b, seg, "n", chk.nack, nack_heard, stations, per_word);
        chk
    });
    let (rx_din, rx_req) = chk.as_ref().map_or((des_dout, des_req), |c| (c.dout, c.reqout));

    let rx = build_as_interface(b, "rx_if", cfg, clk, rstn, rx_din, rx_req, stall_in);
    b.buf_into("ack_word_rx_drv", ack_word_rx, rx.ackout);
    if !per_word {
        b.sim().watch_handshake(&format!("{name}.des slice"), s, acks_in[stations], None);
    }
    let nack = chk.as_ref().map(|c| c.nack);
    b.sim().watch_handshake(&format!("{name}.des word"), rx_req, ack_word_rx, nack);

    b.pop_scope();
    if let Some(e) = b.take_error() {
        return Err(e);
    }
    Ok(LinkHandles {
        family,
        clk,
        rstn,
        flit_in,
        valid_in,
        stall_out: tx.stall,
        flit_out: rx.flit_out,
        valid_out: rx.valid_out,
        stall_in,
        scope: name.to_string(),
        clock_sinks: vec![
            (format!("{name}.tx_if"), tx.clocked_bits),
            (format!("{name}.rx_if"), rx.clocked_bits),
        ],
        // The interfaces sit at the switches; only a short local clock
        // stub is needed (no clocked elements along the wire).
        clock_tree_um: 200.0,
        recovery: wrap.map(|(rt, _)| rt.signals),
    })
}

/// Builds the link `spec` describes in scope `name` — the assembly
/// dispatcher behind [`generate`](crate::generate) and
/// [`run_spec`](crate::run_spec). The spec decides every design
/// choice; `cfg`, the spec merged onto its base by
/// [`LinkSpec::apply`], supplies geometry and the clock.
pub(crate) fn build_family(
    b: &mut CircuitBuilder<'_>,
    spec: &LinkSpec,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    // In debug builds (every test run), fail fast on netlists that
    // violate the structural invariants the links rely on. A link
    // built into an empty simulator is the whole netlist and is linted
    // here; one built into a larger design (a fabric) is linted with
    // it, once that design is finished. The lint passes only read the
    // connectivity snapshot — they never touch kernel state — so a
    // linted netlist replays bit-identically.
    #[cfg(debug_assertions)]
    let alone = b.sim().signal_count() == 0;
    let handles = match spec.family() {
        LinkFamily::Sync => build_i1(b, name, cfg),
        LinkFamily::PerTransfer | LinkFamily::PerWord => build_serial(b, spec, name, cfg),
    }?;
    #[cfg(debug_assertions)]
    if alone {
        let report = sal_lint::run_all(&b.sim().netgraph());
        if report.has_errors() {
            let summary: Vec<String> = report
                .errors()
                .map(|f| format!("[{}] {}: {}", f.pass, f.path, f.message))
                .collect();
            return Err(BuildError::Config {
                message: format!(
                    "netlist lint found {} error(s): {}",
                    summary.len(),
                    summary.join("; ")
                ),
            });
        }
    }
    Ok(handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{run_spec, MeasureOptions};
    use crate::testbench::worst_case_pattern;
    use crate::LinkSpec;

    #[test]
    fn paper_specs_transfer_worst_case_pattern() {
        for family in LinkFamily::ALL {
            let spec = LinkSpec::paper(family);
            let words = worst_case_pattern(4, 32);
            let r = run_spec(&spec, &LinkConfig::default(), &words, &MeasureOptions::default())
                .expect("clean run");
            assert_eq!(r.received_words(), words, "{}", family.label());
        }
    }

    #[test]
    fn all_links_all_buffer_counts() {
        for family in LinkFamily::ALL {
            for buffers in [2u32, 4, 6, 8] {
                let spec = LinkSpec::builder()
                    .family(family)
                    .buffer_depth(buffers)
                    .build()
                    .expect("valid spec");
                let words = worst_case_pattern(4, 32);
                let r = run_spec(&spec, &LinkConfig::default(), &words, &MeasureOptions::default())
                    .expect("clean run");
                assert_eq!(
                    r.received_words(),
                    words,
                    "{} with {buffers} buffers corrupted data",
                    family.label()
                );
            }
        }
    }

    #[test]
    fn protected_links_transfer_cleanly() {
        use crate::ProtectionMode;
        for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
            for protection in [ProtectionMode::Parity, ProtectionMode::Crc8] {
                let spec = LinkSpec::builder()
                    .family(family)
                    .protection(protection)
                    .build()
                    .expect("valid spec");
                let words = worst_case_pattern(4, 32);
                let r = run_spec(&spec, &LinkConfig::default(), &words, &MeasureOptions::default())
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} with {} protection failed: {e}",
                            family.label(),
                            protection.label()
                        )
                    });
                assert_eq!(
                    r.received_words(),
                    words,
                    "{} with {} protection corrupted data",
                    family.label(),
                    protection.label()
                );
            }
        }
    }

    #[test]
    fn async_links_survive_300mhz_switch_clock() {
        let base = LinkConfig {
            clk_period: sal_des::Time::from_ns_f64(10.0 / 3.0),
            ..LinkConfig::default()
        };
        for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
            let words: Vec<u64> = (0..12).map(|i| (i * 0x2468_ACE1) & 0xFFFF_FFFF).collect();
            let r = run_spec(&LinkSpec::paper(family), &base, &words, &MeasureOptions::default())
                .expect("clean run");
            assert_eq!(r.received_words(), words, "{}", family.label());
        }
    }

}
