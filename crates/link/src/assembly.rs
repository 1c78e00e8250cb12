//! Full link assemblies: I1, I2 and I3 as evaluated in the paper's
//! Fig 9, with wire segments, block scopes matching the Fig 14 power
//! breakdown, and the bookkeeping the measurement layer needs.

use sal_cells::{BuildError, CircuitBuilder};
use sal_des::{SignalId, Time};

use crate::protect::{build_checker, build_protector};
use crate::retry::{build_retry, RetryPorts};
use crate::spec::LinkFamily;
use crate::{
    build_as_interface, build_deserializer, build_sa_interface, build_serializer,
    build_sync_pipeline, build_wire_buffer, build_word_deserializer,
    build_word_deserializer_demux, build_word_deserializer_early, build_word_serializer,
    LinkConfig, ProtectionMode, RecoverySignals, WordRxStyle, LENGTH_UM,
};

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
    /// for I1 and whenever [`LinkConfig::protection`] is off (the
    /// layer is not built at all).
    pub recovery: Option<RecoverySignals>,
}

fn seg_params(b: &CircuitBuilder<'_>, cfg: &LinkConfig) -> (Time, f64) {
    let lib = b.library();
    let seg = cfg.segment_um();
    let vdd = lib.vdd();
    let energy = 0.5 * lib.wire_cap_ff_per_um() * seg * vdd * vdd;
    // First-order distributed RC for one segment.
    let r = 0.075 * seg;
    let c = lib.wire_cap_ff_per_um() * seg * 1e-15;
    let delay = Time::from_ps_f64((0.38 * r * c * 1e12).max(0.001));
    (delay, energy)
}

/// Maps a configuration failure into the builder error channel,
/// preserving the typed cause's message.
fn check_cfg(cfg: &LinkConfig) -> Result<(), BuildError> {
    cfg.check().map_err(BuildError::from)
}

/// Builds the synchronous reference link I1 in scope `name`.
///
/// The sending switch drives `flit_in`/`valid_in`; `cfg.buffers`
/// elastic clocked buffers carry them across [`LENGTH_UM`] of wire
/// with full VALID/STALL flow control.
///
/// Returns the first netlist-construction or configuration error
/// instead of panicking, so sweeps can probe unbuildable corners.
pub(crate) fn build_i1(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    check_cfg(cfg)?;
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

/// Builds the proposed asynchronous serialized link with per-transfer
/// acknowledgement (I2) in scope `name`: sync→async interface,
/// serializer, `cfg.buffers` four-phase wire buffers with wire
/// segments between them, deserializer, async→sync interface.
///
/// Every four-phase req/ack pair along the link is registered with the
/// kernel's handshake watchdog, so a wedged transfer yields a
/// [`DeadlockReport`](sal_des::DeadlockReport) naming the stage.
pub(crate) fn build_i2(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    check_cfg(cfg)?;
    let (seg_delay, seg_energy_per_um_bit) = seg_params(b, cfg);
    // The serializer core is protection-agnostic: it carries whatever
    // word/slice widths the (possibly widened) inner config names.
    // With protection off `icfg` equals `cfg` and no extra cell or
    // signal is built, keeping the netlist bit-identical to the seed.
    let icfg = cfg.inner();
    let clk = b.clock(&format!("{name}_clk"), cfg.clk_period);
    let rstn = b.input(&format!("{name}_rstn"), 1);
    b.push_scope(name);

    let flit_in = b.input("flit_in", cfg.flit_width);
    let valid_in = b.input("valid_in", 1);
    let stall_in = b.input("stall_in", 1);

    // Word-level acknowledge wires (pre-declared feedback).
    let ack_word_tx = b.net("ack_word_tx", 1);
    let ack_word_rx = b.net("ack_word_rx", 1);

    let tx = build_sa_interface(b, "tx_if", cfg, clk, rstn, flit_in, valid_in, ack_word_tx);

    // Protection/recovery wraps the core between the interfaces: the
    // retry controller gates the word request, the generator widens
    // the word, and the core's reset is gated so a watchdog resync
    // can drain it.
    let mut recovery: Option<RetryPorts> = None;
    let mut nack_heard = None;
    let mut ack_core = None;
    let mut core_rstn = rstn;
    let (ser_din, ser_req) = if cfg.protection == ProtectionMode::Off {
        (tx.dout, tx.reqout)
    } else {
        let nh = b.net("nack_heard", 1);
        let ac = b.net("ack_core", 1);
        let rt = build_retry(b, "retry", tx.reqout, ac, nh, rstn, false);
        let (pdata, preq) = build_protector(b, "prot", cfg, tx.dout, rt.req_down);
        b.buf_into("ack_word_tx_drv", ack_word_tx, rt.ack_up);
        let rs_n = b.inv("resync_n", rt.resync);
        core_rstn = b.and2("core_rstn", rstn, rs_n);
        recovery = Some(rt);
        nack_heard = Some(nh);
        ack_core = Some(ac);
        (pdata, preq)
    };

    // Slice-level acknowledge each stage listens to: acks_in[k] is
    // heard by stage k-1 (acks_in[0] by the serializer).
    let nstations = cfg.buffers as usize;
    let acks_in: Vec<SignalId> =
        (0..=nstations).map(|k| b.net(&format!("ack_in{k}"), 1)).collect();

    let ser = build_serializer(b, "ser", &icfg, ser_din, ser_req, acks_in[0], core_rstn);
    match ack_core {
        Some(ac) => b.buf_into("ack_core_drv", ac, ser.ackout),
        None => b.buf_into("ack_word_tx_drv", ack_word_tx, ser.ackout),
    }
    match nack_heard {
        Some(nh) => {
            b.sim().watch_handshake_nack(&format!("{name}.tx_if word"), tx.reqout, ack_word_tx, nh);
        }
        None => b.sim().watch_handshake(&format!("{name}.tx_if word"), tx.reqout, ack_word_tx),
    }
    b.sim().watch_handshake(&format!("{name}.ser slice"), ser.reqout, acks_in[0]);

    // Wire with buffers: segment → buffer → segment → … → segment.
    // With protection, the resync drain travels a dedicated forward
    // wire so every station's reset is gated by the locally heard
    // pulse.
    b.push_scope("wire");
    let mut rs = recovery
        .as_ref()
        .map(|rt| b.transport("seg_rs0", rt.resync, seg_delay, seg_energy_per_um_bit));
    let mut d = b.transport("seg_d0", ser.dout, seg_delay, seg_energy_per_um_bit);
    let mut r = b.transport("seg_r0", ser.reqout, seg_delay, seg_energy_per_um_bit);
    for k in 0..nstations {
        let buf_rstn = match rs {
            Some(rs_here) => {
                let n = b.inv(&format!("rs_n{k}"), rs_here);
                b.and2(&format!("buf{k}_rstn"), rstn, n)
            }
            None => rstn,
        };
        let ports = build_wire_buffer(b, &format!("buf{k}"), d, r, acks_in[k + 1], buf_rstn);
        // Watch the stage boundary as the *upstream* side experiences
        // it: its transported request against the transported
        // acknowledge it listens to. A fault anywhere along the return
        // path then shows up at the boundary that actually starves.
        b.sim().watch_handshake(&format!("{name}.wire.buf{k} slice"), r, acks_in[k]);
        // The acknowledge travels back over segment k.
        b.transport_into(
            &format!("seg_a{k}"),
            acks_in[k],
            ports.ack_to_prev,
            seg_delay,
            seg_energy_per_um_bit,
        );
        d = b.transport(&format!("seg_d{}", k + 1), ports.dout, seg_delay, seg_energy_per_um_bit);
        r = b.transport(&format!("seg_r{}", k + 1), ports.reqout, seg_delay, seg_energy_per_um_bit);
        rs = rs.map(|rs_here| {
            b.transport(&format!("seg_rs{}", k + 1), rs_here, seg_delay, seg_energy_per_um_bit)
        });
    }
    b.pop_scope();

    // Receive-side core reset: gated by the resync pulse as it
    // arrives over the wire.
    let rx_rstn = match rs {
        Some(rs_rx) => {
            let n = b.inv("rs_rx_n", rs_rx);
            b.and2("rx_core_rstn", rstn, n)
        }
        None => rstn,
    };
    let des_ack = if cfg.protection == ProtectionMode::Off {
        ack_word_rx
    } else {
        b.net("des_ack", 1)
    };
    let des = build_deserializer(b, "des", &icfg, d, r, des_ack, rx_rstn);
    b.transport_into(
        &format!("seg_a{nstations}"),
        acks_in[nstations],
        des.ackout,
        seg_delay,
        seg_energy_per_um_bit,
    );

    // The checker verifies every word, self-acknowledges corrupted
    // ones and launches the NACK back over its own wire.
    let chk = if cfg.protection == ProtectionMode::Off {
        None
    } else {
        let chk = build_checker(b, "chk", cfg, des.dout, des.reqout, ack_word_rx, rx_rstn);
        b.buf_into("des_ack_drv", des_ack, chk.ack_down);
        b.push_scope("wire");
        let mut nw = chk.nack;
        for k in 0..nstations {
            nw = b.transport(&format!("seg_n{k}"), nw, seg_delay, seg_energy_per_um_bit);
        }
        b.transport_into(
            "seg_n_last",
            nack_heard.expect("protected build declared the NACK wire"),
            nw,
            seg_delay,
            seg_energy_per_um_bit,
        );
        b.pop_scope();
        Some(chk)
    };
    let (rx_din, rx_req) = match &chk {
        Some(c) => (c.dout, c.reqout),
        None => (des.dout, des.reqout),
    };

    let rx = build_as_interface(b, "rx_if", cfg, clk, rstn, rx_din, rx_req, stall_in);
    b.buf_into("ack_word_rx_drv", ack_word_rx, rx.ackout);
    b.sim().watch_handshake(&format!("{name}.des slice"), r, acks_in[nstations]);
    match &chk {
        Some(c) => {
            b.sim().watch_handshake_nack(&format!("{name}.des word"), c.reqout, ack_word_rx, c.nack);
        }
        None => b.sim().watch_handshake(&format!("{name}.des word"), des.reqout, ack_word_rx),
    }

    b.pop_scope();
    if let Some(e) = b.take_error() {
        return Err(e);
    }
    Ok(LinkHandles {
        family: LinkFamily::PerTransfer,
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
        recovery: recovery.map(|rt| rt.signals),
    })
}

/// Builds the proposed asynchronous serialized link with per-word
/// acknowledgement (I3) in scope `name`: the wire "buffers" are plain
/// inverter pairs on the data/valid wires, and a single acknowledge
/// wire (also repeated) returns once per word.
///
/// The word-level handshakes at both interfaces are registered with
/// the kernel's handshake watchdog (the burst itself is
/// source-synchronous and has no per-slice handshake to watch).
pub(crate) fn build_i3(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    check_cfg(cfg)?;
    let (seg_delay, seg_energy) = seg_params(b, cfg);
    let icfg = cfg.inner();
    let clk = b.clock(&format!("{name}_clk"), cfg.clk_period);
    let rstn = b.input(&format!("{name}_rstn"), 1);
    b.push_scope(name);

    let flit_in = b.input("flit_in", cfg.flit_width);
    let valid_in = b.input("valid_in", 1);
    let stall_in = b.input("stall_in", 1);

    let ack_word_tx = b.net("ack_word_tx", 1);
    let ack_word_rx = b.net("ack_word_rx", 1);
    // The per-word acknowledge as heard by the transmitter.
    let ack_back_heard = b.net("ack_back_heard", 1);

    let tx = build_sa_interface(b, "tx_if", cfg, clk, rstn, flit_in, valid_in, ack_word_tx);

    // Protection/recovery wrap (see `build_i2`); the I3 controller
    // additionally degrades to per-transfer-ack pacing after a
    // resync.
    let mut recovery: Option<RetryPorts> = None;
    let mut nack_heard = None;
    let mut ack_core = None;
    let mut core_rstn = rstn;
    let (ser_din, ser_req) = if cfg.protection == ProtectionMode::Off {
        (tx.dout, tx.reqout)
    } else {
        let nh = b.net("nack_heard", 1);
        let ac = b.net("ack_core", 1);
        let rt = build_retry(b, "retry", tx.reqout, ac, nh, rstn, true);
        let (pdata, preq) = build_protector(b, "prot", cfg, tx.dout, rt.req_down);
        b.buf_into("ack_word_tx_drv", ack_word_tx, rt.ack_up);
        let rs_n = b.inv("resync_n", rt.resync);
        core_rstn = b.and2("core_rstn", rstn, rs_n);
        recovery = Some(rt);
        nack_heard = Some(nh);
        ack_core = Some(ac);
        (pdata, preq)
    };

    let ser = build_word_serializer(b, "ser", &icfg, ser_din, ser_req, ack_back_heard, core_rstn);
    match ack_core {
        Some(ac) => b.buf_into("ack_core_drv", ac, ser.ackout),
        None => b.buf_into("ack_word_tx_drv", ack_word_tx, ser.ackout),
    }
    match nack_heard {
        Some(nh) => {
            b.sim().watch_handshake_nack(&format!("{name}.tx_if word"), tx.reqout, ack_word_tx, nh);
        }
        None => b.sim().watch_handshake(&format!("{name}.tx_if word"), tx.reqout, ack_word_tx),
    }

    // Forward wire: data + valid (and the resync drain, when
    // protected) through inverter-pair stations.
    b.push_scope("wire");
    let nstations = cfg.buffers as usize;
    let mut rs =
        recovery.as_ref().map(|rt| b.transport("seg_rs0", rt.resync, seg_delay, seg_energy));
    let mut d = b.transport("seg_d0", ser.dout, seg_delay, seg_energy);
    let mut v = b.transport("seg_v0", ser.valid, seg_delay, seg_energy);
    for k in 0..nstations {
        let d1 = b.inv(&format!("rep_d{k}a"), d);
        let d2 = b.inv(&format!("rep_d{k}b"), d1);
        let v1 = b.inv(&format!("rep_v{k}a"), v);
        let v2 = b.inv(&format!("rep_v{k}b"), v1);
        d = b.transport(&format!("seg_d{}", k + 1), d2, seg_delay, seg_energy);
        v = b.transport(&format!("seg_v{}", k + 1), v2, seg_delay, seg_energy);
        rs = rs.map(|rs_here| {
            let r1 = b.inv(&format!("rep_rs{k}a"), rs_here);
            let r2 = b.inv(&format!("rep_rs{k}b"), r1);
            b.transport(&format!("seg_rs{}", k + 1), r2, seg_delay, seg_energy)
        });
    }
    b.pop_scope();

    let rx_rstn = match rs {
        Some(rs_rx) => {
            let n = b.inv("rs_rx_n", rs_rx);
            b.and2("rx_core_rstn", rstn, n)
        }
        None => rstn,
    };
    let des_ack = if cfg.protection == ProtectionMode::Off {
        ack_word_rx
    } else {
        b.net("des_ack", 1)
    };
    let des = match (cfg.early_word_ack, cfg.word_rx_style) {
        (true, _) => build_word_deserializer_early(b, "des", &icfg, d, v, des_ack, rx_rstn),
        (false, WordRxStyle::ShiftRegister) => {
            build_word_deserializer(b, "des", &icfg, d, v, des_ack, rx_rstn)
        }
        (false, WordRxStyle::Demux) => {
            build_word_deserializer_demux(b, "des", &icfg, d, v, des_ack, rx_rstn)
        }
    };

    // Backward acknowledge wire through the same stations.
    b.push_scope("wire");
    let mut ab = b.transport("seg_ab0", des.ack_back, seg_delay, seg_energy);
    for k in 0..nstations {
        let a1 = b.inv(&format!("rep_ab{k}a"), ab);
        let a2 = b.inv(&format!("rep_ab{k}b"), a1);
        ab = if k + 1 < nstations {
            b.transport(&format!("seg_ab{}", k + 1), a2, seg_delay, seg_energy)
        } else {
            a2
        };
    }
    b.transport_into("seg_ab_last", ack_back_heard, ab, seg_delay, seg_energy);
    b.pop_scope();

    // The checker and its backward NACK wire (repeated like the
    // acknowledge).
    let chk = if cfg.protection == ProtectionMode::Off {
        None
    } else {
        let chk = build_checker(b, "chk", cfg, des.dout, des.reqout, ack_word_rx, rx_rstn);
        b.buf_into("des_ack_drv", des_ack, chk.ack_down);
        b.push_scope("wire");
        let mut nw = b.transport("seg_n0", chk.nack, seg_delay, seg_energy);
        for k in 0..nstations {
            let n1 = b.inv(&format!("rep_n{k}a"), nw);
            let n2 = b.inv(&format!("rep_n{k}b"), n1);
            nw = if k + 1 < nstations {
                b.transport(&format!("seg_n{}", k + 1), n2, seg_delay, seg_energy)
            } else {
                n2
            };
        }
        b.transport_into(
            "seg_n_last",
            nack_heard.expect("protected build declared the NACK wire"),
            nw,
            seg_delay,
            seg_energy,
        );
        b.pop_scope();
        Some(chk)
    };
    let (rx_din, rx_req) = match &chk {
        Some(c) => (c.dout, c.reqout),
        None => (des.dout, des.reqout),
    };

    let rx = build_as_interface(b, "rx_if", cfg, clk, rstn, rx_din, rx_req, stall_in);
    b.buf_into("ack_word_rx_drv", ack_word_rx, rx.ackout);
    match &chk {
        Some(c) => {
            b.sim().watch_handshake_nack(&format!("{name}.des word"), c.reqout, ack_word_rx, c.nack);
        }
        None => b.sim().watch_handshake(&format!("{name}.des word"), des.reqout, ack_word_rx),
    }

    b.pop_scope();
    if let Some(e) = b.take_error() {
        return Err(e);
    }
    Ok(LinkHandles {
        family: LinkFamily::PerWord,
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
        clock_tree_um: 200.0,
        recovery: recovery.map(|rt| rt.signals),
    })
}

/// Builds a link of the given family in scope `name` — the assembly
/// dispatcher behind [`generate`](crate::generate).
pub(crate) fn build_family(
    b: &mut CircuitBuilder<'_>,
    family: LinkFamily,
    name: &str,
    cfg: &LinkConfig,
) -> Result<LinkHandles, BuildError> {
    let handles = match family {
        LinkFamily::Sync => build_i1(b, name, cfg),
        LinkFamily::PerTransfer => build_i2(b, name, cfg),
        LinkFamily::PerWord => build_i3(b, name, cfg),
    }?;
    // In debug builds (every test run), fail fast on netlists that
    // violate the structural invariants the links rely on. The lint
    // passes only read the connectivity snapshot — they never touch
    // kernel state — so a linted netlist replays bit-identically.
    #[cfg(debug_assertions)]
    {
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
