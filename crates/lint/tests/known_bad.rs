//! Seeded known-bad netlists: every pass family must *fire* on a
//! netlist built to violate its invariant, and must stay silent on
//! the equivalent healthy construction. These are the lint's own
//! regression fixtures — if a refactor of the graph extraction or a
//! pass ever stops seeing a defect class, one of these goes red.

use sal_cells::CircuitBuilder;
use sal_des::{CellClass, Component, Ctx, Simulator, Time};
use sal_lint::{run_all, Severity};
use sal_tech::St012Library;

/// Trivial logic stand-in for raw-simulator constructions (the lint
/// only reads the metadata side-table, never evaluates the cell).
struct Nop;
impl Component for Nop {
    fn on_input(&mut self, _ctx: &mut Ctx<'_>) {}
}

fn errors_of<'r>(report: &'r sal_lint::LintReport, pass: &str) -> Vec<&'r sal_lint::Finding> {
    report.errors().filter(|f| f.pass == pass).collect()
}

// ---------------------------------------------------------------
// connectivity
// ---------------------------------------------------------------

#[test]
fn connectivity_fires_on_floating_input() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let a = b.input("a", 1);
    // A raw signal, deliberately NOT marked as a port: it has no
    // driver but the AND gate reads it.
    let floating = b.sim().add_signal("floating", 1);
    let _y = b.and2("y", a, floating);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "connectivity");
    assert!(
        errs.iter().any(|f| f.path.contains("floating") && f.message.contains("undriven")),
        "expected an undriven-but-read error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn connectivity_fires_on_unarbitrated_double_driver() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let a = b.input("a", 1);
    let y = b.inv("y", a);
    let _z = b.inv("z", y);
    // Second driver on `y`, recorded via the metadata channel (the
    // kernel itself enforces single-driver wiring) with no arbiter tag.
    let extra = sim.add_component("rogue", Nop, &[]);
    sim.set_component_class(extra, CellClass::Comb);
    sim.connect_extra_driver(extra, y);
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "connectivity");
    assert!(
        errs.iter().any(|f| f.message.contains("2 drivers")),
        "expected a multiple-driver error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn connectivity_arbiter_tag_silences_double_driver() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let a = b.input("a", 1);
    let y = b.inv("y", a);
    let _z = b.inv("z", y);
    let extra = sim.add_component("mutex_grant", Nop, &[]);
    sim.set_component_class(extra, CellClass::Comb);
    sim.connect_extra_driver(extra, y);
    sim.mark_arbited(y);
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "connectivity").is_empty(),
        "arbited signal must not be flagged:\n{}",
        report.to_text()
    );
}

#[test]
fn connectivity_fires_on_width_mismatch() {
    let mut sim = Simulator::new();
    // An 8-bit gate reading a 4-bit bus (neither 1-bit control nor
    // full width). Raw construction: the builder's own width checks
    // would reject this, which is exactly why the lint must catch
    // netlists assembled outside the builder.
    let bus8 = sim.add_signal("bus8", 8);
    let bus4 = sim.add_signal("bus4", 4);
    let out = sim.add_signal("out", 8);
    sim.mark_port(bus8);
    sim.mark_port(bus4);
    let g = sim.add_component("wide_and", Nop, &[bus8, bus4]);
    sim.set_component_class(g, CellClass::Comb);
    sim.connect_driver(g, out).unwrap();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "connectivity");
    assert!(
        errs.iter().any(|f| f.path == "bus4" && f.message.contains("width 4")),
        "expected a width-mismatch error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn connectivity_silent_on_healthy_netlist() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let a = b.input("a", 8);
    let en = b.input("en", 1);
    // 1-bit control against an 8-bit bus is the legal broadcast form.
    let q = b.dlatch("q", a, en, None);
    let _y = b.inv("y", q);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        !report.has_errors(),
        "healthy netlist must carry no errors:\n{}",
        report.to_text()
    );
}

// ---------------------------------------------------------------
// loops
// ---------------------------------------------------------------

#[test]
fn loops_fire_on_cross_coupled_nands() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let set = b.input("set", 1);
    let rst = b.input("rst", 1);
    // An SR latch built from raw cross-coupled NANDs: functionally a
    // state element, structurally a combinational cycle — exactly the
    // hazard the pass exists for (un-modelled storage the timing
    // passes cannot see).
    let qb_pre = b.input("qb_pre", 1);
    let q = b.nand2("q", set, qb_pre);
    let qb = b.nand2("qb", rst, q);
    b.buf_into("qb_drv", qb_pre, qb);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "loops");
    assert!(
        errs.iter().any(|f| f.message.contains("combinational loop")),
        "expected a combinational-loop error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn loops_exempted_oscillator_is_informational() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let en = b.input("en", 1);
    let _osc = b.ring_oscillator("osc", en);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "loops").is_empty(),
        "exempted ring oscillator must not be an error:\n{}",
        report.to_text()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.pass == "loops"
                && f.severity == Severity::Info
                && f.message.contains("intentional")),
        "exempted loop should still be reported as info:\n{}",
        report.to_text()
    );
}

#[test]
fn loops_silent_on_sequential_feedback() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let rstn = b.input("rstn", 1);
    // Handshake feedback through a C-element: cyclic, but the cycle
    // passes through a state-holding cell — not a combinational loop.
    let ack_pre = b.input("ack_pre", 1);
    let nack = b.inv("nack", ack_pre);
    let lt = b.celement2("lt", req, nack, Some(rstn), false);
    b.buf_into("ack_drv", ack_pre, lt);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "loops").is_empty(),
        "sequential feedback must not be flagged:\n{}",
        report.to_text()
    );
}

// ---------------------------------------------------------------
// timing
// ---------------------------------------------------------------

/// Launch + capture pair where the matched delay is on the WRONG
/// side: the strobe takes the short path, the data the long one.
#[test]
fn timing_fires_on_reversed_matched_delay() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let go = b.input("go", 1);
    let slow_data = b.buf_chain("slow_data", go, 6);
    let fast_strobe = b.buf("fast_strobe", go);
    b.sim().register_bundle("rev", go, Time::ZERO);
    b.sim().register_capture(slow_data, fast_strobe);
    let _q = b.dlatch("cap", slow_data, fast_strobe, None);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "timing");
    assert!(
        errs.iter().any(|f| f.message.contains("margin")),
        "expected a negative-margin error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn timing_silent_on_properly_matched_delay() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let go = b.input("go", 1);
    let data = b.buf("data", go);
    let strobe = b.buf_chain("strobe_dly", go, 6);
    b.sim().register_bundle("fwd", go, Time::ZERO);
    b.sim().register_capture(data, strobe);
    let _q = b.dlatch("cap", data, strobe, None);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "timing").is_empty(),
        "correctly matched bundle must not be flagged:\n{}",
        report.to_text()
    );
    // ... and the positive margin is surfaced as info.
    assert!(
        report.findings.iter().any(|f| f.pass == "timing" && f.severity == Severity::Info),
        "positive margin should be reported as info:\n{}",
        report.to_text()
    );
}

#[test]
fn timing_fires_on_unreachable_strobe() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let go = b.input("go", 1);
    let other = b.input("other", 1);
    let data = b.buf("data", go);
    // The capture's trigger derives from an unrelated input — the
    // bundle's launch event can never close this capture window.
    let strobe = b.buf("strobe", other);
    b.sim().register_bundle("cutoff", go, Time::ZERO);
    b.sim().register_capture(data, strobe);
    let _q = b.dlatch("cap", data, strobe, None);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "timing");
    assert!(
        errs.iter().any(|f| f.message.contains("unreachable")),
        "expected an unreachable-strobe error, got:\n{}",
        report.to_text()
    );
}

/// A ring of latches whose `d` pins each mux every other latch's output
/// has factorially many simple data paths, so the longest-path walk
/// cannot finish. The capture must then fail closed: an error saying
/// its margin is unknown, never a margin computed from the paths the
/// walk happened to see.
#[test]
fn timing_fails_closed_when_the_data_walk_gives_up() {
    const LATCHES: usize = 12;
    let mut sim = Simulator::new();
    let go = sim.add_signal("go", 1);
    sim.mark_port(go);
    let en = sim.add_signal("en", 1);
    let strobe = sim.add_component("strobe_dly", Nop, &[go]);
    sim.set_component_class(strobe, CellClass::Comb);
    sim.set_component_delay(strobe, Time::from_ps(500));
    sim.connect_driver(strobe, en).unwrap();
    let q: Vec<_> = (0..LATCHES).map(|i| sim.add_signal(&format!("q{i}"), 1)).collect();
    let d: Vec<_> = (0..LATCHES).map(|i| sim.add_signal(&format!("d{i}"), 1)).collect();
    for i in 0..LATCHES {
        let mut picks: Vec<_> = (0..LATCHES).filter(|&j| j != i).map(|j| q[j]).collect();
        if i == 0 {
            picks.push(go);
        }
        let mux = sim.add_component(&format!("mux{i}"), Nop, &picks);
        sim.set_component_class(mux, CellClass::Comb);
        sim.set_component_delay(mux, Time::from_ps(20));
        sim.connect_driver(mux, d[i]).unwrap();
        let latch = sim.add_component(&format!("lat{i}"), Nop, &[d[i], en]);
        sim.set_component_class(latch, CellClass::Latch);
        sim.set_component_delay(latch, Time::from_ps(30));
        sim.set_component_pins(latch, &[d[i]], &[en]);
        sim.connect_driver(latch, q[i]).unwrap();
    }
    sim.register_bundle("ring", go, Time::ZERO);
    sim.register_capture(d[0], en);
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "timing");
    assert!(
        errs.iter().any(|f| f.path == "d0" && f.message.contains("unknown")),
        "expected an unknown-margin error on d0, got:\n{}",
        report.to_text()
    );
    assert!(
        !report.findings.iter().any(|f| f.pass == "timing" && f.severity == Severity::Info),
        "a capture whose walk gave up must not report a margin:\n{}",
        report.to_text()
    );
}

// ---------------------------------------------------------------
// handshake
// ---------------------------------------------------------------

#[test]
fn handshake_fires_on_dropped_ack() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let unrelated = b.input("unrelated", 1);
    // The "acknowledge" is generated from an unrelated signal: no
    // cell path leads from the request to it.
    let ack = b.inv("ack", unrelated);
    b.sim().watch_handshake("orphan", req, ack);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "handshake");
    assert!(
        errs.iter().any(|f| f.message.contains("not reachable")),
        "expected an unreachable-ack error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn handshake_fires_on_forked_ack() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let ack_a = b.inv("ack_a", req);
    let ack_b = b.buf("ack_b", req);
    // One request claimed by two different acknowledges.
    b.sim().watch_handshake("fork_a", req, ack_a);
    b.sim().watch_handshake("fork_b", req, ack_b);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "handshake");
    assert!(
        errs.iter().any(|f| f.message.contains("distinct acknowledges")),
        "expected a forked-ack error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn handshake_fires_on_shared_nack_and_ack_wire() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let ack = b.buf("ack", req);
    // The NACK registered on the very wire that carries the ack:
    // "retry" and "done" are indistinguishable at the transmitter.
    b.sim().watch_handshake_nack("shared", req, ack, ack);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "handshake");
    assert!(
        errs.iter().any(|f| f.message.contains("same wire")),
        "expected a shared NACK/ack error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn handshake_fires_on_unreachable_nack() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let unrelated = b.input("unrelated", 1);
    let ack = b.buf("ack", req);
    // The NACK derives from an unrelated signal: a detected error can
    // never demand a retransmission of this request.
    let nack = b.inv("nack", unrelated);
    b.sim().watch_handshake_nack("deaf", req, ack, nack);
    b.finish();
    let report = run_all(&sim.netgraph());
    let errs = errors_of(&report, "handshake");
    assert!(
        errs.iter().any(|f| f.message.contains("NACK") && f.message.contains("not reachable")),
        "expected an unreachable-NACK error, got:\n{}",
        report.to_text()
    );
}

#[test]
fn handshake_silent_on_healthy_nack_triple() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let ack = b.buf("ack", req);
    // A distinct NACK wire with a real cell path from the request —
    // the healthy twin of the two constructions above.
    let nack = b.inv("nack", req);
    b.sim().watch_handshake_nack("protected", req, ack, nack);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "handshake").is_empty(),
        "a distinct, reachable NACK must not be flagged:\n{}",
        report.to_text()
    );
}

#[test]
fn handshake_silent_on_closed_loop() {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let req = b.input("req", 1);
    let rstn = b.input("rstn", 1);
    let ack = b.celement2("ack", req, req, Some(rstn), false);
    b.sim().watch_handshake("closed", req, ack);
    b.finish();
    let report = run_all(&sim.netgraph());
    assert!(
        errors_of(&report, "handshake").is_empty(),
        "closed req/ack loop must not be flagged:\n{}",
        report.to_text()
    );
}

// ---------------------------------------------------------------
// report plumbing
// ---------------------------------------------------------------

#[test]
fn report_is_deterministic_and_serializable() {
    let build = || {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let a = b.input("a", 1);
        let floating = b.sim().add_signal("floating", 1);
        let y = b.and2("y", a, floating);
        let _dead = b.inv("dead", y);
        let en = b.input("en", 1);
        let _osc = b.ring_oscillator("osc", en);
        b.finish();
        run_all(&sim.netgraph())
    };
    let r1 = build();
    let r2 = build();
    assert_eq!(r1.to_json(), r2.to_json(), "same netlist must lint identically");
    let json = r1.to_json();
    assert!(json.contains("\"findings\""));
    assert!(json.contains("\"errors\""));
    // Errors sort before warnings before infos.
    let sev: Vec<Severity> = r1.findings.iter().map(|f| f.severity).collect();
    let mut sorted = sev.clone();
    sorted.sort_by(|x, y| y.cmp(x));
    assert_eq!(sev, sorted, "findings must be ordered by descending severity");
}
