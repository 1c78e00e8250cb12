//! Clean-netlist guarantees: every link the repo can build, across
//! the configuration corners the sweeps exercise, must lint with zero
//! error-severity findings — and the static bundled-data margins the
//! timing pass computes must agree with the *simulated* skew margins
//! recorded in `BENCH_robustness.json`.

use sal_bench::robustness::lint_corners;
use sal_cells::CircuitBuilder;
use sal_des::Simulator;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode, SpecError, WordRxStyle};
use sal_lint::{run_all, timing_margins, TimingMargin};
use sal_tech::St012Library;

fn lint_spec(spec: &LinkSpec, cfg: &LinkConfig) -> (sal_lint::LintReport, Vec<TimingMargin>) {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    generate(&mut b, spec, "link", cfg).expect("link builds cleanly");
    b.finish();
    let graph = sim.netgraph();
    (run_all(&graph), timing_margins(&graph))
}

fn lint_paper(family: LinkFamily) -> (sal_lint::LintReport, Vec<TimingMargin>) {
    lint_spec(&LinkSpec::paper(family), &LinkConfig::default())
}

#[test]
fn clean_links_have_zero_lint_errors_across_corners() {
    for kind in [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, spec, base) in lint_corners(kind) {
            let (report, _) = lint_spec(&spec, &base);
            assert!(
                !report.has_errors(),
                "{} @ {label}: expected zero lint errors, got:\n{}",
                kind.label(),
                report.to_text()
            );
        }
    }
}

/// A port is a signal the link's environment drives; a wire the link
/// drives itself is a net. A port with a driver inside the link hides
/// that wire from the connectivity lint's undriven check, so no link
/// may have one: every family × protection × receiver the builder
/// accepts (all but a protected I3 with the early word acknowledge).
#[test]
fn links_drive_none_of_their_ports() {
    let receivers = [WordRxStyle::ShiftRegister, WordRxStyle::Demux, WordRxStyle::EarlyAck];
    for family in [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for protection in [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8] {
            if family == LinkFamily::Sync && protection != ProtectionMode::Off {
                continue; // the synchronous link carries no protection
            }
            for rx in receivers {
                let spec = match LinkSpec::builder()
                    .family(family)
                    .protection(protection)
                    .word_rx_style(rx)
                    .build()
                {
                    Err(SpecError::ProtectionWithEarlyAck) => continue,
                    spec => spec.expect("valid spec"),
                };
                let mut sim = Simulator::new();
                let lib = St012Library::default();
                let mut b = CircuitBuilder::new(&mut sim, &lib);
                generate(&mut b, &spec, "link", &LinkConfig::default())
                    .expect("link builds cleanly");
                b.finish();
                let graph = sim.netgraph();
                let driven: Vec<&str> = graph
                    .signals
                    .iter()
                    .filter(|s| s.is_port && !s.drivers.is_empty())
                    .map(|s| s.path.as_str())
                    .collect();
                assert!(
                    driven.is_empty(),
                    "{} {} {rx:?}: driven ports {driven:?}",
                    family.label(),
                    protection.label()
                );
            }
        }
    }
}

#[test]
fn async_links_have_positive_static_margins() {
    for kind in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, spec, base) in lint_corners(kind) {
            let (_, margins) = lint_spec(&spec, &base);
            assert!(
                !margins.is_empty(),
                "{} @ {label}: bundled links must have constrained captures",
                kind.label()
            );
            for m in &margins {
                assert!(
                    m.margin_ps > 0.0,
                    "{} @ {label}: non-positive margin at {} ({:+.1} ps)",
                    kind.label(),
                    m.capture_data,
                    m.margin_ps
                );
            }
        }
    }
}

/// Generated netlists must carry the spec's design point on their
/// bundled-data launch points: every constrained capture of an async
/// link reports the word width and serialization ratio it was
/// generated under, across the lint corners.
#[test]
fn async_link_margins_carry_generator_params() {
    for kind in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        for (label, spec, base) in lint_corners(kind) {
            let (_, margins) = lint_spec(&spec, &base);
            for m in &margins {
                let p = m.params.unwrap_or_else(|| {
                    panic!(
                        "{} @ {label}: generated bundle at {} lost its params",
                        kind.label(),
                        m.capture_data
                    )
                });
                assert_eq!(p.word_width, u16::from(spec.word_width()));
                assert_eq!(p.serial_ratio, u16::from(spec.serial_ratio()));
            }
        }
    }
}

/// A protected I2 link at 2:1 has a handshake-cyclic strobe cone with
/// exponentially many simple paths. Its receiver capture's margin must
/// come from the exact shortest strobe path; a search that stops early
/// keeps a longer one (438.6 ps) and over-reports the margin.
#[test]
fn protected_i2_strobe_margin_is_exact() {
    let spec = LinkSpec::builder()
        .family(LinkFamily::PerTransfer)
        .word_width(16)
        .serial_ratio(2)
        .buffer_depth(2)
        .protection(ProtectionMode::Parity)
        .build()
        .expect("valid lattice cell");
    let (_, margins) = lint_spec(&spec, &LinkConfig::default());
    let m = margins
        .iter()
        .find(|m| m.capture_trigger == "link.rx_if.cell0.le")
        .expect("the receiver interface captures on cell0.le");
    assert!((m.strobe_min_ps - 426.5).abs() < 0.05, "strobe {:.3} ps", m.strobe_min_ps);
    assert!((m.margin_ps - 215.6).abs() < 0.05, "margin {:+.3} ps", m.margin_ps);
}

#[test]
fn sync_link_is_statically_unconstrained() {
    // I1 has no bundled-data launch points: every capture is clocked.
    let (_, margins) = lint_paper(LinkFamily::Sync);
    assert!(
        margins.is_empty(),
        "I1 must have no bundled captures, got {}",
        margins.len()
    );
}

/// Pulls `"first_failure": {"I1": ..., "I2": ..., "I3": ...}` out of
/// the named section of `BENCH_robustness.json` (the workspace has a
/// JSON writer but no parser).
fn first_failures(json: &str, section: &str) -> Option<[Option<f64>; 3]> {
    let sec = json.find(&format!("\"{section}\""))?;
    let ff = json[sec..].find("\"first_failure\"")? + sec;
    let open = json[ff..].find('{')? + ff;
    let close = json[open..].find('}')? + open;
    let body = &json[open + 1..close];
    let mut out = [None, None, None];
    for (i, kind) in ["I1", "I2", "I3"].iter().enumerate() {
        let k = body.find(&format!("\"{kind}\""))?;
        let rest = body[k..].split(':').nth(1)?;
        let val = rest.split([',', '}']).next()?.trim();
        out[i] = val.parse::<f64>().ok();
    }
    Some(out)
}

/// The static margins must tell the same story as the simulated skew
/// sweep: the async serialized links fail within a gate delay or two
/// of injected data-vs-strobe skew (their static margins are small
/// and positive), while the parallel synchronous link tolerates two
/// orders of magnitude more (it is statically unconstrained — its
/// failure mode is the clock period, not a matched delay).
#[test]
fn static_margins_reconcile_with_simulated_robustness() {
    let json = include_str!("../fixtures/BENCH_robustness.json");
    let ff = first_failures(json, "data_skew_ps")
        .expect("data_skew_ps.first_failure parses");
    let [i1, i2, i3] = ff;

    let (_, m2) = lint_paper(LinkFamily::PerTransfer);
    let (_, m3) = lint_paper(LinkFamily::PerWord);
    let (_, m1) = lint_paper(LinkFamily::Sync);

    // Sign agreement: simulated-clean links have positive static
    // margins; the simulated first failure is a *positive* amount of
    // injected skew.
    for (label, margins, fail) in [("I2", &m2, i2), ("I3", &m3, i3)] {
        let fail = fail.expect("async links have a finite simulated first failure");
        assert!(fail > 0.0, "{label}: simulated first failure must be positive");
        let min = margins.iter().map(|m| m.margin_ps).fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "{label}: static margin must be positive (got {min:+.1} ps)");
        // A bundled link cannot statically guarantee more margin than
        // the skew the simulation showed it absorbing. The simulated
        // first failure is the coarse upper bound of the sweep grid.
        assert!(
            min <= 10.0 * fail,
            "{label}: static margin {min:.1} ps wildly exceeds the simulated \
             failure skew {fail:.1} ps — the static model is unsound"
        );
    }

    // Ordering agreement: the sync link's simulated tolerance dwarfs
    // the async links' (it has no bundled captures at all statically).
    let i1 = i1.expect("I1 has a finite simulated first failure");
    let worst_async = i2.unwrap().max(i3.unwrap());
    assert!(
        i1 > 10.0 * worst_async,
        "robustness ordering changed: I1 fails at {i1} ps vs async {worst_async} ps"
    );
    assert!(m1.is_empty(), "I1 grew bundled captures; update this reconciliation");
}
