//! Observability-layer integration tests: determinism of the trace
//! and metrics serialisations, non-empty handshake histograms on a
//! traced I2 run, trace-vs-meter energy reconciliation, and structured
//! behaviour on degenerate runs (single transfer, deadlock).

use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, LinkRun, MeasureOptions, RunFailure, TraceMode};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec};
/// Spec-based twin of the old `run_link(kind, cfg, ...)` entry point:
/// derives the exact [`LinkSpec`] for `cfg` and measures through the
/// declarative path (identity for every config these tests use).
fn run_link(
    family: LinkFamily,
    cfg: &LinkConfig,
    words: &[u64],
    opts: &MeasureOptions,
) -> Result<LinkRun, RunFailure> {
    let spec = LinkSpec::from_config(family, cfg).expect("test configs are valid specs");
    run_spec(&spec, cfg, words, opts)
}


fn observed() -> MeasureOptions {
    MeasureOptions::default().with_trace(TraceMode::Full).with_metrics()
}

#[test]
fn two_identical_runs_serialise_byte_identically() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let once = || {
        let r = run_link(LinkFamily::PerTransfer, &cfg, &words, &observed()).expect("clean run");
        let mut jsonl = Vec::new();
        r.trace.as_ref().expect("trace retained").write_jsonl(&mut jsonl).expect("jsonl");
        let metrics_json = r.metrics().expect("metrics computed").to_json();
        (jsonl, metrics_json)
    };
    let (jsonl_a, metrics_a) = once();
    let (jsonl_b, metrics_b) = once();
    assert!(!jsonl_a.is_empty());
    assert_eq!(jsonl_a, jsonl_b, "trace JSONL must be byte-identical across runs");
    assert_eq!(metrics_a, metrics_b, "metrics JSON must be byte-identical across runs");
}

#[test]
fn traced_i2_yields_nonempty_histograms_and_reconciled_energy() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let r = run_link(LinkFamily::PerTransfer, &cfg, &words, &observed()).expect("clean run");
    let m = r.metrics().expect("metrics computed");

    // Every watched handshake pair on a clean I2 run completes and
    // accumulates latency samples; word-level pairs see one sample per
    // flit, slice-level pairs one per slice.
    assert!(!m.handshakes.is_empty(), "I2 registers handshake watches");
    for h in &m.handshakes {
        assert!(h.completed > 0, "{}: no completed transactions", h.label);
        assert!(!h.latency.is_empty(), "{}: empty latency histogram", h.label);
        assert!(h.latency.mean_ns() > 0.0, "{}: zero latency", h.label);
        assert!(!h.open, "{}: clean run left a handshake open", h.label);
    }
    let word_level = m.handshakes.iter().find(|h| h.label.ends_with("word")).expect("word pair");
    assert_eq!(word_level.completed, words.len() as u64);

    // Trace-derived per-block power must agree with the power meter's
    // Fig 14 breakdown to within 0.1 % — both count the same toggles.
    let bp = r.block_power();
    for (name, got, want) in [
        ("conv", m.blocks.conv_uw, bp.conv_uw),
        ("serdes", m.blocks.serdes_uw, bp.serdes_uw),
        ("buffers", m.blocks.buffers_uw, bp.buffers_uw),
        ("total", m.blocks.total_uw, bp.total_uw),
    ] {
        let rel = (got - want).abs() / want.abs().max(1e-9);
        assert!(rel < 1e-3, "{name}: trace {got} µW vs meter {want} µW (rel {rel:.2e})");
    }

    // Burst timing: I2 serializes, so the wire strobe must show one
    // rising edge per slice per word.
    let burst = m.burst.as_ref().expect("I2 has a wire strobe");
    assert_eq!(burst.slices, (words.len() * cfg.slices()) as u64);
    assert!(burst.gap.mean_ns() > 0.0);

    // Occupancy and profiling sanity.
    assert!(m.occupancy.busy_fraction > 0.0 && m.occupancy.busy_fraction <= 1.0);
    assert!(m.in_flight.max >= 1);
    assert!(r.profile.commits > 0 && r.profile.events > 0);
    assert_eq!(m.events, r.profile.events);
}

#[test]
fn i1_has_no_burst_but_still_attributes_energy() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let r = run_link(LinkFamily::Sync, &cfg, &words, &observed()).expect("clean run");
    let m = r.metrics().expect("metrics computed");
    assert!(m.burst.is_none(), "I1 does not serialize");
    assert!(m.blocks.buffers_uw > 0.0, "clocked pipeline buffers must switch");
    let bp = r.block_power();
    let rel = (m.blocks.total_uw - bp.total_uw).abs() / bp.total_uw.max(1e-9);
    assert!(rel < 1e-3, "trace {} vs meter {}", m.blocks.total_uw, bp.total_uw);
}

#[test]
fn single_transfer_run_has_single_sample_histograms() {
    let cfg = LinkConfig::default();
    let r = run_link(LinkFamily::PerWord, &cfg, &[0xDEAD_BEEF], &observed()).expect("clean run");
    let m = r.metrics().expect("metrics computed");
    let word = m.handshakes.iter().find(|h| h.label.ends_with("word")).expect("word pair");
    assert_eq!(word.completed, 1);
    assert_eq!(word.latency.count(), 1);
    // A single req↑ has no successor: the cycle histogram stays empty.
    assert!(word.cycle.is_empty());
    assert_eq!(word.latency.min_ns(), word.latency.max_ns());
}

#[test]
fn deadlocked_run_stays_structured_with_tracing_enabled() {
    // Same wedge as the robustness suite, but with the trace hook
    // installed: observability must not change the failure semantics.
    let plan = FaultPlan::new(7).stuck_at("link.ack_in2", false, Time::from_ns(5));
    let opts = observed().with_fault_plan(plan).with_timeout(Time::from_us(5));
    let words = worst_case_pattern(4, 32);
    match run_link(LinkFamily::PerTransfer, &LinkConfig::default(), &words, &opts) {
        Err(RunFailure::Deadlock { diagnosis, delivered, expected, .. }) => {
            assert!(delivered < expected);
            assert!(diagnosis.is_some(), "watchdog diagnosis survives tracing");
        }
        other => panic!("expected a deadlock, got: {other:?}"),
    }
}

#[test]
fn compiled_i2_run_populates_compiled_profile_counters() {
    // The compiled-engine counters are part of the observability
    // contract: a measured I2 run (always compiled) must report how
    // many cones were built, how often they fired and how many
    // per-gate events that avoided. The interpreted side of the
    // comparison lives in sal-bench's `compile_report` tests.
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let compiled = run_link(LinkFamily::PerTransfer, &cfg, &words, &observed()).expect("clean run");

    assert!(compiled.profile.cones_built > 0, "compiled run built no cones");
    assert!(compiled.profile.cone_evals > 0, "compiled run never fired a cone");
    assert!(compiled.profile.events_avoided > 0, "compiled run avoided no events");

    // The run is not a sliced campaign: the lane counters stay zero
    // until a slice pass is sealed (covered by the sal-bench suite).
    assert_eq!(compiled.profile.lanes_active, 0);
    assert_eq!(compiled.profile.scalar_fallbacks, 0);
}

#[test]
fn traced_run_exports_vcd() {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(2, 32);
    let opts = MeasureOptions::default().with_trace(TraceMode::Full);
    let r = run_link(LinkFamily::PerWord, &cfg, &words, &opts).expect("clean run");
    let mut vcd = Vec::new();
    r.trace.as_ref().expect("trace retained").write_vcd(&mut vcd).expect("vcd");
    let text = String::from_utf8(vcd).expect("utf8");
    assert!(text.contains("$timescale 1 fs $end"));
    assert!(text.contains("$scope module link"));
    assert!(text.contains("$dumpvars"));
}

#[test]
fn untraced_runs_are_unperturbed_by_the_hook() {
    // The golden-replay fixture pins untraced determinism globally;
    // here we additionally check a traced run against an untraced one:
    // same timeline, same delivery, same event count.
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let plain = run_link(LinkFamily::PerTransfer, &cfg, &words, &MeasureOptions::default())
        .expect("clean run");
    let traced =
        run_link(LinkFamily::PerTransfer, &cfg, &words, &observed()).expect("clean run");
    assert_eq!(plain.sent, traced.sent);
    assert_eq!(plain.received, traced.received);
    assert_eq!(plain.profile.events, traced.profile.events);
    assert_eq!(plain.in_use, traced.in_use);
}
