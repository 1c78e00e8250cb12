//! Golden-replay determinism: a full gate-level link run must
//! reproduce *byte-identical* kernel state — event count, every final
//! signal value and toggle count, and every per-scope energy total —
//! against a fixture checked into the repository.
//!
//! This pins the kernel's (time, seq) ordering contract across
//! refactors of the event queue and commit path: any change that
//! reorders same-timestamp commits, drops or duplicates evaluations,
//! or perturbs energy accounting shows up as a one-line diff here.
//!
//! Regenerate the fixture (after an *intentional* behaviour change)
//! with:
//!
//! ```text
//! SAL_UPDATE_GOLDEN=1 cargo test -p sal-link --test golden_replay
//! ```

use sal_cells::CircuitBuilder;
use sal_des::{Simulator, Time};
use sal_link::measure::MeasureOptions;
use sal_link::testbench::{attach_link_testbench, worst_case_pattern};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
use std::fmt::Write as _;

/// The fixture's historical section tag for a family (the debug name
/// of the removed pre-spec `LinkKind` enum); kept so the committed
/// golden file stays byte-identical across the `LinkSpec` API
/// redesign.
fn tag(family: LinkFamily) -> &'static str {
    match family {
        LinkFamily::Sync => "I1Sync",
        LinkFamily::PerTransfer => "I2PerTransfer",
        LinkFamily::PerWord => "I3PerWord",
    }
}

/// Runs one link end to end and serialises the final kernel state.
/// Energies are printed as `f64::to_bits` hex so the comparison is
/// bit-exact, immune to formatting rounding.
fn replay(family: LinkFamily) -> String {
    replay_with(&LinkSpec::paper(family), true, false)
}

fn replay_with(spec: &LinkSpec, empty_plan: bool, compiled: bool) -> String {
    let base = LinkConfig::default();
    let cfg = spec.apply(&base);
    let opts = MeasureOptions::default();
    let words = worst_case_pattern(4, 32);
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let handles = generate(&mut builder, spec, "link", &base).expect("link builds");
    let _area = builder.finish();
    // An *empty* fault plan must be a no-op: the kernel keeps its
    // fault-free fast path, so the fixture stays byte-identical.
    if empty_plan {
        sim.apply_fault_plan(&sal_des::FaultPlan::new(42)).expect("empty plan applies");
    }
    if compiled {
        assert!(sim.compile() > 0, "a link netlist has combinational cells to compile");
    }
    let (_sent, received) = attach_link_testbench(&mut sim, &handles, &words, Time::from_ns(2));
    let slice = cfg.clk_period * 32;
    while received.borrow().len() < words.len() {
        sim.run_for(slice).expect("simulation error");
    }
    let mut out = String::new();
    writeln!(out, "kind={}", tag(spec.family())).unwrap();
    writeln!(out, "time_fs={}", sim.now().as_fs()).unwrap();
    writeln!(out, "events={}", sim.events_processed()).unwrap();
    for sig in sim.signal_ids() {
        let info = sim.signal_info(sig);
        writeln!(
            out,
            "signal {} value={:?} toggles={}",
            info.path, info.value, info.toggles
        )
        .unwrap();
    }
    for s in sim.energy_report().scopes {
        writeln!(out, "scope {} energy_fj={:016x}", s.path, s.energy_fj.to_bits()).unwrap();
    }
    out
}

#[test]
fn golden_replay_i2_and_i3() {
    let mut full = String::new();
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        full.push_str(&replay(family));
        full.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replay.txt");
    if std::env::var("SAL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &full).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden fixture missing; regenerate with SAL_UPDATE_GOLDEN=1");
    assert_eq!(
        full, expected,
        "link replay diverged from the golden fixture \
         (SAL_UPDATE_GOLDEN=1 regenerates it if the change is intentional)"
    );
}

#[test]
fn replay_is_deterministic_within_process() {
    assert_eq!(replay(LinkFamily::PerTransfer), replay(LinkFamily::PerTransfer));
    assert_eq!(replay(LinkFamily::PerWord), replay(LinkFamily::PerWord));
}

/// The paper points expressed three ways — `LinkSpec::paper`, the
/// builder at the paper's numbers, and `from_config` on the default
/// configuration — must be one spec and replay to one kernel state.
#[test]
fn paper_spec_builder_and_from_config_replay_identically() {
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        let paper = LinkSpec::paper(family);
        let built = LinkSpec::builder()
            .family(family)
            .word_width(32)
            .serial_ratio(4)
            .buffer_depth(4)
            .build()
            .expect("the paper point is a valid spec");
        let derived = LinkSpec::from_config(family, &LinkConfig::default())
            .expect("the default config sits on the spec lattice");
        assert_eq!(paper, built);
        assert_eq!(paper, derived);
        assert_eq!(paper.content_hash(), derived.content_hash());
        assert_eq!(
            replay_with(&paper, true, false),
            replay_with(&built, true, false),
            "equal specs must replay bit-identically"
        );
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        let spec = LinkSpec::paper(family);
        assert_eq!(
            replay_with(&spec, true, false),
            replay_with(&spec, false, false),
            "an empty FaultPlan must not perturb the kernel"
        );
    }
}

/// The tentpole equivalence gate: compiled execution must reproduce
/// the interpreted kernel's observable state byte for byte — event
/// count, every signal's final value and toggle count, every scope
/// energy — on full I2 and I3 link runs. Anything the golden fixture
/// pins for the interpreted kernel is thereby pinned for the compiled
/// engine too.
#[test]
fn compiled_replay_is_bit_identical_to_interpreted() {
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        let spec = LinkSpec::paper(family);
        assert_eq!(
            replay_with(&spec, true, false),
            replay_with(&spec, true, true),
            "compiled execution diverged from interpreted on {family:?}"
        );
    }
}
