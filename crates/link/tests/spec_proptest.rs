//! Property tests over the `LinkSpec` design space: any spec the
//! validated builder accepts must (a) generate a netlist with zero
//! error-severity lint findings — clean *by construction*, not by
//! per-point curation — and (b) deliver every word intact at zero
//! injected faults. A third property pins the paper points: the three
//! I1/I2/I3 specs replay bit-identically to the committed golden
//! fixture, so the declarative API provably regenerates the exact
//! netlists the measured results were taken from.

use proptest::prelude::*;
use sal_cells::CircuitBuilder;
use sal_des::{Simulator, Time};
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::testbench::{attach_link_testbench, worst_case_pattern};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode};
use sal_lint::run_all;
use std::fmt::Write as _;

/// Strategy over the full valid lattice: every ratio, every integral
/// slice width that keeps the word inside 8..=64, every depth the
/// builder admits, protection where the family allows it.
/// The raw draws are folded to a valid point *by construction* (the
/// vendored proptest has no `prop_filter`); a point the derived-config
/// check rejects falls back to the same geometry unprotected.
fn valid_specs() -> impl Strategy<Value = LinkSpec> {
    ((0usize..3, 0usize..4, 0u64..4096), (1u32..17, 0usize..3)).prop_map(
        |((family_idx, ratio_idx, slice_seed), (depth, protection_idx))| {
            let family =
                [LinkFamily::Sync, LinkFamily::PerTransfer, LinkFamily::PerWord][family_idx];
            let ratio = [2u8, 4, 8, 16][ratio_idx];
            // The sync family tops out at 63 bits (its parallel bus
            // carries flit+valid in one 64-bit-limited value).
            let max_slice = 64 / ratio - u8::from(family_idx == 0);
            let min_slice = 8u8.div_ceil(ratio);
            let slice = min_slice + (slice_seed % u64::from(max_slice - min_slice + 1)) as u8;
            let protection = if family == LinkFamily::Sync {
                ProtectionMode::Off
            } else {
                [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8]
                    [protection_idx]
            };
            let point = |protection: ProtectionMode| {
                LinkSpec::builder()
                    .family(family)
                    .word_width(ratio * slice)
                    .serial_ratio(ratio)
                    .buffer_depth(depth)
                    .protection(protection)
                    .build()
            };
            point(protection).unwrap_or_else(|_| {
                point(ProtectionMode::Off).expect("an unprotected lattice point is always valid")
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// (a) Every valid spec generates a netlist with zero
    /// error-severity lint findings.
    #[test]
    fn every_valid_spec_generates_a_lint_clean_netlist(spec in valid_specs()) {
        let base = LinkConfig::default();
        let mut sim = Simulator::new();
        let lib = sal_tech::St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        generate(&mut b, &spec, "link", &base).expect("valid specs must build");
        b.finish();
        let report = run_all(&sim.netgraph());
        prop_assert!(
            !report.has_errors(),
            "spec {spec:?} generated lint errors:\n{}",
            report.to_text()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// (b) Word in == word out at zero faults, at every design point.
    #[test]
    fn every_valid_spec_round_trips_words_at_zero_faults(spec in valid_specs()) {
        let words = worst_case_pattern(3, spec.word_width());
        let r = run_spec(&spec, &LinkConfig::default(), &words, &MeasureOptions::default())
            .unwrap_or_else(|e| panic!("spec {spec:?} failed a clean run: {e}"));
        prop_assert_eq!(r.received_words(), words, "payload corrupted under {:?}", spec);
        prop_assert!(r.integrity.is_clean(), "integrity flags under {:?}: {}", spec, r.integrity);
    }
}

/// Replays one paper-point spec through the *same* harness the golden
/// fixture was recorded with and serialises the final kernel state in
/// the fixture's format. Mirrors `golden_replay.rs`; the duplication
/// is deliberate — this file proves the *spec-driven* path hits the
/// fixture, independent of how the golden test itself builds links.
fn replay_spec(spec: &LinkSpec) -> String {
    let base = LinkConfig::default();
    let cfg = spec.apply(&base);
    let opts = MeasureOptions::default();
    let words = worst_case_pattern(4, 32);
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let handles = generate(&mut builder, spec, "link", &base).expect("link builds");
    let _area = builder.finish();
    let (_sent, received) = attach_link_testbench(&mut sim, &handles, &words, Time::from_ns(2));
    let slice = cfg.clk_period * 32;
    while received.borrow().len() < words.len() {
        sim.run_for(slice).expect("simulation error");
    }
    let tag = match spec.family() {
        LinkFamily::Sync => "I1Sync",
        LinkFamily::PerTransfer => "I2PerTransfer",
        LinkFamily::PerWord => "I3PerWord",
    };
    let mut out = String::new();
    writeln!(out, "kind={tag}").unwrap();
    writeln!(out, "time_fs={}", sim.now().as_fs()).unwrap();
    writeln!(out, "events={}", sim.events_processed()).unwrap();
    for sig in sim.signal_ids() {
        let info = sim.signal_info(sig);
        writeln!(out, "signal {} value={:?} toggles={}", info.path, info.value, info.toggles)
            .unwrap();
    }
    for s in sim.energy_report().scopes {
        writeln!(out, "scope {} energy_fj={:016x}", s.path, s.energy_fj.to_bits()).unwrap();
    }
    out
}

/// (c) The paper-point specs replay bit-identically to the committed
/// golden fixture: I2 and I3 must reproduce their fixture sections
/// byte for byte (the fixture records only the async links), and I1
/// must replay deterministically through the same spec-driven path.
#[test]
fn paper_point_specs_replay_bit_identical_to_golden_fixture() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replay.txt");
    let fixture = std::fs::read_to_string(path)
        .expect("golden fixture missing; regenerate with SAL_UPDATE_GOLDEN=1");
    let mut regenerated = String::new();
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        regenerated.push_str(&replay_spec(&LinkSpec::paper(family)));
        regenerated.push('\n');
    }
    assert_eq!(
        regenerated, fixture,
        "spec-driven paper points diverged from the golden fixture"
    );
    assert_eq!(
        replay_spec(&LinkSpec::paper(LinkFamily::Sync)),
        replay_spec(&LinkSpec::paper(LinkFamily::Sync)),
        "the I1 paper point must replay deterministically"
    );
}
