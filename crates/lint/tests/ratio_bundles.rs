//! Ratio-generic timing fixtures: the static bundled-data pass must
//! work unchanged at every serialization ratio the `LinkSpec` lattice
//! admits, and must carry the generator's [`BundleParams`] annotation
//! through to the computed margins so reports can name the design
//! point. The fixture scales a matched-delay stage with the ratio the
//! way the serializers do — a wider mux tree in the data cone, a
//! longer matched chain in the strobe cone — and checks sign and
//! annotation at every point of the lattice.

use sal_cells::CircuitBuilder;
use sal_des::{BundleParams, Simulator, Time};
use sal_lint::{run_all, timing_margins};
use sal_tech::St012Library;

/// One bundled-data stage built "the generator way": the data path
/// grows logarithmically with the ratio (mux-tree depth), the strobe
/// matched-delay chain grows a little faster, so the margin stays
/// positive but shrinks as the ratio climbs — exactly the shape the
/// serialized links exhibit.
fn stage(ratio: u16, word_width: u16) -> (sal_lint::LintReport, Vec<sal_lint::TimingMargin>) {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let go = b.input("go", 1);
    let mux_depth = (ratio as usize).next_power_of_two().trailing_zeros() as usize;
    let data = b.buf_chain("data_cone", go, 1 + mux_depth);
    let strobe = b.buf_chain("strobe_dly", go, 4 + mux_depth);
    b.sim().register_bundle(
        &format!("stage_r{ratio}"),
        go,
        Time::ZERO,
        Some(BundleParams { word_width, serial_ratio: ratio }),
    );
    b.sim().register_capture(data, strobe);
    let _q = b.dlatch("cap", data, strobe, None);
    b.finish();
    let graph = sim.netgraph();
    (run_all(&graph), timing_margins(&graph))
}

#[test]
fn margins_are_positive_and_annotated_across_the_ratio_lattice() {
    for ratio in [2u16, 4, 8, 16] {
        for word_width in [16u16, 32, 64] {
            let (report, margins) = stage(ratio, word_width);
            assert!(
                !report.has_errors(),
                "ratio {ratio}: matched stage must lint clean:\n{}",
                report.to_text()
            );
            assert_eq!(margins.len(), 1, "ratio {ratio}: exactly one constrained capture");
            let m = &margins[0];
            assert!(
                m.margin_ps > 0.0,
                "ratio {ratio}: matched stage must have positive margin, got {:+.1} ps",
                m.margin_ps
            );
            assert_eq!(
                m.params,
                Some(BundleParams { word_width, serial_ratio: ratio }),
                "ratio {ratio}: generator params must ride through the timing pass"
            );
        }
    }
}

#[test]
fn margin_shrinks_monotonically_with_mux_depth() {
    // The fixture adds one mux level per ratio doubling on both cones,
    // plus nothing else — so the *absolute* margin is flat, but the
    // data delay (the quantity the generators must absorb) grows.
    let delays: Vec<f64> = [2u16, 4, 8, 16]
        .iter()
        .map(|&r| stage(r, 32).1[0].data_max_ps)
        .collect();
    for w in delays.windows(2) {
        assert!(
            w[1] > w[0],
            "data-cone delay must grow with the serialization ratio: {delays:?}"
        );
    }
}

#[test]
fn hand_registered_bundles_stay_unannotated() {
    // `register_bundle` with no params keeps `None` — the annotation is
    // strictly opt-in for generators, never synthesized by the pass.
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let go = b.input("go", 1);
    let data = b.buf("data", go);
    let strobe = b.buf_chain("strobe_dly", go, 6);
    b.sim().register_bundle("manual", go, Time::ZERO, None);
    b.sim().register_capture(data, strobe);
    let _q = b.dlatch("cap", data, strobe, None);
    b.finish();
    let margins = timing_margins(&sim.netgraph());
    assert_eq!(margins.len(), 1);
    assert_eq!(margins[0].params, None);
}
