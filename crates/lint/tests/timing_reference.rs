//! Differential check of the static-timing pass against a brute-force
//! reference. On random small netlists, cycles included, every
//! capture's data delay must be the maximum and its strobe delay the
//! minimum over the simple paths from its paired bundle's origin,
//! enumerated one by one under the same traversal rules.

use std::collections::HashSet;

use proptest::prelude::*;
use sal_des::{CellClass, Component, Ctx, NetComponent, NetGraph, SignalId, Simulator, Time};
use sal_lint::timing_margins;

const SIGNALS: usize = 6;

const CLASSES: [CellClass; 7] = [
    CellClass::Comb,
    CellClass::Wire,
    CellClass::Route,
    CellClass::Latch,
    CellClass::Dff,
    CellClass::CElement,
    CellClass::DavidCell,
];

/// Trivial logic stand-in: the lint reads only the netlist metadata.
struct Nop;
impl Component for Nop {
    fn on_input(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// One random cell: (class, driven signal, delay code), sensitivity
/// inputs, data pins and trigger pins. Delay code 0 leaves the delay
/// unannotated and code `k` annotates `(k − 1) × 10` ps, so zero-delay
/// edges occur both ways.
type Cell = ((usize, usize, u64), Vec<usize>, Vec<usize>, Vec<usize>);

fn arb_cell() -> impl Strategy<Value = Cell> {
    let pins = || proptest::collection::vec(0..SIGNALS, 0..4);
    ((0..CLASSES.len(), 0..SIGNALS, 0u64..5), pins(), pins(), pins())
}

/// Bundles as (origin, data lead in tens of ps), captures as (data,
/// trigger).
type Marks = (Vec<(usize, u64)>, Vec<(usize, usize)>);

fn arb_marks() -> impl Strategy<Value = Marks> {
    (
        proptest::collection::vec((0..SIGNALS, 0u64..3), 1..4),
        proptest::collection::vec((0..SIGNALS, 0..SIGNALS), 1..5),
    )
}

fn build(cells: &[Cell], (bundles, captures): &Marks) -> NetGraph {
    let mut sim = Simulator::new();
    let sigs: Vec<SignalId> = (0..SIGNALS).map(|i| sim.add_signal(&format!("s{i}"), 1)).collect();
    let pick = |ix: &[usize]| -> Vec<SignalId> { ix.iter().map(|&i| sigs[i]).collect() };
    for (k, ((class, out, delay), inputs, data, trigger)) in cells.iter().enumerate() {
        let id = sim.add_component(&format!("c{k}"), Nop, &pick(inputs));
        sim.set_component_class(id, CLASSES[*class]);
        if *delay > 0 {
            sim.set_component_delay(id, Time::from_ps((delay - 1) * 10));
        }
        sim.set_component_pins(id, &pick(data), &pick(trigger));
        if sim.connect_driver(id, sigs[*out]).is_err() {
            sim.connect_extra_driver(id, sigs[*out]);
        }
    }
    for (i, &(origin, lead)) in bundles.iter().enumerate() {
        sim.register_bundle(&format!("b{i}"), sigs[origin], Time::from_ps(lead * 10), None);
    }
    for &(data, trigger) in captures {
        sim.register_capture(sigs[data], sigs[trigger]);
    }
    sim.netgraph()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Walk {
    Data,
    /// Past the launching flip-flop: its clock network only.
    Clock,
    Strobe,
}

/// The pins a path continues through at `comp`, and its mode past it.
fn through(comp: &NetComponent, walk: Walk) -> (&[SignalId], Walk) {
    match (comp.class, walk) {
        (CellClass::Comb | CellClass::Wire | CellClass::Route, _) => (&comp.inputs, walk),
        (CellClass::Latch, Walk::Data) => (&comp.data_pins, walk),
        (CellClass::Dff, Walk::Data) => (&comp.trigger_pins, Walk::Clock),
        (
            CellClass::Latch | CellClass::Dff | CellClass::CElement | CellClass::DavidCell,
            Walk::Strobe,
        ) => (&comp.trigger_pins, walk),
        _ => (&[], walk),
    }
}

/// `pick` over the delays (fs) of every path from `origin` to `sig`
/// that repeats no (signal, mode) state and ends at its first arrival
/// at `origin`; `None` if there is no such path.
fn brute(
    g: &NetGraph,
    sig: SignalId,
    walk: Walk,
    origin: SignalId,
    path: &mut HashSet<(SignalId, Walk)>,
    pick: fn(i64, i64) -> i64,
) -> Option<i64> {
    if sig == origin {
        return Some(0);
    }
    if !path.insert((sig, walk)) {
        return None;
    }
    let mut best = None;
    for &driver in &g.signal(sig).drivers {
        let comp = g.component(driver);
        let delay = comp.delay.map_or(0, |d| d.as_fs() as i64);
        let (pins, next) = through(comp, walk);
        for &pin in pins {
            if let Some(d) = brute(g, pin, next, origin, path, pick) {
                best = Some(best.map_or(d + delay, |b| pick(b, d + delay)));
            }
        }
    }
    path.remove(&(sig, walk));
    best
}

fn ps(fs: i64) -> f64 {
    fs as f64 / 1000.0
}

proptest! {
    #[test]
    fn margins_match_brute_force_paths(
        cells in proptest::collection::vec(arb_cell(), 1..14),
        marks in arb_marks(),
    ) {
        let g = build(&cells, &marks);
        let mut expected = Vec::new();
        for cap in &g.captures {
            let mut nearest: Option<(usize, i64)> = None;
            for (bi, b) in g.bundles.iter().enumerate() {
                let data = brute(&g, cap.data, Walk::Data, b.origin, &mut HashSet::new(), i64::max);
                if let Some(d) = data {
                    if nearest.is_none_or(|(_, best)| d < best) {
                        nearest = Some((bi, d));
                    }
                }
            }
            let Some((bi, data)) = nearest else { continue };
            let b = &g.bundles[bi];
            let strobe =
                brute(&g, cap.trigger, Walk::Strobe, b.origin, &mut HashSet::new(), i64::min);
            let lead = b.data_lead.as_fs() as i64;
            expected.push((
                b.label.clone(),
                g.signal(cap.data).path.clone(),
                g.signal(cap.trigger).path.clone(),
                ps(data),
                strobe.map_or(0.0, ps),
                strobe.map_or(f64::NEG_INFINITY, |s| ps(lead + s - data)),
            ));
        }
        expected.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));
        let actual: Vec<_> = timing_margins(&g)
            .into_iter()
            .map(|m| {
                (m.bundle, m.capture_data, m.capture_trigger, m.data_max_ps, m.strobe_min_ps, m.margin_ps)
            })
            .collect();
        prop_assert_eq!(actual, expected);
    }
}
