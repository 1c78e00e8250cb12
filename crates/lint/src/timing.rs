//! Static bundled-data timing: longest data-path delay versus
//! shortest strobe-path delay from each registered launch point
//! ([`NetBundle`](sal_des::NetBundle)) to each capture cell
//! ([`NetCapture`](sal_des::NetCapture)).
//!
//! The model is classic static timing adapted to bundled-data
//! handshakes. A *launch* is a transition of the bundle's origin
//! signal (the acknowledge that advances the serializer's slice
//! token, the ring-oscillator tap that paces the I3 burst). From the
//! origin two cones fan out:
//!
//! * the **data cone** is traced backwards from the capture's data
//!   pin, *maximizing* delay. Combinational cells, wire transports
//!   and routing are transparent; a latch is transparent through its
//!   `d` pin (adding its latch delay); a flip-flop's output launches
//!   from its clock pin (reg-to-reg paths start at the launching
//!   clock, as in any STA); C-elements and David cells carry control,
//!   not data, and terminate the cone.
//! * the **strobe cone** reaches the capture's trigger pin,
//!   *minimizing* delay. Control transitions flow through everything
//!   except sources: gates and wires directly, state-holding cells
//!   through their trigger pins (a C-element forwards the request
//!   edge, a latch enable follows its controller).
//!
//! The static margin of a capture is `data_lead + strobe_min −
//! data_max`: the time the data settles before the strobe closes the
//! capture window. A non-positive margin is an error (the matched
//! delay does not cover the data path); positive margins are
//! reported as info so the `sal-lint` bin can expose them — they are
//! the static counterpart of the simulated skew margins in
//! `BENCH_robustness.json`.
//!
//! Each bundle is walked once for all captures. Its strobe cone is
//! one Dijkstra from the origin over a strobe fan-out table built
//! once per graph: strobe traversal never changes mode and cell
//! delays are non-negative, so the shortest path is exactly the
//! minimum over the simple paths the cone contains, handshake cycles
//! included. The data cone maximizes, so its walk is depth-first and
//! cuts cycles on its stack. A result computed without a cut covers
//! every path and does not depend on the stack, so it stays memoized
//! for the bundle's later captures; a result computed under a cut is
//! path-dependent and is dropped. Past 2,000,000 steps for one
//! capture the walk gives up, and that capture is reported as an
//! error whose margin is unknown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sal_des::{BundleParams, CellClass, NetComponent, NetGraph, SignalId};

use crate::report::{LintReport, Severity};

/// Pass name used in findings.
pub const PASS: &str = "timing";

/// Steps one capture's data walk may take before it gives up.
const STEP_BUDGET: usize = 2_000_000;

/// One evaluated capture: which bundle it paired with and the static
/// delays/margin in picoseconds.
#[derive(Debug, Clone)]
pub struct TimingMargin {
    /// Label of the bundle the capture paired with (nearest launch
    /// point by data delay), or of the first bundle whose data walk
    /// gave up.
    pub bundle: String,
    /// Path of the captured data signal.
    pub capture_data: String,
    /// Path of the capturing trigger signal.
    pub capture_trigger: String,
    /// Longest data-path delay from the origin, ps; NaN when the data
    /// walk gave up.
    pub data_max_ps: f64,
    /// Shortest strobe-path delay from the origin, ps.
    pub strobe_min_ps: f64,
    /// Data head start at the origin, ps.
    pub data_lead_ps: f64,
    /// Static margin: `data_lead + strobe_min − data_max`, ps; −∞
    /// when the strobe is unreachable, NaN when the data walk gave up.
    pub margin_ps: f64,
    /// Generator parameters of the paired bundle, when it came from a
    /// width/ratio-parameterized generator (the `LinkSpec` machinery).
    pub params: Option<BundleParams>,
}

/// How a capture pairs with the bundles walked so far.
#[derive(Clone, Copy)]
enum Pairing {
    /// No data walk has reached the capture.
    Unconstrained,
    /// The bundle with the smallest maximal data delay (fs) so far.
    Nearest(usize, i64),
    /// This bundle's data walk gave up, so the pairing is unknown.
    Unknown(usize),
}

/// Computes the static margin of every registered capture that is
/// reachable from a registered bundle. Captures whose data cone
/// reaches no bundle origin are unconstrained (e.g. synchronous
/// captures timed by the clock) and are skipped.
pub fn timing_margins(graph: &NetGraph) -> Vec<TimingMargin> {
    // Pair each capture with its nearest launch point: the bundle with
    // the smallest maximal data delay into it (the first on ties).
    let mut pairings = vec![Pairing::Unconstrained; graph.captures.len()];
    for (bi, bundle) in graph.bundles.iter().enumerate() {
        let mut walk = DataWalk::new(graph, bundle.origin);
        for (cap, pairing) in graph.captures.iter().zip(&mut pairings) {
            if let Pairing::Unknown(_) = pairing {
                continue;
            }
            match walk.longest(cap.data) {
                Err(GaveUp) => *pairing = Pairing::Unknown(bi),
                Ok(Some(d)) => match *pairing {
                    Pairing::Nearest(_, best) if best <= d => {}
                    _ => *pairing = Pairing::Nearest(bi, d),
                },
                Ok(None) => {}
            }
        }
    }

    let fanout = strobe_fanout(graph);
    let mut strobe_dist: Vec<Option<Vec<Option<i64>>>> = vec![None; graph.bundles.len()];
    let mut out = Vec::new();
    for (cap, pairing) in graph.captures.iter().zip(pairings) {
        let (bi, data_max) = match pairing {
            Pairing::Unconstrained => continue,
            Pairing::Nearest(bi, d) => (bi, Some(d)),
            Pairing::Unknown(bi) => (bi, None),
        };
        let bundle = &graph.bundles[bi];
        let dist = strobe_dist[bi].get_or_insert_with(|| strobe_distances(&fanout, bundle.origin));
        let strobe_min = dist[cap.trigger.index()];
        let lead = bundle.data_lead.as_fs() as i64;
        let margin_ps = match (data_max, strobe_min) {
            (None, _) => f64::NAN,
            // An unreachable strobe is reported as a zero-margin
            // defect by `check`; encode it as a hard failure here.
            (Some(_), None) => f64::NEG_INFINITY,
            (Some(d), Some(s)) => (lead + s - d) as f64 / 1000.0,
        };
        out.push(TimingMargin {
            bundle: bundle.label.clone(),
            capture_data: graph.signal(cap.data).path.clone(),
            capture_trigger: graph.signal(cap.trigger).path.clone(),
            data_max_ps: data_max.map_or(f64::NAN, |d| d as f64 / 1000.0),
            strobe_min_ps: strobe_min.unwrap_or(0) as f64 / 1000.0,
            data_lead_ps: lead as f64 / 1000.0,
            margin_ps,
            params: bundle.params,
        });
    }
    out.sort_by(|a, b| {
        a.bundle
            .cmp(&b.bundle)
            .then_with(|| a.capture_data.cmp(&b.capture_data))
            .then_with(|| a.capture_trigger.cmp(&b.capture_trigger))
    });
    out
}

/// Runs the static-timing lint over `graph`, appending to `report`.
pub fn check(graph: &NetGraph, report: &mut LintReport) {
    for m in timing_margins(graph) {
        if m.margin_ps.is_nan() {
            report.push(
                Severity::Error,
                PASS,
                &m.capture_data,
                format!(
                    "data-path walk from bundle '{}' gave up after {STEP_BUDGET} steps: \
                     the margin of this capture is unknown",
                    m.bundle
                ),
            );
        } else if m.margin_ps == f64::NEG_INFINITY {
            report.push(
                Severity::Error,
                PASS,
                &m.capture_trigger,
                format!(
                    "capture trigger is unreachable from bundle '{}' although the data \
                     pin is (data {:.1} ps): the strobe cannot close this capture",
                    m.bundle, m.data_max_ps
                ),
            );
        } else if m.margin_ps <= 0.0 {
            report.push(
                Severity::Error,
                PASS,
                &m.capture_data,
                format!(
                    "bundled-data violation against '{}': data {:.1} ps, strobe {:.1} ps \
                     (+{:.1} ps lead) — margin {:.1} ps; the strobe can overtake its data",
                    m.bundle, m.data_max_ps, m.strobe_min_ps, m.data_lead_ps, m.margin_ps
                ),
            );
        } else {
            report.push(
                Severity::Info,
                PASS,
                &m.capture_data,
                format!(
                    "static bundled margin +{:.1} ps against '{}' (data {:.1} ps, strobe \
                     {:.1} ps, lead {:.1} ps)",
                    m.margin_ps, m.bundle, m.data_max_ps, m.strobe_min_ps, m.data_lead_ps
                ),
            );
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    DataMax,
    /// Behind the launch register: a timing path has exactly ONE
    /// launching flip-flop, and the rest of the path back to the
    /// origin is its clock network — combinational cells only. A
    /// second register on the way would make it a multi-cycle path
    /// (the upstream word changing between handshakes), which the
    /// protocol, not the matched delay, keeps safe.
    ClockMax,
    StrobeMin,
}

/// Which of a cell's input pins the cone continues through, and the
/// mode the traversal continues in past that cell.
fn pins(comp: &NetComponent, mode: Mode) -> (&[SignalId], Mode) {
    match comp.class {
        CellClass::Comb | CellClass::Wire | CellClass::Route => (&comp.inputs, mode),
        CellClass::Latch => match mode {
            Mode::DataMax => (&comp.data_pins, mode),
            Mode::ClockMax => (&[], mode),
            Mode::StrobeMin => (&comp.trigger_pins, mode),
        },
        CellClass::Dff => match mode {
            Mode::DataMax => (&comp.trigger_pins, Mode::ClockMax),
            Mode::ClockMax => (&[], mode),
            Mode::StrobeMin => (&comp.trigger_pins, mode),
        },
        CellClass::CElement | CellClass::DavidCell => match mode {
            Mode::DataMax | Mode::ClockMax => (&[], mode),
            Mode::StrobeMin => (&comp.trigger_pins, mode),
        },
        CellClass::Source | CellClass::Env | CellClass::Monitor | CellClass::Unknown => {
            (&[], mode)
        }
    }
}

/// A component's annotated delay in femtoseconds (0 when unknown).
fn delay_fs(comp: &NetComponent) -> i64 {
    comp.delay.map_or(0, |d| d.as_fs() as i64)
}

/// For every signal, the signals a strobe transition on it reaches
/// through one cell, with that cell's delay in femtoseconds.
fn strobe_fanout(graph: &NetGraph) -> Vec<Vec<(SignalId, i64)>> {
    let mut fanout = vec![Vec::new(); graph.signals.len()];
    for sig in &graph.signals {
        for &driver in &sig.drivers {
            let comp = graph.component(driver);
            for &pin in pins(comp, Mode::StrobeMin).0 {
                fanout[pin.index()].push((sig.id, delay_fs(comp)));
            }
        }
    }
    fanout
}

/// Shortest strobe delay in femtoseconds from `origin` to every
/// signal, `None` where no strobe path reaches.
fn strobe_distances(fanout: &[Vec<(SignalId, i64)>], origin: SignalId) -> Vec<Option<i64>> {
    let mut dist = vec![None; fanout.len()];
    let mut heap = BinaryHeap::from([Reverse((0, origin.index()))]);
    while let Some(Reverse((d, s))) = heap.pop() {
        if dist[s].is_some() {
            continue;
        }
        dist[s] = Some(d);
        for &(next, delay) in &fanout[s] {
            if dist[next.index()].is_none() {
                heap.push(Reverse((d + delay, next.index())));
            }
        }
    }
    dist
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Memo {
    Unvisited,
    OnStack,
    Done(Option<i64>),
}

/// A data walk that ran out of [`STEP_BUDGET`].
struct GaveUp;

/// The data/clock walk from one bundle's origin, shared by all of its
/// captures.
struct DataWalk<'g> {
    graph: &'g NetGraph,
    origin: SignalId,
    // One memo slot per mode a walk can be in (a data walk flips into
    // clock mode behind the launch register, so the same signal can
    // legitimately carry two different results).
    memo: Vec<[Memo; 2]>,
    steps: usize,
}

impl<'g> DataWalk<'g> {
    fn new(graph: &'g NetGraph, origin: SignalId) -> Self {
        DataWalk { graph, origin, memo: vec![[Memo::Unvisited; 2]; graph.signals.len()], steps: 0 }
    }

    /// Longest data delay in femtoseconds from the origin to `data`,
    /// `Ok(None)` if no allowed path connects them.
    fn longest(&mut self, data: SignalId) -> Result<Option<i64>, GaveUp> {
        self.steps = 0;
        let (best, _) = self.visit(data, Mode::DataMax);
        if self.steps > STEP_BUDGET {
            Err(GaveUp)
        } else {
            Ok(best)
        }
    }

    /// Returns the longest delay and whether the evaluation was cut at
    /// a signal currently on the DFS stack (in which case the result is
    /// path-dependent and must not be memoized).
    fn visit(&mut self, sig: SignalId, mode: Mode) -> (Option<i64>, bool) {
        if sig == self.origin {
            return (Some(0), false);
        }
        let m = usize::from(mode == Mode::ClockMax);
        match self.memo[sig.index()][m] {
            Memo::OnStack => return (None, true),
            Memo::Done(v) => return (v, false),
            Memo::Unvisited => {}
        }
        // Budget backstop: an exhausted walk reports a cut, so nothing
        // evaluated after it ran out is memoized as complete.
        self.steps += 1;
        if self.steps > STEP_BUDGET {
            return (None, true);
        }
        self.memo[sig.index()][m] = Memo::OnStack;
        let mut best: Option<i64> = None;
        let mut cut = false;
        for &driver in &self.graph.signal(sig).drivers {
            let comp = self.graph.component(driver);
            let (pins, next_mode) = pins(comp, mode);
            for &pin in pins {
                let (sub, sub_cut) = self.visit(pin, next_mode);
                cut |= sub_cut;
                if let Some(d) = sub {
                    best = best.max(Some(d + delay_fs(comp)));
                }
            }
        }
        if cut {
            self.memo[sig.index()][m] = Memo::Unvisited;
        } else {
            self.memo[sig.index()][m] = Memo::Done(best);
        }
        (best, cut)
    }
}
