//! Bit-sliced multi-seed glitch campaign (`--bin compile` report,
//! fidelity tests).
//!
//! A robustness campaign replays the same link under many glitch
//! seeds. The sliced engine packs up to 64 seeds into the bit-planes
//! of one carrier simulation (`Simulator::slice_begin`); this module
//! is the campaign driver around it:
//!
//! 1. synthesize a deterministic storm *site* list — shared
//!    `(segment, time, width)` upset windows — and one mask per lane
//!    per site (lane 0 keeps all-zero masks as the clean control);
//! 2. run the carrier once with per-lane injection and taps on the
//!    delivery-side signals. The carrier runs its pilot's glitches —
//!    at each site the lowest lane that glitches it, lane 1 here — so
//!    it is that lane's own timeline;
//! 3. scalar-replay the lanes the pass demoted: those whose timing
//!    left the pilot's;
//! 4. verify fidelity: every healthy lane's tap history must be
//!    **byte-identical** to a scalar run seeded with that lane's
//!    masks.
//!
//! The scalar runs double as the wall-clock baseline: `lanes`
//! interpreted-fault runs versus one carrier pass plus replays.

use std::time::{Duration, Instant};

use sal_cells::CircuitBuilder;
use sal_des::trace::MemoryTrace;
use sal_des::{FaultPlan, SignalId, Simulator, Time, Value};
use sal_link::measure::MeasureOptions;
use sal_link::testbench::{attach_link_testbench, worst_case_pattern};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};

use crate::recovery::Rng;

/// Words streamed per campaign run.
pub const WORDS: usize = 16;

/// Shared upset windows per campaign.
pub const SITES: usize = 6;

/// Fixed run horizon: the 16-word pattern drains well inside it in
/// every lane, so sliced and scalar runs observe identical windows.
pub const HORIZON_NS: u64 = 1000;

/// One shared upset window: all lanes glitch this segment in this
/// window, each with its own mask.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// Data segment index (`link.wire.seg_d{seg}`).
    pub seg: u8,
    /// Upset start, picoseconds.
    pub at_ps: u64,
    /// Upset width, picoseconds.
    pub width_ps: u64,
}

/// Synthesizes the shared site list: [`SITES`] windows spread across
/// the pattern's in-use region, 25 ns apart so windows on one segment
/// can never overlap, widths under the ~370 ps I2 slice cadence.
pub fn sites(seed: u64) -> Vec<Site> {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    (0..SITES)
        .map(|i| Site {
            seg: rng.below(5) as u8,
            at_ps: 22_000 + 25_000 * i as u64 + rng.below(8_000),
            width_ps: 150 + rng.below(200),
        })
        .collect()
}

/// The per-lane masks of one site: lane 0 is the clean control (all
/// zeros), every other lane flips one deterministic wire bit.
pub fn lane_masks(seed: u64, site: usize, lanes: u8) -> Vec<u64> {
    (0..lanes)
        .map(|k| {
            if k == 0 {
                0
            } else {
                let mut rng =
                    Rng(seed ^ (site as u64) << 32 ^ u64::from(k).wrapping_mul(0x9e37_79b9) | 1);
                1u64 << rng.below(8)
            }
        })
        .collect()
}

/// One signal's committed change series, `(time, value)` — the unit
/// of the byte-identical fidelity comparison.
pub type Series = Vec<(Time, Value)>;

/// Per-lane results of one campaign pass.
#[derive(Debug)]
pub struct CampaignResult {
    /// Lanes carried.
    pub lanes: u8,
    /// Lanes the sliced pass demoted to scalar replay (bit `k`).
    pub diverged: u64,
    /// Per-lane delivered-flit change series (sliced planes for
    /// healthy lanes, scalar replay for demoted ones).
    pub flit_series: Vec<Series>,
    /// Wall-clock of the carrier pass (build + compile + run + seal).
    pub carrier_wall: Duration,
    /// Wall-clock of the scalar replays of demoted lanes.
    pub replay_wall: Duration,
    /// Carrier-pass kernel profile (compiled-cone and lane counters).
    pub profile: sal_des::SimProfile,
}

/// The campaign's I2 link with the standard testbench streaming
/// [`WORDS`] worst-case words.
fn link_sim() -> (Simulator, sal_link::LinkHandles) {
    let cfg = LinkConfig::default();
    let opts = MeasureOptions::default();
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let spec = LinkSpec::from_config(LinkFamily::PerTransfer, &cfg)
        .expect("campaign config is a valid spec");
    let handles = generate(&mut builder, &spec, "link", &cfg).expect("I2 link builds");
    builder.finish();
    attach_link_testbench(&mut sim, &handles, &worst_case_pattern(WORDS, 32), Time::from_ns(2));
    (sim, handles)
}

fn seg_signal(sim: &Simulator, seg: u8) -> SignalId {
    sim.signal_by_path(&format!("link.wire.seg_d{seg}"))
        .expect("serialized data segment exists")
}

/// One scalar ground-truth run: lane `k`'s masks through the public
/// fault-plan machinery, delivered-flit change series extracted from
/// a full transition trace.
pub fn scalar_run(storm_seed: u64, lane: u8, lanes: u8) -> Series {
    let (mut sim, handles) = link_sim();
    let mut plan = FaultPlan::new(0);
    for (i, site) in sites(storm_seed).iter().enumerate() {
        let mask = lane_masks(storm_seed, i, lanes)[lane as usize];
        if mask != 0 {
            plan = plan.glitch(
                &format!("link.wire.seg_d{}", site.seg),
                Time::from_ps(site.at_ps),
                Time::from_ps(site.width_ps),
                mask,
            );
        }
    }
    sim.apply_fault_plan(&plan).expect("storm plan resolves");
    sim.compile();
    sim.set_trace_sink(Box::new(MemoryTrace::new()));
    sim.run_until(Time::from_ns(HORIZON_NS)).expect("scalar run completes");
    let sink = sim.take_trace_sink().expect("trace sink installed");
    sink.records()
        .expect("memory trace exposes records")
        .iter()
        .filter(|r| r.signal == handles.flit_out)
        .map(|r| (r.time, r.new))
        .collect()
}

/// Extracts lane `k`'s change series from a sliced tap history: keep
/// the entries where that lane's unpacked value actually changed.
pub fn lane_series(history: &[(Time, sal_des::LaneValues)], lane: u8) -> Series {
    let mut out = Series::new();
    let mut prev: Option<Value> = None;
    for (t, planes) in history {
        let v = planes.unpack(lane);
        if prev.as_ref() != Some(&v) {
            if prev.is_some() {
                out.push((*t, v));
            }
            prev = Some(v);
        }
    }
    out
}

/// Runs the sliced campaign: one carrier pass packing `lanes` seeds,
/// scalar replays for demoted lanes. Lane `k`'s glitches are
/// `lane_masks(storm_seed, site, lanes)[k]` at each shared site.
pub fn sliced_campaign(storm_seed: u64, lanes: u8) -> CampaignResult {
    let t0 = Instant::now();
    let (mut sim, handles) = link_sim();
    sim.compile();
    sim.slice_begin(lanes);
    for (i, site) in sites(storm_seed).iter().enumerate() {
        let signal = seg_signal(&sim, site.seg);
        let masks = lane_masks(storm_seed, i, lanes);
        sim.slice_glitch(
            Time::from_ps(site.at_ps),
            signal,
            Time::from_ps(site.width_ps),
            &masks,
        );
    }
    sim.slice_tap(handles.flit_out);
    sim.run_until(Time::from_ns(HORIZON_NS)).expect("carrier run completes");
    let diverged = sim.slice_seal();
    let profile = sim.profile();
    let history = sim.slice_tap_history(handles.flit_out).expect("flit tap recorded").to_vec();
    let carrier_wall = t0.elapsed();

    let t1 = Instant::now();
    let flit_series: Vec<Series> = (0..lanes)
        .map(|k| {
            if diverged & (1 << k) != 0 {
                scalar_run(storm_seed, k, lanes)
            } else {
                lane_series(&history, k)
            }
        })
        .collect();
    let replay_wall = t1.elapsed();
    CampaignResult { lanes, diverged, flit_series, carrier_wall, replay_wall, profile }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_synthesis_is_deterministic_and_in_spec() {
        let a = sites(11);
        assert_eq!(a.len(), SITES);
        for (i, s) in a.iter().enumerate() {
            assert!(s.seg < 5);
            assert!((150..350).contains(&s.width_ps));
            assert!(s.at_ps >= 22_000 && s.at_ps < 22_000 + 25_000 * i as u64 + 8_000 + 1);
        }
        let m = lane_masks(11, 0, 8);
        assert_eq!(m[0], 0, "lane 0 is the clean control");
        assert!(m[1..].iter().all(|&x| x.is_power_of_two() && x < 256));
        assert_eq!(m, lane_masks(11, 0, 8));
    }
}
