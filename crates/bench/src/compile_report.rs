//! Deterministic compiled-engine equivalence report (`--bin compile`).
//!
//! Runs a fixed set of workloads on both execution engines — the
//! interpreted event loop and the compiled netlist engine — and
//! records only integer facts: event/commit/cone counters and a
//! behavioral checksum. The engines must agree on every behavioral
//! field (`identical`); the cone counters document how many node
//! evaluations and drives ran compiled. A sliced-campaign section pins the
//! per-seed divergence masks and the zero-mismatch fidelity count.
//!
//! Everything here is bytewise deterministic, so CI diffs the emitted
//! `BENCH_compile.json` against a committed fixture.

use sal_cells::{CircuitBuilder, UnitLibrary};
use sal_des::json::Json;
use sal_des::{Simulator, Time, Value};
use sal_link::measure::MeasureOptions;
use sal_link::testbench::attach_link_testbench;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};

use crate::sliced;

/// Words streamed through each link workload.
pub const LINK_WORDS: usize = 64;

/// Storm seeds pinned in the sliced section: the golden storm (one
/// demoted lane), a fully converged quiet storm, and a mid-transition
/// storm whose pass keeps only the lanes on its pilot's timing.
pub const SLICED_SEEDS: [u64; 3] = [73, 7, 3];

/// One engine's integer counters for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed through the global queue.
    pub events: u64,
    /// Committed signal value changes.
    pub commits: u64,
    /// Compiled cones built (0 interpreted).
    pub cones_built: u64,
    /// Compiled spec evaluations (0 interpreted).
    pub cone_evals: u64,
    /// Drives compiled nodes scheduled (0 interpreted); each is also a
    /// queue event counted in `events`.
    pub events_avoided: u64,
    /// Workload-defined behavioral checksum (delivered words, final
    /// values) — must match between engines.
    pub checksum: u64,
}

/// One workload, both engines.
#[derive(Debug)]
pub struct WorkloadRow {
    /// Workload label.
    pub name: &'static str,
    /// Interpreted-engine counters.
    pub interpreted: EngineStats,
    /// Compiled-engine counters.
    pub compiled: EngineStats,
}

impl WorkloadRow {
    /// Whether the engines agreed on every behavioral field.
    pub fn identical(&self) -> bool {
        self.interpreted.commits == self.compiled.commits
            && self.interpreted.checksum == self.compiled.checksum
    }
}

/// One pinned storm of the sliced-campaign section.
#[derive(Debug)]
pub struct SlicedRow {
    /// Storm seed.
    pub seed: u64,
    /// Lanes packed.
    pub lanes: u8,
    /// Divergence mask after `slice_seal`.
    pub diverged: u64,
    /// Lanes whose delivered series differs from the clean control.
    pub distinct_from_control: u32,
    /// Lanes whose series differs from scalar ground truth (must be 0).
    pub mismatched: u32,
}

/// The full report.
#[derive(Debug)]
pub struct CompileReport {
    /// Engine-equivalence rows.
    pub workloads: Vec<WorkloadRow>,
    /// Sliced-campaign rows.
    pub sliced: Vec<SlicedRow>,
}

fn ring_stats(compiled: bool) -> EngineStats {
    let mut sim = Simulator::new();
    let lib = UnitLibrary;
    let mut builder = CircuitBuilder::new(&mut sim, &lib);
    let en = builder.input("en", 1);
    let osc = builder.ring_oscillator_stages("ro", en, 9);
    builder.finish();
    if compiled {
        sim.compile();
    }
    sim.stimulus(en, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
    sim.run_until(Time::from_ns(100)).unwrap();
    let p = sim.profile();
    EngineStats {
        events: p.events,
        commits: p.commits,
        cones_built: p.cones_built,
        cone_evals: p.cone_evals,
        events_avoided: p.events_avoided,
        checksum: sim.toggles(osc),
    }
}

fn link_stats(family: LinkFamily, compiled: bool) -> EngineStats {
    let cfg = LinkConfig::default();
    let opts = MeasureOptions::default();
    let words: Vec<u64> =
        (0..LINK_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9) & 0xffff_ffff).collect();
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let handles = generate(&mut builder, &LinkSpec::paper(family), "link", &cfg).expect("link builds");
    builder.finish();
    if compiled {
        sim.compile();
    }
    let (_sent, received) = attach_link_testbench(&mut sim, &handles, &words, Time::from_ns(2));
    let slice = cfg.clk_period * 32;
    while received.borrow().len() < words.len() {
        sim.run_for(slice).expect("link run completes");
    }
    let p = sim.profile();
    // Fold delivery times as well as payloads: the engines must agree
    // on *when* each word arrived, not just on its bits.
    let checksum = received
        .borrow()
        .iter()
        .fold(received.borrow().len() as u64, |acc, (t, w)| {
            acc.rotate_left(7) ^ w ^ t.as_fs().rotate_left(32)
        });
    EngineStats {
        events: p.events,
        commits: p.commits,
        cones_built: p.cones_built,
        cone_evals: p.cone_evals,
        events_avoided: p.events_avoided,
        checksum,
    }
}

fn sliced_row(seed: u64, lanes: u8) -> SlicedRow {
    let r = sliced::sliced_campaign(seed, lanes);
    let mismatched = (0..lanes)
        .filter(|&k| r.flit_series[k as usize] != sliced::scalar_run(seed, k, lanes))
        .count() as u32;
    let distinct = (1..lanes as usize)
        .filter(|&k| r.flit_series[k] != r.flit_series[0])
        .count() as u32;
    SlicedRow { seed, lanes, diverged: r.diverged, distinct_from_control: distinct, mismatched }
}

/// Builds the full report (runs every workload on both engines and
/// every pinned storm).
pub fn report() -> CompileReport {
    let mut workloads = Vec::new();
    workloads.push(WorkloadRow {
        name: "ring_oscillator_100ns",
        interpreted: ring_stats(false),
        compiled: ring_stats(true),
    });
    for (name, family) in [
        ("i1_sync_64_words", LinkFamily::Sync),
        ("i2_per_transfer_64_words", LinkFamily::PerTransfer),
        ("i3_per_word_64_words", LinkFamily::PerWord),
    ] {
        workloads.push(WorkloadRow {
            name,
            interpreted: link_stats(family, false),
            compiled: link_stats(family, true),
        });
    }
    let sliced = SLICED_SEEDS.iter().map(|&s| sliced_row(s, 64)).collect();
    CompileReport { workloads, sliced }
}

fn engine_json(j: &mut Json, e: &EngineStats) {
    j.obj();
    j.key("events").num(e.events);
    j.key("commits").num(e.commits);
    j.key("cones_built").num(e.cones_built);
    j.key("cone_evals").num(e.cone_evals);
    j.key("events_avoided").num(e.events_avoided);
    j.key("checksum").num(e.checksum);
    j.end();
}

/// Serialises the report as the `BENCH_compile.json` artifact
/// (integers and fixed strings only, bytewise deterministic).
pub fn to_json(r: &CompileReport) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("workloads").arr_block();
    for w in &r.workloads {
        j.obj();
        j.key("name").str(w.name);
        j.key("identical").bool(w.identical());
        engine_json(j.key("interpreted"), &w.interpreted);
        engine_json(j.key("compiled"), &w.compiled);
        j.end();
    }
    j.end();
    j.key("sliced").arr_block();
    for s in &r.sliced {
        j.obj();
        j.key("seed").num(s.seed);
        j.key("lanes").num(s.lanes);
        j.key("diverged").str(&format!("{:#018x}", s.diverged));
        j.key("demoted").num(s.diverged.count_ones());
        j.key("distinct_from_control").num(s.distinct_from_control);
        j.key("mismatched").num(s.mismatched);
        j.end();
    }
    j.end();
    j.end();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_ring_workload() {
        let row = WorkloadRow {
            name: "ring_oscillator_100ns",
            interpreted: ring_stats(false),
            compiled: ring_stats(true),
        };
        assert!(row.identical(), "{row:?}");
        assert!(row.compiled.cones_built > 0);
        assert!(row.interpreted.cones_built == 0);
    }

    #[test]
    fn engines_agree_on_i2_link() {
        // Compiled and interpreted I2 deliver the same words at the
        // same times with the same commits; only the compiled run
        // builds, fires and schedules cones.
        let row = WorkloadRow {
            name: "i2_link",
            interpreted: link_stats(LinkFamily::PerTransfer, false),
            compiled: link_stats(LinkFamily::PerTransfer, true),
        };
        assert!(row.identical(), "{row:?}");
        let (c, i) = (row.compiled, row.interpreted);
        assert!(c.cones_built > 0 && c.cone_evals > 0 && c.events_avoided > 0, "{c:?}");
        assert_eq!((i.cones_built, i.cone_evals, i.events_avoided), (0, 0, 0));
    }
}
