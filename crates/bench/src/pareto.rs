//! Design-space Pareto campaign over the declarative `LinkSpec`
//! lattice.
//!
//! Where the figure experiments replicate the paper's three fixed
//! design points, this campaign sweeps the *whole* space the
//! [`LinkSpec`] generator admits — family × word width × serialization
//! ratio × buffer depth × protection — measures every cell at gate
//! level, and extracts the per-family Pareto fronts over
//! (energy-per-word, word latency, cell count). The output
//! `BENCH_pareto.json` is bytewise deterministic, so CI diffs the
//! quick subset against a committed fixture.

use crate::sweep::parallel_map;
use sal_cells::CircuitBuilder;
use sal_des::json::Json;
use sal_des::Simulator;
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::testbench::worst_case_pattern;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode};
use sal_lint::run_all;

/// Flits pushed through every cell (the paper's worst-case pattern).
pub const CAMPAIGN_WORDS: usize = 4;

/// Word widths the full campaign visits.
pub const WIDTHS: [u8; 4] = [16, 32, 48, 64];
/// Serialization ratios the full campaign visits.
pub const RATIOS: [u8; 4] = [2, 4, 8, 16];
/// Buffer depths the full campaign visits.
pub const DEPTHS: [u32; 3] = [2, 4, 8];
/// Protection modes the full campaign visits.
pub const PROTECTIONS: [ProtectionMode; 3] =
    [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8];

/// Enumerates every *valid* cell of the full campaign grid, in the
/// deterministic (family, width, ratio, depth, protection) order the
/// artifact records them. Invalid lattice points (ratio not dividing
/// the width, protection widening past 64 bits, CRC slice mismatches,
/// the 64-bit sync word) are skipped by the builder's own validation —
/// the campaign sweeps exactly the space the API admits.
///
/// The synchronous family is parallel wiring with no serializer, so
/// sweeping it across ratios and protection would re-measure one
/// netlist under different names; it is pinned to the paper's 4:1
/// bookkeeping ratio, unprotected.
pub fn full_grid() -> Vec<LinkSpec> {
    let mut out = Vec::new();
    for family in LinkFamily::ALL {
        for width in WIDTHS {
            for ratio in RATIOS {
                if family == LinkFamily::Sync && ratio != 4 {
                    continue;
                }
                for depth in DEPTHS {
                    for protection in PROTECTIONS {
                        let spec = LinkSpec::builder()
                            .family(family)
                            .word_width(width)
                            .serial_ratio(ratio)
                            .buffer_depth(depth)
                            .protection(protection)
                            .build();
                        if let Ok(spec) = spec {
                            out.push(spec);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The reduced deterministic subset CI measures and diffs against the
/// committed fixture: all three families, three ratios (2, 8, 16 —
/// deliberately *not* the paper's 4:1, which the figure experiments
/// already pin), two word widths, paper buffer depth, protection off
/// and parity.
pub fn quick_grid() -> Vec<LinkSpec> {
    let mut out = Vec::new();
    for family in LinkFamily::ALL {
        for width in [16u8, 32] {
            for ratio in [2u8, 8, 16] {
                if family == LinkFamily::Sync && ratio != 2 {
                    continue;
                }
                for protection in [ProtectionMode::Off, ProtectionMode::Parity] {
                    let spec = LinkSpec::builder()
                        .family(family)
                        .word_width(width)
                        .serial_ratio(ratio)
                        .buffer_depth(4)
                        .protection(protection)
                        .build();
                    if let Ok(spec) = spec {
                        out.push(spec);
                    }
                }
            }
        }
    }
    out
}

/// One measured cell: the numbers the Pareto extraction needs plus
/// the record JSON the artifact embeds.
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// The spec this cell measured.
    pub spec: LinkSpec,
    /// Energy to move one word across the link, pJ.
    pub energy_per_word_pj: f64,
    /// Mean accept-to-deliver word latency, ns.
    pub latency_ns: f64,
    /// Netlist cell count of the bare link.
    pub cells: usize,
    /// Error-severity lint findings on the generated netlist.
    pub lint_errors: usize,
    /// The record as serialized JSON (one object, no trailing newline).
    pub json: String,
}

/// Builds the bare link netlist for `spec` and returns the netlist
/// graph the campaign counts cells on and lints.
fn build_netgraph(spec: &LinkSpec, opts: &MeasureOptions) -> sal_des::NetGraph {
    let base = LinkConfig::default();
    let mut sim = Simulator::new();
    let mut b = CircuitBuilder::new(&mut sim, &opts.lib);
    generate(&mut b, spec, "link", &base).expect("campaign grids contain only valid specs");
    b.finish();
    sim.netgraph()
}

/// Measures one cell at gate level and serialises its record.
fn measure(spec: &LinkSpec, opts: &MeasureOptions) -> MeasuredCell {
    let graph = build_netgraph(spec, opts);
    let cells = graph.components.len();
    let lint_errors = run_all(&graph).errors().count();
    let words = worst_case_pattern(CAMPAIGN_WORDS, spec.word_width());
    let run = run_spec(spec, &LinkConfig::default(), &words, opts)
        .unwrap_or_else(|e| panic!("campaign cell {spec:?} failed its clean run: {e}"));
    assert!(run.integrity.is_clean(), "campaign cell {spec:?} corrupted data");
    // µW × µs = pJ: the window is the paper's usage-scaled interval.
    let energy_pj = run.total_power_uw() * run.window.as_secs() * 1e6;
    let energy_per_word_pj = energy_pj / words.len() as f64;
    let pairs = run.sent.iter().zip(run.received.iter());
    let mut lat_sum = 0.0;
    let mut lat_n = 0usize;
    for (&(t_in, _), &(t_out, _)) in pairs {
        lat_sum += (t_out - t_in).as_ns();
        lat_n += 1;
    }
    let latency_ns = if lat_n == 0 { 0.0 } else { lat_sum / lat_n as f64 };
    let mut j = Json::new();
    j.obj();
    j.key("family").str(spec.family().label());
    j.key("word_width").num(spec.word_width());
    j.key("serial_ratio").num(spec.serial_ratio());
    j.key("slice_width").num(spec.slice_width());
    j.key("buffer_depth").num(spec.buffer_depth());
    j.key("protection").str(spec.protection().label());
    j.key("wires").num(spec.wires());
    j.key("cells").num(cells);
    j.key("area_um2").fixed(run.area_um2(), 1);
    j.key("energy_per_word_pj").fixed(energy_per_word_pj, 3);
    j.key("latency_ns").fixed(latency_ns, 3);
    j.key("throughput_mflits").fixed(run.throughput_mflits(), 2);
    j.key("lint_errors").num(lint_errors);
    j.key("spec_hash").str(&format!("{:016x}", spec.content_hash()));
    j.end();
    let json = j.finish().trim_end().to_string();
    MeasuredCell {
        spec: spec.clone(),
        energy_per_word_pj,
        latency_ns,
        cells,
        lint_errors,
        json,
    }
}

/// Runs the campaign over `specs`, measuring every cell at gate
/// level. Cells run under [`parallel_map`]; results land in grid
/// order.
///
/// # Panics
///
/// Panics if a sweep worker dies or a cell fails its clean run — a
/// campaign with holes would silently bias the fronts.
pub fn campaign(specs: &[LinkSpec]) -> Vec<MeasuredCell> {
    let opts = MeasureOptions::default();
    parallel_map(specs.to_vec(), |spec| measure(&spec, &opts))
}

/// `true` if `a` dominates `b`: no worse on every objective, strictly
/// better on at least one (minimizing energy, latency and cell count).
fn dominates(a: &MeasuredCell, b: &MeasuredCell) -> bool {
    let no_worse = a.energy_per_word_pj <= b.energy_per_word_pj
        && a.latency_ns <= b.latency_ns
        && a.cells <= b.cells;
    let better = a.energy_per_word_pj < b.energy_per_word_pj
        || a.latency_ns < b.latency_ns
        || a.cells < b.cells;
    no_worse && better
}

/// Indices (into `cells`) of one family's Pareto-optimal cells, in
/// grid order.
pub fn pareto_front(cells: &[MeasuredCell], family: LinkFamily) -> Vec<usize> {
    let members: Vec<usize> =
        (0..cells.len()).filter(|&i| cells[i].spec.family() == family).collect();
    members
        .iter()
        .copied()
        .filter(|&i| !members.iter().any(|&j| j != i && dominates(&cells[j], &cells[i])))
        .collect()
}

/// Serialises the campaign as the `BENCH_pareto.json` artifact.
pub fn to_json(cells: &[MeasuredCell], quick: bool) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("experiment").str("pareto");
    j.key("grid").str(if quick { "quick" } else { "full" });
    j.key("words_per_cell").num(CAMPAIGN_WORDS);
    j.key("cells").num(cells.len());
    j.key("records").arr_block();
    for c in cells {
        j.raw(&c.json);
    }
    j.end();
    j.key("fronts").obj_block();
    for family in LinkFamily::ALL {
        j.key(family.label()).arr_block();
        for i in pareto_front(cells, family) {
            let c = &cells[i];
            j.obj();
            j.key("spec_hash").str(&format!("{:016x}", c.spec.content_hash()));
            j.key("word_width").num(c.spec.word_width());
            j.key("serial_ratio").num(c.spec.serial_ratio());
            j.key("buffer_depth").num(c.spec.buffer_depth());
            j.key("protection").str(c.spec.protection().label());
            j.key("energy_per_word_pj").fixed(c.energy_per_word_pj, 3);
            j.key("latency_ns").fixed(c.latency_ns, 3);
            j.key("cells").num(c.cells);
            j.end();
        }
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
    fn full_grid_spans_the_advertised_space() {
        let grid = full_grid();
        assert!(
            (200..=400).contains(&grid.len()),
            "full grid should sweep 200–400 cells, got {}",
            grid.len()
        );
        for family in LinkFamily::ALL {
            assert!(grid.iter().any(|s| s.family() == family));
        }
        for ratio in RATIOS {
            assert!(grid.iter().any(|s| s.serial_ratio() == ratio));
        }
        // Grid order is the artifact's record order: strictly sorted
        // by the (family, width, ratio, depth, protection) key.
        let key = |s: &LinkSpec| {
            (
                s.family().label(),
                s.word_width(),
                s.serial_ratio(),
                s.buffer_depth(),
                PROTECTIONS.iter().position(|&p| p == s.protection()),
            )
        };
        for pair in grid.windows(2) {
            assert!(key(&pair[0]) < key(&pair[1]), "grid must be strictly ordered");
        }
    }

    /// Every full-grid `spec_hash` is pinned: the FNV-1a fold of the
    /// 219 cells' `content_hash`es, in grid order. A changed hash
    /// would orphan the `BENCH_pareto.json` records and benchmark
    /// fixture entries keyed by it.
    #[test]
    fn full_grid_content_hashes_are_pinned() {
        let grid = full_grid();
        assert_eq!(grid.len(), 219);
        let fold = grid.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, s| {
            (h ^ s.content_hash()).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(fold, 0x2f96_abfc_fd26_47f9);
    }

    /// FNV-1a over everything formatted into it.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &byte in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }

    /// Every generated netlist is pinned: the `Debug` text of its
    /// netgraph, its handles and its area ledger, folded per (receiver,
    /// family, protection) group over the full grid, the full grid's
    /// I3 cells again with the demux receiver, its unprotected I3
    /// cells with early word acknowledge, and the two gate-level
    /// fabrics the benchmark runs. Signal and component ids, wake
    /// lists, watch order and cell areas all follow construction
    /// order, so a digest that moves means a netlist changed.
    #[test]
    fn every_generated_netlist_is_pinned() {
        use sal_link::WordRxStyle;
        use std::fmt::Write as _;
        let lib = MeasureOptions::default().lib;
        let mut groups = std::collections::BTreeMap::new();
        let mut digest = |group: String, build: &dyn Fn(&mut CircuitBuilder<'_>) -> String| {
            let mut sim = Simulator::new();
            let mut b = CircuitBuilder::new(&mut sim, &lib);
            let handles = build(&mut b);
            let area = b.finish();
            let h = groups.entry(group).or_insert(Fnv(0xcbf2_9ce4_8422_2325));
            write!(h, "{:?}{handles}{area:?}", sim.netgraph()).expect("hashing never fails");
        };
        let default = LinkConfig::default();
        let receiving = |rx| {
            move |s: &LinkSpec| {
                LinkSpec::builder()
                    .family(s.family())
                    .word_width(s.word_width())
                    .serial_ratio(s.serial_ratio())
                    .buffer_depth(s.buffer_depth())
                    .protection(s.protection())
                    .word_rx_style(rx)
                    .build()
                    .expect("every I3 grid cell takes the receiver")
            }
        };
        let grid = full_grid();
        let i3 = |s: &&LinkSpec| s.family() == LinkFamily::PerWord;
        let unprotected = |s: &&LinkSpec| s.protection() == ProtectionMode::Off;
        let runs = grid
            .iter()
            .map(|s| ("default", s.clone()))
            .chain(grid.iter().filter(i3).map(receiving(WordRxStyle::Demux)).map(|s| ("demux", s)))
            .chain(
                grid.iter()
                    .filter(i3)
                    .filter(unprotected)
                    .map(receiving(WordRxStyle::EarlyAck))
                    .map(|s| ("early", s)),
            );
        let mut built = 0;
        for (rx, spec) in runs {
            let group = format!("{rx} {} {}", spec.family().label(), spec.protection().label());
            digest(group, &|b| {
                let h = generate(b, &spec, "link", &default).expect("grid specs are valid");
                format!("{h:?}")
            });
            built += 1;
        }
        assert_eq!(built, 219 + 105 + 48);
        for (dims, family) in [((3, 3), LinkFamily::PerWord), ((3, 2), LinkFamily::PerTransfer)] {
            let group = format!("fabric {}x{} {}", dims.0, dims.1, family.label());
            digest(group, &|b| {
                let f = sal_switch::build_mesh_fabric(b, "fab", dims, family, &default);
                format!("{f:?}")
            });
        }
        let digests: Vec<(&str, u64)> = groups.iter().map(|(g, h)| (g.as_str(), h.0)).collect();
        assert_eq!(
            digests,
            [
                ("default I1 off", 0xaae7_22da_0ed9_2570),
                ("default I2 crc", 0x8dec_1347_a694_9329),
                ("default I2 off", 0x0b11_8ff5_ce5c_5fe4),
                ("default I2 parity", 0xfe15_3afa_d84f_94c8),
                ("default I3 crc", 0x0a9a_03d2_0cbf_2a56),
                ("default I3 off", 0x5121_7f1e_8e0d_b6b0),
                ("default I3 parity", 0x5895_e532_c34c_3d5d),
                ("demux I3 crc", 0xdcca_1f95_bdea_bfb4),
                ("demux I3 off", 0x8d8d_c0f0_7d97_9934),
                ("demux I3 parity", 0x6cba_28bd_2b07_c654),
                ("early I3 off", 0x0a21_4198_d2bd_1554),
                ("fabric 3x2 I2", 0x4f6b_90dd_a6f9_0e03),
                ("fabric 3x3 I3", 0x9217_6cc1_cbc1_c762),
            ],
            "a generated netlist changed"
        );
    }

    /// Backs the campaign's "every generated link lints clean": all
    /// full-grid cells, zero error findings and a positive static margin
    /// on every bundled capture.
    #[test]
    fn every_full_grid_cell_lints_clean() {
        let opts = MeasureOptions::default();
        for spec in full_grid() {
            let graph = build_netgraph(&spec, &opts);
            let report = run_all(&graph);
            assert!(!report.has_errors(), "{spec:?}:\n{}", report.to_text());
            for m in sal_lint::timing_margins(&graph) {
                assert!(
                    m.margin_ps > 0.0,
                    "{spec:?}: margin {:+.1} ps at {}",
                    m.margin_ps,
                    m.capture_data
                );
            }
        }
    }

    #[test]
    fn quick_grid_covers_the_acceptance_axes() {
        let grid = quick_grid();
        assert!(grid.len() <= 30, "quick subset must stay CI-sized, got {}", grid.len());
        for family in LinkFamily::ALL {
            assert!(grid.iter().any(|s| s.family() == family), "family missing from quick grid");
        }
        let ratios: std::collections::BTreeSet<u8> =
            grid.iter().map(LinkSpec::serial_ratio).collect();
        assert!(
            ratios.is_superset(&[2u8, 8, 16].into_iter().collect()),
            "quick grid must visit ratios 2, 8 and 16 (got {ratios:?})"
        );
        let widths: std::collections::BTreeSet<u8> =
            grid.iter().map(LinkSpec::word_width).collect();
        assert!(widths.len() >= 2, "quick grid must visit at least two word widths");
    }

    fn cell(family: LinkFamily, e: f64, l: f64, c: usize) -> MeasuredCell {
        MeasuredCell {
            spec: LinkSpec::builder().family(family).build().unwrap(),
            energy_per_word_pj: e,
            latency_ns: l,
            cells: c,
            lint_errors: 0,
            json: String::new(),
        }
    }

    #[test]
    fn pareto_front_keeps_exactly_the_nondominated_set() {
        let f = LinkFamily::PerWord;
        let cells = vec![
            cell(f, 10.0, 5.0, 100),                  // dominated by #2
            cell(f, 8.0, 5.0, 100),                   // front
            cell(f, 12.0, 3.0, 100),                  // front (best latency)
            cell(f, 8.0, 5.0, 90),                    // dominates #1
            cell(LinkFamily::Sync, 1.0, 1.0, 1),      // other family: ignored
        ];
        let front = pareto_front(&cells, f);
        assert_eq!(front, vec![2, 3], "expected the nondominated cells, got {front:?}");
        // The other family's front is its own singleton.
        assert_eq!(pareto_front(&cells, LinkFamily::Sync), vec![4]);
    }

    #[test]
    fn equal_cells_both_stay_on_the_front() {
        let f = LinkFamily::PerTransfer;
        let cells = vec![cell(f, 5.0, 5.0, 50), cell(f, 5.0, 5.0, 50)];
        assert_eq!(pareto_front(&cells, f), vec![0, 1], "ties dominate neither way");
    }

    /// Re-measuring the quick grid reproduces the committed artifact
    /// byte for byte.
    #[test]
    fn quick_grid_reproduces_the_committed_fixture() {
        let json = to_json(&campaign(&quick_grid()), true);
        assert_eq!(json, include_str!("../fixtures/BENCH_pareto.json"));
    }
}
