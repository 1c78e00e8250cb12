//! Small gate-level fabrics: a row of switches joined by any of the
//! paper's three links — the Fig 2 system, end to end, with every
//! gate simulated.

use sal_cells::CircuitBuilder;
use sal_des::{SignalId, Value};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};

use crate::switch::{build_switch, port, SwitchPorts};

/// Handles to drive a built row fabric.
#[derive(Debug, Clone)]
pub struct FabricHandles {
    /// The switch clock (link instances carry identical clocks of
    /// their own, phase-aligned by construction).
    pub clk: SignalId,
    /// Every reset input in the fabric (drive them all identically).
    pub rstns: Vec<SignalId>,
    /// Per switch: local injection `(flit_in, valid_in, stall_out)`.
    pub local_in: Vec<(SignalId, SignalId, SignalId)>,
    /// Per switch: local ejection `(flit_out, valid_out, stall_in)`.
    pub local_out: Vec<(SignalId, SignalId, SignalId)>,
    /// The switches' port bundles (for inspection).
    pub switches: Vec<SwitchPorts>,
}

/// Builds `n` switches at coordinates `(0,0) … (n-1,0)` joined by
/// `family` links in both directions, inside scope `name`. Unused
/// mesh edges are tied off. `cfg.flit_width` is the fabric's flit
/// width.
pub fn build_row_fabric(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    n: usize,
    family: LinkFamily,
    cfg: &LinkConfig,
) -> FabricHandles {
    build_mesh_fabric(b, name, (n, 1), family, cfg)
}

/// Builds a full `cols × rows` gate-level mesh: one switch per node,
/// joined by `family` links in both directions along every mesh edge.
/// Locals are exposed in row-major order (`y * cols + x`).
pub fn build_mesh_fabric(
    b: &mut CircuitBuilder<'_>,
    name: &str,
    (cols, rows): (usize, usize),
    family: LinkFamily,
    cfg: &LinkConfig,
) -> FabricHandles {
    let n = cols * rows;
    assert!(n >= 2, "a fabric needs at least two switches");
    assert!(cols <= 16 && rows <= 16, "coordinates are 4-bit");
    let m = cfg.flit_width;
    let mut rstns = Vec::new();

    let clk = b.clock(&format!("{name}_clk"), cfg.clk_period);
    let rstn = b.input(&format!("{name}_rstn"), 1);
    rstns.push(rstn);

    b.push_scope(name);
    let switches: Vec<SwitchPorts> = (0..n)
        .map(|i| {
            let (x, y) = (i % cols, i / cols);
            build_switch(b, &format!("sw{i}"), m, (x as u8, y as u8), clk, rstn)
        })
        .collect();

    // Tie off the unused mesh-edge ports.
    let zero_flit = b.tie("zero_flit", Value::zero(m));
    let zero = b.tie("zero", Value::zero(1));
    let tie_input = |b: &mut CircuitBuilder<'_>, sw: &SwitchPorts, p: usize, i: usize| {
        b.buf_into(&format!("tie_f_{i}_{p}"), sw.flit_in[p], zero_flit);
        b.buf_into(&format!("tie_v_{i}_{p}"), sw.valid_in[p], zero);
        b.buf_into(&format!("tie_s_{i}_{p}"), sw.stall_in[p], zero);
    };
    for (i, sw) in switches.iter().enumerate() {
        let (x, y) = (i % cols, i / cols);
        if y == 0 {
            tie_input(b, sw, port::N, i);
        }
        if y == rows - 1 {
            tie_input(b, sw, port::S, i);
        }
        if x == 0 {
            tie_input(b, sw, port::W, i);
        }
        if x == cols - 1 {
            tie_input(b, sw, port::E, i);
        }
    }
    b.pop_scope();

    // Inter-switch links, one per direction per mesh edge. Links are
    // built at the top level (they create their own clock/reset
    // signals there). `connect(from, out_port, to, in_port)` inserts a
    // full gate-level link between two switch ports.
    let spec = match LinkSpec::from_config(family, cfg) {
        Ok(s) => s,
        Err(e) => panic!("fabric link config is not a valid spec: {e}"),
    };
    let connect = |b: &mut CircuitBuilder<'_>,
                       rstns: &mut Vec<SignalId>,
                       tag: String,
                       from: usize,
                       op: usize,
                       to: usize,
                       ip: usize| {
        let l = match generate(b, &spec, &tag, cfg) {
            Ok(l) => l,
            Err(e) => panic!("fabric link '{tag}' failed to build: {e}"),
        };
        rstns.push(l.rstn);
        b.buf_into(&format!("{tag}_fi"), l.flit_in, switches[from].flit_out[op]);
        b.buf_into(&format!("{tag}_vi"), l.valid_in, switches[from].valid_out[op]);
        b.buf_into(&format!("{tag}_so"), switches[from].stall_in[op], l.stall_out);
        b.buf_into(&format!("{tag}_fo"), switches[to].flit_in[ip], l.flit_out);
        b.buf_into(&format!("{tag}_vo"), switches[to].valid_in[ip], l.valid_out);
        b.buf_into(&format!("{tag}_si"), l.stall_in, switches[to].stall_out[ip]);
    };
    for y in 0..rows {
        for x in 0..cols {
            let i = y * cols + x;
            if x + 1 < cols {
                let j = i + 1;
                connect(b, &mut rstns, format!("{name}_x{x}y{y}e"), i, port::E, j, port::W);
                connect(b, &mut rstns, format!("{name}_x{x}y{y}w"), j, port::W, i, port::E);
            }
            if y + 1 < rows {
                let j = i + cols;
                connect(b, &mut rstns, format!("{name}_x{x}y{y}s"), i, port::S, j, port::N);
                connect(b, &mut rstns, format!("{name}_x{x}y{y}n"), j, port::N, i, port::S);
            }
        }
    }

    let local_in = switches
        .iter()
        .map(|sw| (sw.flit_in[port::L], sw.valid_in[port::L], sw.stall_out[port::L]))
        .collect();
    let local_out = switches
        .iter()
        .map(|sw| (sw.flit_out[port::L], sw.valid_out[port::L], sw.stall_in[port::L]))
        .collect();
    // In debug builds the finished fabric is linted once, as a link
    // built alone is (its links were built into a non-empty simulator,
    // so none was linted on its own).
    #[cfg(debug_assertions)]
    {
        let report = sal_lint::run_all(&b.sim().netgraph());
        assert!(!report.has_errors(), "fabric '{name}' fails the lint:\n{}", report.to_text());
    }
    FabricHandles { clk, rstns, local_in, local_out, switches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit;
    use sal_des::{Simulator, Time};
    use sal_link::testbench::{
        attach_sync_sink, attach_sync_source, SyncFlitSink, SyncFlitSource,
    };
    use sal_tech::St012Library;

    fn run_fabric(
        n: usize,
        family: LinkFamily,
        traffic: Vec<(usize, u8, u64)>, // (src switch, dest x, payload)
        cycles: u64,
    ) -> Vec<Vec<(u8, u8, u64)>> {
        let cfg = LinkConfig::default();
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let f = build_row_fabric(&mut b, "fab", n, family, &cfg);
        b.finish();
        for &r in &f.rstns {
            sim.stimulus(r, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(2), Value::one(1))]);
        }
        // Sources: per switch, the words destined from it.
        let mut sinks = Vec::new();
        for (i, &(fi, vi, so)) in f.local_in.iter().enumerate() {
            let words: Vec<u64> = traffic
                .iter()
                .filter(|&&(s, _, _)| s == i)
                .map(|&(_, dx, p)| flit::pack(cfg.flit_width, dx, 0, p))
                .collect();
            let (src, _) = SyncFlitSource::new(f.clk, so, fi, vi, cfg.flit_width, words);
            let src = src.with_rstn(f.rstns[0]);
            attach_sync_source(&mut sim, &format!("src{i}"), src, Time::ZERO);
        }
        for (i, &(fo, vo, si)) in f.local_out.iter().enumerate() {
            let (snk, rx) = SyncFlitSink::new(f.clk, vo, fo, si);
            attach_sync_sink(&mut sim, &format!("snk{i}"), snk, Time::ZERO);
            sinks.push(rx);
        }
        sim.run_until(cfg.clk_period * cycles).unwrap();
        sinks
            .iter()
            .map(|rx| {
                rx.borrow()
                    .iter()
                    .map(|&(_, w)| flit::unpack(cfg.flit_width, w))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn two_switches_over_serialized_link() {
        // sw0 -> sw1 and sw1 -> sw0, over gate-level I3 links.
        let got = run_fabric(
            2,
            LinkFamily::PerWord,
            vec![(0, 1, 0xAAAA), (1, 0, 0x5555)],
            120,
        );
        assert_eq!(got[1], vec![(1, 0, 0xAAAA)]);
        assert_eq!(got[0], vec![(0, 0, 0x5555)]);
    }

    #[test]
    fn multi_hop_across_three_switches() {
        // sw0 -> sw2 must transit sw1 and two I2 links.
        let got = run_fabric(
            3,
            LinkFamily::PerTransfer,
            vec![(0, 2, 0x123456), (2, 0, 0x654321)],
            300,
        );
        assert_eq!(got[2], vec![(2, 0, 0x123456)]);
        assert_eq!(got[0], vec![(0, 0, 0x654321)]);
    }

    #[test]
    fn three_switch_row_delivers_all_to_all_traffic() {
        // Every switch sends one flit to each of the other two.
        let mut traffic = Vec::new();
        for s in 0..3usize {
            for d in (0..3u8).filter(|&d| usize::from(d) != s) {
                traffic.push((s, d, (s * 16 + usize::from(d)) as u64));
            }
        }
        for family in [LinkFamily::Sync, LinkFamily::PerWord] {
            let got = run_fabric(3, family, traffic.clone(), 200);
            for (d, flits) in got.iter().enumerate() {
                let mut payloads: Vec<u64> = flits.iter().map(|&(_, _, p)| p).collect();
                payloads.sort_unstable();
                let want: Vec<u64> = traffic
                    .iter()
                    .filter(|&&(_, dx, _)| usize::from(dx) == d)
                    .map(|&(_, _, p)| p)
                    .collect();
                assert_eq!(payloads, want, "{} sink {d}", family.label());
            }
        }
    }

    #[test]
    fn parallel_link_fabric_matches() {
        let got = run_fabric(
            2,
            LinkFamily::Sync,
            vec![(0, 1, 0x77), (0, 1, 0x88), (0, 1, 0x99)],
            200,
        );
        let payloads: Vec<u64> = got[1].iter().map(|&(_, _, p)| p).collect();
        assert_eq!(payloads, vec![0x77, 0x88, 0x99]);
    }

    #[test]
    fn local_delivery_without_links() {
        // A flit addressed to its own switch ejects locally.
        let got = run_fabric(2, LinkFamily::PerWord, vec![(0, 0, 0x42)], 60);
        assert_eq!(got[0], vec![(0, 0, 0x42)]);
        assert!(got[1].is_empty());
    }

    #[test]
    fn two_by_two_mesh_corner_to_corner() {
        // (0,0) -> (1,1) routes X-first through (1,0); the return flit
        // (1,1) -> (0,0) routes X-first through (0,1). Both transit an
        // intermediate switch and three gate-level links end to end.
        let cfg = LinkConfig::default();
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let f = build_mesh_fabric(&mut b, "mesh", (2, 2), LinkFamily::PerWord, &cfg);
        b.finish();
        for &r in &f.rstns {
            sim.stimulus(r, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(2), Value::one(1))]);
        }
        // node indices: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1)
        let w03 = flit::pack(cfg.flit_width, 1, 1, 0xC0C0);
        let w30 = flit::pack(cfg.flit_width, 0, 0, 0x0D0D);
        let mut sinks = Vec::new();
        for (i, &(fi, vi, so)) in f.local_in.iter().enumerate() {
            let words = match i {
                0 => vec![w03],
                3 => vec![w30],
                _ => vec![],
            };
            let (src, _) = SyncFlitSource::new(f.clk, so, fi, vi, cfg.flit_width, words);
            let src = src.with_rstn(f.rstns[0]);
            attach_sync_source(&mut sim, &format!("src{i}"), src, Time::ZERO);
        }
        for (i, &(fo, vo, si)) in f.local_out.iter().enumerate() {
            let (snk, rx) = SyncFlitSink::new(f.clk, vo, fo, si);
            attach_sync_sink(&mut sim, &format!("snk{i}"), snk, Time::ZERO);
            sinks.push(rx);
        }
        sim.run_until(Time::from_us(3)).unwrap();
        let words_at = |i: usize| -> Vec<u64> {
            sinks[i].borrow().iter().map(|&(_, w)| w).collect()
        };
        assert_eq!(words_at(3), vec![w03], "corner-to-corner flit lost");
        assert_eq!(words_at(0), vec![w30], "return flit lost");
        assert!(words_at(1).is_empty() && words_at(2).is_empty());
    }
}