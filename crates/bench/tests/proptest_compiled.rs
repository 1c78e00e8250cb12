//! Property test: the compiled netlist engine is bit-identical to the
//! interpreted event loop on randomly generated gate networks.
//!
//! The generator grows a random DAG of every combinational cell shape
//! the builder places (word-wide INV/BUF, 2- to 4-input AND/OR, NAND,
//! XOR/XNOR and MUX gates, 1-bit control logic, bit slices, and
//! concats of up to 16 parts, most wider than a node's four inline
//! pins), D flip-flops and transparent latches, then drives it with
//! random stimulus schedules and a seeded glitch plan, so fault forces
//! and restores run too. Both engines run
//! the identical netlist and the *entire* transition trace — every
//! `(time, signal, old, new)` commit in order — plus per-signal toggle
//! counters must match exactly, and each trace must hold one record
//! per counted commit. A deterministic twin runs the three paper links
//! the same way and also compares the kernel's event, delta, commit
//! and wake counts.

use proptest::prelude::*;
use sal_bench::sliced::{scalar_run, sliced_campaign};
use sal_cells::{CircuitBuilder, UnitLibrary};
use sal_des::{FaultPlan, MemoryTrace, SignalId, Simulator, Time, TraceRecord, Value};
use sal_link::testbench::{attach_link_testbench, worst_case_pattern};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
use sal_tech::St012Library;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick(&mut self, pool: &[SignalId]) -> SignalId {
        pool[self.below(pool.len() as u64) as usize]
    }
}

/// One engine's run of a random net: the transition trace in commit
/// order, the toggle sum over all gate outputs, and the kernel's commit
/// count.
type NetRun = (Vec<(Time, SignalId, Value, Value)>, u64, u64);

/// Builds one random gate network and runs it with a glitch plan and a
/// full transition trace.
fn run_random_net(seed: u64, compiled: bool) -> NetRun {
    let mut rng = Rng::new(seed);
    let width = 1 + rng.below(16) as u8;
    let mut sim = Simulator::new();
    let lib = UnitLibrary;
    let mut b = CircuitBuilder::new(&mut sim, &lib);

    let clk = b.input("clk", 1);
    let rstn = b.input("rstn", 1);
    // Word-wide pool and 1-bit control pool; gates only reference
    // earlier entries, so the net is a DAG (no combinational loops).
    let mut wpool: Vec<SignalId> = (0..3).map(|i| b.input(&format!("in{i}"), width)).collect();
    let mut bpool: Vec<SignalId> = (0..2).map(|i| b.input(&format!("sel{i}"), 1)).collect();
    let inputs: Vec<(SignalId, u8)> = wpool
        .iter()
        .map(|&s| (s, width))
        .chain(bpool.iter().map(|&s| (s, 1)))
        .collect();

    let ngates = 12 + rng.below(28);
    for i in 0..ngates {
        let name = format!("g{i}");
        let word = rng.below(4) != 0; // 3:1 word-wide vs control
        let (pool_w, out) = if word {
            let a = rng.pick(&wpool);
            let c = rng.pick(&wpool);
            let d = rng.pick(&wpool);
            let out = match rng.below(12) {
                0 => b.inv(&name, a),
                1 => b.buf(&name, a),
                2 => b.and2(&name, a, c),
                3 => b.or2(&name, a, c),
                4 => b.nand2(&name, a, c),
                5 => b.xor2(&name, a, c),
                6 => b.xnor2(&name, a, c),
                7 => b.and3(&name, a, c, d),
                8 => b.or3(&name, a, c, d),
                9 => b.or4(&name, a, c, d, rng.pick(&wpool)),
                10 => {
                    let sel = rng.pick(&bpool);
                    b.mux2(&name, sel, a, c)
                }
                _ => {
                    // A low slice of `a` under `k` control bits: up to
                    // `width` parts.
                    let k = rng.below(u64::from(width)) as u8;
                    let mut parts = vec![b.slice(&format!("{name}_lo"), a, 0, width - k)];
                    parts.extend((0..k).map(|_| rng.pick(&bpool)));
                    b.concat(&name, &parts)
                }
            };
            (true, out)
        } else {
            let a = rng.pick(&bpool);
            let c = rng.pick(&bpool);
            let out = match rng.below(7) {
                0 => b.inv(&name, a),
                1 => b.and2(&name, a, c),
                2 => b.or2(&name, a, c),
                3 => b.nand2(&name, a, c),
                4 => b.xor2(&name, a, c),
                5 => b.xnor2(&name, a, c),
                _ => {
                    let word = rng.pick(&wpool);
                    b.slice(&name, word, rng.below(u64::from(width)) as u8, 1)
                }
            };
            (false, out)
        };
        if pool_w {
            wpool.push(out);
        } else {
            bpool.push(out);
        }
        // Sprinkle sequential cells so compiled cones feed and are fed
        // by dynamic components (the engine boundary under test).
        if i % 9 == 4 {
            let d = rng.pick(&wpool);
            let q = b.dff(&format!("r{i}"), d, clk, Some(rstn));
            wpool.push(q);
        }
        if i % 11 == 7 {
            let d = rng.pick(&wpool);
            let en = rng.pick(&bpool);
            let q = b.dlatch(&format!("l{i}"), d, en, Some(rstn));
            wpool.push(q);
        }
    }
    b.finish();
    if compiled {
        sim.compile();
    }

    // Clock: 1 ns period, 150 cycles. Reset released at 1.5 ns.
    let clk_sched: Vec<(Time, Value)> = (0..300u64)
        .map(|i| (Time::from_ps(500 * (i + 1)), Value::from_u64(1, (i + 1) % 2)))
        .collect();
    sim.stimulus(clk, &clk_sched);
    sim.stimulus(rstn, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(1_500), Value::one(1))]);
    for (sig, w) in &inputs {
        let mask = if *w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut t = 2_000u64;
        let sched: Vec<(Time, Value)> = (0..40)
            .map(|_| {
                t += 200 + rng.below(3_500);
                (Time::from_ps(t), Value::from_u64(*w, rng.next() & mask))
            })
            .collect();
        sim.stimulus(*sig, &sched);
    }
    // Glitch a few gate and register outputs: each glitch is a force
    // plus a restore, both committed outside the drive path.
    let outputs: Vec<SignalId> = wpool[3..].iter().chain(&bpool[2..]).copied().collect();
    let mut plan = FaultPlan::new(seed);
    for _ in 0..4 {
        let path = sim.signal_info(rng.pick(&outputs)).path;
        let at = Time::from_ps(2_000 + rng.below(178_000));
        let width = Time::from_ps(10 + rng.below(2_000));
        plan = plan.glitch(&path, at, width, rng.next() | 1);
    }
    sim.apply_fault_plan(&plan).expect("glitch targets exist");

    sim.set_trace_sink(Box::new(MemoryTrace::new()));
    sim.run_until(Time::from_ns(200)).expect("random net settles");
    let commits = sim.profile().commits;
    let toggles: u64 = wpool.iter().chain(bpool.iter()).map(|&s| sim.toggles(s)).sum();
    let sink = sim.take_trace_sink().expect("sink installed");
    let trace: Vec<(Time, SignalId, Value, Value)> = sink
        .records()
        .expect("memory trace records")
        .iter()
        .map(|r| (r.time, r.signal, r.old, r.new))
        .collect();
    (trace, toggles, commits)
}

/// One engine's run of a paper link: the transition trace in commit
/// order, and the kernel's `events`, `deltas`, `commits` and `wakes`.
type LinkRun = (Vec<TraceRecord>, [u64; 4]);

/// Streams 64 worst-case words through `family`'s link at the default
/// configuration for 3 µs, with a full transition trace.
fn run_paper_link(family: LinkFamily, compiled: bool) -> LinkRun {
    let cfg = LinkConfig::default();
    let spec = LinkSpec::from_config(family, &cfg).expect("the default config is a spec");
    let lib = St012Library::default();
    let mut sim = Simulator::new();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let handles = generate(&mut b, &spec, "link", &cfg).expect("link builds");
    b.finish();
    if compiled {
        sim.compile();
    }
    let words = worst_case_pattern(64, cfg.flit_width);
    let (_sent, received) = attach_link_testbench(&mut sim, &handles, &words, Time::from_ns(2));
    sim.set_trace_sink(Box::new(MemoryTrace::new()));
    sim.run_until(Time::from_us(3)).expect("link runs");
    assert_eq!(received.borrow().len(), words.len(), "{family:?} delivered every word");
    let p = sim.profile();
    let sink = sim.take_trace_sink().expect("sink installed");
    let trace = sink.records().expect("memory trace records").to_vec();
    (trace, [p.events, p.deltas, p.commits, p.wakes])
}

/// The three paper links, compiled, commit exactly the interpreted
/// run's transitions in the same order, through the same number of
/// events, deltas, commits and wakes.
#[test]
fn compiled_paper_links_replay_interpreted_runs() {
    for family in LinkFamily::ALL {
        let (interp_trace, interp_counts) = run_paper_link(family, false);
        let (comp_trace, comp_counts) = run_paper_link(family, true);
        assert_eq!(comp_counts, interp_counts, "{family:?}: events, deltas, commits, wakes");
        assert_eq!(comp_trace.len(), interp_trace.len(), "{family:?}: trace length");
        for (i, (a, b)) in interp_trace.iter().zip(&comp_trace).enumerate() {
            assert_eq!(a, b, "{family:?}: record {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// The compiled engine must replay the interpreted engine's
    /// transition history exactly — same commits, same order, same
    /// times, same values — on arbitrary gate networks under glitches,
    /// and the trace hook must see every commit either engine counts.
    #[test]
    fn compiled_matches_interpreted(seed in 0u64..1_000_000) {
        let (interp_trace, interp_toggles, interp_commits) = run_random_net(seed, false);
        let (comp_trace, comp_toggles, comp_commits) = run_random_net(seed, true);
        prop_assert_eq!(interp_trace.len() as u64, interp_commits);
        prop_assert_eq!(comp_trace.len() as u64, comp_commits);
        prop_assert_eq!(interp_toggles, comp_toggles);
        prop_assert_eq!(interp_trace.len(), comp_trace.len());
        for (a, b) in interp_trace.iter().zip(comp_trace.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Sliced fidelity as a property: for arbitrary storm seeds and
    /// lane counts, every lane of the sliced campaign — kept by a
    /// carrier pass or replayed — matches its scalar ground truth byte
    /// for byte. A third of the cases carry the full 64 lanes, where
    /// every wire bit of a site has some lane glitching it; the rest
    /// split between few lanes and many.
    #[test]
    fn sliced_campaign_matches_scalar(
        storm in 0u64..10_000,
        lanes in prop_oneof![1u8..9, 9u8..64, Just(64u8)],
    ) {
        let r = sliced_campaign(storm, lanes);
        for k in 0..lanes {
            let truth = scalar_run(storm, k, lanes);
            prop_assert_eq!(&r.flit_series[k as usize], &truth, "lane {} of storm {}", k, storm);
        }
    }
}
