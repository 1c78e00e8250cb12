//! Property-based tests of the simulation kernel's core invariants:
//! the three-state logic algebra, toggle accounting, and determinism.

use proptest::prelude::*;
use sal::cells::CircuitBuilder;
use sal::des::{Logic, MemoryTrace, SignalId, Simulator, Time, Value};
use sal::tech::St012Library;

fn arb_value(width: u8) -> impl Strategy<Value = Value> {
    (any::<u64>(), any::<u64>()).prop_map(move |(bits, x)| {
        // Build a value with some unknown bits.
        let known = Value::from_u64(width, bits);
        if x % 3 == 0 {
            known
        } else {
            // Fold the x mask in by slicing/concatenation of X parts.
            let mask = x & if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let mut v = known;
            for i in 0..width {
                if mask >> i & 1 == 1 {
                    // Replace bit i with X via mux on an X select.
                    let hi_width = width - i;
                    let xpart = Value::all_x(hi_width);
                    let lo = if i == 0 {
                        xpart.slice(0, 1)
                    } else {
                        v.slice(0, i).concat(&xpart.slice(0, 1))
                    };
                    v = if i + 1 == width {
                        lo
                    } else {
                        lo.concat(&v.slice(i + 1, width - i - 1))
                    };
                }
            }
            v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn de_morgan_holds_with_x(a in arb_value(16), b in arb_value(16)) {
        // ¬(a ∧ b) == ¬a ∨ ¬b under three-state logic.
        let lhs = a.and(&b).not();
        let rhs = a.not().or(&b.not());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation(a in arb_value(32)) {
        prop_assert_eq!(a.not().not(), a);
    }

    #[test]
    fn xor_with_self_is_zero_when_known(bits in any::<u64>()) {
        let a = Value::from_u64(32, bits);
        prop_assert_eq!(a.xor(&a), Value::zero(32));
    }

    #[test]
    fn and_or_absorption(a in arb_value(8)) {
        // a ∧ a == a, a ∨ a == a (idempotence survives X).
        prop_assert_eq!(a.and(&a), a);
        prop_assert_eq!(a.or(&a), a);
    }

    #[test]
    fn toggles_are_symmetric_and_triangle(a in arb_value(24), b in arb_value(24), c in arb_value(24)) {
        prop_assert_eq!(a.toggles_to(&b), b.toggles_to(&a));
        prop_assert_eq!(a.toggles_to(&a), 0);
        // Hamming-style triangle inequality.
        prop_assert!(a.toggles_to(&c) <= a.toggles_to(&b) + b.toggles_to(&c));
    }

    #[test]
    fn mux_selects_known_input(a in any::<u64>(), b in any::<u64>()) {
        let av = Value::from_u64(16, a);
        let bv = Value::from_u64(16, b);
        prop_assert_eq!(Value::mux(&Value::zero(1), &av, &bv), av);
        prop_assert_eq!(Value::mux(&Value::ones(1), &av, &bv), bv);
        // X select: wherever a and b agree the output is that value.
        let m = Value::mux(&Value::all_x(1), &av, &bv);
        for i in 0..16 {
            if av.bit(i) == bv.bit(i) {
                prop_assert_eq!(m.bit(i), av.bit(i));
            } else {
                prop_assert_eq!(m.bit(i), Logic::X);
            }
        }
    }

    #[test]
    fn slice_concat_inverse(bits in any::<u64>(), split in 1u8..63) {
        let v = Value::from_u64(64, bits);
        let lo = v.slice(0, split);
        let hi = v.slice(split, 64 - split);
        prop_assert_eq!(lo.concat(&hi), v);
    }

    /// Lint soundness: a randomly wired gate network that passes the
    /// connectivity pass with no errors never exposes an undriven-X
    /// value to any reader once its ports are driven — i.e. the static
    /// "undriven but read" check really does cover every way a
    /// floating net can poison a simulation. The generator sometimes
    /// injects a raw undriven signal into the pool gates draw inputs
    /// from; when a gate happens to read it the lint must fire (and
    /// the X-freedom claim is not asserted), and when the lint stays
    /// silent every signal any component reads must settle to a fully
    /// known value.
    #[test]
    fn connectivity_clean_netlists_never_read_x(
        n_ports in 1usize..4,
        gates in proptest::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 1..24),
        inject_floating in any::<bool>(),
        port_bits in any::<u64>(),
    ) {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        b.push_scope("prop");

        let mut pool: Vec<SignalId> = (0..n_ports)
            .map(|i| b.input(&format!("p{i}"), 1))
            .collect();
        if inject_floating {
            // A raw signal with no driver, deliberately bypassing the
            // builder so nothing ever drives it.
            pool.push(b.sim().add_signal("prop.floating", 1));
        }

        let mut read: Vec<SignalId> = Vec::new();
        for (i, &(op, ai, bi)) in gates.iter().enumerate() {
            let a = pool[ai as usize % pool.len()];
            let c = pool[bi as usize % pool.len()];
            let name = format!("g{i}");
            let out = match op {
                0 => b.inv(&name, a),
                1 => b.and2(&name, a, c),
                2 => b.or2(&name, a, c),
                3 => b.xor2(&name, a, c),
                4 => b.nand2(&name, a, c),
                _ => {
                    let d = pool[(ai as usize + bi as usize) % pool.len()];
                    read.push(d);
                    b.mux2(&name, a, c, d)
                }
            };
            read.push(a);
            if op != 0 {
                read.push(c);
            }
            pool.push(out);
        }

        // Drive every port with a known bit before snapshotting, so
        // the graph the lint sees is the graph the simulation runs.
        for (i, &p) in pool.iter().take(n_ports).enumerate() {
            let bit = port_bits >> i & 1;
            b.sim().stimulus(p, &[(Time::ZERO, Value::from_u64(1, bit))]);
        }
        b.pop_scope();
        b.finish();

        let graph = sim.netgraph();
        let mut report = sal::lint::LintReport::new();
        sal::lint::connectivity::check(&graph, &mut report);
        let clean = !report
            .errors()
            .any(|f| f.pass == sal::lint::connectivity::PASS);

        sim.run_to_quiescence().unwrap();
        if clean {
            for &sig in &read {
                let v = sim.value(sig);
                prop_assert!(
                    v.is_fully_known(),
                    "connectivity-clean netlist read X on {}: {:?}",
                    graph.signal(sig).path,
                    v
                );
            }
        } else if inject_floating {
            // The only structural defect the generator can create is
            // the floating net; an error means a gate read it.
            prop_assert!(report.errors().any(|f| f.path.contains("floating")));
        }
    }

    #[test]
    fn stimulus_replay_is_deterministic(
        schedule in proptest::collection::vec((0u64..10_000, any::<u64>()), 1..40)
    ) {
        let run = || {
            let mut sim = Simulator::new();
            let s = sim.add_signal("s", 32);
            sim.set_signal_energy(s, 1.0);
            sim.set_trace_sink(Box::new(MemoryTrace::new()));
            let mut sched: Vec<(Time, Value)> = schedule
                .iter()
                .map(|&(t, v)| (Time::from_ps(t), Value::from_u64(32, v)))
                .collect();
            sched.sort_by_key(|&(t, _)| t);
            sim.stimulus(s, &sched);
            sim.run_to_quiescence().unwrap();
            (sim.toggles(s), sim.events_processed(), sim.now())
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn energy_is_toggles_times_weight() {
    let mut sim = Simulator::new();
    let s = sim.add_signal("s", 8);
    sim.set_signal_energy(s, 2.5);
    sim.stimulus(
        s,
        &[
            (Time::ZERO, Value::zero(8)),
            (Time::from_ps(10), Value::from_u64(8, 0xFF)),
            (Time::from_ps(20), Value::from_u64(8, 0xF0)),
        ],
    );
    sim.run_to_quiescence().unwrap();
    let expected = sim.toggles(s) as f64 * 2.5;
    assert!((sim.subtree_energy_fj("") - expected).abs() < 1e-9);
}
