//! Failure-injection and stress scenarios: hard stalls, reset
//! behaviour, undriven inputs, oscillation containment.

use sal::cells::CircuitBuilder;
use sal::des::{SimError, Simulator, Time, Value};
use sal::link::testbench::{
    attach_sync_sink, attach_sync_source, SyncFlitSink, SyncFlitSource,
};
use sal::link::{generate, LinkConfig, LinkFamily, LinkSpec};
use sal::tech::St012Library;

/// Builds a link with a source/sink pair, returning the records.
fn harness(
    family: LinkFamily,
    cfg: &LinkConfig,
    words: Vec<u64>,
    stall_fn: Box<dyn FnMut(u64) -> bool>,
) -> (Simulator, sal::link::testbench::Record, sal::link::testbench::Record) {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let spec = LinkSpec::from_config(family, cfg).expect("valid spec");
    let h = generate(&mut b, &spec, "link", cfg).expect("link builds");
    b.finish();
    sim.stimulus(
        h.rstn,
        &[(Time::ZERO, Value::zero(1)), (Time::from_ps(300), Value::one(1))],
    );
    let (src, sent) =
        SyncFlitSource::new(h.clk, h.stall_out, h.flit_in, h.valid_in, cfg.flit_width, words);
    attach_sync_source(&mut sim, "src", src, Time::ZERO);
    let (snk, received) =
        SyncFlitSink::with_stall_fn(h.clk, h.valid_out, h.flit_out, h.stall_in, stall_fn);
    attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
    (sim, sent, received)
}

#[test]
fn permanently_stalled_sink_never_corrupts() {
    // Receiver refuses everything: no delivery, no panic, and the
    // sending switch eventually throttles to a stop (FIFO + link full).
    for family in LinkFamily::ALL {
        let words: Vec<u64> = (1..=24).collect();
        let (mut sim, sent, received) =
            harness(family, &LinkConfig::default(), words, Box::new(|_| true));
        sim.run_until(Time::from_us(2)).unwrap();
        assert!(received.borrow().is_empty(), "{} delivered under hard stall", family.label());
        // The link + FIFOs can buffer only a bounded number of flits.
        assert!(
            sent.borrow().len() < 16,
            "{} accepted everything despite a dead receiver",
            family.label()
        );
    }
}

#[test]
fn stall_release_resumes_cleanly() {
    // Stall hard for 50 cycles, then release: everything arrives, in
    // order, exactly once.
    for family in LinkFamily::ALL {
        let words: Vec<u64> = (1..=10).map(|i| i * 0x0101_0101).collect();
        let (mut sim, _, received) = harness(
            family,
            &LinkConfig::default(),
            words.clone(),
            Box::new(|c| c < 50),
        );
        sim.run_until(Time::from_us(4)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words, "{} after stall release", family.label());
    }
}

#[test]
fn erratic_stall_pattern_is_lossless() {
    // A pseudo-random stall pattern exercises every flow-control path.
    for family in LinkFamily::ALL {
        let words: Vec<u64> = (0..16).map(|i| (i * 0x2468_ACE1) & 0xFFFF_FFFF).collect();
        let mut lfsr = 0xACE1u32;
        let stall_fn = move |_c: u64| {
            lfsr = (lfsr >> 1) ^ (if lfsr & 1 == 1 { 0xB400 } else { 0 });
            lfsr & 3 == 0
        };
        let (mut sim, _, received) =
            harness(family, &LinkConfig::default(), words.clone(), Box::new(stall_fn));
        sim.run_until(Time::from_us(4)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words, "{} under erratic stall", family.label());
    }
}

#[test]
fn event_budget_contains_runaway_designs() {
    // A free-running ring oscillator with a tiny event budget trips
    // the kernel's safety limit instead of hanging.
    let mut sim = Simulator::new();
    sim.set_max_events(5_000);
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let en = b.input("en", 1);
    let _osc = b.ring_oscillator_stages("ro", en, 5);
    b.finish();
    sim.stimulus(en, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
    let res = sim.run_until(Time::from_us(1));
    assert!(matches!(res, Err(SimError::EventLimitExceeded { .. })));
}

#[test]
fn slow_reset_release_is_tolerated() {
    // Hold reset for a long time while the clock runs; the link must
    // come up clean and deliver everything.
    let cfg = LinkConfig::default();
    for family in [LinkFamily::PerTransfer, LinkFamily::PerWord] {
        let mut sim = Simulator::new();
        let lib = St012Library::default();
        let mut b = CircuitBuilder::new(&mut sim, &lib);
        let h = generate(&mut b, &LinkSpec::paper(family), "link", &cfg).expect("link builds");
        b.finish();
        // Reset held for 20 clock cycles.
        sim.stimulus(
            h.rstn,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ns(200), Value::one(1))],
        );
        let words: Vec<u64> = vec![0xFACE_FEED, 0x0BAD_CAFE, 0x1234_5678];
        let (src, _) =
            SyncFlitSource::new(h.clk, h.stall_out, h.flit_in, h.valid_in, 32, words.clone());
        let src = src.with_rstn(h.rstn);
        attach_sync_source(&mut sim, "src", src, Time::ZERO);
        let (snk, received) = SyncFlitSink::new(h.clk, h.valid_out, h.flit_out, h.stall_in);
        attach_sync_sink(&mut sim, "snk", snk, Time::ZERO);
        sim.run_until(Time::from_us(1)).unwrap();
        let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
        assert_eq!(got, words, "{} after long reset", family.label());
    }
}

#[test]
fn back_to_back_bursts_with_single_flit_gaps() {
    // Alternate one accepted flit / one stall cycle at the sink for a
    // long stream: exercises the word-ack edge cases of I3.
    let words: Vec<u64> = (0..24).map(|i| (i | (i << 16)) & 0xFFFF_FFFF).collect();
    let (mut sim, _, received) = harness(
        LinkFamily::PerWord,
        &LinkConfig::default(),
        words.clone(),
        Box::new(|c| c % 2 == 0),
    );
    sim.run_until(Time::from_us(6)).unwrap();
    let got: Vec<u64> = received.borrow().iter().map(|&(_, w)| w).collect();
    assert_eq!(got, words);
}
