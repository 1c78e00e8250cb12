//! A defect of the program that keeps an operation kind out of the
//! benchmark. The benchmark times only operations the program gets
//! right, so `gate_stream` runs no `recovery::storm` glitch storms on
//! CRC-8 links: the I2 link fails about one storm in twenty, the I3
//! link about one in several thousand. This test states the recovery
//! campaign's claim on storms that break it; once it passes, the
//! storms can join `gate_stream` again.
//!
//! ```bash
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored
//! ```

use sal_bench::recovery::{storm, SOAK_WORDS};
use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::{LinkConfig, LinkFamily, LinkSpec, ProtectionMode};
use sal_perfbench::Rng;

/// CRC-8 paper links and storm seeds they fail on.
const FAILING_STORMS: [(LinkFamily, u64); 3] = [
    // A word delivered twice.
    (LinkFamily::PerTransfer, 13_948_615_875_481_008_379),
    // Deadlock: the link stops after 15 of 16 words.
    (LinkFamily::PerTransfer, 17_470_100_495_346_354_103),
    // A corrupted word accepted.
    (LinkFamily::PerWord, 7_611_422_472_991_662_483),
];

#[test]
#[ignore = "known defect of the CRC-8 links' recovery, not of the benchmark"]
fn crc8_links_deliver_every_word_under_every_storm() {
    let mut failures = Vec::new();
    for (family, seed) in FAILING_STORMS {
        let spec = LinkSpec::builder()
            .family(family)
            .protection(ProtectionMode::Crc8)
            .build()
            .expect("the CRC-8 paper points are valid specs");
        let mut rng = Rng::new(seed, 0);
        let words: Vec<u64> = (0..SOAK_WORDS)
            .map(|_| rng.next_u64() & ((1 << spec.word_width()) - 1))
            .collect();
        // The recovery campaign's soak run: its storm and timeout.
        let plan = storm(seed).iter().fold(FaultPlan::new(seed), |p, g| {
            p.glitch(
                &format!("link.wire.seg_d{}", g.seg),
                Time::from_ps(g.at_ps),
                Time::from_ps(g.width_ps),
                1u64 << g.bit,
            )
        });
        let opts = MeasureOptions {
            timeout: Time::from_us(40),
            fault_plan: Some(plan),
            ..MeasureOptions::default()
        };
        match run_spec(&spec, &LinkConfig::default(), &words, &opts) {
            Ok(run) if run.integrity.is_clean() && run.received_words() == words => {}
            Ok(run) => failures.push(format!("{family:?} storm {seed}: {}", run.integrity)),
            Err(e) => failures.push(format!("{family:?} storm {seed}: {e}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
