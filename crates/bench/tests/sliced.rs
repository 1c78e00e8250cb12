//! Sliced-campaign enforcement: every lane of a 64-seed bit-sliced
//! pass must be **byte-identical** to its scalar ground-truth run,
//! per-lane injection must be observable at the delivered flits, and
//! the pass must beat 64 scalar runs by at least 5x wall-clock.

use std::time::Instant;

use sal_bench::sliced::{scalar_run, sliced_campaign};

/// A storm whose sites straddle latch-capture windows without
/// catching a segment mid-transition: every masked lane corrupts its
/// own wire bit (observably different delivered flits) yet stays
/// converged with the carrier, which runs lane 1's glitches. Only the
/// zero-mask control lane is demoted: the pilot's glitch force cancels
/// an in-flight carrier drive that the clean lane's own timeline would
/// have kept.
const GOLDEN_STORM: u64 = 73;

/// A storm that catches segments mid-transition: every lane whose
/// timing leaves the pilot's is demoted and replays scalar. At 8 lanes
/// the pass keeps only its pilot; at 64 lanes it keeps 8.
const STORMY: u64 = 3;

#[test]
fn sliced_lanes_are_byte_identical_to_scalar_and_5x_faster() {
    let lanes = 64u8;
    let r = sliced_campaign(GOLDEN_STORM, lanes);
    assert!(
        r.diverged.count_ones() <= 4,
        "golden storm should stay converged, demoted {:#x}",
        r.diverged
    );

    let t0 = Instant::now();
    let truth: Vec<_> = (0..lanes).map(|k| scalar_run(GOLDEN_STORM, k, lanes)).collect();
    let scalar_wall = t0.elapsed();

    for (k, lane_truth) in truth.iter().enumerate() {
        assert_eq!(
            &r.flit_series[k], lane_truth,
            "lane {k}: sliced delivery series differs from scalar ground truth"
        );
    }
    let distinct = (1..lanes as usize)
        .filter(|&k| r.flit_series[k] != r.flit_series[0])
        .count();
    assert!(
        distinct >= 32,
        "per-lane injection should corrupt most lanes observably, got {distinct}/63"
    );

    let sliced_wall = r.carrier_wall + r.replay_wall;
    let speedup = scalar_wall.as_secs_f64() / sliced_wall.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "sliced campaign speedup {speedup:.1}x below the 5x floor \
         (carrier {:?} + replay {:?} vs scalar {:?})",
        r.carrier_wall,
        r.replay_wall,
        scalar_wall
    );

    // The carrier's profile reports the campaign shape: all 64 lanes
    // active, fallback count equal to the demoted-lane popcount, and
    // compiled cones doing the heavy lifting underneath.
    assert_eq!(r.profile.lanes_active, u64::from(lanes));
    assert_eq!(r.profile.scalar_fallbacks, u64::from(r.diverged.count_ones()));
    assert!(r.profile.cones_built > 0 && r.profile.events_avoided > 0);
}

#[test]
fn demoted_lanes_fall_back_to_faithful_scalar_replay() {
    let lanes = 8u8;
    let r = sliced_campaign(STORMY, lanes);
    assert_ne!(r.diverged, 0, "stormy seed should trip conservative divergence");
    for k in 0..lanes {
        assert_eq!(
            r.flit_series[k as usize],
            scalar_run(STORMY, k, lanes),
            "lane {k}: replay series differs from scalar ground truth"
        );
    }
}

#[test]
fn a_stormy_64_lane_pass_keeps_its_pilot() {
    let lanes = 64u8;
    let r = sliced_campaign(STORMY, lanes);
    assert_eq!(r.diverged & 0b10, 0, "the pilot, lane 1, is the carrier's own timeline");
    assert_ne!(r.diverged, 0, "lanes off the pilot's timing replay scalar");
    assert_eq!(r.profile.scalar_fallbacks, u64::from(r.diverged.count_ones()));
    for k in 0..lanes {
        assert_eq!(
            r.flit_series[k as usize],
            scalar_run(STORMY, k, lanes),
            "lane {k}: sliced series differs from scalar ground truth"
        );
    }
}

#[test]
fn one_lane_campaigns_equal_the_clean_scalar_run() {
    // With one lane no site has a glitching lane, so the carrier must
    // run no force at all: on these storms a force that changes
    // nothing would still cancel a drive the clean run keeps.
    for storm in [22, 23, 44, 46] {
        let r = sliced_campaign(storm, 1);
        assert_eq!(r.diverged, 0);
        assert_eq!(r.flit_series[0], scalar_run(storm, 0, 1), "storm {storm}");
    }
}

/// Release-mode sweep: every lane of 64-lane campaigns over a few
/// dozen storms against its scalar run. Run it with
/// `cargo test --release -p sal-bench --test sliced -- --include-ignored`.
#[test]
#[ignore = "release-mode sweep, a few seconds"]
fn sweep_every_lane_of_64_lane_storms_matches_scalar() {
    let lanes = 64u8;
    for storm in 0..32 {
        let r = sliced_campaign(storm, lanes);
        for k in 0..lanes {
            assert_eq!(
                r.flit_series[k as usize],
                scalar_run(storm, k, lanes),
                "storm {storm} lane {k}"
            );
        }
    }
}
