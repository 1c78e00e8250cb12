//! Known defects of the CRC-8 links' recovery, pinned as one-glitch
//! repros (ROADMAP item 1). Each repro is a CRC-8 paper link carrying
//! 16 random words under the recovery soak's 40 µs timeout, with the
//! one data-wire glitch its failing storm shrinks to; each breaks
//! in-order, exactly-once delivery today. The fix of item 1 un-ignores
//! this test:
//!
//! ```bash
//! cargo test -p sal-link --test known_defects -- --ignored
//! ```

use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::{LinkConfig, LinkFamily, LinkSpec, ProtectionMode};

/// A CRC-8 paper link, the storm seed its glitch was shrunk from, the
/// glitch (`link.wire.seg_d{segment}` bit `bit`, from `at_ps` for
/// `width_ps`) and the words the storm's soak run carries.
struct Repro {
    family: LinkFamily,
    seed: u64,
    segment: u8,
    bit: u8,
    at_ps: u64,
    width_ps: u64,
    words: [u64; 16],
}

const REPROS: [Repro; 3] = [
    // One NACK and one retry deliver a word twice.
    Repro {
        family: LinkFamily::PerTransfer,
        seed: 13_948_615_875_481_008_379,
        segment: 4,
        bit: 2,
        at_ps: 97_455,
        width_ps: 342,
        words: [
            0x4da6_3708, 0x65b7_3e48, 0xaa50_1baf, 0xa97b_7256, 0xa37b_b0a2, 0x7299_a132,
            0xb061_be23, 0x9843_df7c, 0xd39c_9b97, 0x95fc_58a8, 0x74a4_4138, 0x4b73_160c,
            0x52b0_e362, 0xbe4c_fbd9, 0xcd6a_05da, 0x3296_be79,
        ],
    },
    // The glitch the deadlocking storm of this seed shrinks to: it
    // gives the same duplicate, not the deadlock.
    Repro {
        family: LinkFamily::PerTransfer,
        seed: 17_470_100_495_346_354_103,
        segment: 4,
        bit: 2,
        at_ps: 87_865,
        width_ps: 261,
        words: [
            0x1e1f_0bb6, 0x42f6_c7de, 0xc576_9f30, 0x784b_2fa1, 0x66f4_a129, 0xd6ec_6e97,
            0xf0c2_45d3, 0xf0c7_955e, 0x25ff_8bfd, 0x7992_042f, 0x8dab_451a, 0xdb2e_93dd,
            0x7bd6_3310, 0xe5ba_990a, 0xe53c_1291, 0x9aad_4801,
        ],
    },
    // A corrupted word accepted, one lost and four reordered, with no
    // NACK: the checker never fires.
    Repro {
        family: LinkFamily::PerWord,
        seed: 7_611_422_472_991_662_483,
        segment: 0,
        bit: 0,
        at_ps: 125_981,
        width_ps: 327,
        words: [
            0xcb61_989f, 0x366e_5d55, 0xe873_998f, 0x04dc_ba89, 0x69b7_4825, 0x8a43_d321,
            0x1fee_6efd, 0x364c_33a0, 0xd37b_c8a9, 0x6f86_50ae, 0x8fbd_9f56, 0x0431_e85b,
            0xe3d1_76e9, 0x935b_b38f, 0x6939_7dc5, 0x9195_b212,
        ],
    },
];

#[test]
#[ignore = "known defect, ROADMAP item 1: one glitch breaks a CRC-8 link's exactly-once delivery"]
fn one_glitch_never_breaks_exactly_once_delivery_on_crc8_links() {
    let mut failures = Vec::new();
    for r in &REPROS {
        let spec = LinkSpec::builder()
            .family(r.family)
            .protection(ProtectionMode::Crc8)
            .build()
            .expect("the CRC-8 paper points are valid specs");
        let plan = FaultPlan::new(r.seed).glitch(
            &format!("link.wire.seg_d{}", r.segment),
            Time::from_ps(r.at_ps),
            Time::from_ps(r.width_ps),
            1u64 << r.bit,
        );
        let opts = MeasureOptions {
            timeout: Time::from_us(40),
            fault_plan: Some(plan),
            ..MeasureOptions::default()
        };
        let tag = format!("{} seed {}", r.family, r.seed);
        match run_spec(&spec, &LinkConfig::default(), &r.words, &opts) {
            Ok(run) if run.integrity.is_clean() && run.received_words() == r.words => {}
            Ok(run) => {
                let recovery = run.recovery.expect("a CRC-8 run carries recovery counts");
                failures.push(format!("{tag}: {}; {recovery}", run.integrity));
            }
            Err(e) => failures.push(format!("{tag}: {e}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
