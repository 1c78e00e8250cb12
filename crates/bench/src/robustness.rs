//! Timing-margin and fault-injection experiment (`--bin margins`).
//!
//! The paper's argument for serialized asynchronous links is partly a
//! *robustness* argument: the four-phase per-transfer protocol (I2) is
//! delay-insensitive on its control path, while the per-word variant
//! (I3) trades that for a bundled-data timing assumption and the
//! synchronous reference (I1) lives entirely off the fixed switch
//! clock's slack. This module probes those margins empirically with
//! the kernel's fault hooks:
//!
//! * **scale** — derate every gate delay inside the link's
//!   asynchronous core (serializer, wire, deserializer; for I1 the
//!   clocked buffer pipeline) by a common factor while the switch
//!   clock stays at 100 MHz. I1 must fail once the derated datapath
//!   eats the 10 ns slack; I2's handshakes stretch and survive.
//! * **skew** — add extra delay to the *data* wires only, modelling
//!   bundled-data skew against req/VALID. I3 accumulates skew across
//!   every repeated segment with no relatching, so it fails first;
//!   I2 relatches per buffer; I1 tolerates skew up to clock slack.
//! * **sigma** — seeded Gaussian delay variation (Monte Carlo) on the
//!   async core, three fixed seeds per point: a coarse yield curve.
//!
//! Every probe runs through [`sweep::parallel_map`] and is classified
//! by the data-integrity scoreboard or the deadlock watchdog, so a
//! marginal link that silently corrupts payloads is a failure even
//! when every word arrives.

use sal_des::json::Json;
use sal_des::{FaultPlan, Time};
use sal_link::measure::{run_spec, MeasureOptions, RunFailure};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkSpec, WordRxStyle};

use crate::sweep;

/// The corners the robustness and power sweeps visit, labelled, each
/// a spec of `family` and the base it is built on: `--bin sal-lint`
/// lints every family at each, and the `lint_links` tests hold each
/// to zero lint errors and positive static margins. I1 and I2 build no
/// word receiver, so their receiver corners build the default link.
pub fn lint_corners(family: LinkFamily) -> Vec<(&'static str, LinkSpec, LinkConfig)> {
    let spec = || LinkSpec::builder().family(family);
    let base = LinkConfig::default();
    let fast = LinkConfig { clk_period: Time::from_ns_f64(10.0 / 3.0), ..base.clone() };
    [
        ("default", spec(), base.clone()),
        ("buffers=2", spec().buffer_depth(2), base.clone()),
        ("buffers=8", spec().buffer_depth(8), base.clone()),
        ("slice=16", spec().serial_ratio(2), base.clone()),
        ("slice=4", spec().serial_ratio(8), base.clone()),
        ("clk=300MHz", spec(), fast),
        ("rx=demux", spec().word_rx_style(WordRxStyle::Demux), base.clone()),
        ("early_ack", spec().word_rx_style(WordRxStyle::EarlyAck), base),
    ]
    .into_iter()
    .map(|(label, spec, base)| {
        let spec = spec.build().unwrap_or_else(|e| panic!("{family} {label} corner: {e}"));
        (label, spec, base)
    })
    .collect()
}

/// Delay-derating factors swept on the scale axis.
pub const SCALE_AXIS: [f64; 9] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0, 128.0];

/// Extra data-wire delay, picoseconds, swept on the skew axis.
pub const SKEW_AXIS_PS: [u64; 10] = [0, 100, 200, 400, 800, 1600, 3200, 6400, 9600, 12800];

/// Gaussian delay-variation sigmas swept on the sigma axis.
pub const SIGMA_AXIS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];

/// Fixed Monte-Carlo seeds per sigma point (determinism is part of
/// the experiment's contract).
pub const SIGMA_SEEDS: [u64; 3] = [101, 202, 303];

/// How one probe ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every word arrived exactly once, in order, intact.
    Pass,
    /// The run completed but the scoreboard counted violations.
    Corrupt {
        /// Total integrity violations (corrupted + lost + duplicated
        /// + reordered).
        violations: usize,
    },
    /// The link wedged; `stalled` is the watchdog's label for the
    /// first stalled handshake, when it recognised one.
    Deadlock {
        /// Watchdog label of the first stalled req/ack pair.
        stalled: Option<String>,
    },
    /// The probe could not run at all (build or simulator error).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Outcome {
    /// `true` for anything other than a clean pass.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Pass)
    }

    /// Short tag for tables and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Corrupt { .. } => "corrupt",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::Error { .. } => "error",
        }
    }
}

/// One probe result on one axis.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Which link was probed.
    pub family: LinkFamily,
    /// Axis value (scale factor, skew in ps, or sigma).
    pub value: f64,
    /// Monte-Carlo seed (0 where the axis is deterministic).
    pub seed: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// The stuck-at demonstration: a wedged I2 acknowledge must produce a
/// structured deadlock diagnosis, not a bare timeout.
#[derive(Debug, Clone)]
pub struct DeadlockDemo {
    /// The signal forced low.
    pub forced: String,
    /// Watchdog label of the first stalled handshake.
    pub stalled: Option<String>,
    /// Full report text.
    pub report: String,
}

/// Everything `--bin margins` reports.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Scale-axis probes (delay derating of the async core).
    pub scale: Vec<Probe>,
    /// Skew-axis probes (extra delay on data wires, ps).
    pub skew: Vec<Probe>,
    /// Sigma-axis probes (Gaussian variation, one per seed).
    pub sigma: Vec<Probe>,
    /// The stuck-at deadlock demonstration.
    pub deadlock_demo: DeadlockDemo,
}

const FAMILIES: [LinkFamily; 3] = LinkFamily::ALL;

/// Scopes whose gate delays the scale/sigma axes perturb: the link's
/// self-timed core. Interfaces and the clock stay nominal, so the
/// probe isolates the part of the design whose timing each protocol
/// actually owns.
fn core_scopes(family: LinkFamily) -> Vec<String> {
    match family {
        LinkFamily::Sync => vec!["link.buffers".into()],
        _ => vec!["link.ser".into(), "link.wire".into(), "link.des".into()],
    }
}

/// Substring selecting the *data* wires for the skew axis. For the
/// serialized links these are the slice-data segments between
/// stations; for I1 the inter-stage flit registers' outputs.
fn data_wire_substring(family: LinkFamily) -> &'static str {
    match family {
        LinkFamily::Sync => "flit_q",
        _ => ".seg_d",
    }
}

fn probe_words() -> Vec<u64> {
    worst_case_pattern(8, 32)
}

fn probe_opts(plan: FaultPlan, slowdown: f64) -> MeasureOptions {
    // The derating axis legitimately stretches the whole transfer, so
    // the give-up horizon must stretch with it — otherwise a slow but
    // live link is misreported as wedged. 40 µs is ~50× the nominal
    // in-use time of the 8-flit pattern.
    let us = (40.0 * slowdown.max(1.0)).ceil() as u64;
    // Reset must also stretch: it has to out-wait the slowest derated
    // control path's settling, or startup X values latch into the
    // asynchronous state cells and masquerade as a protocol deadlock.
    let reset_ns = (2.0 * slowdown.max(1.0)).ceil() as u64;
    MeasureOptions {
        timeout: Time::from_us(us),
        fault_plan: Some(plan),
        reset_hold: Time::from_ns(reset_ns),
        ..MeasureOptions::default()
    }
}

fn classify(family: LinkFamily, plan: FaultPlan, words: &[u64], slowdown: f64) -> Outcome {
    match run_spec(&LinkSpec::paper(family), &LinkConfig::default(), words, &probe_opts(plan, slowdown)) {
        Ok(run) if run.integrity.is_clean() => Outcome::Pass,
        Ok(run) => Outcome::Corrupt { violations: run.integrity.violations() },
        Err(RunFailure::Deadlock { diagnosis, .. }) => Outcome::Deadlock {
            stalled: diagnosis.and_then(|d| d.first_label().map(str::to_string)),
        },
        Err(e) => Outcome::Error { message: e.to_string() },
    }
}

/// Runs the full three-axis sweep plus the deadlock demonstration.
/// Deterministic: all randomness flows from the fixed seeds above.
pub fn margins() -> RobustnessReport {
    #[derive(Clone, Copy)]
    enum Axis {
        Scale(f64),
        SkewPs(u64),
        Sigma(f64, u64),
    }
    let mut items: Vec<(LinkFamily, Axis)> = Vec::new();
    for family in FAMILIES {
        for s in SCALE_AXIS {
            items.push((family, Axis::Scale(s)));
        }
        for ps in SKEW_AXIS_PS {
            items.push((family, Axis::SkewPs(ps)));
        }
        for sg in SIGMA_AXIS {
            for seed in SIGMA_SEEDS {
                items.push((family, Axis::Sigma(sg, seed)));
            }
        }
    }
    let words = probe_words();
    let probes = sweep::parallel_map(items, |(family, axis)| {
        let mut plan = match axis {
            Axis::Scale(s) => FaultPlan::new(1).with_delay_scale(s).with_setup_check(),
            Axis::SkewPs(ps) => {
                return Probe {
                    family,
                    value: ps as f64,
                    seed: 0,
                    outcome: classify(
                        family,
                        FaultPlan::new(1)
                            .skew_matching(data_wire_substring(family), Time::from_ps(ps)),
                        &words,
                        1.0,
                    ),
                }
            }
            Axis::Sigma(sg, seed) => FaultPlan::new(seed).with_delay_sigma(sg),
        };
        for scope in core_scopes(family) {
            plan = plan.in_scope(&scope);
        }
        let (value, seed, slowdown) = match axis {
            Axis::Scale(s) => (s, 0, s),
            Axis::Sigma(sg, seed) => (sg, seed, 2.0),
            Axis::SkewPs(_) => unreachable!("handled above"),
        };
        Probe { family, value, seed, outcome: classify(family, plan, &words, slowdown) }
    });

    let mut scale = Vec::new();
    let mut skew = Vec::new();
    let mut sigma = Vec::new();
    // parallel_map preserves input order, so re-split by construction
    // order: per family, scales first, then skews, then sigmas.
    let per_family = SCALE_AXIS.len() + SKEW_AXIS_PS.len() + SIGMA_AXIS.len() * SIGMA_SEEDS.len();
    for (i, p) in probes.into_iter().enumerate() {
        match i % per_family {
            j if j < SCALE_AXIS.len() => scale.push(p),
            j if j < SCALE_AXIS.len() + SKEW_AXIS_PS.len() => skew.push(p),
            _ => sigma.push(p),
        }
    }

    RobustnessReport { scale, skew, sigma, deadlock_demo: deadlock_demo() }
}

/// Forces an I2 slice acknowledge low mid-protocol and captures the
/// watchdog's diagnosis.
pub fn deadlock_demo() -> DeadlockDemo {
    let forced = "link.ack_in2";
    let plan = FaultPlan::new(7).stuck_at(forced, false, Time::from_ns(5));
    let words = probe_words();
    let opts = MeasureOptions {
        timeout: Time::from_us(5),
        fault_plan: Some(plan),
        ..MeasureOptions::default()
    };
    match run_spec(&LinkSpec::paper(LinkFamily::PerTransfer), &LinkConfig::default(), &words, &opts) {
        Err(RunFailure::Deadlock { diagnosis, .. }) => {
            let stalled = diagnosis.as_ref().and_then(|d| d.first_label().map(str::to_string));
            let report = diagnosis.map_or_else(|| "no watchdog diagnosis".to_string(), |d| d.to_string());
            DeadlockDemo { forced: forced.to_string(), stalled, report }
        }
        other => DeadlockDemo {
            forced: forced.to_string(),
            stalled: None,
            report: format!("UNEXPECTED: stuck acknowledge did not deadlock ({other:?})"),
        },
    }
}

/// First axis value at which `family` fails, scanning in axis order.
/// `None` = survived the whole sweep. For the sigma axis a value
/// fails if *any* seed at that value failed.
pub fn first_failure(probes: &[Probe], family: LinkFamily) -> Option<f64> {
    probes.iter().find(|p| p.family == family && p.outcome.is_failure()).map(|p| p.value)
}

fn probe_json(j: &mut Json, p: &Probe) {
    j.obj();
    j.key("kind").str(p.family.label());
    j.key("value").f64(p.value);
    j.key("seed").num(p.seed);
    j.key("outcome").str(p.outcome.tag());
    match &p.outcome {
        Outcome::Pass => {}
        Outcome::Corrupt { violations } => {
            j.key("violations").num(violations);
        }
        Outcome::Deadlock { stalled } => {
            j.key("stalled").opt(stalled.as_deref(), Json::str);
        }
        Outcome::Error { message } => {
            j.key("message").str(message);
        }
    }
    j.end();
}

fn axis_json(j: &mut Json, name: &str, probes: &[Probe]) {
    j.key(name).obj_block();
    j.key("first_failure").obj();
    for f in FAMILIES {
        j.key(f.label()).opt(first_failure(probes, f), Json::f64);
    }
    j.end();
    j.key("points").arr_block();
    for p in probes {
        probe_json(j, p);
    }
    j.end();
    j.end();
}

/// Serialises the report as the `BENCH_robustness.json` artifact.
pub fn to_json(r: &RobustnessReport) -> String {
    let mut j = Json::new();
    j.obj_block();
    j.key("experiment").str("margins");
    j.key("words").num(probe_words().len());
    j.key("clk_mhz").num(100);
    axis_json(&mut j, "delay_scale", &r.scale);
    axis_json(&mut j, "data_skew_ps", &r.skew);
    axis_json(&mut j, "delay_sigma", &r.sigma);
    let demo = &r.deadlock_demo;
    j.key("deadlock_demo").obj();
    j.key("forced").str(&demo.forced);
    j.key("stalled").opt(demo.stalled.as_deref(), Json::str);
    j.key("report").str(&demo.report);
    j.end();
    j.end();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_failure_scans_in_order() {
        let mk = |v: f64, fail: bool| Probe {
            family: LinkFamily::PerTransfer,
            value: v,
            seed: 0,
            outcome: if fail {
                Outcome::Corrupt { violations: 1 }
            } else {
                Outcome::Pass
            },
        };
        let probes = vec![mk(1.0, false), mk(2.0, true), mk(4.0, true)];
        assert_eq!(first_failure(&probes, LinkFamily::PerTransfer), Some(2.0));
        assert_eq!(first_failure(&probes, LinkFamily::Sync), None);
    }

    #[test]
    fn json_is_escaped_and_shaped() {
        let r = RobustnessReport {
            scale: vec![Probe {
                family: LinkFamily::Sync,
                value: 8.0,
                seed: 0,
                outcome: Outcome::Deadlock { stalled: Some("a \"b\"".into()) },
            }],
            skew: vec![],
            sigma: vec![],
            deadlock_demo: DeadlockDemo {
                forced: "link.ack_in2".into(),
                stalled: None,
                report: "line1\nline2".into(),
            },
        };
        let j = to_json(&r);
        assert!(j.contains("\\\"b\\\""), "{j}");
        assert!(j.contains("line1\\nline2"), "{j}");
        assert!(j.contains("\"first_failure\": {\"I1\": 8.0, \"I2\": null, \"I3\": null}"), "{j}");
    }

    #[test]
    fn deadlock_demo_names_a_handshake() {
        let demo = deadlock_demo();
        assert!(
            demo.stalled.is_some(),
            "stuck acknowledge must yield a watchdog diagnosis: {}",
            demo.report
        );
    }
}
