//! End-to-end and per-layer metrics, the layer-share line and the
//! result JSON.

use crate::exec::Counters;
use crate::plan::Op;
use crate::trace::{self, Span};
use crate::Workload;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` declares it.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One executed operation, as the workload rate sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Operation kind ([`Op::kind`]).
    pub kind: &'static str,
    /// Work done, in the workload's unit.
    pub work: f64,
    /// Host nanoseconds of its timed section.
    pub ns: u64,
    /// Host speed while it ran, relative to the reference machine
    /// ([`crate::reference`]): the nominal reference time over the
    /// median of the last three reference times measured before it.
    pub host_speed: f64,
}

/// The median (mean of the middle pair for an even count; 0 if empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => f64::midpoint(xs[n / 2 - 1], xs[n / 2]),
    }
}

/// The workload rate: per operation kind, the kind's work over its
/// host time scaled to the reference machine's speed
/// ([`Sample::host_speed`]); then the geometric mean over kinds, which
/// weighs a speed-up of any kind equally however much work that kind
/// does. Returns the rate and each kind's.
pub fn work_rate(samples: &[Sample]) -> (f64, Vec<(&'static str, f64)>) {
    let mut kinds: Vec<&'static str> = samples.iter().map(|s| s.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let per_kind: Vec<(&'static str, f64)> = kinds
        .into_iter()
        .map(|kind| {
            let (work, ns) = samples
                .iter()
                .filter(|s| s.kind == kind)
                .fold((0.0, 0.0), |(w, ns), s| {
                    (w + s.work, ns + s.ns as f64 * s.host_speed)
                });
            (kind, ratio(work, ns / 1e9))
        })
        .collect();
    if per_kind.is_empty() || per_kind.iter().any(|&(_, r)| r <= 0.0) {
        return (0.0, per_kind);
    }
    let mean_log = per_kind.iter().map(|&(_, r)| r.ln()).sum::<f64>() / per_kind.len() as f64;
    (mean_log.exp(), per_kind)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(samples: &[Sample], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        m("work_per_s", work_rate(samples).0, "work/s"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Host nanoseconds per simulated cycle over the mesh runs of one
/// `noc.ns_per_cycle` class ([`Op::noc_classes`]).
fn ns_per_cycle(class: &str, spans: &[Span], ops: &[Op], per_op: &[Counters]) -> f64 {
    let (mut ns, mut cycles) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == "noc.run" || s.name == "noc.run_flows")
    {
        if ops[s.op].noc_classes().contains(&class) {
            ns += s.len();
            cycles += per_op[s.op].noc_cycles;
        }
    }
    ratio(ns as f64, cycles as f64)
}

/// The per-layer metrics of a traced run: host seconds inside the
/// spans around each layer call, work counters, and the ratios the
/// layers waste work against.
pub fn per_layer(
    ops: &[Op],
    per_op: &[Counters],
    samples: &[Sample],
    spans: &[Span],
) -> Vec<Metric> {
    let timed_ns: u64 = samples.iter().map(|s| s.ns).sum();
    let mut c = Counters::default();
    for o in per_op {
        c.absorb(o);
    }
    let secs = |name: &str| trace::total(spans, name) as f64 / 1e9;
    let des_under_link: u64 = spans
        .iter()
        .filter(|s| s.name == "des.loop" && s.parent.is_some_and(|p| spans[p].name == "link.run"))
        .map(Span::len)
        .sum();
    let timed_s = timed_ns as f64 / 1e9;
    let f = |v: u64| v as f64;
    vec![
        m("cells.build_s", secs("cells.build"), "s"),
        m("cells.components", f(c.components), "count"),
        m("lint.run_s", secs("lint.run"), "s"),
        m("lint.timing_s", secs("lint.timing"), "s"),
        m("lint.loops_s", secs("lint.loops"), "s"),
        m("lint.connectivity_s", secs("lint.connectivity"), "s"),
        m("lint.handshake_s", secs("lint.handshake"), "s"),
        m("lint.captures", f(c.lint_captures), "count"),
        m("lint.bundles", f(c.lint_bundles), "count"),
        m("lint.errors", f(c.lint_errors), "count"),
        m("link.run_s", secs("link.run"), "s"),
        m(
            "link.overhead_s",
            secs("link.run") - des_under_link as f64 / 1e9,
            "s",
        ),
        m("link.words", f(c.link_words), "count"),
        m("des.loop_s", secs("des.loop"), "s"),
        m("des.events", f(c.des_events), "count"),
        m("des.commits", f(c.des_commits), "count"),
        m("des.deltas", f(c.des_deltas), "count"),
        m(
            "des.ns_per_event",
            ratio(f(trace::total(spans, "des.loop")), f(c.des_events)),
            "ns",
        ),
        m("des.events_avoided", f(c.des_events_avoided), "count"),
        m("des.cone_evals", f(c.des_cone_evals), "count"),
        m(
            "des.avoided_ratio",
            ratio(
                f(c.des_events_avoided),
                f(c.des_events + c.des_events_avoided),
            ),
            "ratio",
        ),
        m("des.queue_peak", f(c.des_queue_peak), "count"),
        m("sliced.carrier_s", secs("sliced.carrier"), "s"),
        m("sliced.replay_s", secs("sliced.replay"), "s"),
        m(
            "sliced.lane_yield",
            ratio(f(c.lanes_kept), f(c.lanes_carried)),
            "ratio",
        ),
        m("switch.build_s", secs("switch.build"), "s"),
        m("switch.sim_s", secs("switch.sim"), "s"),
        m("switch.flits", f(c.switch_flits), "count"),
        m("noc.new_s", secs("noc.new"), "s"),
        m("noc.run_s", secs("noc.run"), "s"),
        m("noc.run_flows_s", secs("noc.run_flows"), "s"),
        m(
            "noc.ns_per_cycle.xy",
            ns_per_cycle("xy", spans, ops, per_op),
            "ns",
        ),
        m(
            "noc.ns_per_cycle.adaptive",
            ns_per_cycle("adaptive", spans, ops, per_op),
            "ns",
        ),
        m(
            "noc.ns_per_cycle.lossy",
            ns_per_cycle("lossy", spans, ops, per_op),
            "ns",
        ),
        m(
            "noc.ns_per_cycle.storm",
            ns_per_cycle("storm", spans, ops, per_op),
            "ns",
        ),
        m(
            "noc.ns_per_cycle.kill",
            ns_per_cycle("kill", spans, ops, per_op),
            "ns",
        ),
        m("noc.cycles", f(c.noc_cycles), "count"),
        m("noc.injected_flits", f(c.injected_flits), "count"),
        m("noc.delivered_flits", f(c.delivered_flits), "count"),
        m(
            "noc.flits_per_cycle",
            ratio(f(c.delivered_flits), f(c.noc_node_cycles)),
            "flit/node/cycle",
        ),
        m(
            "noc.accept_ratio",
            ratio(f(c.delivered_packets), f(c.offered_packets)),
            "ratio",
        ),
        m("noc.errors", f(c.noc_errors), "count"),
        m("noc.replays", f(c.noc_replays), "count"),
        m("noc.resyncs", f(c.noc_resyncs), "count"),
        m("noc.stranded_flits", f(c.stranded_flits), "count"),
        m("noc.salvaged_packets", f(c.salvaged_packets), "count"),
        m("noc.reconfig_epochs", f(c.reconfig_epochs), "count"),
        m("noc.retrained_links", f(c.retrained_links), "count"),
        m("flow.sent", f(c.flow_sent), "count"),
        m("flow.retx", f(c.flow_retx), "count"),
        m("flow.timeouts", f(c.flow_timeouts), "count"),
        m(
            "flow.useful_ratio",
            ratio(f(c.flow_delivered), f(c.flow_sent + c.flow_retx)),
            "ratio",
        ),
        m("flow.completed", f(c.flow_completed), "count"),
        m("flow.livelocked", f(c.flow_livelocked), "count"),
        m("trace.timed_s", timed_s, "s"),
        m(
            "trace.host_speed",
            median(samples.iter().map(|s| s.host_speed).collect()),
            "ratio",
        ),
        m(
            "trace.unattributed_s",
            unattributed_ns(spans, timed_ns) as f64 / 1e9,
            "s",
        ),
        m("trace.work_per_s", work_rate(samples).0, "work/s"),
    ]
}

/// Timed host time no layer span accounts for: the self time of the
/// per-operation root spans (benchmark glue between layer calls) plus
/// whatever of the timed section the root spans miss.
pub fn unattributed_ns(spans: &[Span], timed_ns: u64) -> u64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::len)
        .sum();
    let glue: u64 = spans
        .iter()
        .zip(trace::self_times(spans))
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, t)| t)
        .sum();
    glue + timed_ns.saturating_sub(roots)
}

/// "Which layer dominates": the layer with the largest self time, its
/// share of the timed section, every other layer's share, and for the
/// mesh workloads the fabric occupancy.
pub fn layer_share_line(
    workload: Workload,
    spans: &[Span],
    timed_ns: u64,
    layers: &[Metric],
) -> String {
    let share = |ns: u64| 100.0 * ratio(ns as f64, timed_ns as f64);
    let mut parts: Vec<(&str, u64)> = trace::layer_self_times(spans)
        .into_iter()
        .filter(|(layer, _)| *layer != "op")
        .collect();
    parts.push(("unattributed", unattributed_ns(spans, timed_ns)));
    parts.sort_by_key(|p| std::cmp::Reverse(p.1));
    let (top, top_ns) = parts[0];
    let rest: Vec<String> = parts[1..]
        .iter()
        .map(|(l, ns)| format!("{l} {:.1}%", share(*ns)))
        .collect();
    let mut line = format!(
        "layer-share {}: {top} dominates with {:.1}% of {:.2} s timed ({})",
        workload.name(),
        share(top_ns),
        timed_ns as f64 / 1e9,
        rest.join(", ")
    );
    if matches!(workload, Workload::MeshLoad | Workload::MeshChaos) {
        let occ = layers
            .iter()
            .find(|x| x.name == "noc.flits_per_cycle")
            .map_or(0.0, |x| x.value);
        line.push_str(&format!("; noc.flits_per_cycle {occ:.4}"));
    }
    line
}

/// The result object the benchmark prints as its last line.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK
            .find(&format!("\"{section}\""))
            .expect("section exists");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').unwrap()].to_string();
                let unit_at = entry.find("\"unit\": \"").unwrap() + 9;
                let unit =
                    entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
                (name, unit)
            })
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|x| (x.name.to_string(), x.unit.to_string()))
            .collect()
    }

    #[test]
    fn metrics_match_their_declarations() {
        assert_eq!(emitted(&end_to_end(&[], 0.1, 1.0)), declared("end_to_end"));
        assert_eq!(
            emitted(&per_layer(&[], &[], &[], &[])),
            declared("per_layer")
        );
    }

    #[test]
    fn the_rate_is_a_geometric_mean_of_speed_scaled_kind_rates() {
        let s = |kind, work, ns, host_speed| Sample {
            kind,
            work,
            ns,
            host_speed,
        };
        let samples = [
            // Kind a: 3 work in 2 s at nominal speed → 1.5 work/s.
            s("a", 1.0, 1_000_000_000, 1.0),
            s("a", 2.0, 1_000_000_000, 1.0),
            // Kind b: 12 work in 4 s on a host running at half the
            // reference speed → 2 s of reference time → 6 work/s.
            s("b", 12.0, 4_000_000_000, 0.5),
        ];
        let (rate, kinds) = work_rate(&samples);
        assert_eq!(kinds, vec![("a", 1.5), ("b", 6.0)]);
        assert!((rate - 3.0).abs() < 1e-12, "{rate}");
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(work_rate(&[s("a", 0.0, 1, 1.0)]).0, 0.0);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_json(3, 1, &[m("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn unattributed_time_is_glue_plus_gaps() {
        let spans = vec![
            Span {
                name: "op.mesh_run",
                start: 0,
                end: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "noc.run",
                start: 10,
                end: 90,
                parent: Some(0),
                op: 0,
            },
        ];
        assert_eq!(unattributed_ns(&spans, 130), 20 + 30);
        let line = layer_share_line(Workload::MeshLoad, &spans, 130, &[]);
        assert!(
            line.starts_with("layer-share mesh_load: noc dominates with 61.5%"),
            "{line}"
        );
    }
}
