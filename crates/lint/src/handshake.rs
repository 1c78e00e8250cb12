//! Handshake protocol checks over the registered req/ack watch pairs.
//!
//! Every four-phase handshake the testbench watches (via
//! `Simulator::watch_handshake`) is also a structural claim: the
//! acknowledge must be *producible* from the request — there must be
//! a path of real cells from the req signal to the ack signal, or the
//! handshake can never complete and the link deadlocks on the first
//! token. A second claim is exclusivity: four-phase cells answer one
//! request with one acknowledge; a request wired (via watches) to two
//! different acknowledges is a protocol confusion — two receivers
//! both believe they own the completion of the same request.
//!
//! Protected links register req/nack/ack *triples* (the same call,
//! given a NACK wire), which add two more claims: the
//! negative acknowledge must be a distinct wire from the acknowledge
//! (a shared wire makes "retry" and "done" indistinguishable and the
//! retransmission controller misclassifies every word), and it must
//! itself be producible from the request — an unreachable NACK means
//! detected errors can never demand retransmission, silently
//! downgrading the protection to detect-and-drop.

use std::collections::BTreeMap;

use sal_des::{CellClass, NetGraph, SignalId};

use crate::report::{LintReport, Severity};

/// Pass name used in findings.
pub const PASS: &str = "handshake";

/// Runs the handshake lints over `graph`, appending to `report`.
pub fn check(graph: &NetGraph, report: &mut LintReport) {
    for watch in &graph.watches {
        if !reachable(graph, watch.req, watch.ack) {
            report.push(
                Severity::Error,
                PASS,
                &graph.signal(watch.req).path,
                format!(
                    "handshake '{}': ack '{}' is not reachable from req '{}' — \
                     the acknowledge can never answer this request",
                    watch.label,
                    graph.signal(watch.ack).path,
                    graph.signal(watch.req).path
                ),
            );
        }
        if let Some(nack) = watch.nack {
            if nack == watch.ack {
                report.push(
                    Severity::Error,
                    PASS,
                    &graph.signal(watch.req).path,
                    format!(
                        "handshake '{}': NACK and ack are the same wire '{}' — \
                         the transmitter cannot tell a retransmission demand \
                         from a completed word",
                        watch.label,
                        graph.signal(nack).path
                    ),
                );
            } else if !reachable(graph, watch.req, nack) {
                report.push(
                    Severity::Error,
                    PASS,
                    &graph.signal(watch.req).path,
                    format!(
                        "handshake '{}': NACK '{}' is not reachable from req '{}' — \
                         a detected error can never demand retransmission",
                        watch.label,
                        graph.signal(nack).path,
                        graph.signal(watch.req).path
                    ),
                );
            }
        }
    }

    // Exclusivity: one request, one acknowledge. Group the watches by
    // their req signal and flag requests claimed by two distinct acks.
    let mut by_req: BTreeMap<u32, Vec<&sal_des::NetWatch>> = BTreeMap::new();
    for watch in &graph.watches {
        by_req.entry(watch.req.index() as u32).or_default().push(watch);
    }
    for watches in by_req.values() {
        let mut acks: Vec<SignalId> = watches.iter().map(|w| w.ack).collect();
        acks.sort_by_key(|s| s.index());
        acks.dedup();
        if acks.len() > 1 {
            let names: Vec<&str> =
                acks.iter().map(|&a| graph.signal(a).path.as_str()).collect();
            report.push(
                Severity::Error,
                PASS,
                &graph.signal(watches[0].req).path,
                format!(
                    "four-phase request fans out to {} distinct acknowledges ({}); \
                     a request must be answered by exactly one ack",
                    acks.len(),
                    names.join(", ")
                ),
            );
        }
    }
}

/// Forward BFS from `from` to `to` over the cell graph: a signal
/// reaches the outputs of every non-monitor component sensitized on
/// it. Monitors are observers, not silicon, and don't conduct.
fn reachable(graph: &NetGraph, from: SignalId, to: SignalId) -> bool {
    if from == to {
        return true;
    }
    let mut seen = vec![false; graph.signals.len()];
    seen[from.index()] = true;
    let mut queue = vec![from];
    while let Some(sig) = queue.pop() {
        for &reader in &graph.signal(sig).readers {
            let comp = graph.component(reader);
            if comp.class == CellClass::Monitor {
                continue;
            }
            for &out in &comp.outputs {
                if out == to {
                    return true;
                }
                if !seen[out.index()] {
                    seen[out.index()] = true;
                    queue.push(out);
                }
            }
        }
    }
    false
}
