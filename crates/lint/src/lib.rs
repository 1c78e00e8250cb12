//! # sal-lint — static netlist analysis
//!
//! The async links of the paper only work because of invariants that
//! are *structural*, not dynamic: bundled-data strobes must arrive
//! after their data (the matched delays of Fig 6/8), every request
//! needs a four-phase acknowledge counterpart, and the only legal
//! combinational cycle is the intentional one (the I3 ring
//! oscillator; C-element and David-cell feedback is state, not
//! combinational). This crate checks those invariants on the
//! [`NetGraph`] snapshot a
//! [`Simulator`](sal_des::Simulator) exposes after construction — in
//! milliseconds, at build time, for every netlist variant, instead of
//! after thousands of simulated perturbation runs.
//!
//! Four pass families:
//!
//! * [`connectivity`] — undriven-but-read signals, multiply-driven
//!   signals without an arbiter tag, dead (driven-never-read)
//!   signals, width mismatches on cell reads;
//! * [`loops`] — Tarjan SCC over the combinationally transparent
//!   subgraph, flagging cycles that do not pass through a
//!   state-holding cell, with ring-oscillator exemptions;
//! * [`timing`] — static bundled-data margins: longest data-path
//!   delay versus shortest strobe-path delay from each registered
//!   launch point to each capture cell (the static counterpart of
//!   the simulated skew sweep in `BENCH_robustness.json`);
//! * [`handshake`] — every registered req/ack pair must have the ack
//!   reachable from the req, and no request may fan out to two
//!   different acknowledges.
//!
//! [`run_all`] runs every pass and returns one merged,
//! deterministically ordered [`LintReport`].
//!
//! Analysis is read-only: it never perturbs the simulator, so a
//! linted netlist replays bit-identically to an unlinted one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod handshake;
pub mod loops;
mod report;
pub mod timing;

pub use report::{Finding, LintReport, Severity};
pub use timing::{timing_margins, TimingMargin};

use sal_des::NetGraph;

/// Runs every lint pass over the graph and merges the findings into
/// one deterministically ordered report.
pub fn run_all(graph: &NetGraph) -> LintReport {
    let mut report = LintReport::new();
    connectivity::check(graph, &mut report);
    loops::check(graph, &mut report);
    timing::check(graph, &mut report);
    handshake::check(graph, &mut report);
    report.sort();
    report
}
