//! The paper's measurement protocol (§V): drive the worst-case flit
//! pattern through a link, determine the "in use" time, and average
//! energy over a window set by the target usage factor (the paper
//! reports 50 % usage: a 4-flit transfer taking ≈70 ns measured over a
//! 140 ns window at 100 MHz).
//!
//! [`run_spec`] is the single entry point. Observability is opt-in through
//! [`MeasureOptions`]: [`MeasureOptions::with_trace`] retains the
//! transition trace as a [`TraceDump`] on the returned [`LinkRun`],
//! and [`MeasureOptions::with_metrics`] additionally computes the
//! derived [`LinkMetrics`] report (handshake latency histograms,
//! per-block energy attribution, occupancy, burst timing). Untraced
//! runs take the kernel's zero-overhead commit path and are
//! bit-identical to builds without the trace hook.

use sal_cells::{AreaLedger, BuildError, CircuitBuilder};
use sal_des::{
    DeadlockReport, FaultPlan, MemoryTrace, RingTrace, SignalId, SimError, SimProfile,
    Simulator, Time, TraceDump,
};
use sal_tech::{clock_power_uw, PowerBreakdown, PowerMeter, St012Library};

use std::cell::Cell;
use std::rc::Rc;

use crate::assembly::build_family;
use crate::metrics::{self, LinkMetrics};
use crate::retry::RecoverySignals;
use crate::scoreboard::{check_integrity, IntegrityCounts, RecoveryCounts};
use crate::spec::{LinkFamily, LinkSpec};
use crate::testbench::attach_link_testbench;
use crate::LinkConfig;

/// Link usage factor the power is averaged at: the paper's 50 %.
const USAGE: f64 = 0.5;

/// How much of the transition trace a run retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing: the kernel commit path stays on its zero-overhead
    /// `None` branch (the default).
    #[default]
    Off,
    /// Retain every committed transition.
    Full,
    /// Retain only the most recent *N* transitions (bounded memory
    /// for long runs; "what happened just before it wedged").
    Ring(usize),
}

/// Options for a measured link run.
///
/// Construct with [`MeasureOptions::default`] and layer adjustments
/// with the builder methods. Protection belongs on the [`LinkSpec`],
/// not here — options only shape *how* a run is observed, never
/// *what* link is generated:
///
/// ```
/// use sal_link::{run_spec, LinkConfig, LinkFamily, LinkSpec, MeasureOptions};
/// use sal_link::{ProtectionMode, TraceMode};
/// let spec = LinkSpec::builder()
///     .family(LinkFamily::PerTransfer)
///     .protection(ProtectionMode::Parity)
///     .build()
///     .unwrap();
/// let opts = MeasureOptions::default()
///     .with_trace(TraceMode::Full)
///     .with_metrics();
/// let run = run_spec(&spec, &LinkConfig::default(), &[1, 2], &opts).unwrap();
/// assert!(run.trace.is_some() && run.metrics().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MeasureOptions {
    /// Give up if the transfer has not completed by this simulated
    /// time (indicates a deadlock — surfaced as
    /// [`RunFailure::Deadlock`]).
    pub timeout: Time,
    /// Technology library (calibration knobs live here).
    pub lib: St012Library,
    /// Fixed averaging window. The paper keeps the *same* simulation
    /// run time when re-measuring at higher clock speeds ("the same
    /// simulation run time was used … to provide a comparison", §V);
    /// pass the 100 MHz run's window here to follow that protocol.
    /// `None` derives the window from this run's own in-use time.
    pub window_override: Option<Time>,
    /// Fault plan applied to the simulator before the run (delay
    /// derating/sigma, stuck-ats, glitches, bundled-data skew).
    /// `None`/empty keeps the kernel on its fault-free fast path, so
    /// clean measurements are bit-identical to builds without this
    /// field.
    pub fault_plan: Option<FaultPlan>,
    /// How long reset is asserted before the transfer starts. Must
    /// cover the slowest control path's settling time, or undefined
    /// (X) values latch into the asynchronous state cells exactly as
    /// in unreset silicon. The 2 ns default covers the longest
    /// matched-delay chain at the slow technology corner; fault plans
    /// that derate gate delays need this stretched proportionally.
    pub reset_hold: Time,
    /// Transition-trace retention ([`TraceMode::Off`] by default).
    pub trace: TraceMode,
    /// Compute the [`LinkMetrics`] report. Implies a full trace for
    /// the duration of the run (the dump itself is only retained on
    /// the [`LinkRun`] if [`MeasureOptions::trace`] asks for it).
    pub metrics: bool,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            timeout: Time::from_us(50),
            lib: St012Library::default(),
            window_override: None,
            fault_plan: None,
            reset_hold: Time::from_ns(2),
            trace: TraceMode::Off,
            metrics: false,
        }
    }
}

impl MeasureOptions {
    /// Sets the deadlock timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Time) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the technology library.
    #[must_use]
    pub fn with_lib(mut self, lib: St012Library) -> Self {
        self.lib = lib;
        self
    }

    /// Applies a fault plan before the run.
    ///
    /// Composes with the declarative spec API: the spec decides what
    /// protection the generated link carries, the options decide what
    /// faults the measurement injects.
    ///
    /// ```
    /// use sal_des::{FaultPlan, Time};
    /// use sal_link::{run_spec, LinkConfig, LinkSpec, MeasureOptions, ProtectionMode, TraceMode};
    /// let spec = LinkSpec::builder().protection(ProtectionMode::Crc8).build().unwrap();
    /// let opts = MeasureOptions::default()
    ///     .with_fault_plan(FaultPlan::new(7))
    ///     .with_trace(TraceMode::Ring(256));
    /// let run = run_spec(&spec, &LinkConfig::default(), &[3, 4], &opts).unwrap();
    /// assert!(run.recovery.expect("protected link carries counters").is_quiet());
    /// ```
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Retains the transition trace on the returned [`LinkRun`].
    ///
    /// ```
    /// use sal_link::{MeasureOptions, TraceMode};
    /// let opts = MeasureOptions::default().with_trace(TraceMode::Ring(64));
    /// assert_eq!(opts.trace, TraceMode::Ring(64));
    /// ```
    #[must_use]
    pub fn with_trace(mut self, mode: TraceMode) -> Self {
        self.trace = mode;
        self
    }

    /// Computes the [`LinkMetrics`] report for the run.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }
}

/// Why a run did not produce a measurement.
#[derive(Debug)]
pub enum RunFailure {
    /// The netlist could not be constructed (double drivers…).
    Build(BuildError),
    /// The fault plan named a signal that does not exist.
    Fault(SimError),
    /// The transfer wedged: not every word was delivered before the
    /// timeout (or the kernel hit its event limit). When the handshake
    /// watchdog recognises a stalled req/ack pair, `diagnosis` names
    /// it.
    Deadlock {
        /// The link family that wedged.
        family: LinkFamily,
        /// Words delivered before the stall.
        delivered: usize,
        /// Words expected.
        expected: usize,
        /// Simulated time at which the run was abandoned.
        at: Time,
        /// Watchdog analysis of the stalled handshakes, if any.
        diagnosis: Option<DeadlockReport>,
        /// Recovery-layer activity up to the stall, when the link was
        /// built with protection (a stuck-at campaign that exhausts the
        /// bounded retries on every word legitimately ends here — the
        /// retries and give-ups it logged are still the measurement).
        recovery: Option<RecoveryCounts>,
    },
    /// The simulator failed for another reason.
    Sim(SimError),
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Build(e) => write!(f, "netlist construction failed: {e}"),
            RunFailure::Fault(e) => write!(f, "fault plan rejected: {e}"),
            RunFailure::Deadlock { family, delivered, expected, at, diagnosis, recovery } => {
                write!(
                    f,
                    "{} deadlocked: {delivered}/{expected} words delivered by {at}",
                    family.label()
                )?;
                if let Some(r) = recovery {
                    write!(f, " (recovery: {r})")?;
                }
                if let Some(d) = diagnosis {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
            RunFailure::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for RunFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunFailure::Build(e) => Some(e),
            RunFailure::Fault(e) | RunFailure::Sim(e) => Some(e),
            RunFailure::Deadlock { .. } => None,
        }
    }
}

/// The outcome of one measured transfer.
#[derive(Debug)]
pub struct LinkRun {
    /// Which link family was measured.
    pub family: LinkFamily,
    /// The effective configuration measured (spec merged onto the
    /// physical base).
    pub cfg: LinkConfig,
    /// `(time, word)` accepted from the sending switch.
    pub sent: Vec<(Time, u64)>,
    /// `(time, word)` delivered to the receiving switch.
    pub received: Vec<(Time, u64)>,
    /// First-flit-in to last-flit-out (the paper's "in use" time).
    pub in_use: Time,
    /// The averaging window (`in_use` over the paper's 50 % usage).
    pub window: Time,
    /// Per-scope average power from simulated switching activity, µW.
    pub sim_power: PowerBreakdown,
    /// Analytical clock power per block scope, µW.
    pub clock_power: Vec<(String, f64)>,
    /// Cell area per scope, µm².
    pub area: AreaLedger,
    /// Root scope of the link.
    pub scope: String,
    /// End-to-end data-integrity verdict (sent vs received payloads).
    pub integrity: IntegrityCounts,
    /// Kernel profiling counters for this run: events, commits,
    /// wakes, delta batches, queue occupancy, wall time per sim-ns.
    pub profile: SimProfile,
    /// The retained transition trace, when
    /// [`MeasureOptions::with_trace`] asked for one. Serialise it with
    /// [`TraceDump::write_vcd`] or [`TraceDump::write_jsonl`].
    pub trace: Option<TraceDump>,
    /// Recovery-layer activity counters, populated whenever the link
    /// was built with [`LinkSpec::protection`] enabled (`None`
    /// otherwise — no probes are attached to an unprotected link).
    pub recovery: Option<RecoveryCounts>,
    metrics: Option<LinkMetrics>,
}

impl LinkRun {
    /// The words delivered, in order.
    pub fn received_words(&self) -> Vec<u64> {
        self.received.iter().map(|&(_, w)| w).collect()
    }

    /// The derived metrics report, when the run was measured with
    /// [`MeasureOptions::with_metrics`].
    pub fn metrics(&self) -> Option<&LinkMetrics> {
        self.metrics.as_ref()
    }

    /// Sustained delivery rate at the sink, MFlit/s (needs ≥2 flits).
    pub fn throughput_mflits(&self) -> f64 {
        if self.received.len() < 2 {
            return 0.0;
        }
        let t0 = self.received.first().expect("nonempty").0;
        let t1 = self.received.last().expect("nonempty").0;
        if t1 == t0 {
            return 0.0;
        }
        (self.received.len() - 1) as f64 / (t1 - t0).as_secs() / 1e6
    }

    /// Simulated switching power of the subtree at `prefix`, µW.
    pub fn sim_power_uw(&self, prefix: &str) -> f64 {
        self.sim_power.subtree_uw(prefix)
    }

    /// Analytical clock power of the whole link, µW.
    pub fn clock_power_uw(&self) -> f64 {
        self.clock_power.iter().map(|(_, p)| p).sum()
    }

    /// Total link power (simulated switching + clock), µW.
    pub fn total_power_uw(&self) -> f64 {
        self.sim_power_uw(&self.scope) + self.clock_power_uw()
    }

    /// Power grouped into the paper's Fig 14 categories.
    pub fn block_power(&self) -> BlockPower {
        let s = &self.scope;
        let [conv_sim, serdes, buffers] = metrics::FIG14_BLOCKS.map(|[a, b]| {
            self.sim_power_uw(&format!("{s}.{a}")) + self.sim_power_uw(&format!("{s}.{b}"))
        });
        let clock = self.clock_power_uw();
        let total = self.total_power_uw();
        // Anything not in a named block (top-level glue buffers).
        let other = (total - conv_sim - serdes - buffers - clock).max(0.0);
        BlockPower {
            conv_uw: (conv_sim + clock).max(0.0),
            serdes_uw: serdes.max(0.0),
            buffers_uw: buffers.max(0.0),
            other_uw: other,
            total_uw: total.max(0.0),
        }
    }

    /// Total link cell area, µm².
    pub fn area_um2(&self) -> f64 {
        self.area.subtree_um2(&self.scope)
    }
}

/// Power grouped into the paper's Fig 14 categories, µW.
///
/// `conv_uw` is the synch/asynch conversion circuitry (for I1 it holds
/// the link's clock power, matching the paper's convention of showing
/// I1's power under its clocked buffers — see `buffers_uw`).
#[derive(Debug, Clone, Copy)]
pub struct BlockPower {
    /// Sync↔async interfaces, including their clock load.
    pub conv_uw: f64,
    /// Serializer + deserializer.
    pub serdes_uw: f64,
    /// Wire buffers / pipeline registers (switching only).
    pub buffers_uw: f64,
    /// Glue not attributable to a named block.
    pub other_uw: f64,
    /// Whole link.
    pub total_uw: f64,
}

/// Monitors attached to the recovery layer's observability taps:
/// rising-edge counters on the episode flags, plus the level of the
/// sticky degrade flag read out at collection time.
struct RecoveryProbes {
    nacks: Rc<Cell<u64>>,
    retries: Rc<Cell<u64>>,
    timeouts: Rc<Cell<u64>>,
    resyncs: Rc<Cell<u64>>,
    gave_up: Rc<Cell<u64>>,
    degraded: Option<SignalId>,
}

/// Counts rising edges of `sig` through a kernel monitor (catches
/// pulses far narrower than any polling interval).
fn count_rising(sim: &mut Simulator, name: &str, sig: SignalId) -> Rc<Cell<u64>> {
    let count = Rc::new(Cell::new(0u64));
    let c = count.clone();
    let mut prev = false;
    sim.monitor(name, sig, move |_t, v| {
        let high = v.is_high();
        if high && !prev {
            c.set(c.get() + 1);
        }
        prev = high;
    });
    count
}

impl RecoveryProbes {
    fn attach(sim: &mut Simulator, taps: &RecoverySignals) -> Self {
        RecoveryProbes {
            nacks: count_rising(sim, "probe_nack", taps.nack),
            retries: count_rising(sim, "probe_retry", taps.retry),
            timeouts: count_rising(sim, "probe_timeout", taps.timeout),
            resyncs: count_rising(sim, "probe_resync", taps.resync),
            gave_up: count_rising(sim, "probe_gave_up", taps.gave_up),
            degraded: taps.degraded,
        }
    }

    fn collect(&self, sim: &Simulator) -> RecoveryCounts {
        RecoveryCounts {
            nacks: self.nacks.get(),
            retries: self.retries.get(),
            timeouts: self.timeouts.get(),
            resyncs: self.resyncs.get(),
            gave_up: self.gave_up.get(),
            degraded: self.degraded.is_some_and(|s| sim.value(s).is_high()),
        }
    }
}

/// Runs `words` through a freshly generated link described by `spec`
/// and measures power per the paper's protocol. The single entry
/// point for link measurement: build failures, bad fault plans and
/// deadlocks all come back as a structured [`RunFailure`] — never a
/// panic.
///
/// `base` supplies the clock period, the one parameter the spec does
/// not name; the spec decides every design choice of the link.
///
/// ```
/// use sal_link::{run_spec, LinkConfig, LinkFamily, LinkSpec, MeasureOptions};
/// let spec = LinkSpec::builder().family(LinkFamily::PerTransfer).build().unwrap();
/// let words = vec![0xAAAA_AAAA, 0x5555_5555];
/// let run = run_spec(&spec, &LinkConfig::default(), &words,
///                    &MeasureOptions::default()).unwrap();
/// assert_eq!(run.received_words(), words);
/// ```
pub fn run_spec(
    spec: &LinkSpec,
    base: &LinkConfig,
    words: &[u64],
    opts: &MeasureOptions,
) -> Result<LinkRun, RunFailure> {
    let family = spec.family();
    let cfg = spec.apply(base);
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let handles = build_family(&mut builder, spec, "link", &cfg).map_err(RunFailure::Build)?;
    let area = builder.finish();
    if let Some(plan) = &opts.fault_plan {
        sim.apply_fault_plan(plan).map_err(RunFailure::Fault)?;
    }
    sim.compile();
    let probes = handles.recovery.as_ref().map(|taps| RecoveryProbes::attach(&mut sim, taps));

    // Hold reset until every control path has settled to a defined
    // level (standard reset-deassertion practice: an X arriving at an
    // asynchronous state cell after release would latch, exactly like
    // unreset silicon). `opts.reset_hold` defaults to 2 ns — the
    // longest matched-delay chain at the slow technology corner — and
    // is stretched by fault plans that derate gate delays.
    let (sent, received) = attach_link_testbench(&mut sim, &handles, words, opts.reset_hold);

    // Install the trace sink only now, once the netlist (link +
    // testbench) is final, so the captured signal table is complete.
    // Metrics need every transition, so they force a full trace even
    // under `TraceMode::Ring`.
    match (opts.trace, opts.metrics) {
        (TraceMode::Off, false) => {}
        (TraceMode::Ring(n), false) => sim.set_trace_sink(Box::new(RingTrace::new(n))),
        _ => sim.set_trace_sink(Box::new(MemoryTrace::new())),
    }

    let meter = PowerMeter::start(&sim);
    // Run in slices until everything arrived (or timeout).
    let slice = cfg.clk_period * 32;
    loop {
        let now = sim.now();
        if received.borrow().len() >= words.len() {
            break;
        }
        if now >= opts.timeout {
            return Err(RunFailure::Deadlock {
                family,
                delivered: received.borrow().len(),
                expected: words.len(),
                at: now,
                diagnosis: sim.deadlock_report(),
                recovery: probes.as_ref().map(|p| p.collect(&sim)),
            });
        }
        match sim.run_for(slice) {
            Ok(_) => {}
            Err(SimError::EventLimitExceeded { at, diagnosis, .. }) => {
                // The kernel already ran the watchdog when it gave up;
                // reuse its analysis rather than re-deriving it.
                return Err(RunFailure::Deadlock {
                    family,
                    delivered: received.borrow().len(),
                    expected: words.len(),
                    at,
                    diagnosis: diagnosis.map(|d| *d),
                    recovery: probes.as_ref().map(|p| p.collect(&sim)),
                });
            }
            Err(e) => return Err(RunFailure::Sim(e)),
        }
    }

    let sent = sent.borrow().clone();
    let received = received.borrow().clone();
    let in_use = match (sent.first(), received.last()) {
        (Some(&(t0, _)), Some(&(t1, _))) if t1 > t0 => t1 - t0,
        _ => cfg.clk_period,
    };
    // Extend the run so the measured window is exactly in_use / usage
    // (or the externally fixed window, per the paper's protocol).
    let window =
        opts.window_override.unwrap_or_else(|| Time::from_ns_f64(in_use.as_ns() / USAGE));
    let t_window_end = sent.first().map_or(Time::ZERO, |&(t, _)| t) + window;
    if sim.now() < t_window_end {
        sim.run_until(t_window_end).map_err(RunFailure::Sim)?;
    }
    let sim_power = {
        // The meter measured since t=0; rescale to the usage window.
        let raw = meter.finish(&sim);
        let scale = sim.now().as_secs() / window.as_secs();
        PowerBreakdown {
            scopes: raw.scopes.into_iter().map(|(p, v)| (p, v * scale)).collect(),
            window,
        }
    };
    let clock_power: Vec<(String, f64)> = handles
        .clock_sinks
        .iter()
        .map(|(scope, bits)| {
            (
                scope.clone(),
                clock_power_uw(&opts.lib, *bits, handles.clock_tree_um, cfg.clk_hz()),
            )
        })
        .collect();

    let integrity = check_integrity(
        &sent.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
        &received.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
    );

    let profile = sim.profile();
    let dump = TraceDump::capture(&sim);
    let metrics = if opts.metrics {
        dump.as_ref().map(|dump| {
            metrics::compute(&metrics::MetricsInputs {
                family,
                scope: &handles.scope,
                dump,
                watches: sim.handshake_watches(),
                sent: &sent,
                received: &received,
                in_use,
                window,
                clock_uw: clock_power.iter().map(|(_, p)| p).sum(),
                events: profile.events,
            })
        })
    } else {
        None
    };
    let trace = if opts.trace == TraceMode::Off { None } else { dump };

    Ok(LinkRun {
        family,
        cfg,
        sent,
        received,
        in_use,
        window,
        sim_power,
        clock_power,
        area,
        scope: handles.scope,
        integrity,
        profile,
        trace,
        recovery: probes.as_ref().map(|p| p.collect(&sim)),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::worst_case_pattern;
    use crate::LinkSpec;

    fn paper(family: LinkFamily) -> LinkSpec {
        LinkSpec::paper(family)
    }

    #[test]
    fn paper_protocol_four_flits_at_100mhz() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let run = run_spec(&paper(LinkFamily::Sync), &cfg, &words, &MeasureOptions::default())
            .expect("clean run");
        assert_eq!(run.received_words(), words);
        // 4 flits over a pipeline: in-use time is a handful of cycles,
        // the same order as the paper's ≈70 ns at 100 MHz.
        let ns = run.in_use.as_ns();
        assert!((40.0..=120.0).contains(&ns), "in-use {ns} ns out of range");
        assert!(run.window > run.in_use);
        assert!(run.total_power_uw() > 0.0);
        // Untraced runs retain no observability payload …
        assert!(run.trace.is_none());
        assert!(run.metrics().is_none());
        // … but the kernel profile always comes along for free.
        assert!(run.profile.commits > 0 && run.profile.events > 0);
    }

    #[test]
    fn block_power_sums_to_total() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(4, 32);
        let run = run_spec(&paper(LinkFamily::PerTransfer), &cfg, &words, &MeasureOptions::default())
            .expect("clean run");
        let bp = run.block_power();
        let sum = bp.conv_uw + bp.serdes_uw + bp.buffers_uw + bp.other_uw;
        assert!(
            (sum - bp.total_uw).abs() < 1e-6 * bp.total_uw.max(1.0),
            "blocks {sum} vs total {}",
            bp.total_uw
        );
    }

    #[test]
    fn area_reported_per_link() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(2, 32);
        let run = run_spec(&paper(LinkFamily::PerWord), &cfg, &words, &MeasureOptions::default())
            .expect("clean run");
        assert!(run.area_um2() > 1000.0, "area {} implausibly small", run.area_um2());
    }

    #[test]
    fn traced_run_retains_a_dump() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(2, 32);
        let opts = MeasureOptions::default().with_trace(TraceMode::Full);
        let run = run_spec(&paper(LinkFamily::PerTransfer), &cfg, &words, &opts).expect("clean run");
        let dump = run.trace.as_ref().expect("trace retained");
        assert!(!dump.records.is_empty());
        assert!(!dump.signals.is_empty());
        // Metrics were not requested.
        assert!(run.metrics().is_none());
    }

    #[test]
    fn ring_trace_bounds_retention() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(2, 32);
        let opts = MeasureOptions::default().with_trace(TraceMode::Ring(64));
        let run = run_spec(&paper(LinkFamily::PerTransfer), &cfg, &words, &opts).expect("clean run");
        let dump = run.trace.as_ref().expect("trace retained");
        assert_eq!(dump.records.len(), 64);
        // The ring keeps the tail: records stay in commit order.
        for pair in dump.records.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn run_failures_chain_their_sources() {
        use std::error::Error as _;
        // A fault plan naming a bogus signal chains to the kernel error.
        let opts = MeasureOptions::default().with_fault_plan(sal_des::FaultPlan::new(1).glitch(
            "link.no_such_signal",
            Time::from_ns(5),
            Time::from_ps(100),
            1,
        ));
        let err = run_spec(&paper(LinkFamily::PerTransfer), &LinkConfig::default(), &[1, 2], &opts)
            .expect_err("unknown fault target");
        assert!(matches!(err, RunFailure::Fault(_)));
        assert!(err.source().expect("chained").downcast_ref::<SimError>().is_some());
    }

    #[test]
    fn protected_run_reports_quiet_recovery_counts() {
        use crate::ProtectionMode;
        let words = worst_case_pattern(4, 32);
        let r = run_spec(
            &paper(LinkFamily::PerTransfer),
            &LinkConfig::default(),
            &words,
            &MeasureOptions::default(),
        )
        .expect("clean run");
        assert!(r.recovery.is_none(), "no probes on an unprotected link");
        let spec = LinkSpec::builder().protection(ProtectionMode::Crc8).build().unwrap();
        let r = run_spec(&spec, &LinkConfig::default(), &words, &MeasureOptions::default())
            .expect("clean run");
        let rec = r.recovery.expect("protected runs carry recovery counts");
        assert!(rec.is_quiet(), "fault-free run should need no recovery: {rec}");
        assert!(r.integrity.is_clean());
    }

    #[test]
    fn metrics_only_run_skips_the_dump() {
        let cfg = LinkConfig::default();
        let words = worst_case_pattern(2, 32);
        let opts = MeasureOptions::default().with_metrics();
        let run = run_spec(&paper(LinkFamily::PerTransfer), &cfg, &words, &opts).expect("clean run");
        assert!(run.trace.is_none());
        let m = run.metrics().expect("metrics computed");
        assert_eq!(m.link, "I2");
        assert!(!m.handshakes.is_empty());
    }
}
