//! The simulator: netlist container plus event loop.

use crate::compile::{CombSpec, Compiled, ConeForest};
use crate::component::{Component, ComponentId, Ctx};
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::netgraph::{
    BundleParams, CellClass, NetBundle, NetCapture, NetComponent, NetGraph, NetMeta, NetSignal,
    NetWatch,
};
use crate::scope::{ScopeId, ScopePath, ScopeTree};
use crate::signal::{SignalId, SignalInfo, SignalState};
use crate::stats::{EnergyReport, ScopeEnergy, SimProfile};
use crate::trace::{TraceRecord, TraceSignalMeta, TraceSink};
use crate::slice::Sliced;
use crate::watchdog::{DeadlockReport, HandshakeWatch, StalledHandshake};
use crate::{LaneValues, SimError, SimResult, Time, Value};

/// Default hard cap on processed events per `run_*` call, a safety
/// net against oscillating loops; far above any experiment in this
/// repository. [`Simulator::set_max_events`] replaces it.
const DEFAULT_MAX_EVENTS: u64 = 200_000_000;

/// The mutable core shared with component evaluation contexts.
pub(crate) struct Kernel {
    pub signals: Vec<SignalState>,
    pub queue: EventQueue,
    pub now: Time,
    /// Committed value changes (profiling counter). Lives here, next
    /// to `now`, so the per-commit increment touches a cache line the
    /// commit path has already written.
    pub commits: u64,
    /// Scope of each component, indexed by `ComponentId`.
    pub comp_scopes: Vec<ScopeId>,
    /// Evaluation-pending stamp of each component, indexed by
    /// `ComponentId`: holds the id of the delta batch that last queued
    /// the component, so a component fed by several signals committing
    /// at one timestamp is evaluated once per delta, not once per
    /// driving signal.
    pub comp_stamp: Vec<u64>,
    /// Per-scope energy accumulator, femtojoules. Holds component
    /// internal energy ([`Ctx::add_energy_fj`]) plus switching energy
    /// *folded in* from the per-signal toggle counters at fold points
    /// (energy/toggle resets, per-toggle-energy changes). Live totals
    /// are derived by adding each signal's un-folded toggles × energy
    /// — see [`Simulator::scope_energies_fj`] — which keeps the commit
    /// hot path free of floating-point accumulation.
    pub scope_energy_fj: Vec<f64>,
    /// Installed transition-trace sink, if any. `None` (the default)
    /// keeps the commit hot path on a single predictable branch, the
    /// same zero-overhead-when-off contract as `fault` below.
    pub trace: Option<Box<dyn TraceSink>>,
    /// Installed fault perturbations. `None` (the default) means every
    /// drive takes the untouched fast path — applying an empty
    /// [`FaultPlan`] leaves this `None`, so a clean run is
    /// bit-identical to a build without the fault subsystem.
    pub fault: Option<Box<FaultState>>,
    /// The active bit-sliced campaign pass, if
    /// [`Simulator::slice_begin`] ran. Lives in the kernel (not the
    /// simulator) so the dynamic-drive skip paths in [`Ctx::drive`]
    /// can reach it; boxed so the common scalar run pays one pointer
    /// test, not the struct's footprint.
    pub sliced: Option<Box<Sliced>>,
}

impl Kernel {
    /// Routes one committed value change through the active sliced
    /// campaign pass. `forced` is `Some(was_pending)` for force
    /// commits (fault actions), `None` for driver commits.
    fn slice_commit(
        &mut self,
        time: Time,
        signal: SignalId,
        old: &Value,
        new: &Value,
        forced: Option<bool>,
    ) {
        let (signals, sliced) = (&self.signals, &mut self.sliced);
        let Some(sl) = sliced else { return };
        let driver = signals[signal.index()].driver;
        sl.on_commit(time, signal, old, new, forced, driver, |s| signals[s.index()].value);
    }

    /// Reports a force that committed nothing but cancelled an
    /// in-flight drive to the active sliced campaign pass.
    fn slice_silent_force(&mut self, signal: SignalId) {
        let (signals, sliced, now) = (&self.signals, &mut self.sliced, self.now);
        let Some(sl) = sliced else { return };
        sl.on_silent_force(now, signal, |s| signals[s.index()].value);
    }

    /// Reports a skipped dynamic drive to the active sliced pass (the
    /// inertial no-op rules in [`Ctx::drive`] fired).
    pub(crate) fn slice_dyn_skip(&mut self, comp: ComponentId, out: SignalId, v: &Value) {
        let (signals, sliced) = (&self.signals, &mut self.sliced);
        let Some(sl) = sliced else { return };
        sl.dyn_skip(comp, out, v, |s| signals[s.index()].value);
    }

    /// Reports a dynamic drive that superseded an in-flight one to the
    /// active sliced pass.
    pub(crate) fn slice_dyn_supersede(&mut self, comp: ComponentId, out: SignalId) {
        let (signals, sliced) = (&self.signals, &mut self.sliced);
        let Some(sl) = sliced else { return };
        sl.dyn_supersede(comp, out, |s| signals[s.index()].value);
    }
}

/// An event-driven gate-level simulator holding a netlist of signals
/// and [`Component`]s.
///
/// See the [crate-level documentation](crate) for the simulation model
/// and a complete example.
pub struct Simulator {
    kernel: Kernel,
    comps: Vec<Box<dyn Component>>,
    comp_names: Vec<String>,
    scopes: ScopeTree,
    scope_stack: Vec<ScopeId>,
    /// Runaway-event budget per `run_*` call.
    max_events: u64,
    events_processed: u64,
    /// Monotone id of the delta batch being processed; pairs with
    /// `Kernel::comp_stamp` to dedup evaluations. Starts at 1 so the
    /// zero-initialised stamps never match.
    delta_seq: u64,
    /// Scratch list of components awaiting evaluation in the current
    /// delta, in first-trigger order. Kept allocated across deltas so
    /// the steady-state event loop performs no heap allocation.
    pending_evals: Vec<ComponentId>,
    /// Handshake pairs registered for deadlock diagnosis, in
    /// registration order.
    watches: Vec<HandshakeWatch>,
    /// Static-netlist annotation side tables (cell classes, declared
    /// reads, bundled-data launch/capture points…). Never read by the
    /// event loop; snapshotted by [`Simulator::netgraph`].
    net: NetMeta,
    /// Wake events processed (profiling counter).
    wakes: u64,
    /// Deltas processed — queue pops, each a wake, a fault action or a
    /// batch of same-timestamp commits (profiling counter).
    deltas: u64,
    /// Sum of sampled event-queue depths; with `queue_samples` this
    /// yields the mean queue occupancy.
    queue_depth_sum: u64,
    /// Number of queue-depth samples taken (one every 64 deltas, so
    /// the event loop pays one branch, not a queue walk, per delta).
    queue_samples: u64,
    /// Peak event-queue depth observed at a sampled delta boundary.
    queue_peak: usize,
    /// Wall-clock time spent inside `run_until` since construction.
    wall: std::time::Duration,
    /// Compiled execution specs registered by the cell builders,
    /// indexed by `ComponentId` (sparse — `None` for cells with no
    /// combinational description). Inert until [`Simulator::compile`].
    comb_specs: Vec<Option<CombSpec>>,
    /// The active compiled engine, if [`Simulator::compile`] ran.
    compiled: Option<Compiled>,
    /// State-cell capture rules `q <- d` registered by the cell
    /// builders for the sliced campaign engine. Inert until
    /// [`Simulator::slice_begin`].
    capture_rules: Vec<(SignalId, SignalId)>,
    /// Lanes carried by the last bit-sliced campaign pass attached to
    /// this simulator (set by `slice_begin`; profiling only).
    lanes_active: u64,
    /// Lanes the last bit-sliced campaign pass demoted to scalar
    /// replay (set by `slice_seal`; profiling only).
    scalar_fallbacks: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.kernel.signals.len())
            .field("components", &self.comps.len())
            .field("now", &self.kernel.now)
            .field("pending_events", &self.kernel.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator: no trace sink, the default
    /// runaway-event budget.
    pub fn new() -> Self {
        Simulator {
            kernel: Kernel {
                signals: Vec::new(),
                queue: EventQueue::new(),
                now: Time::ZERO,
                comp_scopes: Vec::new(),
                comp_stamp: Vec::new(),
                scope_energy_fj: vec![0.0],
                trace: None,
                fault: None,
                sliced: None,
                commits: 0,
            },
            comps: Vec::new(),
            comp_names: Vec::new(),
            scopes: ScopeTree::new(),
            scope_stack: vec![ScopeId::ROOT],
            max_events: DEFAULT_MAX_EVENTS,
            events_processed: 0,
            delta_seq: 1,
            pending_evals: Vec::new(),
            watches: Vec::new(),
            net: NetMeta::default(),
            wakes: 0,
            deltas: 0,
            queue_depth_sum: 0,
            queue_samples: 0,
            queue_peak: 0,
            wall: std::time::Duration::ZERO,
            comb_specs: Vec::new(),
            compiled: None,
            capture_rules: Vec::new(),
            lanes_active: 0,
            scalar_fallbacks: 0,
        }
    }

    /// Replaces the runaway-event budget after construction. The
    /// budget is the quiescence watchdog's horizon: exceeding it trips
    /// [`SimError::EventLimitExceeded`] with a deadlock diagnosis.
    /// Chaos campaigns whose retransmission backoff legitimately burns
    /// many events per delivered word raise it; unit tests hunting an
    /// oscillation lower it.
    pub fn set_max_events(&mut self, limit: u64) {
        self.max_events = limit;
    }

    /// The configured runaway-event budget.
    pub fn max_events(&self) -> u64 {
        self.max_events
    }

    // ------------------------------------------------------------------
    // Netlist construction
    // ------------------------------------------------------------------

    /// Enters a child scope of the current scope. Signals and
    /// components added until the matching [`Simulator::pop_scope`]
    /// belong to it (hierarchical names, energy attribution).
    pub fn push_scope(&mut self, name: &str) -> ScopeId {
        let id = self.scopes.child(self.current_scope(), name);
        self.scope_stack.push(id);
        self.kernel.scope_energy_fj.push(0.0);
        id
    }

    /// Leaves the current scope.
    ///
    /// # Panics
    ///
    /// Panics on an attempt to pop the root scope.
    pub fn pop_scope(&mut self) {
        assert!(self.scope_stack.len() > 1, "cannot pop the root scope");
        self.scope_stack.pop();
    }

    /// The scope new signals/components are currently added to.
    pub fn current_scope(&self) -> ScopeId {
        *self.scope_stack.last().expect("scope stack never empty")
    }

    /// The dotted path of a scope.
    pub fn scope_path(&self, id: ScopeId) -> ScopePath {
        self.scopes.path(id)
    }

    /// Adds a signal of the given width to the current scope. The
    /// signal starts as all-`X` with no driver attached.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn add_signal(&mut self, name: &str, width: u8) -> SignalId {
        assert!((1..=Value::MAX_WIDTH).contains(&width), "width must be 1..=64");
        let id = SignalId(self.kernel.signals.len() as u32);
        self.kernel
            .signals
            .push(SignalState::new(name.to_string(), width, self.current_scope()));
        id
    }

    /// Adds a component to the current scope. `inputs` lists the
    /// signals whose changes should trigger [`Component::on_input`].
    pub fn add_component<C: Component>(
        &mut self,
        name: &str,
        comp: C,
        inputs: &[SignalId],
    ) -> ComponentId {
        let id = ComponentId(self.comps.len() as u32);
        self.comps.push(Box::new(comp));
        self.comp_names.push(name.to_string());
        self.kernel.comp_scopes.push(self.current_scope());
        self.kernel.comp_stamp.push(0);
        for &sig in inputs {
            let fanout = &mut self.kernel.signals[sig.index()].fanout;
            // Component ids are handed out monotonically and each
            // component registers all its inputs in one call, so a
            // duplicate (the same signal listed twice in `inputs`) can
            // only ever be the last entry — an O(1) check instead of a
            // linear scan, keeping netlist construction O(n).
            if fanout.last() != Some(&id) {
                fanout.push(id);
            }
        }
        id
    }

    /// Registers `comp` as the unique driver of `sig`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MultipleDrivers`] if another component
    /// already drives the signal.
    pub fn connect_driver(&mut self, comp: ComponentId, sig: SignalId) -> SimResult<()> {
        let state = &mut self.kernel.signals[sig.index()];
        if let Some(existing) = state.driver {
            if existing != comp {
                return Err(SimError::MultipleDrivers { signal: sig, existing, attempted: comp });
            }
        }
        state.driver = Some(comp);
        Ok(())
    }

    /// Adds a stimulus source that drives `sig` with each listed value
    /// at the listed absolute time. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if the signal already has a driver, if a value width
    /// mismatches, or if times are not sorted.
    pub fn stimulus(&mut self, sig: SignalId, schedule: &[(Time, Value)]) -> ComponentId {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "stimulus schedule must be sorted by time"
        );
        for (_, v) in schedule {
            assert_eq!(
                v.width(),
                self.kernel.signals[sig.index()].width,
                "stimulus width mismatch on '{}'",
                self.kernel.signals[sig.index()].name
            );
        }
        let width = self.kernel.signals[sig.index()].width;
        let comp =
            Stimulus { sig, schedule: schedule.to_vec(), next: 0, cur: Value::all_x(width) };
        // The stimulus listens to its *own* signal: each commit calls
        // it back, and it responds by scheduling the next entry as one
        // delayed drive. Steady state is one event per schedule entry,
        // instead of the wake + zero-delay-drive pair a timer-driven
        // stimulus would cost.
        let id = self.add_component("stimulus", comp, &[sig]);
        self.net.set_class(id, CellClass::Source);
        self.connect_driver(id, sig).expect("stimulus target already driven");
        if !schedule.is_empty() {
            self.kernel.queue.push(schedule[0].0, EventKind::Wake { comp: id });
        }
        id
    }

    /// Adds a monitor invoked with `(time, value)` after every commit
    /// of `sig`. Monitors drive nothing and are ideal for measurements.
    pub fn monitor<F>(&mut self, name: &str, sig: SignalId, callback: F) -> ComponentId
    where
        F: FnMut(Time, Value) + 'static,
    {
        let comp = MonitorComp { sig, callback: Box::new(callback) };
        let id = self.add_component(name, comp, &[sig]);
        self.net.set_class(id, CellClass::Monitor);
        id
    }

    /// Schedules an initial wakeup for a component (used by sources
    /// that need a kick before any input ever changes).
    pub fn schedule_wake(&mut self, comp: ComponentId, at: Time) {
        self.kernel.queue.push(at, EventKind::Wake { comp });
    }

    // ------------------------------------------------------------------
    // Static-netlist annotation (metadata only — see `netgraph`)
    // ------------------------------------------------------------------

    /// Tags a component with its behavioural [`CellClass`]. Pure
    /// metadata for static analysis; simulation is unaffected.
    pub fn set_component_class(&mut self, comp: ComponentId, class: CellClass) {
        self.net.set_class(comp, class);
    }

    /// Records a component's nominal propagation delay for static
    /// timing. Metadata only — the component applies its own delay
    /// dynamically.
    pub fn set_component_delay(&mut self, comp: ComponentId, delay: Time) {
        self.net.set_delay(comp, delay);
    }

    /// Annotates which of a component's inputs are data pins and
    /// which are trigger pins (clock/enable/set/clear). The static
    /// timing pass traverses state-holding cells through these roles.
    pub fn set_component_pins(&mut self, comp: ComponentId, data: &[SignalId], trigger: &[SignalId]) {
        for &s in data {
            self.net.data_pins.push((comp, s));
        }
        for &s in trigger {
            self.net.trigger_pins.push((comp, s));
        }
    }

    /// Declares that `comp` reads `sig` without being sensitized to
    /// it (e.g. a flip-flop samples `d` at the clock edge but is not
    /// woken by `d` changes). Keeps the connectivity lint aware of
    /// the read without adding the signal to the dynamic fanout.
    pub fn declare_read(&mut self, comp: ComponentId, sig: SignalId) {
        self.net.declared_reads.push((comp, sig));
    }

    /// Exempts a component from the combinational-loop lint (the one
    /// legitimate use is a ring oscillator's loop-closing inverter).
    /// Exempt components are also excluded from compiled execution:
    /// a free-running loop's timing *is* its behaviour, so it stays on
    /// the event queue.
    pub fn set_loop_exempt(&mut self, comp: ComponentId) {
        self.net.set_loop_exempt(comp);
    }

    /// Registers a compiled execution spec for a combinational
    /// component. Inert until [`Simulator::compile`] — a simulator
    /// that never compiles behaves bit-identically to one with no
    /// specs registered.
    pub fn set_comb_spec(&mut self, comp: ComponentId, spec: CombSpec) {
        if self.comb_specs.len() <= comp.index() {
            self.comb_specs.resize_with(comp.index() + 1, || None);
        }
        self.comb_specs[comp.index()] = Some(spec);
    }

    /// Switches every eligible combinational component to compiled
    /// execution. Call once, after netlist construction.
    ///
    /// Eligibility: a [`CombSpec`] is registered, the cell class is
    /// transparent (combinational, wiring or routing), and the
    /// component is not [loop-exempt](Simulator::set_loop_exempt).
    /// State cells, matched-delay models, environment components and
    /// ring-oscillator loop closers keep interpreted event-queue
    /// execution — their event timing is the object of study.
    ///
    /// Returns the number of components switched. Calling it on a
    /// netlist with no registered specs activates an empty (no-op)
    /// compiled engine.
    pub fn compile(&mut self) -> usize {
        let ncomp = self.comps.len();
        let mut member = vec![false; ncomp];
        for (i, m) in member.iter_mut().enumerate() {
            let id = ComponentId(i as u32);
            *m = self.comb_specs.get(i).is_some_and(|s| s.is_some())
                && self.net.class(id).is_transparent()
                && !self.net.loop_exempt.get(i).copied().unwrap_or(false);
        }
        let members = member.iter().filter(|&&m| m).count();
        // Count the weakly-connected compiled regions ("cones"): two
        // members share a cone when one's output feeds the other.
        let mut forest = ConeForest::new(ncomp);
        for st in &self.kernel.signals {
            let Some(driver) = st.driver else { continue };
            if !member[driver.index()] {
                continue;
            }
            for &reader in &st.fanout {
                if member[reader.index()] {
                    forest.union(driver.0, reader.0);
                }
            }
        }
        let mut roots: Vec<u32> = (0..ncomp as u32)
            .filter(|&i| member[i as usize])
            .map(|i| forest.find(i))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        // Lower every member's spec into the flat node table and
        // snapshot the committed values into the dense shadow the
        // nodes evaluate over (maintained by the commit paths from
        // here on).
        let values: Vec<Value> = self.kernel.signals.iter().map(|s| s.value).collect();
        let mut compiled = Compiled::new(
            vec![crate::compile::NO_NODE; ncomp],
            Vec::new(),
            Vec::new(),
            values,
            roots.len() as u64,
        );
        for (i, m) in member.iter().enumerate() {
            if *m {
                let spec = self.comb_specs[i].as_ref().expect("member has a spec");
                compiled.add_node(ComponentId(i as u32), spec);
            }
        }
        self.compiled = Some(compiled);
        members
    }

    // ------------------------------------------------------------------
    // Bit-sliced campaigns
    // ------------------------------------------------------------------

    /// Registers a state-cell capture rule `q <- d` for the sliced
    /// campaign engine: commits of `q` that pass the captured `d`
    /// through verbatim inherit `d`'s per-lane planes. Called by the
    /// cell builders for latches and flip-flops; inert until
    /// [`Simulator::slice_begin`].
    pub fn set_capture_rule(&mut self, q: SignalId, d: SignalId) {
        self.capture_rules.push((q, d));
    }

    /// Starts a bit-sliced campaign pass carrying `lanes` seeds (1 to
    /// 64) over this simulator. Requires compiled execution
    /// ([`Simulator::compile`]): the lane planes advance through the
    /// compiled nodes' lane-parallel evaluators.
    ///
    /// Schedule per-lane glitches with [`Simulator::slice_glitch`],
    /// record per-lane histories with [`Simulator::slice_tap`], run
    /// the simulation once, then call [`Simulator::slice_seal`]: every
    /// lane *not* in the returned diverged mask has tap histories
    /// bit-identical to a scalar run seeded with that lane's masks;
    /// diverged lanes must be replayed scalar.
    ///
    /// # Panics
    ///
    /// Panics if [`Simulator::compile`] has not run or `lanes` is
    /// outside `1..=64`.
    pub fn slice_begin(&mut self, lanes: u8) {
        let compiled = self.compiled.as_ref().expect("slice_begin requires compile()");
        let nsignals = self.kernel.signals.len();
        // Non-member probe lists: the signals each interpreted cell
        // reacts to (sensitivity fanout) plus its declared
        // non-sensitized reads — the conservative divergence probe
        // for commits the plane algebra cannot follow.
        let mut reads: Vec<Vec<SignalId>> = vec![Vec::new(); self.comps.len()];
        for (i, st) in self.kernel.signals.iter().enumerate() {
            let s = SignalId(i as u32);
            for &comp in &st.fanout {
                if !compiled.is_member(comp) {
                    if let Some(r) = reads.get_mut(comp.index()) {
                        r.push(s);
                    }
                }
            }
        }
        for &(comp, s) in &self.net.declared_reads {
            if !compiled.is_member(comp) {
                if let Some(r) = reads.get_mut(comp.index()) {
                    if !r.contains(&s) {
                        r.push(s);
                    }
                }
            }
        }
        self.kernel.sliced =
            Some(Box::new(Sliced::new(lanes, nsignals, &self.capture_rules, reads)));
        self.lanes_active = u64::from(lanes);
        self.scalar_fallbacks = 0;
    }

    /// Schedules a sliced glitch: at `at`, lane `k` XORs `masks[k]`
    /// into `signal` for `width`. The carrier executes the *pilot's*
    /// mask through the regular fault machinery — the pilot is the
    /// lowest lane with a non-zero mask at this site — so a carrier
    /// whose every site has the same pilot runs exactly that lane's
    /// scalar timeline; each lane's planes take only its own mask. A
    /// site no lane glitches schedules no carrier force at all.
    ///
    /// # Panics
    ///
    /// Panics if no sliced pass is active, `at` is in the past,
    /// `masks` doesn't hold one mask per lane, `width` is zero, or the
    /// site overlaps an earlier one on the same signal.
    pub fn slice_glitch(&mut self, at: Time, signal: SignalId, width: Time, masks: &[u64]) {
        assert!(at >= self.kernel.now, "sliced glitch scheduled in the past");
        let sliced = self.kernel.sliced.as_mut().expect("slice_begin first");
        sliced.add_glitch(at, signal, width, masks);
        let Some(&mask) = masks.iter().find(|&&m| m != 0) else {
            return;
        };
        // An empty fault state transforms every drive to itself, so
        // installing one here keeps clean-path behaviour bit-identical.
        let fault = self.kernel.fault.get_or_insert_with(|| {
            Box::new(FaultState {
                comp_scale: Vec::new(),
                extra_delay_fs: Vec::new(),
                stuck_from: Vec::new(),
                setup_check: Vec::new(),
                actions: Vec::new(),
            })
        });
        let action = fault.actions.len() as u32;
        fault.actions.push(FaultAction::Glitch { signal, mask, width });
        self.kernel.queue.push(at, EventKind::Fault { action });
    }

    /// Registers a per-lane tap on `signal`: every subsequent carrier
    /// commit appends `(time, planes)` to the history returned by
    /// [`Simulator::slice_tap_history`], seeded with the planes at
    /// registration time.
    ///
    /// # Panics
    ///
    /// Panics if no sliced pass is active.
    pub fn slice_tap(&mut self, signal: SignalId) {
        let now = self.kernel.now;
        let cur = self.kernel.signals[signal.index()].value;
        self.kernel.sliced.as_mut().expect("slice_begin first").add_tap(signal, now, &cur);
    }

    /// The per-lane commit history of a tapped signal. `None` if no
    /// sliced pass is active or the signal was never tapped.
    pub fn slice_tap_history(&self, signal: SignalId) -> Option<&[(Time, LaneValues)]> {
        self.kernel.sliced.as_ref()?.tap_history(signal)
    }

    /// Ends the sliced pass's accounting: processes every remaining
    /// expected injection as missed and returns the final
    /// diverged-lane mask. Lanes not in the mask have tap histories
    /// bit-identical to scalar runs with their masks; lanes in it must
    /// be replayed scalar. The pass stays attached and queryable.
    pub fn slice_seal(&mut self) -> u64 {
        let (signals, sliced) = (&self.kernel.signals, &mut self.kernel.sliced);
        let Some(sl) = sliced else { return 0 };
        let mask = sl.seal(|s| signals[s.index()].value);
        self.scalar_fallbacks = u64::from(mask.count_ones());
        mask
    }

    /// Marks a signal as a block port: it is legitimately undriven
    /// until a stimulus or an enclosing netlist drives it.
    pub fn mark_port(&mut self, sig: SignalId) {
        self.net.ports.push(sig);
    }

    /// Marks a signal as legitimately multiply-driven (an arbitrated
    /// or wired-OR node). Without this tag the connectivity lint
    /// reports declared extra drivers as errors.
    pub fn mark_arbited(&mut self, sig: SignalId) {
        self.net.arbited.push(sig);
    }

    /// Records `comp` as an *additional* driver of `sig` in the
    /// static graph. The kernel's single-driver invariant is not
    /// relaxed — this is metadata for modelling shared nodes, and the
    /// connectivity lint flags it unless the signal is
    /// [arbited](Simulator::mark_arbited).
    pub fn connect_extra_driver(&mut self, comp: ComponentId, sig: SignalId) {
        self.net.extra_drivers.push((sig, comp));
    }

    /// Registers a bundled-data launch point: transitions of `origin`
    /// launch both a data value and the strobe that captures it
    /// downstream. `data_lead` is the head start the data event has
    /// over the strobe event at the origin (zero when both are the
    /// same transition).
    pub fn register_bundle(&mut self, label: &str, origin: SignalId, data_lead: Time) {
        self.net.bundles.push(NetBundle {
            label: label.to_string(),
            origin,
            data_lead,
            params: None,
        });
    }

    /// Registers a bundled-data launch point annotated with the
    /// generator parameters it was built under (word width and
    /// serialization ratio), so lint output and timing fixtures can
    /// name the design point. Identical to
    /// [`register_bundle`](Simulator::register_bundle) for the timing
    /// pass itself — the annotation is metadata only.
    pub fn register_bundle_with(
        &mut self,
        label: &str,
        origin: SignalId,
        data_lead: Time,
        params: BundleParams,
    ) {
        self.net.bundles.push(NetBundle {
            label: label.to_string(),
            origin,
            data_lead,
            params: Some(params),
        });
    }

    /// Registers a bundled-data capture point: `trigger` closes a
    /// storage element over `data`, so along every matched launch
    /// path the data must arrive before the trigger.
    pub fn register_capture(&mut self, data: SignalId, trigger: SignalId) {
        self.net.captures.push(NetCapture { data, trigger });
    }

    /// Snapshots the netlist's static structure — drivers, readers,
    /// widths, scopes, cell classes and every registered annotation —
    /// into an immutable [`NetGraph`] for the lint passes.
    pub fn netgraph(&self) -> NetGraph {
        let nsig = self.kernel.signals.len();
        let ncomp = self.comps.len();
        let mut signals: Vec<NetSignal> = (0..nsig)
            .map(|i| {
                let st = &self.kernel.signals[i];
                let info = self.signal_info(SignalId(i as u32));
                NetSignal {
                    id: SignalId(i as u32),
                    name: st.name.clone(),
                    path: info.path,
                    width: st.width,
                    drivers: st.driver.into_iter().collect(),
                    readers: st.fanout.clone(),
                    is_port: false,
                    is_arbited: false,
                }
            })
            .collect();
        for &(sig, comp) in &self.net.extra_drivers {
            signals[sig.index()].drivers.push(comp);
        }
        for &sig in &self.net.ports {
            signals[sig.index()].is_port = true;
        }
        for &sig in &self.net.arbited {
            signals[sig.index()].is_arbited = true;
        }
        let mut components: Vec<NetComponent> = (0..ncomp)
            .map(|i| {
                let id = ComponentId(i as u32);
                NetComponent {
                    id,
                    name: self.comp_names[i].clone(),
                    scope_path: self.scope_path_str(self.kernel.comp_scopes[i]).to_string(),
                    class: self.net.class(id),
                    delay: self.net.delays.get(i).copied().flatten(),
                    inputs: Vec::new(),
                    reads: Vec::new(),
                    outputs: Vec::new(),
                    data_pins: Vec::new(),
                    trigger_pins: Vec::new(),
                    loop_exempt: self.net.loop_exempt.get(i).copied().unwrap_or(false),
                }
            })
            .collect();
        // Invert the per-signal fanout/driver tables into per-component
        // input/output lists (signal order, deterministic).
        for (i, st) in self.kernel.signals.iter().enumerate() {
            let sig = SignalId(i as u32);
            for &comp in &st.fanout {
                components[comp.index()].inputs.push(sig);
            }
            if let Some(driver) = st.driver {
                components[driver.index()].outputs.push(sig);
            }
        }
        for &(sig, comp) in &self.net.extra_drivers {
            components[comp.index()].outputs.push(sig);
        }
        for &(comp, sig) in &self.net.declared_reads {
            components[comp.index()].reads.push(sig);
            if !signals[sig.index()].readers.contains(&comp) {
                signals[sig.index()].readers.push(comp);
            }
        }
        for &(comp, sig) in &self.net.data_pins {
            components[comp.index()].data_pins.push(sig);
        }
        for &(comp, sig) in &self.net.trigger_pins {
            components[comp.index()].trigger_pins.push(sig);
        }
        NetGraph {
            signals,
            components,
            bundles: self.net.bundles.clone(),
            captures: self.net.captures.clone(),
            watches: self
                .watches
                .iter()
                .map(|w| NetWatch { label: w.label.clone(), req: w.req, ack: w.ack, nack: w.nack })
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The committed value of a signal.
    pub fn value(&self, sig: SignalId) -> Value {
        self.kernel.signals[sig.index()].value
    }

    /// Total committed bit toggles of a signal.
    pub fn toggles(&self, sig: SignalId) -> u64 {
        self.kernel.signals[sig.index()].toggles
    }

    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.kernel.now
    }

    /// Number of signals in the netlist.
    pub fn signal_count(&self) -> usize {
        self.kernel.signals.len()
    }

    /// Number of components in the netlist.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The width of a signal in bits, without the name/path assembly
    /// of [`Simulator::signal_info`] — netlist builders call this for
    /// every port of every cell.
    #[inline]
    pub fn signal_width(&self, sig: SignalId) -> u8 {
        self.kernel.signals[sig.index()].width
    }

    /// The dotted path of a scope as a borrowed string (the allocating
    /// variant is [`Simulator::scope_path`]).
    pub fn scope_path_str(&self, id: ScopeId) -> &str {
        self.scopes.path_str(id)
    }

    /// Per-scope accumulated energy in femtojoules, indexed by scope
    /// id. A cheap snapshot for differential power measurements; use
    /// [`Simulator::energy_report`] for the path-labelled view.
    pub fn scope_energies_fj(&self) -> Vec<f64> {
        let mut out = self.kernel.scope_energy_fj.clone();
        for st in &self.kernel.signals {
            let unfolded = st.toggles - st.toggles_energy_base;
            if unfolded != 0 {
                out[st.scope.0 as usize] += unfolded as f64 * st.energy_per_toggle_fj;
            }
        }
        out
    }

    /// Converts the switching energy `sig` has accrued since its last
    /// fold into scope energy and rebases the counter. Must run before
    /// anything changes the signal's per-toggle energy or resets its
    /// toggle counter, so already-earned energy keeps the rate it was
    /// earned at.
    fn fold_signal_energy(&mut self, sig: SignalId) {
        let st = &mut self.kernel.signals[sig.index()];
        let unfolded = st.toggles - st.toggles_energy_base;
        if unfolded != 0 {
            self.kernel.scope_energy_fj[st.scope.0 as usize] +=
                unfolded as f64 * st.energy_per_toggle_fj;
        }
        st.toggles_energy_base = st.toggles;
    }

    /// Full metadata and statistics for a signal.
    pub fn signal_info(&self, sig: SignalId) -> SignalInfo {
        let s = &self.kernel.signals[sig.index()];
        let scope_path = self.scopes.path(s.scope);
        let path = if scope_path.as_str().is_empty() {
            s.name.clone()
        } else {
            format!("{}.{}", scope_path, s.name)
        };
        SignalInfo {
            name: s.name.clone(),
            path,
            width: s.width,
            value: s.value,
            toggles: s.toggles,
            last_change: s.last_change,
            energy_per_toggle_fj: s.energy_per_toggle_fj,
        }
    }

    /// Looks a signal up by its full hierarchical path.
    pub fn signal_by_path(&self, path: &str) -> Option<SignalId> {
        (0..self.kernel.signals.len())
            .map(|i| SignalId(i as u32))
            .find(|&id| self.signal_info(id).path == path)
    }

    /// Iterates over all signal ids.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.kernel.signals.len() as u32).map(SignalId)
    }

    /// Sets the energy charged per bit toggle of `sig`, in femtojoules.
    /// Called by the technology annotator after netlist construction.
    pub fn set_signal_energy(&mut self, sig: SignalId, fj_per_toggle: f64) {
        self.fold_signal_energy(sig);
        self.kernel.signals[sig.index()].energy_per_toggle_fj = fj_per_toggle;
    }

    /// Adds to the energy charged per bit toggle of `sig` (e.g. extra
    /// wire load discovered after the driving cell was created).
    pub fn add_signal_energy(&mut self, sig: SignalId, fj_per_toggle: f64) {
        self.fold_signal_energy(sig);
        self.kernel.signals[sig.index()].energy_per_toggle_fj += fj_per_toggle;
    }

    /// Switching + internal energy accumulated per scope since the last
    /// [`Simulator::reset_energy`], rolled up into an [`EnergyReport`].
    pub fn energy_report(&self) -> EnergyReport {
        let energies = self.scope_energies_fj();
        let per_scope: Vec<ScopeEnergy> = energies
            .into_iter()
            .enumerate()
            .map(|(i, energy_fj)| ScopeEnergy {
                path: self.scopes.path(ScopeId(i as u32)).as_str().to_string(),
                energy_fj,
            })
            .collect();
        EnergyReport { scopes: per_scope, sim_time: self.kernel.now }
    }

    /// Energy (femtojoules) of a scope subtree selected by path prefix.
    pub fn subtree_energy_fj(&self, prefix: &str) -> f64 {
        let energies = self.scope_energies_fj();
        self.scopes.subtree(prefix).into_iter().map(|s| energies[s.0 as usize]).sum()
    }

    /// Clears all accumulated energy (e.g. after a warm-up phase, so a
    /// measurement window starts from zero).
    pub fn reset_energy(&mut self) {
        for e in &mut self.kernel.scope_energy_fj {
            *e = 0.0;
        }
        for s in &mut self.kernel.signals {
            s.toggles_energy_base = s.toggles;
        }
    }

    /// Clears all per-signal toggle counters (energy already earned by
    /// those toggles is preserved).
    pub fn reset_toggles(&mut self) {
        for id in 0..self.kernel.signals.len() as u32 {
            self.fold_signal_energy(SignalId(id));
        }
        for s in &mut self.kernel.signals {
            s.toggles = 0;
            s.toggles_energy_base = 0;
        }
    }

    /// Installs a transition-trace sink: every committed signal change
    /// from now on is reported to it as a
    /// [`TraceRecord`](crate::trace::TraceRecord). The sink's
    /// [`install`](TraceSink::install) hook receives the current
    /// signal table, so call this *after* netlist construction.
    /// Replaces any previously installed sink.
    pub fn set_trace_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        sink.install(&self.trace_signal_metas());
        self.kernel.trace = Some(sink);
    }

    /// Removes and returns the installed trace sink, restoring the
    /// zero-overhead untraced commit path.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.kernel.trace.take()
    }

    /// The installed trace sink, if any.
    pub fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.kernel.trace.as_deref()
    }

    /// The signal table as trace metadata, indexed by
    /// [`SignalId::index`]: full path, width and per-toggle switching
    /// energy of every signal.
    pub fn trace_signal_metas(&self) -> Vec<TraceSignalMeta> {
        (0..self.kernel.signals.len() as u32)
            .map(|i| {
                let s = &self.kernel.signals[i as usize];
                let scope_path = self.scopes.path(s.scope);
                let path = if scope_path.as_str().is_empty() {
                    s.name.clone()
                } else {
                    format!("{}.{}", scope_path, s.name)
                };
                TraceSignalMeta {
                    path,
                    width: s.width,
                    energy_per_toggle_fj: s.energy_per_toggle_fj,
                }
            })
            .collect()
    }

    /// Kernel profiling counters: events/commits/wakes processed,
    /// event-queue occupancy, and wall-clock time spent simulating.
    /// Counter updates are plain integer increments on already-touched
    /// cache lines, so the hot path stays branch-predictable.
    pub fn profile(&self) -> SimProfile {
        SimProfile {
            events: self.events_processed,
            commits: self.kernel.commits,
            wakes: self.wakes,
            deltas: self.deltas,
            queue_peak: self.queue_peak,
            queue_mean: if self.queue_samples == 0 {
                0.0
            } else {
                self.queue_depth_sum as f64 / self.queue_samples as f64
            },
            wall: self.wall,
            sim_time: self.kernel.now,
            cones_built: self.compiled.as_ref().map_or(0, |c| c.cones_built),
            cone_evals: self.compiled.as_ref().map_or(0, |c| c.cone_evals),
            events_avoided: self.compiled.as_ref().map_or(0, |c| c.events_avoided),
            lanes_active: self.lanes_active,
            scalar_fallbacks: self.scalar_fallbacks,
        }
    }

    // ------------------------------------------------------------------
    // Fault injection & deadlock watchdog
    // ------------------------------------------------------------------

    /// Resolves a [`FaultPlan`] against this netlist and installs it.
    /// Call once, after construction and before running. An empty plan
    /// installs nothing — the run stays bit-identical to a plan-free
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownFaultTarget`] if a stuck-at or
    /// glitch names a signal path that does not exist.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> SimResult<()> {
        if plan.is_empty() {
            return Ok(());
        }
        let nsig = self.kernel.signals.len();
        let ncomp = self.comps.len();
        let mut comp_scale = vec![1.0f64; ncomp];
        if plan.delay_scale != 1.0 || plan.delay_sigma > 0.0 {
            for (c, scale) in comp_scale.iter_mut().enumerate() {
                let path = self.scopes.path_str(self.kernel.comp_scopes[c]);
                if plan.scope_matches(path) {
                    *scale = plan.sample_scale(c);
                }
            }
        }
        let mut extra_delay_fs = vec![0u64; nsig];
        if !plan.skews.is_empty() {
            for (i, extra) in extra_delay_fs.iter_mut().enumerate() {
                let path = self.signal_info(SignalId(i as u32)).path;
                for rule in &plan.skews {
                    if path.contains(rule.substring.as_str()) {
                        *extra += rule.extra.as_fs();
                    }
                }
            }
        }
        let mut setup_check = vec![false; ncomp];
        if plan.setup_check {
            for (c, flag) in setup_check.iter_mut().enumerate() {
                let path = self.scopes.path_str(self.kernel.comp_scopes[c]);
                *flag = plan.scope_matches(path);
            }
        }
        let mut stuck_from = vec![Time::MAX; nsig];
        let mut actions = Vec::new();
        for s in &plan.stuck {
            let sig = self
                .signal_by_path(&s.path)
                .ok_or_else(|| SimError::UnknownFaultTarget { path: s.path.clone() })?;
            stuck_from[sig.index()] = s.from;
            let width = self.kernel.signals[sig.index()].width;
            let value = if s.value { Value::ones(width) } else { Value::zero(width) };
            let idx = actions.len() as u32;
            actions.push(FaultAction::Force { signal: sig, value });
            self.kernel.queue.push(s.from, EventKind::Fault { action: idx });
        }
        for g in &plan.glitches {
            let sig = self
                .signal_by_path(&g.path)
                .ok_or_else(|| SimError::UnknownFaultTarget { path: g.path.clone() })?;
            let width = self.kernel.signals[sig.index()].width;
            let lane_mask = Value::width_mask(width);
            let idx = actions.len() as u32;
            actions.push(FaultAction::Glitch {
                signal: sig,
                mask: g.mask & lane_mask,
                width: g.width,
            });
            self.kernel.queue.push(g.at, EventKind::Fault { action: idx });
        }
        self.kernel.fault = Some(Box::new(FaultState {
            comp_scale,
            extra_delay_fs,
            stuck_from,
            setup_check,
            actions,
        }));
        Ok(())
    }

    /// Registers a req/ack (or VALID/ack) pair for deadlock diagnosis.
    /// A four-phase handshake at rest has both wires at the same
    /// level; [`Simulator::deadlock_report`] flags registered pairs
    /// whose levels disagree.
    pub fn watch_handshake(&mut self, label: &str, req: SignalId, ack: SignalId) {
        self.watches.push(HandshakeWatch { label: label.to_string(), req, ack, nack: None });
    }

    /// Registers a req/ack pair whose request can also be answered by
    /// a negative acknowledge (`nack`), as in a protected link where a
    /// failed integrity check demands a retransmission instead of the
    /// word acknowledge. The triple is carried into the
    /// [`crate::NetGraph`] snapshot so static analysis can check that
    /// the NACK wire genuinely answers the request.
    pub fn watch_handshake_nack(
        &mut self,
        label: &str,
        req: SignalId,
        ack: SignalId,
        nack: SignalId,
    ) {
        self.watches.push(HandshakeWatch { label: label.to_string(), req, ack, nack: Some(nack) });
    }

    /// The registered handshake pairs as `(label, req, ack)`, in
    /// registration order. Lets trace consumers compute per-handshake
    /// latency statistics without re-deriving the pairing.
    pub fn handshake_watches(&self) -> impl Iterator<Item = (&str, SignalId, SignalId)> + '_ {
        self.watches.iter().map(|w| (w.label.as_str(), w.req, w.ack))
    }

    /// Inspects every registered handshake and reports the stalled
    /// ones — pairs whose req and ack levels disagree, meaning one
    /// side is waiting for a transition that never arrived. Returns
    /// `None` when nothing is stalled (or nothing was registered).
    ///
    /// Call when a run goes quiet with work outstanding: after a
    /// drained queue, an expired wall budget, or an event-limit trip
    /// (the kernel attaches this report to
    /// [`SimError::EventLimitExceeded`] automatically).
    pub fn deadlock_report(&self) -> Option<DeadlockReport> {
        let mut stalled = Vec::new();
        for w in &self.watches {
            let req = &self.kernel.signals[w.req.index()];
            let ack = &self.kernel.signals[w.ack.index()];
            if req.value.as_logic() == ack.value.as_logic() {
                continue;
            }
            // The waiting parties are whoever listens on either wire.
            let mut waiting: Vec<String> = Vec::new();
            for &comp in req.fanout.iter().chain(ack.fanout.iter()) {
                let name = &self.comp_names[comp.index()];
                if !waiting.iter().any(|n| n == name) {
                    waiting.push(name.clone());
                }
            }
            stalled.push(StalledHandshake {
                label: w.label.clone(),
                req_path: self.signal_info(w.req).path,
                ack_path: self.signal_info(w.ack).path,
                req_value: req.value,
                ack_value: ack.value,
                req_last_change: req.last_change,
                ack_last_change: ack.last_change,
                waiting,
            });
        }
        if stalled.is_empty() {
            None
        } else {
            Some(DeadlockReport { at: self.kernel.now, stalled })
        }
    }

    /// Force-commits `value` onto a signal outside the normal driver
    /// path: bumps the drive epoch (cancelling any in-flight inertial
    /// drive), updates toggles/trace exactly like a committed drive,
    /// and queues the fanout for evaluation.
    fn force_signal(&mut self, signal: SignalId, value: Value) {
        let kernel = &mut self.kernel;
        let st = &mut kernel.signals[signal.index()];
        let was_pending = st.pending;
        st.drive_epoch += 1;
        st.pending = false;
        if st.value == value {
            // No commit. A force that cancelled an in-flight drive
            // still reaches the sliced pass; a missed injection is
            // caught by the pass's expected-force sweep.
            if was_pending && kernel.sliced.is_some() {
                kernel.slice_silent_force(signal);
            }
            return;
        }
        let toggles = st.value.toggles_to(&value);
        st.toggles += toggles as u64;
        let old = st.value;
        st.value = value;
        st.last_change = kernel.now;
        kernel.commits += 1;
        if let Some(c) = &mut self.compiled {
            c.values[signal.index()] = value;
        }
        if let Some(sink) = &mut kernel.trace {
            sink.record(&TraceRecord { time: kernel.now, signal, old, new: value });
        }
        if kernel.sliced.is_some() {
            let now = kernel.now;
            kernel.slice_commit(now, signal, &old, &value, Some(was_pending));
        }
        let st = &self.kernel.signals[signal.index()];
        self.pending_evals.extend_from_slice(&st.fanout);
    }

    /// Executes one scheduled fault action (the `Fault` event arm).
    fn run_fault_action(&mut self, idx: u32) {
        let Some(fault) = self.kernel.fault.as_ref() else {
            return;
        };
        match fault.actions[idx as usize].clone() {
            FaultAction::Force { signal, value } => self.force_signal(signal, value),
            FaultAction::Glitch { signal, mask, width } => {
                let st = &self.kernel.signals[signal.index()];
                let old = st.value;
                let flipped = old.xor(&Value::from_u64(st.width, mask));
                // Schedule the restore before flipping, so a glitch of
                // width zero still resolves in deterministic order.
                let fault = self.kernel.fault.as_mut().expect("checked above");
                let restore = fault.actions.len() as u32;
                fault.actions.push(FaultAction::Force { signal, value: old });
                let t = self.kernel.now + width;
                self.kernel.queue.push(t, EventKind::Fault { action: restore });
                self.force_signal(signal, flipped);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs until the event queue is exhausted or simulated time would
    /// pass `horizon`. Events *at* the horizon are processed. Returns
    /// the final simulation time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the configured event
    /// budget is exhausted (runaway oscillation).
    pub fn run_until(&mut self, horizon: Time) -> SimResult<Time> {
        let wall_start = std::time::Instant::now();
        let mut processed: u64 = 0;
        loop {
            // Merge the compiled engine's calendar with the global
            // queue, *calendar first at drive ties*: a compiled drive
            // committing at the same femtosecond as a queued drive
            // must share the latter's delta batch, so both land before
            // any fanout evaluates — matching the interpreted kernel
            // where they would have shared one delta (the
            // data-beats-trigger side of bundled data). A *non-drive*
            // tie (wake or fault, scheduled long ago with an earlier
            // seq) instead yields to the queue: the interpreted loop
            // runs it as its own delta before the drive batch, and the
            // calendar must not commit past it.
            let take_calendar = match self.compiled.as_ref().and_then(Compiled::peek_time) {
                Some(ct) if ct <= horizon => match self.kernel.queue.peek_time() {
                    None => true,
                    Some(qt) => ct < qt || (ct == qt && self.kernel.queue.due_is_drive(qt)),
                },
                _ => false,
            };
            if take_calendar {
                // The batch does its own per-delta accounting
                // (deltas, queue sampling); only the event budget is
                // settled out here.
                let cap = self.max_events.saturating_sub(processed).saturating_add(1);
                processed += self.step_calendar_batch(horizon, cap);
                if processed > self.max_events {
                    self.events_processed += processed;
                    self.wall += wall_start.elapsed();
                    return Err(SimError::EventLimitExceeded {
                        at: self.kernel.now,
                        limit: self.max_events,
                        diagnosis: self.deadlock_report().map(Box::new),
                    });
                }
                continue;
            }
            let consumed = if let Some(ev) = self.kernel.queue.pop_at_or_before(horizon) {
                self.step_delta(ev)
            } else {
                break;
            };
            // Profiling: sample queue occupancy once every 64 deltas.
            // Singleton-delta workloads (free-running oscillators) pop
            // millions of one-event deltas, so the steady-state loop
            // must pay a single increment-and-mask here, not a queue
            // walk; the subsampled mean/peak stay representative.
            self.deltas += 1;
            if self.deltas & 0x3F == 0 {
                let depth = self.kernel.queue.len();
                self.queue_samples += 1;
                self.queue_depth_sum += depth as u64;
                if depth > self.queue_peak {
                    self.queue_peak = depth;
                }
            }
            processed += consumed;
            if processed > self.max_events {
                self.events_processed += processed;
                self.wall += wall_start.elapsed();
                return Err(SimError::EventLimitExceeded {
                    at: self.kernel.now,
                    limit: self.max_events,
                    diagnosis: self.deadlock_report().map(Box::new),
                });
            }
        }
        self.events_processed += processed;
        self.wall += wall_start.elapsed();
        // Advance to the horizon even if the queue went quiet earlier.
        if self.kernel.now < horizon {
            self.kernel.now = horizon;
        }
        Ok(self.kernel.now)
    }

    /// Runs for `span` beyond the current time.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_until`].
    pub fn run_for(&mut self, span: Time) -> SimResult<Time> {
        let horizon = self.kernel.now + span;
        self.run_until(horizon)
    }

    /// Runs until no events remain (only sensible for circuits without
    /// free-running sources such as clocks or ring oscillators).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_until`].
    pub fn run_to_quiescence(&mut self) -> SimResult<Time> {
        self.run_until(Time::MAX)
    }

    /// Processes one delta: a single wake, or a maximal run of
    /// consecutive same-timestamp drive commits followed by exactly
    /// one evaluation of every component in their combined fanout.
    /// Returns the number of events consumed.
    ///
    /// Batching the commits first and deduplicating the evaluations
    /// matches HDL delta-cycle semantics — a process fed by several
    /// signals that change in the same delta runs once, seeing all of
    /// them at their new values — and removes both the per-commit
    /// fanout clone and the redundant re-evaluations from the hot
    /// loop. The scratch buffer and stamps make the steady state
    /// allocation-free.
    fn step_delta(&mut self, ev: crate::event::Event) -> u64 {
        self.kernel.now = ev.time;
        let mut consumed = 1;
        match ev.kind {
            EventKind::Wake { comp } => {
                self.wakes += 1;
                self.eval(comp, true);
            }
            EventKind::Fault { action } => {
                debug_assert!(self.pending_evals.is_empty());
                self.run_fault_action(action);
                let mut i = 0;
                while i < self.pending_evals.len() {
                    let comp = self.pending_evals[i];
                    i += 1;
                    self.eval(comp, false);
                }
                self.pending_evals.clear();
            }
            EventKind::Drive { .. } => {
                debug_assert!(self.pending_evals.is_empty());
                // Probe for a same-time burst *before* committing —
                // commits never touch the queue, so holding the second
                // event is safe. Knowing the delta is a singleton (the
                // overwhelming majority of gate-level activity) lets
                // the fanout walk skip the dedup stamps: a component
                // appears at most once in a single signal's fanout.
                match self.kernel.queue.pop_drive_at(self.kernel.now) {
                    None => self.commit_drive_lone(ev),
                    Some(second) => {
                        consumed += 1;
                        let delta = self.delta_seq;
                        self.delta_seq += 1;
                        self.commit_drive(ev, delta);
                        let mut next = Some(second);
                        while let Some(cur) = next {
                            self.commit_drive(cur, delta);
                            next = self.kernel.queue.pop_drive_at(self.kernel.now);
                            if next.is_some() {
                                consumed += 1;
                            }
                        }
                    }
                }
                // Index loop rather than iterator: `eval` needs `&mut
                // self`, and nothing reachable from a component can
                // touch `pending_evals` (components only see the
                // kernel through their `Ctx`), so the list is stable
                // during the drain.
                let mut i = 0;
                while i < self.pending_evals.len() {
                    let comp = self.pending_evals[i];
                    i += 1;
                    self.eval(comp, false);
                }
                self.pending_evals.clear();
            }
        }
        consumed
    }

    /// Processes a maximal run of compiled-calendar deltas: at each
    /// delta, commits every calendar entry due at the earliest
    /// calendar timestamp, then evaluates each component in the
    /// combined fanout once. The commit path is the same core as
    /// queued drives ([`Simulator::commit_signal`]) — epoch-validated,
    /// inertial, toggle- and trace-accounted — only the scheduling
    /// container differs. Returns the number of calendar entries
    /// consumed (they count against the event budget exactly like
    /// queued events: every push is matched by one pop in both
    /// engines, so the `events` profile counter stays comparable
    /// across modes).
    ///
    /// The batch keeps going while the next calendar timestamp stays
    /// at or ahead of the global queue's — the same calendar-first
    /// merge rule as [`Simulator::run_until`], hoisted into a tight
    /// loop. Compiled evaluations only ever touch the calendar, so
    /// the queue bound is a loop invariant that needs refreshing only
    /// after a *dynamic* evaluation (a state cell, monitor or
    /// environment model in a compiled signal's fanout), the one step
    /// that can push global events. Stops once `cap` entries have
    /// been consumed so a runaway netlist still trips the caller's
    /// event budget.
    fn step_calendar_batch(&mut self, horizon: Time, cap: u64) -> u64 {
        let mut consumed: u64 = 0;
        let mut queue_bound = self.kernel.queue.peek_time();
        let mut queue_len = self.kernel.queue.len();
        while consumed < cap {
            let Some(t) = self.compiled.as_ref().and_then(Compiled::peek_time) else {
                break;
            };
            if t > horizon || queue_bound.is_some_and(|qt| t > qt) {
                break;
            }
            // Same tie-break as `run_until`: a queued non-drive due at
            // `t` precedes the calendar's commits (its seq is older),
            // so the batch hands control back for that delta.
            if queue_bound == Some(t) && !self.kernel.queue.due_is_drive(t) {
                break;
            }
            self.kernel.now = t;
            debug_assert!(self.pending_evals.is_empty());
            let entry = self
                .compiled
                .as_mut()
                .expect("peeked above")
                .pop_at(t)
                .expect("front entry is at t");
            consumed += 1;
            // A queued drive due at this same femtosecond (a dynamic
            // cell's in-flight commit) must join this delta: in the
            // interpreted kernel it would have shared one batch with
            // the calendar commits and landed before any fanout ran.
            // Leaving it buried would let the fanout evaluation below
            // re-drive the cell against the stale value, inertially
            // cancelling a commit that was already due *now*.
            let queued_drive = self.kernel.queue.pop_leading_drive_at(t);
            if queued_drive.is_some()
                || self.compiled.as_ref().expect("active").peek_time() == Some(t)
            {
                // Several commits share this timestamp: batch them
                // under one delta with stamp-deduplicated fanout.
                let delta = self.delta_seq;
                self.delta_seq += 1;
                self.commit_signal(t, entry.signal, entry.epoch, delta);
                while let Some(e) =
                    self.compiled.as_mut().expect("active").pop_at(t)
                {
                    consumed += 1;
                    self.commit_signal(t, e.signal, e.epoch, delta);
                }
                let mut qd = queued_drive;
                while let Some(ev) = qd {
                    consumed += 1;
                    self.commit_drive(ev, delta);
                    qd = self.kernel.queue.pop_leading_drive_at(t);
                }
                let mut i = 0;
                while i < self.pending_evals.len() {
                    let comp = self.pending_evals[i];
                    i += 1;
                    self.eval(comp, false);
                }
                self.pending_evals.clear();
            } else {
                // Singleton delta — the overwhelming majority — skips
                // the dedup stamps like `commit_drive_lone`.
                self.commit_calendar_lone(t, entry);
            }
            // Per-delta profiling, same cadence as the queue path.
            self.deltas += 1;
            if self.deltas & 0x3F == 0 {
                let depth = self.kernel.queue.len();
                self.queue_samples += 1;
                self.queue_depth_sum += depth as u64;
                if depth > self.queue_peak {
                    self.queue_peak = depth;
                }
            }
            // Compiled evaluations only touch the calendar; the queue
            // bound can only move when a dynamic evaluation pushed a
            // global event, which is visible as a queue growth.
            let len_now = self.kernel.queue.len();
            if len_now != queue_len {
                queue_len = len_now;
                queue_bound = self.kernel.queue.peek_time();
            }
        }
        consumed
    }

    /// [`Simulator::step_calendar_batch`]'s singleton-delta commit:
    /// the calendar analogue of [`Simulator::commit_drive_lone`] —
    /// with a single committed signal the dedup stamps cannot reject
    /// anything, so the fanout is evaluated directly.
    fn commit_calendar_lone(&mut self, time: Time, entry: crate::compile::CalEntry) {
        let kernel = &mut self.kernel;
        let st = &mut kernel.signals[entry.signal.index()];
        if entry.epoch != st.drive_epoch {
            return; // superseded (inertial cancellation)
        }
        st.pending = false;
        let value = st.pending_value;
        if st.value == value {
            return;
        }
        let toggles = st.value.toggles_to(&value);
        st.toggles += toggles as u64;
        let old = st.value;
        st.value = value;
        st.last_change = time;
        kernel.commits += 1;
        if let Some(c) = &mut self.compiled {
            c.values[entry.signal.index()] = value;
        }
        if let Some(sink) = &mut kernel.trace {
            sink.record(&TraceRecord { time, signal: entry.signal, old, new: value });
        }
        // The sliced hook must run before fanout evaluation: the
        // lane-parallel evaluators read this commit's planes.
        if let &[comp] = st.fanout.as_slice() {
            if self.kernel.sliced.is_some() {
                self.kernel.slice_commit(time, entry.signal, &old, &value, None);
            }
            self.eval(comp, false);
        } else {
            debug_assert!(self.pending_evals.is_empty());
            self.pending_evals.extend_from_slice(&st.fanout);
            if self.kernel.sliced.is_some() {
                self.kernel.slice_commit(time, entry.signal, &old, &value, None);
            }
            let mut i = 0;
            while i < self.pending_evals.len() {
                let comp = self.pending_evals[i];
                i += 1;
                self.eval(comp, false);
            }
            self.pending_evals.clear();
        }
    }

    /// Applies one drive event: commits the value change (toggles,
    /// energy, trace) and queues the signal's fanout for evaluation,
    /// skipping components already queued in this delta.
    fn commit_drive(&mut self, ev: crate::event::Event, delta: u64) {
        let EventKind::Drive { signal, epoch } = ev.kind else {
            unreachable!("commit_drive on non-drive event");
        };
        self.commit_signal(ev.time, signal, epoch, delta);
    }

    /// The shared commit core behind queued drives and compiled
    /// calendar entries: epoch-validate, commit the pending value,
    /// account toggles and trace, stamp-dedup the fanout into the
    /// pending-evaluation list.
    fn commit_signal(&mut self, time: Time, signal: SignalId, epoch: u64, delta: u64) {
        let kernel = &mut self.kernel;
        let st = &mut kernel.signals[signal.index()];
        if epoch != st.drive_epoch {
            return; // superseded (inertial cancellation)
        }
        st.pending = false;
        // The event matched the signal's current drive epoch, so the
        // value it was scheduled with is exactly `pending_value`.
        let value = st.pending_value;
        if st.value == value {
            return;
        }
        let toggles = st.value.toggles_to(&value);
        st.toggles += toggles as u64;
        let old = st.value;
        st.value = value;
        st.last_change = time;
        kernel.commits += 1;
        if let Some(c) = &mut self.compiled {
            c.values[signal.index()] = value;
        }
        // Switching energy is *not* accumulated here: it is derived
        // lazily from the toggle counter (see `scope_energies_fj`),
        // keeping f64 traffic off the commit hot path.
        if let Some(sink) = &mut kernel.trace {
            sink.record(&TraceRecord { time, signal, old, new: value });
        }
        for &comp in &st.fanout {
            let stamp = &mut kernel.comp_stamp[comp.index()];
            if *stamp != delta {
                *stamp = delta;
                self.pending_evals.push(comp);
            }
        }
        // Fanout evaluation happens after every commit of this delta,
        // so the planes are in place before any evaluator reads them.
        if self.kernel.sliced.is_some() {
            self.kernel.slice_commit(time, signal, &old, &value, None);
        }
    }

    /// [`Simulator::commit_drive`] specialised for a singleton delta
    /// (no other commit at this timestamp): with a single committed
    /// signal the dedup stamps cannot reject anything — a component
    /// appears at most once in one signal's fanout — so the fanout is
    /// either evaluated directly (the ubiquitous single-listener wire)
    /// or bulk-copied into the scratch list.
    fn commit_drive_lone(&mut self, ev: crate::event::Event) {
        let EventKind::Drive { signal, epoch } = ev.kind else {
            unreachable!("commit_drive on non-drive event");
        };
        let kernel = &mut self.kernel;
        let st = &mut kernel.signals[signal.index()];
        if epoch != st.drive_epoch {
            return; // superseded (inertial cancellation)
        }
        st.pending = false;
        // The event matched the signal's current drive epoch, so the
        // value it was scheduled with is exactly `pending_value`.
        let value = st.pending_value;
        if st.value == value {
            return;
        }
        let toggles = st.value.toggles_to(&value);
        st.toggles += toggles as u64;
        let old = st.value;
        st.value = value;
        st.last_change = ev.time;
        kernel.commits += 1;
        if let Some(c) = &mut self.compiled {
            c.values[signal.index()] = value;
        }
        if let Some(sink) = &mut kernel.trace {
            sink.record(&TraceRecord { time: ev.time, signal, old, new: value });
        }
        if let &[comp] = st.fanout.as_slice() {
            // Sliced hook before evaluation: the lane-parallel
            // evaluator reads this commit's planes.
            if self.kernel.sliced.is_some() {
                self.kernel.slice_commit(ev.time, signal, &old, &value, None);
            }
            self.eval(comp, false);
        } else {
            self.pending_evals.extend_from_slice(&st.fanout);
            if self.kernel.sliced.is_some() {
                self.kernel.slice_commit(ev.time, signal, &old, &value, None);
            }
        }
    }

    fn eval(&mut self, comp: ComponentId, wake: bool) {
        // Compiled components short-circuit the dynamic dispatch:
        // their spec is evaluated directly and the resulting drive
        // lands on the compiled calendar, not the global queue. (A
        // compiled cell never schedules wakes, so the wake path cannot
        // reach a member.)
        if !wake {
            if let Some(compiled) = &self.compiled {
                if compiled.is_member(comp) {
                    self.eval_compiled(comp);
                    return;
                }
            }
        }
        // `comps` and `kernel` are disjoint fields, and a component
        // only sees the kernel through its `Ctx` — it can never reach
        // back into the component list — so the component can be
        // called in place, with no take/put of its box.
        let boxed = &mut self.comps[comp.index()];
        let mut ctx = Ctx { kernel: &mut self.kernel, comp };
        if wake {
            boxed.on_wake(&mut ctx);
        } else {
            boxed.on_input(&mut ctx);
        }
    }

    /// Evaluates a compiled combinational component: computes the spec
    /// over the committed input values and applies the *identical*
    /// inertial-drive protocol as [`Ctx::drive`] — fault transform,
    /// no-op skip rules, epoch bump — except the in-flight drive is
    /// scheduled on the compiled calendar instead of the global queue.
    fn eval_compiled(&mut self, comp: ComponentId) {
        let compiled = self.compiled.as_mut().expect("caller checked membership");
        compiled.cone_evals += 1;
        let node = compiled.node(comp);
        let value = node.eval(&compiled.values, compiled.pool());
        let out = node.out;
        // Lane twin: advance every campaign lane through the same
        // function the carrier just evaluated. The inertial skip rules
        // below double as the per-lane divergence probes.
        let mut plane = self
            .kernel
            .sliced
            .as_ref()
            .map(|sl| node.eval_lanes(|s| sl.read_plane(s, &compiled.values), compiled.pool()));
        let kernel = &mut self.kernel;
        // Fault hook, identical to `Ctx::drive`: perturb the delay or
        // discard the drive entirely (stuck-at target).
        let delay = match &kernel.fault {
            None => node.delay,
            Some(fault) => match fault.transform(comp, out, kernel.now, node.delay) {
                Some(d) => d,
                None => return,
            },
        };
        let state = &mut kernel.signals[out.index()];
        debug_assert_eq!(
            state.driver,
            Some(comp),
            "compiled component {:?} drove signal '{}' without being its registered driver",
            comp,
            state.name
        );
        debug_assert_eq!(
            state.width,
            value.width(),
            "signal '{}' has width {} but was driven with width {}",
            state.name,
            state.width,
            value.width()
        );
        // The inertial no-op skip rules of `Ctx::drive`, verbatim.
        // When a sliced pass is active, each skip doubles as a probe:
        // lanes whose lane-parallel result differs from what the
        // carrier compared against would *not* have skipped in their
        // scalar run, and diverge.
        if state.pending {
            if state.pending_value == value {
                if let (Some(sl), Some(p)) = (kernel.sliced.as_mut(), &plane) {
                    sl.note_skip(out, p, true, &state.pending_value);
                }
                return;
            }
        } else if state.value == value {
            if let (Some(sl), Some(p)) = (kernel.sliced.as_mut(), &plane) {
                sl.note_skip(out, p, false, &state.value);
            }
            return;
        }
        if let Some(sl) = kernel.sliced.as_mut() {
            let superseded = if state.pending { Some(state.pending_value) } else { None };
            sl.note_drive(out, plane.take().expect("sliced pass computes planes"), superseded.as_ref());
        }
        state.drive_epoch += 1;
        state.pending = true;
        state.pending_value = value;
        let epoch = state.drive_epoch;
        let t = kernel.now + delay;
        compiled.push(t, out, epoch);
    }
}

/// Drives a fixed schedule of values onto one signal.
///
/// After the initial wake the stimulus is self-chaining: it sits in
/// its own signal's fanout, and each commit of an entry triggers the
/// delayed drive of the next one. A timer wake is only needed to hop
/// over entries that repeat the current value (their drive is a no-op
/// and produces no commit to chain from).
struct Stimulus {
    sig: SignalId,
    schedule: Vec<(Time, Value)>,
    next: usize,
    /// Value of the latest drive issued (committed or in flight); the
    /// signal itself starts all-X.
    cur: Value,
}

impl Stimulus {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Commit everything due now with zero delay. Several entries
        // at the same timestamp supersede each other through the
        // inertial epoch, so the last one wins, as before.
        let mut issued = false;
        while self.next < self.schedule.len() && self.schedule[self.next].0 <= now {
            let (_, v) = self.schedule[self.next];
            self.next += 1;
            if v != self.cur {
                ctx.drive(self.sig, v, Time::ZERO);
                self.cur = v;
                issued = true;
            }
        }
        if issued {
            // The zero-delay commit calls `on_input`, continuing the
            // chain at this same timestamp.
            return;
        }
        let Some(&(t, v)) = self.schedule.get(self.next) else {
            return;
        };
        if v != self.cur {
            ctx.drive(self.sig, v, t - now);
            self.cur = v;
            self.next += 1;
        } else {
            ctx.wake_after(t - now);
        }
    }
}

impl Component for Stimulus {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx);
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx);
    }
}

/// Calls a closure after each commit of a watched signal.
struct MonitorComp {
    sig: SignalId,
    callback: Box<dyn FnMut(Time, Value)>,
}

impl Component for MonitorComp {
    fn on_input(&mut self, ctx: &mut Ctx<'_>) {
        let v = ctx.read(self.sig);
        (self.callback)(ctx.now(), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Not {
        a: SignalId,
        y: SignalId,
        delay: Time,
    }

    impl Component for Not {
        fn on_input(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.read(self.a).not();
            ctx.drive(self.y, v, self.delay);
        }
    }

    fn inverter(sim: &mut Simulator, a: SignalId, delay: Time) -> SignalId {
        let y = sim.add_signal("y", 1);
        let id = sim.add_component("not", Not { a, y, delay }, &[a]);
        sim.connect_driver(id, y).unwrap();
        y
    }

    #[test]
    fn stimulus_and_gate_propagation() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = inverter(&mut sim, a, Time::from_ps(10));
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
        sim.run_until(Time::from_ps(50)).unwrap();
        assert!(sim.value(y).is_high());
        sim.run_until(Time::from_ps(200)).unwrap();
        assert!(sim.value(y).is_low());
    }

    #[test]
    fn inertial_delay_filters_glitch() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = inverter(&mut sim, a, Time::from_ps(50));
        // 20 ps pulse, shorter than the 50 ps gate delay: must vanish.
        sim.stimulus(
            a,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ps(200), Value::one(1)),
                (Time::from_ps(220), Value::zero(1)),
            ],
        );
        sim.run_to_quiescence().unwrap();
        assert!(sim.value(y).is_high());
        // One transition X->1 only; the glitch never reached y.
        assert_eq!(sim.toggles(y), 1);
    }

    #[test]
    fn toggle_and_energy_accounting() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 8);
        sim.set_signal_energy(a, 2.0);
        sim.stimulus(
            a,
            &[
                (Time::ZERO, Value::from_u64(8, 0x00)),
                (Time::from_ps(10), Value::from_u64(8, 0xFF)),
                (Time::from_ps(20), Value::from_u64(8, 0x0F)),
            ],
        );
        sim.run_to_quiescence().unwrap();
        // X->00 is 8 toggles, 00->FF is 8, FF->0F is 4.
        assert_eq!(sim.toggles(a), 20);
        let e = sim.subtree_energy_fj("");
        assert!((e - 40.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_sees_commits_in_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 4);
        sim.monitor("mon", a, move |t, v| {
            seen2.borrow_mut().push((t, v.to_u64().unwrap()));
        });
        sim.stimulus(
            a,
            &[
                (Time::from_ps(5), Value::from_u64(4, 1)),
                (Time::from_ps(15), Value::from_u64(4, 2)),
            ],
        );
        sim.run_to_quiescence().unwrap();
        assert_eq!(
            &*seen.borrow(),
            &[(Time::from_ps(5), 1), (Time::from_ps(15), 2)]
        );
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = sim.add_signal("y", 1);
        let c1 = sim.add_component("n1", Not { a, y, delay: Time::from_ps(1) }, &[a]);
        let c2 = sim.add_component("n2", Not { a, y, delay: Time::from_ps(1) }, &[a]);
        sim.connect_driver(c1, y).unwrap();
        let err = sim.connect_driver(c2, y).unwrap_err();
        assert!(matches!(err, SimError::MultipleDrivers { .. }));
    }

    #[test]
    fn run_until_advances_time_even_when_quiet() {
        let mut sim = Simulator::new();
        let t = sim.run_until(Time::from_ns(5)).unwrap();
        assert_eq!(t, Time::from_ns(5));
        assert_eq!(sim.now(), Time::from_ns(5));
    }

    #[test]
    fn event_limit_catches_oscillation() {
        // s = or(r, kick); r = not(s). Once kick pulses high and falls
        // back, the loop oscillates forever with 1 ps gate delays.
        let mut sim = Simulator::new();
        sim.set_max_events(1000);
        let kick = sim.add_signal("kick", 1);
        let s = sim.add_signal("s", 1);
        let r = sim.add_signal("r", 1);
        let g1 = sim.add_component("g1", Not { a: s, y: r, delay: Time::from_ps(1) }, &[s]);
        sim.connect_driver(g1, r).unwrap();
        let g2 = sim.add_component("g2", Or { a: r, b: kick, y: s }, &[r, kick]);
        sim.connect_driver(g2, s).unwrap();
        sim.stimulus(
            kick,
            &[(Time::ZERO, Value::one(1)), (Time::from_ps(10), Value::zero(1))],
        );
        let res = sim.run_until(Time::from_ns(100));
        assert!(matches!(res, Err(SimError::EventLimitExceeded { .. })));
    }

    struct Or {
        a: SignalId,
        b: SignalId,
        y: SignalId,
    }
    impl Component for Or {
        fn on_input(&mut self, ctx: &mut Ctx<'_>) {
            let v = ctx.read(self.a).or(&ctx.read(self.b));
            ctx.drive(self.y, v, Time::from_ps(1));
        }
    }

    #[test]
    fn scope_energy_rollup() {
        let mut sim = Simulator::new();
        sim.push_scope("blk");
        let a = sim.add_signal("a", 1);
        sim.set_signal_energy(a, 3.0);
        sim.pop_scope();
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(1), Value::one(1))]);
        sim.run_to_quiescence().unwrap();
        assert!((sim.subtree_energy_fj("blk") - 6.0).abs() < 1e-9);
        assert_eq!(sim.subtree_energy_fj("other"), 0.0);
    }

    #[test]
    fn signal_paths_and_lookup() {
        let mut sim = Simulator::new();
        sim.push_scope("top");
        sim.push_scope("sub");
        let a = sim.add_signal("data", 8);
        sim.pop_scope();
        sim.pop_scope();
        assert_eq!(sim.signal_info(a).path, "top.sub.data");
        assert_eq!(sim.signal_by_path("top.sub.data"), Some(a));
        assert_eq!(sim.signal_by_path("nope"), None);
    }

    #[test]
    fn empty_fault_plan_installs_nothing() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let _y = inverter(&mut sim, a, Time::from_ps(10));
        sim.apply_fault_plan(&FaultPlan::new(123)).unwrap();
        assert!(sim.kernel.fault.is_none());
    }

    #[test]
    fn unknown_fault_target_is_an_error() {
        let mut sim = Simulator::new();
        let _a = sim.add_signal("a", 1);
        let plan = FaultPlan::new(0).stuck_at("no.such.signal", false, Time::ZERO);
        let err = sim.apply_fault_plan(&plan).unwrap_err();
        assert!(matches!(err, SimError::UnknownFaultTarget { .. }));
        assert!(err.to_string().contains("no.such.signal"));
    }

    #[test]
    fn stuck_at_forces_value_and_discards_later_drives() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = inverter(&mut sim, a, Time::from_ps(10));
        sim.stimulus(
            a,
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ns(1), Value::one(1)),
                (Time::from_ns(2), Value::zero(1)),
            ],
        );
        // y would settle high; stick it low from 500 ps instead.
        let plan = FaultPlan::new(0).stuck_at("y", false, Time::from_ps(500));
        sim.apply_fault_plan(&plan).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.value(y).is_low());
        // The input kept moving; the stuck output never followed.
        assert_eq!(sim.value(a), Value::zero(1));
    }

    #[test]
    fn glitch_flips_and_restores() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.monitor("mon", a, move |t, v| {
            seen2.borrow_mut().push((t, v));
        });
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1))]);
        let plan = FaultPlan::new(0).glitch("a", Time::from_ns(5), Time::from_ps(200), 1);
        sim.apply_fault_plan(&plan).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(
            &*seen.borrow(),
            &[
                (Time::ZERO, Value::zero(1)),
                (Time::from_ns(5), Value::one(1)),
                (Time::from_ns(5) + Time::from_ps(200), Value::zero(1)),
            ]
        );
    }

    #[test]
    fn downstream_inertial_delay_filters_short_glitch() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let y = inverter(&mut sim, a, Time::from_ps(50));
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1))]);
        // 20 ps SEU, shorter than the 50 ps gate delay: must vanish.
        let plan = FaultPlan::new(0).glitch("a", Time::from_ns(5), Time::from_ps(20), 1);
        sim.apply_fault_plan(&plan).unwrap();
        sim.run_to_quiescence().unwrap();
        assert!(sim.value(y).is_high());
        assert_eq!(sim.toggles(y), 1); // only the initial X -> 1
    }

    #[test]
    fn delay_scale_slows_gates() {
        let run = |scale: f64| {
            let mut sim = Simulator::new();
            let a = sim.add_signal("a", 1);
            let y = inverter(&mut sim, a, Time::from_ps(100));
            sim.stimulus(a, &[(Time::ZERO, Value::zero(1))]);
            let plan = FaultPlan::new(0).with_delay_scale(scale);
            sim.apply_fault_plan(&plan).unwrap();
            sim.run_to_quiescence().unwrap();
            sim.signal_info(y).last_change
        };
        assert_eq!(run(1.0), Time::from_ps(100));
        assert_eq!(run(4.0), Time::from_ps(400));
    }

    #[test]
    fn skew_adds_extra_delay_on_matching_signals_only() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let data_y = inverter(&mut sim, a, Time::from_ps(100)); // named "y"
        sim.push_scope("req");
        let req_y = inverter(&mut sim, a, Time::from_ps(100)); // "req.y"
        sim.pop_scope();
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1))]);
        let plan = FaultPlan::new(0).skew_matching("req.y", Time::from_ps(300));
        sim.apply_fault_plan(&plan).unwrap();
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.signal_info(data_y).last_change, Time::from_ps(100));
        assert_eq!(sim.signal_info(req_y).last_change, Time::from_ps(400));
    }

    #[test]
    fn sigma_runs_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut sim = Simulator::new();
            let a = sim.add_signal("a", 1);
            let mut y = a;
            for _ in 0..8 {
                y = inverter(&mut sim, y, Time::from_ps(37));
            }
            sim.stimulus(
                a,
                &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))],
            );
            let plan = FaultPlan::new(seed).with_delay_sigma(0.3);
            sim.apply_fault_plan(&plan).unwrap();
            sim.run_to_quiescence().unwrap();
            (sim.signal_info(y).last_change, sim.toggles(y), sim.events_processed())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn watchdog_reports_stalled_handshake() {
        // A req wire that rises and an ack wire that never answers —
        // the minimal stalled four-phase handshake.
        let mut sim = Simulator::new();
        sim.push_scope("hs");
        let req = sim.add_signal("req", 1);
        let ack = sim.add_signal("ack", 1);
        sim.pop_scope();
        let _listener = inverter(&mut sim, req, Time::from_ps(10));
        sim.stimulus(req, &[(Time::ZERO, Value::zero(1)), (Time::from_ns(1), Value::one(1))]);
        sim.stimulus(ack, &[(Time::ZERO, Value::zero(1))]);
        sim.watch_handshake("hs0", req, ack);
        sim.run_until(Time::from_ns(10)).unwrap();
        let report = sim.deadlock_report().expect("stall must be diagnosed");
        assert_eq!(report.first_label(), Some("hs0"));
        assert_eq!(report.stalled.len(), 1);
        let s = &report.stalled[0];
        assert_eq!(s.req_path, "hs.req");
        assert_eq!(s.ack_path, "hs.ack");
        assert_eq!(s.req_last_change, Time::from_ns(1));
        assert!(s.waiting.iter().any(|n| n == "not"));
    }

    #[test]
    fn watchdog_quiet_when_handshakes_at_rest() {
        let mut sim = Simulator::new();
        let req = sim.add_signal("req", 1);
        let ack = sim.add_signal("ack", 1);
        sim.stimulus(req, &[(Time::ZERO, Value::zero(1))]);
        sim.stimulus(ack, &[(Time::ZERO, Value::zero(1))]);
        sim.watch_handshake("hs0", req, ack);
        sim.run_to_quiescence().unwrap();
        assert!(sim.deadlock_report().is_none());
    }

    #[test]
    fn event_limit_error_carries_watchdog_diagnosis() {
        // The oscillation test's circuit, plus a watched pair that is
        // mid-protocol while the loop spins.
        let mut sim = Simulator::new();
        sim.set_max_events(1000);
        let kick = sim.add_signal("kick", 1);
        let s = sim.add_signal("s", 1);
        let r = sim.add_signal("r", 1);
        let g1 = sim.add_component("g1", Not { a: s, y: r, delay: Time::from_ps(1) }, &[s]);
        sim.connect_driver(g1, r).unwrap();
        let g2 = sim.add_component("g2", Or { a: r, b: kick, y: s }, &[r, kick]);
        sim.connect_driver(g2, s).unwrap();
        let req = sim.add_signal("req", 1);
        let ack = sim.add_signal("ack", 1);
        sim.stimulus(req, &[(Time::ZERO, Value::one(1))]);
        sim.stimulus(ack, &[(Time::ZERO, Value::zero(1))]);
        sim.watch_handshake("stuck", req, ack);
        sim.stimulus(
            kick,
            &[(Time::ZERO, Value::one(1)), (Time::from_ps(10), Value::zero(1))],
        );
        let err = sim.run_until(Time::from_ns(100)).unwrap_err();
        let SimError::EventLimitExceeded { diagnosis: Some(report), .. } = err else {
            panic!("expected event-limit error with diagnosis, got {err:?}");
        };
        assert_eq!(report.first_label(), Some("stuck"));
    }

    #[test]
    fn trace_sink_sees_old_and_new_values() {
        use crate::trace::{MemoryTrace, TraceDump};
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 4);
        sim.stimulus(
            a,
            &[
                (Time::ZERO, Value::from_u64(4, 0b0011)),
                (Time::from_ps(10), Value::from_u64(4, 0b1100)),
            ],
        );
        sim.set_trace_sink(Box::new(MemoryTrace::new()));
        sim.run_to_quiescence().unwrap();
        let dump = TraceDump::capture(&sim).expect("sink retains records");
        assert_eq!(dump.records.len(), 2);
        assert_eq!(dump.records[0].old, Value::all_x(4));
        assert_eq!(dump.records[0].new, Value::from_u64(4, 0b0011));
        assert_eq!(dump.records[1].old, Value::from_u64(4, 0b0011));
        assert_eq!(dump.records[1].new, Value::from_u64(4, 0b1100));
        assert_eq!(dump.path(a), "a");
    }

    #[test]
    fn take_trace_sink_restores_untraced_path() {
        use crate::trace::MemoryTrace;
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.set_trace_sink(Box::new(MemoryTrace::new()));
        let sink = sim.take_trace_sink().expect("sink was installed");
        assert_eq!(sink.records().map(<[_]>::len), Some(0));
        assert!(sim.trace_sink().is_none());
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1))]);
        sim.run_to_quiescence().unwrap();
        assert!(sim.kernel.trace.is_none());
    }

    #[test]
    fn profile_counts_commits_and_wakes() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let _y = inverter(&mut sim, a, Time::from_ps(10));
        sim.stimulus(
            a,
            &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))],
        );
        sim.run_to_quiescence().unwrap();
        let p = sim.profile();
        // a: X->0, 0->1; y: X->1, 1->0.
        assert_eq!(p.commits, 4);
        assert!(p.wakes >= 1, "stimulus kick must be counted");
        assert_eq!(p.events, sim.events_processed());
        assert!(p.deltas > 0 && p.deltas <= p.events);
        assert!(p.queue_mean >= 0.0);
        assert_eq!(p.sim_time, sim.now());
    }

    /// A restore force that finds the value already back while a drive
    /// is in flight commits nothing, yet cancels that drive: the pilot
    /// lane, whose timeline the carrier runs, loses the edge with it,
    /// while a lane with no glitch at the site keeps it. The sliced
    /// pass must demote that lane.
    #[test]
    fn silent_restore_cancelling_a_drive_demotes_unforced_lanes() {
        struct Or10 {
            a: SignalId,
            b: SignalId,
            y: SignalId,
        }
        impl Component for Or10 {
            fn on_input(&mut self, ctx: &mut Ctx<'_>) {
                let v = ctx.read(self.a).or(&ctx.read(self.b));
                ctx.drive(self.y, v, Time::from_ps(10));
            }
        }
        let ps = Time::from_ps;
        // s = a | b settles at 1. The glitch (100..200 ps) flips it to
        // 0, b's rise re-drives 1 at 130 ps, and b's fall at 195 ps puts
        // a drive of 0 in flight for 205 ps, across the restore.
        let build = |sim: &mut Simulator| {
            let a = sim.add_signal("a", 1);
            let b = sim.add_signal("b", 1);
            let s = sim.add_signal("s", 1);
            let g = sim.add_component("or", Or10 { a, b, y: s }, &[a, b]);
            sim.connect_driver(g, s).unwrap();
            sim.stimulus(a, &[(Time::ZERO, Value::one(1)), (ps(150), Value::zero(1))]);
            sim.stimulus(
                b,
                &[(Time::ZERO, Value::zero(1)), (ps(120), Value::one(1)), (ps(195), Value::zero(1))],
            );
            s
        };
        let scalar = |mask: u64| {
            let mut sim = Simulator::new();
            let s = build(&mut sim);
            if mask != 0 {
                let plan = FaultPlan::new(0).glitch("s", ps(100), ps(100), mask);
                sim.apply_fault_plan(&plan).unwrap();
            }
            sim.run_until(ps(300)).unwrap();
            sim.value(s)
        };
        assert_eq!(scalar(1), Value::one(1), "the restore cancels the fall");
        assert_eq!(scalar(0), Value::zero(1), "without the glitch s falls at 205 ps");

        let mut sim = Simulator::new();
        let s = build(&mut sim);
        sim.compile();
        sim.slice_begin(2);
        sim.slice_glitch(ps(100), s, ps(100), &[1, 0]);
        sim.run_until(ps(300)).unwrap();
        assert_eq!(sim.value(s), Value::one(1), "the carrier runs lane 0's timeline");
        assert_eq!(sim.slice_seal(), 0b10, "lane 1 kept the drive the carrier lost");
    }

    #[test]
    fn reset_counters() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        sim.set_signal_energy(a, 1.0);
        sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(1), Value::one(1))]);
        sim.run_to_quiescence().unwrap();
        assert!(sim.toggles(a) > 0);
        sim.reset_toggles();
        sim.reset_energy();
        assert_eq!(sim.toggles(a), 0);
        assert_eq!(sim.subtree_energy_fj(""), 0.0);
    }
}
