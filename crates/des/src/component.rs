//! Components and their evaluation context.

use crate::event::EventKind;
use crate::sim::{Drive, Kernel};
use crate::{SignalId, Time, Value};

/// Identifier of a component in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index of this component in the netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reactive element of the netlist: a logic cell, a stimulus source,
/// a clock generator or a monitor.
///
/// The kernel calls [`Component::on_input`] whenever any signal listed
/// as one of the component's inputs commits a new value, and
/// [`Component::on_wake`] when a self-scheduled wakeup (see
/// [`Ctx::wake_after`]) fires. Implementations react by reading inputs
/// and driving outputs through the [`Ctx`].
///
/// Cells must be *level-evaluating*: `on_input` may be invoked more
/// than once per timestamp (once per arriving input edge), and the
/// inertial-drive semantics of [`Ctx::drive`] guarantee that only the
/// final evaluation's schedule survives.
pub trait Component: 'static {
    /// Called when one of the component's input signals changes.
    fn on_input(&mut self, ctx: &mut Ctx<'_>);

    /// Called when a wakeup scheduled with [`Ctx::wake_after`] fires.
    /// The default implementation does nothing.
    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// The evaluation context handed to a [`Component`]: read signals,
/// drive outputs, schedule wakeups.
pub struct Ctx<'a> {
    pub(crate) kernel: &'a mut Kernel,
    pub(crate) comp: ComponentId,
}

impl Ctx<'_> {
    /// The current simulation time.
    pub fn now(&self) -> Time {
        self.kernel.now
    }

    /// The committed value of a signal.
    #[inline]
    pub fn read(&self, sig: SignalId) -> Value {
        self.kernel.signals[sig.index()].value
    }

    /// Schedules `value` onto `sig` after `delay`, with inertial
    /// semantics: any not-yet-committed drive of the same signal is
    /// cancelled, so glitches shorter than the delay are filtered.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this component is not the registered
    /// driver of `sig`, or if the value width does not match the
    /// signal width. Both are netlist construction bugs and both are
    /// deterministic — they cannot depend on simulation inputs — so
    /// release builds skip the checks in this hottest of paths.
    #[inline]
    pub fn drive(&mut self, sig: SignalId, value: Value, delay: Time) {
        // An active sliced campaign pass must hear about skipped and
        // superseded dynamic drives: a lane tracking different values
        // could have decided differently, and the pass demotes it.
        match self.kernel.drive(self.comp, sig, value, delay) {
            Drive::Dropped => {}
            Drive::Skipped { .. } => {
                if self.kernel.sliced.is_some() {
                    self.kernel.slice_dyn_skip(self.comp, sig, &value);
                }
            }
            Drive::Scheduled { at, epoch, superseded } => {
                self.kernel.queue.push(at, EventKind::Drive { signal: sig, epoch });
                if superseded && self.kernel.sliced.is_some() {
                    self.kernel.slice_dyn_supersede(self.comp, sig);
                }
            }
        }
    }

    /// When the installed fault plan enables setup-window checking for
    /// this component, returns its delay multiplier — the factor a
    /// sequential cell should stretch its nominal setup window by.
    /// `None` (the overwhelmingly common case) means no checking:
    /// either no fault plan is installed, checking is not enabled, or
    /// this component is outside the plan's scopes.
    #[inline]
    pub fn setup_scale(&self) -> Option<f64> {
        let fault = self.kernel.fault.as_ref()?;
        if fault.setup_check.get(self.comp.index()).copied().unwrap_or(false) {
            Some(fault.comp_scale.get(self.comp.index()).copied().unwrap_or(1.0))
        } else {
            None
        }
    }

    /// The time `sig` last committed a new value. Lets edge-triggered
    /// cells check setup-style timing constraints against inputs that
    /// are *not* in their sensitivity list (an unchanged clock level
    /// never wakes them on data activity).
    #[inline]
    pub fn last_change(&self, sig: SignalId) -> Time {
        self.kernel.signals[sig.index()].last_change
    }

    /// Schedules an [`Component::on_wake`] callback for this component
    /// after `delay`.
    pub fn wake_after(&mut self, delay: Time) {
        let t = self.kernel.now + delay;
        self.kernel.queue.push(t, EventKind::Wake { comp: self.comp });
    }

    /// Adds `fj` femtojoules of internal energy to this component's
    /// scope. Use for energy not captured by output-toggle accounting
    /// (e.g. internal short-circuit energy of complex cells).
    pub fn add_energy_fj(&mut self, fj: f64) {
        let scope = self.kernel.comp_scopes[self.comp.index()];
        self.kernel.scope_energy_fj[scope.0 as usize] += fj;
    }
}
