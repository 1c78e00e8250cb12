//! Activity and energy reports.

use crate::Time;

/// Energy accumulated in one scope (exclusive of children).
#[derive(Debug, Clone)]
pub struct ScopeEnergy {
    /// Dotted scope path; empty string is the root.
    pub path: String,
    /// Energy in femtojoules.
    pub energy_fj: f64,
}

/// Per-scope energy over a simulation run.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// One entry per scope, in creation order.
    pub scopes: Vec<ScopeEnergy>,
    /// Simulation time at which the report was taken.
    pub sim_time: Time,
}

/// Kernel profiling counters, snapshotted by
/// [`Simulator::profile`](crate::Simulator::profile).
///
/// The counters cost a few integer increments per delta on the event
/// loop — cheap enough to stay always-on, so kernel performance
/// regressions are visible in CI without a special build.
#[derive(Debug, Clone, Copy)]
pub struct SimProfile {
    /// Events processed (drive commits, wakes, fault actions).
    pub events: u64,
    /// Committed signal value changes.
    pub commits: u64,
    /// Wake events processed.
    pub wakes: u64,
    /// Deltas processed: queue pops, each being a wake, a fault action
    /// or a batch of same-timestamp commits.
    pub deltas: u64,
    /// Peak event-queue depth observed at a sampled delta boundary
    /// (depth is sampled once every 64 deltas, so the event loop pays
    /// a single counter increment per delta).
    pub queue_peak: usize,
    /// Mean event-queue depth over the sampled delta boundaries.
    pub queue_mean: f64,
    /// Wall-clock time spent inside the event loop.
    pub wall: std::time::Duration,
    /// Simulation time at the snapshot.
    pub sim_time: Time,
    /// Weakly-connected compiled combinational regions built by
    /// [`Simulator::compile`](crate::Simulator::compile) (0 when
    /// running interpreted).
    pub cones_built: u64,
    /// Compiled spec evaluations performed (0 when interpreted).
    pub cone_evals: u64,
    /// Drives that compiled nodes scheduled (0 when interpreted). They
    /// go through the event queue like every drive, so each is also
    /// counted in `events`.
    pub events_avoided: u64,
    /// Lanes carried by the last bit-sliced campaign pass (0 outside
    /// sliced campaigns).
    pub lanes_active: u64,
    /// Lanes the last bit-sliced campaign pass demoted to scalar
    /// replay because their timing diverged from the carrier.
    pub scalar_fallbacks: u64,
}

