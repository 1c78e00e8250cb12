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

impl EnergyReport {
    /// Total energy across the whole design, femtojoules.
    pub fn total_fj(&self) -> f64 {
        self.scopes.iter().map(|s| s.energy_fj).sum()
    }

    /// Energy of the subtree rooted at `prefix` (inclusive).
    pub fn subtree_fj(&self, prefix: &str) -> f64 {
        self.scopes
            .iter()
            .filter(|s| {
                s.path == prefix
                    || (s.path.starts_with(prefix) && s.path[prefix.len()..].starts_with('.'))
                    || prefix.is_empty()
            })
            .map(|s| s.energy_fj)
            .sum()
    }

    /// Average power over the run in microwatts, given the energy is in
    /// femtojoules and the window is `window` long.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn average_power_uw(&self, prefix: &str, window: Time) -> f64 {
        assert!(!window.is_zero(), "zero averaging window");
        let fj = self.subtree_fj(prefix);
        // fJ / s = 1e-15 W; report µW (1e-6 W).
        fj * 1e-15 / window.as_secs() * 1e6
    }
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
    /// Global-queue events avoided by scheduling compiled drives on
    /// the private calendar instead (0 when interpreted).
    pub events_avoided: u64,
    /// Lanes carried by the last bit-sliced campaign pass (0 outside
    /// sliced campaigns).
    pub lanes_active: u64,
    /// Lanes the last bit-sliced campaign pass demoted to scalar
    /// replay because their timing diverged from the carrier.
    pub scalar_fallbacks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_subtree_and_power() {
        let r = EnergyReport {
            scopes: vec![
                ScopeEnergy { path: "link".into(), energy_fj: 100.0 },
                ScopeEnergy { path: "link.ser".into(), energy_fj: 50.0 },
                ScopeEnergy { path: "linker".into(), energy_fj: 999.0 },
            ],
            sim_time: Time::from_ns(1),
        };
        assert!((r.subtree_fj("link") - 150.0).abs() < 1e-9);
        assert!((r.total_fj() - 1149.0).abs() < 1e-9);
        // 150 fJ over 1 ns = 150 µW.
        let p = r.average_power_uw("link", Time::from_ns(1));
        assert!((p - 150.0).abs() < 1e-9);
    }
}
