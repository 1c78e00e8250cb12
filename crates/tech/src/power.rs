//! Activity-based power estimation.

use sal_cells::Library;
use sal_des::{within_scope, Simulator, Time};

use crate::{St012Library, WireModel};

/// Analytical clock-load power of a synchronous block, µW.
///
/// The simulator models the clock as an ideal source, so the energy
/// the clock *network* burns — flip-flop clock pins, internal clock
/// buffers and the distribution wiring — is added analytically:
///
/// `P = (n_ffs · E_ff + C_tree · V²) · f`
///
/// where `E_ff` is the per-flip-flop per-cycle clock energy from the
/// library and `C_tree` the distribution wire capacitance. This is the
/// term that makes the synchronous link's power grow linearly with
/// both buffer count and clock frequency (paper Figs 12–13), while the
/// asynchronous links have no equivalent cost.
///
/// # Examples
///
/// ```
/// use sal_tech::{clock_power_uw, St012Library};
/// let lib = St012Library::default();
/// let p100 = clock_power_uw(&lib, 66, 1000.0, 100e6);
/// let p300 = clock_power_uw(&lib, 66, 1000.0, 300e6);
/// assert!((p300 / p100 - 3.0).abs() < 1e-9); // linear in f
/// ```
pub fn clock_power_uw(lib: &St012Library, n_ffs: u32, tree_length_um: f64, freq_hz: f64) -> f64 {
    let e_ffs = n_ffs as f64 * lib.clock_energy_per_ff_fj();
    let e_tree = WireModel.cap_ff(tree_length_um) * lib.vdd() * lib.vdd();
    // fJ per cycle × cycles/s = fW; µW = 1e-9 × fW.
    (e_ffs + e_tree) * freq_hz * 1e-9
}

/// One named block's average power over a measurement window.
#[derive(Debug, Clone)]
pub struct PowerBreakdown {
    /// `(scope path, average power in µW)`, exclusive per scope.
    pub scopes: Vec<(String, f64)>,
    /// The measurement window length.
    pub window: Time,
}

impl PowerBreakdown {
    /// Total power across all scopes, µW.
    pub fn total_uw(&self) -> f64 {
        self.scopes.iter().map(|(_, p)| p).sum()
    }

    /// Power of the subtree rooted at `prefix` (inclusive,
    /// [`within_scope`]), µW.
    pub fn subtree_uw(&self, prefix: &str) -> f64 {
        self.scopes.iter().filter(|(p, _)| within_scope(p, prefix)).map(|(_, p)| p).sum()
    }
}

/// Measures average power over a simulation window by snapshotting the
/// per-scope energy ledger at window start and end.
///
/// This implements the paper's measurement methodology: "the average
/// of the supply voltage multiplied by the current over the simulation
/// run time" — here, energy accumulated over the window divided by the
/// window length.
///
/// ```no_run
/// # use sal_des::{Simulator, Time};
/// # use sal_tech::PowerMeter;
/// # let mut sim = Simulator::new();
/// let meter = PowerMeter::start(&sim);
/// sim.run_for(Time::from_ns(140))?;
/// let power = meter.finish(&sim);
/// println!("link power: {:.1} µW", power.subtree_uw("link"));
/// # Ok::<(), sal_des::SimError>(())
/// ```
#[derive(Debug)]
pub struct PowerMeter {
    /// Energy ledger at window start, indexed by scope id. Scope paths
    /// are only materialised at [`PowerMeter::finish`]; scopes created
    /// after the snapshot start the window at zero energy.
    start_fj: Vec<f64>,
    start_time: Time,
}

impl PowerMeter {
    /// Snapshots the energy ledger at the start of the window.
    pub fn start(sim: &Simulator) -> Self {
        PowerMeter { start_fj: sim.scope_energies_fj(), start_time: sim.now() }
    }

    /// Ends the window at the simulator's current time and returns the
    /// per-scope average power.
    ///
    /// # Panics
    ///
    /// Panics if no simulated time has elapsed since [`PowerMeter::start`].
    pub fn finish(&self, sim: &Simulator) -> PowerBreakdown {
        let window = sim.now().saturating_sub(self.start_time);
        assert!(!window.is_zero(), "power window has zero length");
        let report = sim.energy_report();
        let scopes = report
            .scopes
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let delta = s.energy_fj - self.start_fj.get(i).copied().unwrap_or(0.0);
                // fJ → J is 1e-15; dividing by seconds gives W; ×1e6 → µW.
                (s.path, delta * 1e-15 / window.as_secs() * 1e6)
            })
            .collect();
        PowerBreakdown { scopes, window }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_des::Value;

    #[test]
    fn clock_power_linear_in_sinks_and_freq() {
        let lib = St012Library::default();
        let p1 = clock_power_uw(&lib, 33, 0.0, 100e6);
        let p2 = clock_power_uw(&lib, 66, 0.0, 100e6);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
        let p3 = clock_power_uw(&lib, 33, 0.0, 300e6);
        assert!((p3 / p1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn clock_power_magnitude_plausible() {
        // 66 FFs (two 33-bit pipeline buffers) at 100 MHz should be in
        // the hundreds-of-µW region per the paper's I1 data.
        let lib = St012Library::default();
        let p = clock_power_uw(&lib, 66, 2000.0, 100e6);
        assert!(p > 100.0 && p < 1000.0, "clock power {p} µW implausible");
    }

    #[test]
    fn power_meter_windows_energy() {
        let mut sim = Simulator::new();
        sim.push_scope("blk");
        let a = sim.add_signal("a", 1);
        sim.set_signal_energy(a, 10.0);
        sim.pop_scope();
        // One toggle per ns for 10 ns.
        let schedule: Vec<(Time, Value)> = (0..=10u64)
            .map(|i| (Time::from_ns(i), Value::from_u64(1, i % 2)))
            .collect();
        sim.stimulus(a, &schedule);
        sim.run_until(Time::from_ns(2)).unwrap();
        let meter = PowerMeter::start(&sim);
        sim.run_until(Time::from_ns(10)).unwrap();
        let p = meter.finish(&sim);
        // 8 toggles × 10 fJ over 8 ns = 10 µW.
        assert!((p.subtree_uw("blk") - 10.0).abs() < 1e-6, "got {}", p.subtree_uw("blk"));
        assert!((p.total_uw() - 10.0).abs() < 1e-6);
        assert!((p.subtree_uw("") - 10.0).abs() < 1e-6, "the empty prefix is the whole design");
    }

    #[test]
    #[should_panic(expected = "zero length")]
    fn zero_window_panics() {
        let sim = Simulator::new();
        let meter = PowerMeter::start(&sim);
        let _ = meter.finish(&sim);
    }
}
