//! The paper's cycle-delay equations (§V, Figs 15–16).

use sal_des::Time;

/// Cycle-delay model of the per-transfer link I2 (paper Fig 15):
///
/// ```text
/// D = k · (s·Tp + Treqreq + Treqack + Tackack + Tackout) + Tnextflit
/// ```
///
/// where `k` is the number of slices per flit (4 in the paper: "this
/// is multiplied by 4 since the 32 bit flit is sent 8 bits at a time")
/// and `s` the number of wire segments the handshake crosses (the
/// paper's "(4 Tp)" for its 4-segment wire).
#[derive(Debug, Clone, PartialEq)]
pub struct PerTransferDelay {
    /// Propagation time along one wire segment.
    pub tp: Time,
    /// Request-in to request-out of a buffer stage.
    pub treqreq: Time,
    /// Request-in to acknowledge of the data.
    pub treqack: Time,
    /// Acknowledge-in to acknowledge-out to the previous buffer.
    pub tackack: Time,
    /// Acknowledge-in to the output of a new slice of data.
    pub tackout: Time,
    /// Time for the next flit to be ready at the transmitter.
    pub tnextflit: Time,
}

impl PerTransferDelay {
    /// Per-flit cycle delay for `slices` slices over `segments` wire
    /// segments.
    pub fn cycle_delay(&self, slices: u32, segments: u32) -> Time {
        let per_slice = self.tp * segments as u64
            + self.treqreq
            + self.treqack
            + self.tackack
            + self.tackout;
        per_slice * slices as u64 + self.tnextflit
    }

    /// Upper-bound throughput in MFlit/s for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the cycle delay is zero.
    pub fn upper_bound_mflits(&self, slices: u32, segments: u32) -> f64 {
        let d = self.cycle_delay(slices, segments);
        assert!(!d.is_zero(), "zero cycle delay");
        1.0 / d.as_secs() / 1e6
    }
}

/// Cycle-delay model of the per-word link I3 (paper Fig 16):
///
/// ```text
/// D = 2s·Tp + 2B·Tinv + Tvalidwordack + Tackout + Tburst
/// ```
///
/// The request path crosses `s` segments forward and the word
/// acknowledge crosses `s` back (the paper's "10 Tp" for 5 segments
/// each way), through `B` inverter-pair repeater stations each way
/// (the paper's "8 Tinv" for 4 stations).
#[derive(Debug, Clone, PartialEq)]
pub struct PerWordDelay {
    /// Propagation time along one wire segment.
    pub tp: Time,
    /// One repeater inverter delay.
    pub tinv: Time,
    /// Valid word received to acknowledge output at the receiver.
    pub tvalidwordack: Time,
    /// Acknowledge in to new flit output at the transmitter.
    pub tackout: Time,
    /// Burst period of all slices of a flit.
    pub tburst: Time,
}

impl PerWordDelay {
    /// The paper's own example values (§V): `Tp = 0` (gate-level sim),
    /// `Tinv = 0.011 ns` from the ST 0.12 datasheet, `Tburst ≈ 1.1 ns`,
    /// `Tvalidwordack ≈ 0.7 ns`, `Tackout ≈ 1.4 ns`.
    pub fn paper_example() -> Self {
        PerWordDelay {
            tp: Time::ZERO,
            tinv: Time::from_ps(11),
            tvalidwordack: Time::from_ps(700),
            tackout: Time::from_ps(1400),
            tburst: Time::from_ps(1100),
        }
    }

    /// Per-flit cycle delay for `stations` repeater stations (wire has
    /// `stations + 1` segments each way).
    pub fn cycle_delay(&self, stations: u32) -> Time {
        let segments = stations as u64 + 1;
        self.tp * (2 * segments)
            + self.tinv * (2 * stations as u64)
            + self.tvalidwordack
            + self.tackout
            + self.tburst
    }

    /// Upper-bound throughput in MFlit/s.
    ///
    /// # Panics
    ///
    /// Panics if the cycle delay is zero.
    pub fn upper_bound_mflits(&self, stations: u32) -> f64 {
        let d = self.cycle_delay(stations);
        assert!(!d.is_zero(), "zero cycle delay");
        1.0 / d.as_secs() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_per_word_example_reproduces_311_mflits() {
        // §V: "Using these values the per-word delay is 3.21 ns from
        // which we obtain an upper bound throughput of around
        // 311 MFlits/s".
        let d = PerWordDelay::paper_example();
        let cycle = d.cycle_delay(4);
        assert!(
            (cycle.as_ns() - 3.288).abs() < 0.001,
            "cycle {} ns",
            cycle.as_ns()
        );
        let ub = d.upper_bound_mflits(4);
        assert!((295.0..=315.0).contains(&ub), "upper bound {ub} MFlit/s");
    }

    #[test]
    fn per_word_delay_grows_with_stations() {
        let d = PerWordDelay::paper_example();
        assert!(d.cycle_delay(8) > d.cycle_delay(2));
        assert!(d.upper_bound_mflits(8) < d.upper_bound_mflits(2));
    }

    #[test]
    fn per_transfer_equation_structure() {
        let d = PerTransferDelay {
            tp: Time::from_ps(10),
            treqreq: Time::from_ps(50),
            treqack: Time::from_ps(60),
            tackack: Time::from_ps(40),
            tackout: Time::from_ps(30),
            tnextflit: Time::from_ps(200),
        };
        // 4 slices × (4×10 + 50+60+40+30) + 200 = 4×220 + 200 = 1080.
        assert_eq!(d.cycle_delay(4, 4), Time::from_ps(1080));
        // Throughput: ~926 MFlit/s upper bound for these (fast) numbers.
        let ub = d.upper_bound_mflits(4, 4);
        assert!((925.0..=927.0).contains(&ub));
    }

    #[test]
    fn per_transfer_scales_linearly_in_slices() {
        let d = PerTransferDelay {
            tp: Time::from_ps(5),
            treqreq: Time::from_ps(50),
            treqack: Time::from_ps(50),
            tackack: Time::from_ps(50),
            tackout: Time::from_ps(50),
            tnextflit: Time::ZERO,
        };
        let d4 = d.cycle_delay(4, 2);
        let d8 = d.cycle_delay(8, 2);
        assert_eq!(d8.as_fs(), 2 * d4.as_fs());
    }
}
