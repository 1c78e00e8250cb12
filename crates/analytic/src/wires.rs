//! The Fig 10 bandwidth-versus-wires trade-off.
//!
//! A synchronous link delivers one word per clock, so pushing a target
//! flit bandwidth through a slower clock forces a proportionally wider
//! (replicated) data path — the paper's example: 300 MFlit/s needs 32
//! wires at 300 MHz but 96 wires at 100 MHz. The proposed asynchronous
//! serial link keeps a constant `n` data wires at any switch clock, up
//! to its self-timed upper-bound throughput.

/// Data wires a synchronous link needs to carry `bandwidth_mflits` of
/// `flit_bits`-bit flits at `clock_mhz` (the paper counts data wires
/// only: 32 at 300 MHz, 96 at 100 MHz for 300 MFlit/s).
///
/// # Panics
///
/// Panics unless both rates are positive.
pub fn sync_wires_needed(bandwidth_mflits: f64, clock_mhz: f64, flit_bits: u32) -> u32 {
    assert!(bandwidth_mflits > 0.0 && clock_mhz > 0.0, "rates must be positive");
    let lanes = (bandwidth_mflits / clock_mhz).ceil() as u32;
    lanes.max(1) * flit_bits
}

/// Data wires the serialized asynchronous link needs: a constant
/// `slice_bits`, independent of the switch clock, provided the target
/// bandwidth does not exceed the link's self-timed upper bound.
/// Returns `None` beyond the upper bound (the link cannot get there by
/// adding wires — it would need a wider slice).
pub fn async_wires_needed(
    bandwidth_mflits: f64,
    upper_bound_mflits: f64,
    slice_bits: u32,
) -> Option<u32> {
    assert!(bandwidth_mflits > 0.0, "bandwidth must be positive");
    (bandwidth_mflits <= upper_bound_mflits).then_some(slice_bits)
}

/// One point of the Fig 10 reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Point {
    /// Target bandwidth, MFlit/s.
    pub bandwidth_mflits: f64,
    /// Wires for the synchronous link at 100 MHz.
    pub sync_100: u32,
    /// Wires for the synchronous link at 200 MHz.
    pub sync_200: u32,
    /// Wires for the synchronous link at 300 MHz.
    pub sync_300: u32,
    /// Wires for the proposed asynchronous link (None above its upper
    /// bound).
    pub async_proposed: Option<u32>,
}

/// The full Fig 10 sweep: bandwidths from 100 to 350 MFlit/s.
pub fn fig10_series(flit_bits: u32, slice_bits: u32, upper_bound_mflits: f64) -> Vec<Fig10Point> {
    (0..=10)
        .map(|i| {
            let bw = 100.0 + 25.0 * i as f64;
            Fig10Point {
                bandwidth_mflits: bw,
                sync_100: sync_wires_needed(bw, 100.0, flit_bits),
                sync_200: sync_wires_needed(bw, 200.0, flit_bits),
                sync_300: sync_wires_needed(bw, 300.0, flit_bits),
                async_proposed: async_wires_needed(bw, upper_bound_mflits, slice_bits),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig10_anchor_points() {
        // "the proposed link (I3) can support 300 MFlits/s using a
        //  300 MHz switch clock with 8 wires whereas the synchronous
        //  link (I1) would need 32 wires at 300 MHz which is a 75%
        //  reduction … this would require an increase to 96 wires at
        //  100 MHz."
        assert_eq!(sync_wires_needed(300.0, 300.0, 32), 32);
        assert_eq!(sync_wires_needed(300.0, 100.0, 32), 96);
        assert_eq!(async_wires_needed(300.0, 311.0, 8), Some(8));
        let reduction: f64 = 1.0 - 8.0 / 32.0;
        assert!((reduction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sync_wires_step_at_clock_multiples() {
        assert_eq!(sync_wires_needed(100.0, 100.0, 32), 32);
        assert_eq!(sync_wires_needed(101.0, 100.0, 32), 64);
        assert_eq!(sync_wires_needed(200.0, 100.0, 32), 64);
        assert_eq!(sync_wires_needed(201.0, 100.0, 32), 96);
    }

    #[test]
    fn async_constant_until_upper_bound() {
        assert_eq!(async_wires_needed(100.0, 311.0, 8), Some(8));
        assert_eq!(async_wires_needed(311.0, 311.0, 8), Some(8));
        assert_eq!(async_wires_needed(312.0, 311.0, 8), None);
    }

    #[test]
    fn series_covers_paper_range() {
        let s = fig10_series(32, 8, 311.0);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].bandwidth_mflits, 100.0);
        assert_eq!(s[10].bandwidth_mflits, 350.0);
        // Above the upper bound the async link drops out.
        assert!(s[10].async_proposed.is_none());
        // The synchronous 100 MHz curve is the steepest.
        assert!(s[10].sync_100 > s[10].sync_300);
    }
}
