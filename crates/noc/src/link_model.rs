//! Behavioural channel models derived from the three link
//! implementations.
//!
//! The gate-level links in `sal-link` are exact but slow to simulate
//! at network scale; the NoC layer abstracts each switch-to-switch
//! channel to a `(latency, bandwidth, wires)` triple extracted from
//! the gate-level results and the paper's analytic upper bounds.

use sal_analytic::{PerTransferDelay, PerWordDelay};
use sal_des::Time;
use sal_link::{LinkConfig, LinkFamily};

/// A behavioural inter-router channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Cycles from a flit leaving the upstream router to it being
    /// enqueued at the downstream router.
    pub latency_cycles: u32,
    /// Sustained channel bandwidth in flits per router cycle (≤ 1).
    pub flits_per_cycle: f64,
    /// Physical wires the channel occupies (the paper's Fig 10 cost).
    pub wires: u32,
}

impl LinkModel {
    /// An idealised single-cycle, full-bandwidth channel.
    pub fn ideal() -> Self {
        LinkModel { latency_cycles: 1, flits_per_cycle: 1.0, wires: 33 }
    }

    /// The synchronous parallel link I1: one flit per clock, one cycle
    /// of latency per pipeline buffer.
    pub fn from_i1(cfg: &LinkConfig) -> Self {
        LinkModel {
            latency_cycles: cfg.buffers.max(1),
            flits_per_cycle: 1.0,
            wires: cfg.wires_sync(),
        }
    }

    /// A serialized asynchronous link (I2 or I3): constant `n + 2`
    /// wires; bandwidth capped by the self-timed upper bound from the
    /// paper's §V delay equations; latency covers the clock-domain
    /// crossings plus the serial transfer time.
    pub fn from_async(family: LinkFamily, cfg: &LinkConfig) -> Self {
        let ub_mflits = match family {
            LinkFamily::PerTransfer => per_transfer_defaults(cfg)
                .upper_bound_mflits(cfg.slices() as u32, cfg.buffers + 1),
            LinkFamily::PerWord => {
                per_word_defaults(cfg).upper_bound_mflits(cfg.buffers)
            }
            LinkFamily::Sync => panic!("use from_i1 for the synchronous link"),
        };
        let clk_mhz = cfg.clk_hz() / 1e6;
        let serial_cycles = (clk_mhz / ub_mflits).ceil().max(1.0) as u32;
        LinkModel {
            // Two interface FIFO crossings (≈2 cycles each at the ends)
            // plus the serialized flight time.
            latency_cycles: 4 + serial_cycles,
            flits_per_cycle: (ub_mflits / clk_mhz).min(1.0),
            wires: cfg.wires_async(),
        }
    }

    /// Dispatch on link family.
    pub fn from_link(family: LinkFamily, cfg: &LinkConfig) -> Self {
        match family {
            LinkFamily::Sync => Self::from_i1(cfg),
            _ => Self::from_async(family, cfg),
        }
    }
}

/// Per-transfer handshake constants matching the gate-level I2 at the
/// default technology point (measured from `sal-link` simulations).
fn per_transfer_defaults(cfg: &LinkConfig) -> PerTransferDelay {
    PerTransferDelay {
        tp: sal_tech::WireModel::default().delay(cfg.segment_um()),
        treqreq: Time::from_ps(90),
        treqack: Time::from_ps(85),
        tackack: Time::from_ps(60),
        tackout: Time::from_ps(95),
        tnextflit: Time::from_ps(430),
    }
}

/// Per-word constants: the paper's §V example values, with the wire
/// propagation term from the configured geometry.
fn per_word_defaults(cfg: &LinkConfig) -> PerWordDelay {
    PerWordDelay {
        tp: sal_tech::WireModel::default().delay(cfg.segment_um()),
        ..PerWordDelay::paper_example()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i1_full_rate_any_clock() {
        let cfg = LinkConfig::default();
        let m = LinkModel::from_i1(&cfg);
        assert_eq!(m.flits_per_cycle, 1.0);
        assert_eq!(m.wires, 33);
        assert_eq!(m.latency_cycles, 4);
    }

    #[test]
    fn async_links_saturate_at_upper_bound() {
        // At 100 MHz the serial links keep up (1 flit/cycle); at
        // 400 MHz they saturate below the clock.
        let slow = LinkConfig::default(); // 100 MHz
        let m = LinkModel::from_async(LinkFamily::PerWord, &slow);
        assert!((m.flits_per_cycle - 1.0).abs() < 1e-9);
        assert_eq!(m.wires, 10);
        let fast = LinkConfig {
            clk_period: sal_des::Time::from_ps(2500), // 400 MHz
            ..LinkConfig::default()
        };
        let mf = LinkModel::from_async(LinkFamily::PerWord, &fast);
        assert!(mf.flits_per_cycle < 1.0, "rate {}", mf.flits_per_cycle);
        assert!(mf.flits_per_cycle > 0.5);
    }

    #[test]
    fn wire_cost_contrast() {
        let cfg = LinkConfig::default();
        let sync = LinkModel::from_i1(&cfg);
        let ser = LinkModel::from_link(LinkFamily::PerTransfer, &cfg);
        assert!(ser.wires * 3 < sync.wires);
    }
}
