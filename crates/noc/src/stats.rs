//! Network measurement results.

use crate::fault::{RecoveryCounts, RecoveryTotals};
use crate::topology::{Direction, NodeId};

/// Recovery counters of one channel, addressed by its upstream node
/// and direction. Rows are emitted for *every* channel (all zeros on
/// a quiet or loss-free channel) in `(node, direction)` order, so two
/// stats from identically-shaped networks always compare
/// field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRecovery {
    /// Upstream node of the channel.
    pub node: NodeId,
    /// Direction the channel points.
    pub dir: Direction,
    /// What happened on it.
    pub counts: RecoveryCounts,
}

/// Aggregate statistics over the measurement phase of a network run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Measured cycles, simulated: in flow mode they include the
    /// cycles fixpoint stepping jumped over.
    pub cycles: u64,
    /// Nodes in the network.
    pub nodes: usize,
    /// Packets created at the cores during measurement.
    pub offered_packets: u64,
    /// Packets whose tail was ejected during measurement.
    pub delivered_packets: u64,
    /// Flits ejected during measurement.
    pub delivered_flits: u64,
    /// Sum of packet latencies (inject → tail eject), cycles.
    pub latency_sum: u64,
    /// Worst packet latency observed, cycles.
    pub latency_max: u64,
    /// Per-packet latencies (for percentiles). Sorted ascending once
    /// at the end of [`crate::Network::run`]; quantiles index into it
    /// directly.
    pub latencies: Vec<u64>,
    /// Packets still in the fabric when the run ends, whenever they
    /// were created, not counting stranded ones (non-zero near
    /// saturation).
    pub in_flight: u64,
    /// Packets ejected carrying an undetected payload corruption
    /// (nonzero accumulated bit-flip mask from the lossy channels).
    pub corrupt_packets: u64,
    /// Flits entering the fabric during measurement (the left side of
    /// the conservation law: in flow mode, which measures from cycle
    /// 0, `injected_flits = delivered_flits + stranded_flits +
    /// residual_flits` holds exactly and is asserted per run).
    pub injected_flits: u64,
    /// Flits lost to channel deaths: caught mid-flight on a wire that
    /// entered `Failed`, or purged with a severed packet during
    /// reconfiguration. Before this counter they stranded silently.
    pub stranded_flits: u64,
    /// Packets that lost at least one flit to a channel death. Their
    /// recovery (if any) is the transport layer's retransmission.
    pub stranded_packets: u64,
    /// Packets whose wormhole lock pointed into a dying channel but
    /// whose head had not crossed yet: reconfiguration released the
    /// lock and they re-routed intact.
    pub salvaged_packets: u64,
    /// Flits still queued in the fabric (router FIFOs, live channel
    /// queues, source queues) when the run ended.
    pub residual_flits: u64,
    /// Reconfiguration epochs performed (adaptive routing: route
    /// table rebuilds triggered by channel deaths).
    pub reconfig_epochs: u64,
    /// Failed channels revived by the last-resort deep retrain: a
    /// reconfiguration found the failure pattern had severed part of
    /// the fabric (some source could no longer reach some
    /// destination), and rather than abandon the node the fabric
    /// manager put the link back through a long resync.
    pub retrained_links: u64,
    /// Per-channel recovery counters, in `(node, direction)` order.
    pub link_recovery: Vec<LinkRecovery>,
    /// Network-wide recovery totals.
    pub recovery: RecoveryTotals,
}

impl NetworkStats {
    /// Mean packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            return f64::NAN;
        }
        self.latency_sum as f64 / self.delivered_packets as f64
    }

    /// Sorts the latency vector in place (called once at the end of a
    /// run, so [`NetworkStats::latency_quantile`] can index directly).
    pub(crate) fn finalize_latencies(&mut self) {
        self.latencies.sort_unstable();
    }

    /// Recomputes `link_recovery`-derived totals (called at the end of
    /// a run after the per-channel rows are collected).
    pub(crate) fn finalize_recovery(&mut self) {
        let mut totals = RecoveryTotals::default();
        for row in &self.link_recovery {
            totals.counts.absorb(&row.counts);
            totals.failed_links += u64::from(row.counts.failed);
        }
        self.recovery = totals;
    }

    /// The `p`-quantile latency (e.g. 0.95), cycles.
    ///
    /// The latency vector is sorted once when the run finishes, so
    /// this is a pure index in the common case; a vector the caller
    /// built or mutated out of order falls back to a one-off sorted
    /// copy rather than returning a wrong quantile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_quantile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        if self.latencies.is_sorted() {
            self.latencies[idx]
        } else {
            let mut v = self.latencies.clone();
            v.sort_unstable();
            v[idx]
        }
    }

    /// Accepted throughput in flits per node per cycle.
    pub fn throughput_fpnc(&self) -> f64 {
        if self.cycles == 0 || self.nodes == 0 {
            return 0.0;
        }
        self.delivered_flits as f64 / self.cycles as f64 / self.nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(latencies: Vec<u64>) -> NetworkStats {
        NetworkStats {
            cycles: 1000,
            nodes: 16,
            offered_packets: 100,
            delivered_packets: 100,
            delivered_flits: 400,
            latency_sum: 2000,
            latency_max: 90,
            latencies,
            ..NetworkStats::default()
        }
    }

    #[test]
    fn derived_metrics() {
        let s = sample((1..=100).collect());
        assert!((s.avg_latency() - 20.0).abs() < 1e-9);
        assert!((s.throughput_fpnc() - 0.025).abs() < 1e-9);
        assert_eq!(s.latency_quantile(1.0), 100);
        assert_eq!(s.latency_quantile(0.0), 1);
        let med = s.latency_quantile(0.5);
        assert!((50..=51).contains(&med));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = NetworkStats::default();
        assert!(s.avg_latency().is_nan());
        assert_eq!(s.throughput_fpnc(), 0.0);
        assert_eq!(s.latency_quantile(0.5), 0);
    }

    #[test]
    fn repeated_quantile_calls_agree_sorted_or_not() {
        // Deliberately unsorted: the fallback path must agree with the
        // sorted fast path, and repeated calls must agree with each
        // other (the old implementation re-cloned + re-sorted every
        // call; the vector itself must also stay untouched).
        let unsorted: Vec<u64> = (1..=100).rev().collect();
        let mut s = sample(unsorted.clone());
        for p in [0.0, 0.25, 0.5, 0.9, 0.95, 1.0] {
            let a = s.latency_quantile(p);
            let b = s.latency_quantile(p);
            assert_eq!(a, b, "repeated calls at p={p}");
        }
        assert_eq!(s.latencies, unsorted, "quantile must not mutate the vector");
        let slow: Vec<u64> = [0.0, 0.5, 1.0].iter().map(|&p| s.latency_quantile(p)).collect();
        s.finalize_latencies();
        assert!(s.latencies.is_sorted());
        let fast: Vec<u64> = [0.0, 0.5, 1.0].iter().map(|&p| s.latency_quantile(p)).collect();
        assert_eq!(slow, fast, "fallback and indexed paths must agree");
    }

    #[test]
    fn recovery_totals_roll_up() {
        let mut s = NetworkStats {
            link_recovery: vec![
                LinkRecovery {
                    node: NodeId(0),
                    dir: Direction::East,
                    counts: RecoveryCounts { errors: 5, nacks: 4, replays: 4, ..Default::default() },
                },
                LinkRecovery {
                    node: NodeId(1),
                    dir: Direction::West,
                    counts: RecoveryCounts { errors: 2, failed: true, ..Default::default() },
                },
                LinkRecovery {
                    node: NodeId(2),
                    dir: Direction::North,
                    counts: RecoveryCounts::default(),
                },
            ],
            ..Default::default()
        };
        s.finalize_recovery();
        assert_eq!(s.recovery.counts.errors, 7);
        assert_eq!(s.recovery.counts.nacks, 4);
        assert_eq!(s.recovery.failed_links, 1);
        assert!(s.recovery.counts.failed);
    }
}
