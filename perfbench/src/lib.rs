//! # sal-perfbench — layer-attributed wall-time benchmark
//!
//! One runner, four seeded workloads, one simulation thread. Each
//! workload is a list of operations generated from the seed
//! ([`plan`]); every operation calls the public API of the layers it
//! exercises directly, its outputs are checked outside the timed
//! section ([`exec`]), and its work is counted from the reports the
//! API already returns (`LinkRun::profile`, `NetworkStats`,
//! `FlowNetReport`, `sliced::CampaignResult`). A traced run records a
//! span around every layer call ([`trace`]) and yields the per-layer
//! metrics ([`report`]). Host times are scaled by the host's speed,
//! gauged with a fixed computation run between operations
//! ([`reference`]).
//!
//! The workloads, and why each exists:
//!
//! * `lattice_sweep` — a seeded sample of the Pareto lattice, each cell
//!   built, linted and simulated exactly as the cold Pareto campaign
//!   does. Bound by `sal-lint`, which no other workload touches.
//! * `gate_stream` — gate-level link streams, 64-lane bit-sliced glitch
//!   storms and small switch fabrics. Bound by the event loop; runs no
//!   lint.
//! * `mesh_load` — open-loop 8×8 meshes at and past saturation, faults
//!   off: every router busy every cycle.
//! * `mesh_chaos` — flow-mode 4×4 campaign cells (lossy links, CRC-8
//!   storms, link kills, killer storms): a nearly idle fabric while the
//!   flow layer, fault dice and reconfiguration epochs run.

#![forbid(unsafe_code)]

pub mod exec;
pub mod fixtures;
pub mod plan;
pub mod reference;
pub mod report;
pub mod trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sampled Pareto lattice: build → netgraph → lint → `run_spec`.
    LatticeSweep,
    /// Gate-level kernel work: link streams, sliced storms, fabrics.
    GateStream,
    /// Open-loop 8×8 mesh at and past saturation.
    MeshLoad,
    /// Flow-mode 4×4 chaos cells.
    MeshChaos,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LatticeSweep,
        Workload::GateStream,
        Workload::MeshLoad,
        Workload::MeshChaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatticeSweep => "lattice_sweep",
            Workload::GateStream => "gate_stream",
            Workload::MeshLoad => "mesh_load",
            Workload::MeshChaos => "mesh_chaos",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The unit of work `work_per_s` counts on this workload, and the
    /// name the workload's rate goes by.
    pub fn work_unit(self) -> (&'static str, &'static str) {
        match self {
            Workload::LatticeSweep => ("cells", "cells_per_s"),
            Workload::GateStream => ("sim ns", "sim_ns_per_s"),
            Workload::MeshLoad | Workload::MeshChaos => ("cycles", "cycles_per_s"),
        }
    }

    /// Nominal host seconds of one round on the reference machine (a
    /// 2-core x86-64 container); `--seconds` is turned into a fixed
    /// round count with it, so the work of a run depends only on the
    /// seed and `--seconds`, never on how fast the machine is.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::LatticeSweep => 17.0,
            Workload::GateStream => 0.15,
            Workload::MeshLoad => 0.9,
            Workload::MeshChaos => 0.83,
        }
    }

    /// Rounds a run of `seconds` nominal host seconds executes (at
    /// least one).
    pub fn rounds(self, seconds: f64) -> usize {
        (seconds / self.nominal_round_s()).round().max(1.0) as usize
    }
}

/// SplitMix64: the benchmark's only source of randomness. Every input
/// is derived from the workload seed through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, further keyed by `stream` so independent
    /// choices (round, stratum, op) draw from independent streams.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
