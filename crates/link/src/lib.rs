//! # sal-link — serialized asynchronous NoC links
//!
//! Gate-level implementations of the three switch-to-switch link
//! families evaluated in *Serialized Asynchronous Links for NoC*
//! (Ogg, Valli, Al-Hashimi, Yakovlev, D'Alessandro, Benini — DATE
//! 2008):
//!
//! * **I1** ([`LinkFamily::Sync`]) — the fully synchronous reference:
//!   an `m`-bit parallel link with clocked pipeline buffers (paper
//!   Fig 9, top).
//! * **I2** ([`LinkFamily::PerTransfer`]) — the proposed asynchronous
//!   serialized link with **per-transfer acknowledgement**: a
//!   sync→async FIFO interface (Fig 4), an `m→n` David-cell
//!   serializer (Fig 6a), four-phase bundled-data wire buffers, an
//!   `n→m` deserializer (Fig 6b) and an async→sync FIFO interface
//!   (Fig 5).
//! * **I3** ([`LinkFamily::PerWord`]) — the **per-word
//!   acknowledgement** variant (Fig 7/8): the serializer paces a
//!   burst of slices with a local ring oscillator and a
//!   source-synchronous `VALID` strobe, the wire repeaters are plain
//!   inverter pairs, the deserializer is a shift register, and a
//!   single acknowledge wire runs back per word.
//!
//! Where the paper fixes each family at a 32-bit word and 4:1
//! serialization ratio, this crate generates the whole design space:
//! a declarative [`LinkSpec`] — family × word width × ratio × buffer
//! depth × protection × I3 receiver — is validated up front
//! ([`SpecError`]) and compiled to a netlist by [`generate`], lint-clean
//! by construction.
//! The paper's three links are just [`LinkSpec::paper`] points.
//!
//! Every block is built from `sal-cells` primitives through the
//! [`CircuitBuilder`](sal_cells::CircuitBuilder), so the technology
//! model prices its area and its switching energy exactly as it
//! simulates. Block-level scopes (`tx_if`, `ser`, `wire`, `des`,
//! `rx_if`) match the power-breakdown categories of the paper's
//! Fig 14.
//!
//! The [`testbench`] module provides the synchronous switch models and
//! asynchronous handshake drivers used by unit tests and by the
//! benchmark harness, and [`measure`] runs the paper's measurement
//! protocol (worst-case flit pattern, 50 % usage window) through the
//! single entry point [`run_spec`]. Observability — transition traces,
//! handshake-latency histograms, per-block energy attribution, kernel
//! profiling — is opt-in via
//! [`MeasureOptions::with_trace`]/[`MeasureOptions::with_metrics`]
//! and surfaced in [`metrics`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod as_interface;
mod assembly;
mod config;
mod deserializer;
mod protect;
mod retry;
mod sa_interface;
mod scoreboard;
mod serializer;
mod spec;
mod sync_link;
pub mod measure;
pub mod metrics;
pub mod testbench;
mod wire_buffer;
mod word_deserializer;
mod word_serializer;

pub use assembly::LinkHandles;
pub use config::{LinkConfig, LENGTH_UM};
pub use measure::{
    run_spec, BlockPower, LinkRun, MeasureOptions, RunFailure, TraceMode,
};
pub use spec::{
    generate, LinkFamily, LinkSpec, LinkSpecBuilder, ProtectionMode, SpecError, WordRxStyle,
};
pub use metrics::{
    BlockAttribution, BurstStats, HandshakeStats, Histogram, InFlightDepth, LinkMetrics,
    Occupancy,
};
pub use retry::RecoverySignals;
pub use scoreboard::{check_integrity, IntegrityCounts, RecoveryCounts};
pub use sync_link::build_skid_stage;
pub use word_deserializer::{build_word_deserializer, WordDeserializerPorts};
pub use word_serializer::{build_word_serializer, WordSerializerPorts};
