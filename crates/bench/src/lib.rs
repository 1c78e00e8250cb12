//! # sal-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§V), each
//! returning structured rows so binaries can print them (through
//! [`print`](mod@print)) and tests can assert the paper's qualitative
//! claims. The binaries under `src/bin/` regenerate:
//!
//! | Target | Paper artifact |
//! |--------|----------------|
//! | `fig10` | Bandwidth vs. number of wires |
//! | `fig11` | Wiring area vs. wire length |
//! | `fig12` | Power vs. buffers @ 100 MHz |
//! | `fig13` | Power vs. buffers @ 300 MHz |
//! | `fig14` | Per-block power breakdown @ 50 % usage |
//! | `table1` | Link area overhead |
//! | `table2` | I2 block area breakdown |
//! | `delay_check` | §V per-word delay equation validation |
//! | `headline` | The abstract's 75 % wires / 65 % power / 20 % area claims |
//! | `noc_study` | Mesh-level latency/throughput with each link (extension) |
//! | `experiments` | All of the above, in order |
//! | `noc_curves` | Mesh load/latency curves with each link (extension) |
//! | `ablations` | Early-ack / slice-width / receiver-style / corner studies |
//! | `margins` | Timing-margin / fault-injection sweep (robustness extension) |
//! | `recovery` | Link-level error detection & retransmission chaos soak |
//! | `flows` | End-to-end flows over lossy mesh channels (goodput-collapse curves) |
//! | `compile` | Compiled-engine equivalence + bit-sliced seed campaigns |
//! | `observability` | Traced, fully metered I2/I3 runs (observability extension) |
//! | `sal-lint` | Static analysis of I1/I2/I3 across configuration corners |
//! | `pareto` | Design-space sweep over the `LinkSpec` lattice (extension) |
//! | `reroute` | Fault-tolerant routing vs link failure (reconfiguration extension) |

#![forbid(unsafe_code)]

pub mod ablations;
pub mod compile_report;
pub mod experiments;
pub mod flows;
pub mod pareto;
pub mod print;
pub mod recovery;
pub mod reroute;
pub mod robustness;
pub mod sliced;
pub mod sweep;
pub mod table;
