//! Discrete-time 4G/5G RAN simulator — the substrate standing in for the
//! paper's OpenAirInterface base stations, Ettus B210 radios and COTS UEs.
//!
//! The simulator models exactly the mechanisms the paper's experiments
//! exercise (see DESIGN.md §1 for the substitution argument):
//!
//! * a 1 ms-TTI MAC with two-level scheduling — a slice scheduler
//!   ([`nvs`]: NVS with/without sharing, static partitioning) above
//!   per-slice UE schedulers (round-robin, proportional fair, max
//!   throughput) — reproducing the isolation/sharing dynamics of
//!   Figs. 13/15;
//! * per-bearer RLC buffers with drop-tail capacity and sojourn-time
//!   tracking ([`rlc`]) — the bottleneck queue behind bufferbloat;
//! * the TC sublayer ([`tc`]): OSI classifier, FIFO/CoDel queues,
//!   RR/priority/WRR schedulers and the 5G-BDP pacer of §6.1.1;
//! * traffic generators ([`traffic`]): G.711-like CBR VoIP and greedy TCP
//!   with a Cubic-style congestion controller that closes the loop through
//!   the RLC queue, so bufferbloat *emerges* rather than being scripted;
//! * a simple PHY abstraction ([`phy`]) mapping `(RAT, MCS, PRBs)` to
//!   drain rate, calibrated to the paper's cells (25 RB LTE ≈ 17 Mbit/s,
//!   106 RB NR MCS 20 ≈ 60 Mbit/s).
//!
//! The engine is virtual-time: [`Sim::tick`] advances exactly one TTI, so
//! a 60 s scenario runs in milliseconds inside tests and the experiment
//! harness; the agent integration layer (`flexric-ctrl`) drives it either
//! from a real-time 1 ms ticker or from the experiment's loop.

pub mod cell;
pub mod kpi;
pub mod nvs;
pub mod phy;
pub mod rlc;
pub mod scenario;
pub mod sim;
pub mod tc;
pub mod traffic;

pub use cell::{Cell, CellConfig, UeConfig};
pub use kpi::{KpiGen, Phase};
pub use phy::{bytes_per_prb_tti, cell_rate_kbps, Rat};
pub use rlc::Packet;
pub use scenario::{ScenarioEngine, ScenarioEvent, ScenarioSpec};
pub use sim::{PathConfig, Sim};
pub use traffic::{Flow, FlowConfig, FlowKind};
