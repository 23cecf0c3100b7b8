//! Offline compilation wrapper for the tokio-free modules of `flexric`
//! (crates/core): the procedure table and the encode scratch, included
//! from their real sources via `#[path]` so their unit and property tests
//! run under bare `rustc --test`.  `agent`, `server`, `report` and `conn`
//! need tokio.

#[path = "../../crates/core/src/endpoint.rs"]
pub mod endpoint;
#[path = "../../crates/core/src/scratch.rs"]
pub mod scratch;
