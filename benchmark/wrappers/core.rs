//! Offline build of `flexric` (crates/core) without tokio: the two
//! modules the benchmark binds, from their real sources.  `agent`,
//! `server`, `report` and `conn` need tokio and are listed as not covered
//! in benchmark/README.md; the harness mirrors their glue in
//! benchmark/src/glue.rs.

#[path = "../../crates/core/src/endpoint.rs"]
pub mod endpoint;
#[path = "../../crates/core/src/scratch.rs"]
pub mod scratch;
