//! Offline build of `flexric-ctrl` without tokio/serde: only the std-only
//! share solver, from its real source.  Every iApp in the crate needs the
//! tokio-bound server library and is listed as not covered.

#[path = "../../crates/ctrl/src/sla_solver.rs"]
pub mod sla_solver;
