//! Offline compilation wrapper for `flexric` (crates/core) without the
//! async runtime: every module but the driver, included from its real
//! source via `#[path]` — the procedure table, the encode scratch, the
//! report sender, and the two state machines (`agent`, `server` with its
//! shard, router and RAN database) — so their unit and property tests run
//! under bare `rustc --test`, and `tests/protocol.rs` links against this
//! as `flexric`.
//!
//! Left out: `driver.rs`, the one file that needs the runtime (sockets,
//! tasks, timers; hand-reviewed, exercised by `crates/core/tests/e2e.rs`
//! and the root integration tests on a networked host).  `agent` and
//! `server` re-export its two handle types, so a `driver` module with
//! those two names stands in here.

#[path = "../../crates/core/src/agent.rs"]
pub mod agent;
#[path = "../../crates/core/src/endpoint.rs"]
pub mod endpoint;
#[path = "../../crates/core/src/machine.rs"]
pub mod machine;
#[path = "../../crates/core/src/report.rs"]
pub mod report;
#[path = "../../crates/core/src/scratch.rs"]
pub mod scratch;
#[path = "../../crates/core/src/server/mod.rs"]
pub mod server;

mod driver {
    pub struct AgentHandle;
    pub struct ServerHandle;
}
