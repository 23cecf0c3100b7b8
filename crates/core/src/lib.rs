//! # FlexRIC-rs — the SDK
//!
//! A from-scratch Rust reproduction of the FlexRIC SDK (Schmidt, Irazabal,
//! Nikaein — *FlexRIC: An SDK for Next-Generation SD-RANs*, CoNEXT 2021):
//! an event-driven software development kit to build specialized
//! software-defined RAN controllers.
//!
//! The SDK consists of two libraries (paper §3):
//!
//! * the **agent library** ([`agent`]) — extends a base station with E2
//!   agent functionality: connection management toward one *or several*
//!   controllers, a generic RAN-function API with subscription /
//!   subscription-delete / control callbacks, and a UE-to-controller
//!   association for multi-service deployments;
//! * the **server library** ([`server`]) — multiplexes agent connections
//!   and dispatches E2AP messages to controller-internal applications
//!   (iApps) through an event-driven callback system; it maintains a RAN
//!   database that merges disaggregated CU/DU agents into RAN entities and
//!   tracks subscriptions so indications reach the right iApp.
//!
//! Both libraries speak through the E2AP intermediate representation of
//! `flexric-e2ap`, with the encoding ([`flexric_codec::E2apCodec`]) and the
//! transport (`flexric-transport`) selected per connection — the paper's
//! "zero-overhead principle": nothing is imposed beyond what the use case
//! needs.
//!
//! Both libraries are *state machines* ([`machine`]): [`Agent`] and
//! [`server::Shard`] are plain structs with one entry point,
//! `handle(event, now_ms, &mut actions)`, that own no socket, task, channel
//! or clock, and so is the controller hop made of the two, the
//! [`relay::Bridge`].  Two drivers do the dialling, reading, writing and
//! timekeeping for all of them: `driver.rs`, behind [`Agent::spawn`],
//! [`Server::spawn`] and [`relay::Bridge::spawn`] — one [`spawn_machine`]
//! and one [`Handle`] for every machine — on threads, sockets and the wall
//! clock; and [`wire::Wire`], on one thread and one virtual clock, for the
//! test suites and the virtual-time experiments.
//!
//! Both sides build their pending-request bookkeeping on the shared
//! procedure-endpoint layer ([`endpoint`]): one outstanding-transaction
//! table with per-procedure-class deadlines, bounded retransmission, and
//! explicit terminal outcomes — E2 Setup included, which is what redials a
//! lost controller under capped exponential backoff — and the server
//! replays live subscriptions to a returning agent, so iApps and RAN
//! functions survive a controller or agent restart without code changes.
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs` at the repository root: it starts a
//! controller with a monitoring iApp, attaches an agent exposing the MAC
//! statistics service model, subscribes, and prints live statistics.

pub mod agent;
mod driver;
pub mod endpoint;
pub mod machine;
pub mod relay;
pub mod report;
pub mod scratch;
pub mod server;
pub mod wire;

pub use agent::{
    Admission, Agent, AgentConfig, AgentCtx, AgentHandle, Due, RanFunction, Subscription,
    SubscriptionInfo,
};
pub use driver::{spawn_machine, Handle, Links, MachineHandle};
pub use endpoint::{
    Backoff, E2apEndpoint, Procedure, ProcedureClass, ProcedureKey, ProcedureOutcome,
    ProcedureTable, RetryPolicy,
};
pub use machine::{Action, DialTag, Event, Machine, PeerId};
pub use report::ReportStream;
pub use scratch::{stream_for, EncodeScratch, Targets};
pub use server::{
    AgentId, AgentInfo, IApp, IndicationRef, RanDb, RanEntity, Server, ServerApi, ServerConfig,
    ServerEvent, ServerHandle,
};

/// Current time source used by both libraries when running in real time:
/// milliseconds of a monotonic clock anchored at process start.
pub fn mono_ms() -> u64 {
    mono_ns() / 1_000_000
}

/// Nanoseconds of a monotonic clock anchored at process start, for RTT
/// measurements.
pub fn mono_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Paces a loop on the wall clock — a base station's 1 ms TTI, a poll.
/// [`tick`](Self::tick) sleeps until the next period boundary; periods
/// missed while the caller was busy are skipped, not made up for.
#[derive(Debug)]
pub struct Ticker {
    period: std::time::Duration,
    next: std::time::Instant,
}

impl Ticker {
    /// A ticker whose first tick is due at once.
    pub fn every(period: std::time::Duration) -> Self {
        Ticker { period, next: std::time::Instant::now() }
    }

    /// Blocks the calling thread until the next tick is due.
    pub fn tick(&mut self) {
        let now = std::time::Instant::now();
        match self.next.checked_duration_since(now) {
            Some(wait) => {
                std::thread::sleep(wait);
                self.next += self.period;
            }
            None => self.next = now + self.period,
        }
    }
}
