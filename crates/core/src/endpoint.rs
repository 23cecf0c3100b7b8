//! Shared E2AP procedure-endpoint layer.
//!
//! The paper's E2AP procedures (Setup, RIC Subscription, Control — §3.2,
//! §4.1, §4.3) are request/response exchanges; production E2 nodes treat
//! the endpoint lifecycle around them as first class: every outstanding
//! request carries a deadline, a bounded number of retransmissions, and an
//! explicit terminal outcome.  This module provides that machinery once,
//! for both sides of the wire — the agent and the server library build
//! their pending-request bookkeeping on [`ProcedureTable`] /
//! [`E2apEndpoint`] instead of hand-rolling it twice.
//!
//! ## Procedure lifecycle
//!
//! ```text
//!            begin()                      complete()
//!   (sent) ────────────► OUTSTANDING ───────────────► Acked / Failed(Cause)
//!                          │      ▲
//!         deadline passed  │      │ retransmit
//!         attempts < max   └──────┘ (deadline doubles, capped)
//!                          │
//!         deadline passed  │                 connection_lost()
//!         attempts == max  ▼                        │
//!                       TimedOut ◄──────────────────┴─► ConnectionLost
//! ```
//!
//! Every outcome is terminal: an entry leaves the table exactly once, so a
//! lost response can no longer leak state forever.
//!
//! ## Time
//!
//! The table is driven explicitly via [`ProcedureTable::poll`] with the
//! caller's clock — wall time on a ticking agent/server, virtual time in
//! simulations — so retransmission behaviour is deterministic under test.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use flexric_e2ap::{Cause, E2apPdu, RanFunctionId, RicRequestId};

/// The E2AP procedure classes tracked by the endpoint, each with its own
/// default deadline (see [`RetryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcedureClass {
    /// E2 Setup (agent-initiated).
    Setup,
    /// RIC Subscription (server-initiated).
    Subscription,
    /// RIC Subscription Delete (server-initiated).
    SubscriptionDelete,
    /// RIC Control (server-initiated).  Controls are *not* retransmitted:
    /// a control message is not idempotent, so the deadline only bounds
    /// how long the requester waits for the outcome.
    Control,
    /// RIC Service Update (agent-initiated).
    ServiceUpdate,
    /// E2AP Reset.
    Reset,
    /// E2 Connection Update.
    ConnectionUpdate,
}

/// Key of an outstanding procedure at one peer: E2AP global procedures use
/// a one-byte transaction id, RIC functional procedures a
/// [`RicRequestId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcedureKey {
    /// Transaction-id keyed procedure (Setup, Service Update, Reset, …).
    Tx(u8),
    /// RIC-request-id keyed procedure (Subscription, Control, …).
    Ric(RicRequestId),
}

/// Terminal outcome of a tracked procedure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcedureOutcome {
    /// The peer acknowledged the request.
    Acked,
    /// The peer rejected the request.
    Failed(Cause),
    /// No response arrived within the deadline, after all retransmissions.
    TimedOut,
    /// The connection went down while the request was outstanding.
    ConnectionLost,
}

/// Capped exponential backoff: `initial_ms * 2^attempt`, clamped to
/// `max_ms`.  Used both for retransmission deadlines and for the
/// reconnect supervisors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds.
    pub initial_ms: u64,
    /// Upper bound on the delay, in milliseconds.
    pub max_ms: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { initial_ms: 50, max_ms: 5_000 }
    }
}

impl Backoff {
    /// The delay before attempt number `attempt` (0-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        self.initial_ms.saturating_mul(factor).min(self.max_ms)
    }
}

/// Per-procedure-class deadlines and the retransmission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for E2 Setup, in milliseconds.
    pub setup_deadline_ms: u64,
    /// Deadline for RIC Subscription requests, in milliseconds.
    pub subscription_deadline_ms: u64,
    /// Deadline for RIC Subscription Delete requests, in milliseconds.
    pub delete_deadline_ms: u64,
    /// Deadline for RIC Control requests, in milliseconds.
    pub control_deadline_ms: u64,
    /// Deadline for RIC Service Update, in milliseconds.
    pub service_deadline_ms: u64,
    /// Deadline for Reset and Connection Update, in milliseconds.
    pub global_deadline_ms: u64,
    /// Cap on the per-attempt deadline as it doubles across retries.
    pub max_deadline_ms: u64,
    /// Total send attempts per procedure (1 original + N-1 retransmits).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            setup_deadline_ms: 1_000,
            subscription_deadline_ms: 300,
            delete_deadline_ms: 300,
            control_deadline_ms: 500,
            service_deadline_ms: 500,
            global_deadline_ms: 500,
            max_deadline_ms: 5_000,
            max_attempts: 4,
        }
    }
}

impl RetryPolicy {
    /// The first-attempt deadline of a class, in milliseconds.
    pub fn deadline_ms(&self, class: ProcedureClass) -> u64 {
        match class {
            ProcedureClass::Setup => self.setup_deadline_ms,
            ProcedureClass::Subscription => self.subscription_deadline_ms,
            ProcedureClass::SubscriptionDelete => self.delete_deadline_ms,
            ProcedureClass::Control => self.control_deadline_ms,
            ProcedureClass::ServiceUpdate => self.service_deadline_ms,
            ProcedureClass::Reset | ProcedureClass::ConnectionUpdate => self.global_deadline_ms,
        }
    }

    /// Whether a class may be retransmitted.  Control and Connection
    /// Update are not idempotent and never are.
    pub fn retryable(&self, class: ProcedureClass) -> bool {
        !matches!(class, ProcedureClass::Control | ProcedureClass::ConnectionUpdate)
    }

    /// The deadline of attempt number `attempt` (1-based): the class
    /// deadline, doubling per retransmission, capped at
    /// [`max_deadline_ms`](Self::max_deadline_ms).
    pub fn attempt_deadline_ms(&self, class: ProcedureClass, attempt: u32) -> u64 {
        Backoff { initial_ms: self.deadline_ms(class), max_ms: self.max_deadline_ms }
            .delay_ms(attempt.saturating_sub(1))
    }
}

/// One outstanding procedure.
#[derive(Debug, Clone)]
pub struct Procedure<P, U> {
    /// The peer the request was sent to.
    pub peer: P,
    /// The procedure's key at that peer.
    pub key: ProcedureKey,
    /// Its class.
    pub class: ProcedureClass,
    /// The request PDU, kept for retransmission.  An entry without one is
    /// never retransmitted.
    pub pdu: Option<E2apPdu>,
    /// Caller payload (e.g. the owning iApp index), returned on
    /// completion.
    pub user: U,
    /// Send attempts so far (1 = original send only).
    pub attempts: u32,
    /// Absolute deadline in the caller's clock.
    pub deadline_ms: u64,
}

impl<P, U> Procedure<P, U> {
    /// The RAN function addressed by the request, when the PDU carries
    /// one.
    pub fn ran_function(&self) -> Option<RanFunctionId> {
        self.pdu.as_ref().and_then(|p| p.ran_function_id())
    }
}

/// Procedure-layer metrics, shared by every endpoint in the process
/// (agent- and server-side tables alike).  Terminal outcomes are labeled
/// `outcome="acked|failed|timed_out|connection_lost"`; the table itself
/// counts begins/retransmits/timeouts/losses, and the response-completion
/// call sites in agent/server report acked vs. failed via
/// [`note_completed`].
pub(crate) struct EndpointMetrics {
    pub begun: flexric_obs::Counter,
    pub retransmits: flexric_obs::Counter,
    pub acked: flexric_obs::Counter,
    pub failed: flexric_obs::Counter,
    pub timed_out: flexric_obs::Counter,
    pub connection_lost: flexric_obs::Counter,
    pub outstanding: flexric_obs::Gauge,
}

pub(crate) fn metrics() -> &'static EndpointMetrics {
    static M: std::sync::OnceLock<EndpointMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let outcome = |o: &'static str| {
            flexric_obs::counter_with(
                "flexric_endpoint_procedures_total",
                &[("outcome", o)],
                "E2AP procedures by terminal outcome",
            )
        };
        EndpointMetrics {
            begun: flexric_obs::counter(
                "flexric_endpoint_begun_total",
                "E2AP procedures started (original transmissions)",
            ),
            retransmits: flexric_obs::counter(
                "flexric_endpoint_retransmits_total",
                "E2AP procedure retransmissions",
            ),
            acked: outcome("acked"),
            failed: outcome("failed"),
            timed_out: outcome("timed_out"),
            connection_lost: outcome("connection_lost"),
            outstanding: flexric_obs::gauge(
                "flexric_endpoint_outstanding",
                "E2AP procedures currently in flight",
            ),
        }
    })
}

/// Records a procedure completed by a peer response: positive responses
/// count as `outcome="acked"`, failure responses as `outcome="failed"`.
pub(crate) fn note_completed(acked: bool) {
    if acked {
        metrics().acked.inc();
    } else {
        metrics().failed.inc();
    }
}

/// The typed outstanding-transaction table: at most one procedure per
/// `(peer, key)`, with deadline/retransmission bookkeeping driven by
/// [`poll`](Self::poll).
#[derive(Debug)]
pub struct ProcedureTable<P: Eq + Hash + Copy, U> {
    entries: HashMap<(P, ProcedureKey), Procedure<P, U>>,
    /// How many entries, over all peers, each RIC request id keys: what
    /// [`instance_in_flight`](Self::instance_in_flight) probes, kept in
    /// step wherever an entry is inserted or removed.
    ric_in_flight: HashMap<RicRequestId, u32>,
    policy: RetryPolicy,
}

impl<P: Eq + Hash + Copy, U> ProcedureTable<P, U> {
    /// An empty table under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        ProcedureTable { entries: HashMap::new(), ric_in_flight: HashMap::new(), policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Inserts `proc`, whose `(peer, key)` the caller found free.
    fn insert(&mut self, proc: Procedure<P, U>) {
        if let ProcedureKey::Ric(id) = proc.key {
            *self.ric_in_flight.entry(id).or_insert(0) += 1;
        }
        self.entries.insert((proc.peer, proc.key), proc);
        metrics().begun.inc();
        metrics().outstanding.add(1);
    }

    /// Removes the entry under `(peer, key)`, if any.
    fn remove(&mut self, peer: P, key: ProcedureKey) -> Option<Procedure<P, U>> {
        let removed = self.entries.remove(&(peer, key))?;
        if let ProcedureKey::Ric(id) = key {
            if let Entry::Occupied(mut n) = self.ric_in_flight.entry(id) {
                *n.get_mut() -= 1;
                if *n.get() == 0 {
                    n.remove();
                }
            }
        }
        Some(removed)
    }

    /// Starts tracking a procedure sent at `now_ms`.  Returns `false` (and
    /// changes nothing) if the same `(peer, key)` is already outstanding.
    pub fn begin(
        &mut self,
        peer: P,
        key: ProcedureKey,
        class: ProcedureClass,
        pdu: Option<E2apPdu>,
        user: U,
        now_ms: u64,
    ) -> bool {
        if self.entries.contains_key(&(peer, key)) {
            return false;
        }
        let deadline_ms = now_ms.saturating_add(self.policy.deadline_ms(class));
        self.insert(Procedure { peer, key, class, pdu, user, attempts: 1, deadline_ms });
        true
    }

    /// Removes and returns the procedure a response arrived for.
    pub fn complete(&mut self, peer: P, key: ProcedureKey) -> Option<Procedure<P, U>> {
        let removed = self.remove(peer, key);
        if removed.is_some() {
            metrics().outstanding.sub(1);
        }
        removed
    }

    /// The outstanding procedure under `(peer, key)`, if any.
    pub fn get(&self, peer: P, key: ProcedureKey) -> Option<&Procedure<P, U>> {
        self.entries.get(&(peer, key))
    }

    /// Whether `(peer, key)` is outstanding.
    pub fn contains(&self, peer: P, key: ProcedureKey) -> bool {
        self.entries.contains_key(&(peer, key))
    }

    /// Number of outstanding procedures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether transaction id `id` is in flight toward any peer.
    pub fn tx_in_flight(&self, id: u8) -> bool {
        self.entries.keys().any(|(_, k)| *k == ProcedureKey::Tx(id))
    }

    /// Whether `requestor/instance` is in flight toward any peer.
    pub fn instance_in_flight(&self, requestor: u16, instance: u16) -> bool {
        self.ric_in_flight.contains_key(&RicRequestId::new(requestor, instance))
    }

    /// Advances the clock: retransmits every expired procedure with budget
    /// left (through `retransmit`, with a doubled, capped deadline) and
    /// removes and returns the ones that exhausted their budget — each
    /// with terminal outcome [`ProcedureOutcome::TimedOut`].
    pub fn poll(
        &mut self,
        now_ms: u64,
        mut retransmit: impl FnMut(P, &E2apPdu),
    ) -> Vec<Procedure<P, U>> {
        let mut expired: Vec<(P, ProcedureKey)> = Vec::new();
        for ((peer, key), proc) in self.entries.iter_mut() {
            if now_ms < proc.deadline_ms {
                continue;
            }
            let can_retry = proc.attempts < self.policy.max_attempts
                && self.policy.retryable(proc.class)
                && proc.pdu.is_some();
            if can_retry {
                proc.attempts += 1;
                proc.deadline_ms = now_ms
                    .saturating_add(self.policy.attempt_deadline_ms(proc.class, proc.attempts));
                if let Some(pdu) = &proc.pdu {
                    metrics().retransmits.inc();
                    retransmit(*peer, pdu);
                }
            } else {
                expired.push((*peer, *key));
            }
        }
        let out: Vec<Procedure<P, U>> =
            expired.into_iter().filter_map(|(peer, key)| self.remove(peer, key)).collect();
        metrics().timed_out.add(out.len() as u64);
        metrics().outstanding.sub(out.len() as i64);
        out
    }

    /// Removes and returns every procedure outstanding toward `peer` —
    /// each with terminal outcome [`ProcedureOutcome::ConnectionLost`].
    pub fn connection_lost(&mut self, peer: P) -> Vec<Procedure<P, U>> {
        let keys: Vec<(P, ProcedureKey)> =
            self.entries.keys().filter(|(p, _)| *p == peer).copied().collect();
        let out: Vec<Procedure<P, U>> =
            keys.into_iter().filter_map(|(peer, key)| self.remove(peer, key)).collect();
        metrics().connection_lost.add(out.len() as u64);
        metrics().outstanding.sub(out.len() as i64);
        out
    }
}

/// Wraparound-safe allocator for E2AP one-byte transaction ids: skips ids
/// still in flight, so an id is never reused while its procedure is
/// outstanding.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxIdAlloc {
    next: u8,
}

impl TxIdAlloc {
    /// The next free transaction id, or `None` if all 256 are in flight.
    pub fn alloc(&mut self, mut in_flight: impl FnMut(u8) -> bool) -> Option<u8> {
        for _ in 0..=u8::MAX {
            let id = self.next;
            self.next = self.next.wrapping_add(1);
            if !in_flight(id) {
                return Some(id);
            }
        }
        None
    }
}

/// Wraparound-safe allocator for the 16-bit instance half of a
/// [`RicRequestId`].
#[derive(Debug, Default, Clone, Copy)]
pub struct InstanceAlloc {
    next: u16,
}

impl InstanceAlloc {
    /// The next free instance, or `None` if all 65 536 are in use.
    pub fn alloc(&mut self, mut in_use: impl FnMut(u16) -> bool) -> Option<u16> {
        for _ in 0..=u16::MAX {
            let inst = self.next;
            self.next = self.next.wrapping_add(1);
            if !in_use(inst) {
                return Some(inst);
            }
        }
        None
    }
}

/// A procedure endpoint: the outstanding-transaction table plus the
/// wraparound-safe id allocators.  One per agent/server event loop.
#[derive(Debug)]
pub struct E2apEndpoint<P: Eq + Hash + Copy, U> {
    /// The outstanding-transaction table.
    pub table: ProcedureTable<P, U>,
    tx_ids: TxIdAlloc,
    instances: InstanceAlloc,
}

impl<P: Eq + Hash + Copy, U> E2apEndpoint<P, U> {
    /// A fresh endpoint under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        E2apEndpoint {
            table: ProcedureTable::new(policy),
            tx_ids: TxIdAlloc::default(),
            instances: InstanceAlloc::default(),
        }
    }

    /// Allocates a transaction id not currently in flight.
    pub fn alloc_tx_id(&mut self) -> u8 {
        let table = &self.table;
        // 256 simultaneously outstanding global procedures cannot happen
        // under the attempt budget; the fallback is unreachable.
        self.tx_ids.alloc(|id| table.tx_in_flight(id)).unwrap_or(0)
    }

    /// Allocates a request id for `requestor` whose instance is neither in
    /// flight in the table nor claimed by `extra_in_use` (the caller's
    /// established-subscription set).
    pub fn alloc_request_id(
        &mut self,
        requestor: u16,
        mut extra_in_use: impl FnMut(u16) -> bool,
    ) -> RicRequestId {
        let table = &self.table;
        let inst =
            self.instances.alloc(|i| table.instance_in_flight(requestor, i) || extra_in_use(i));
        // 65 536 simultaneously live ids for one requestor exceeds any
        // real deployment; fall back to instance 0 rather than panic.
        RicRequestId::new(requestor, inst.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexric_e2ap::RicSubscriptionDeleteRequest;

    fn pdu(req: RicRequestId) -> E2apPdu {
        E2apPdu::RicSubscriptionDeleteRequest(RicSubscriptionDeleteRequest {
            req_id: req,
            ran_function: RanFunctionId::new(7),
        })
    }

    fn rid(inst: u16) -> RicRequestId {
        RicRequestId::new(1, inst)
    }

    #[test]
    fn begin_complete_roundtrip() {
        let mut t: ProcedureTable<usize, u32> = ProcedureTable::new(RetryPolicy::default());
        assert!(t.begin(
            0,
            ProcedureKey::Ric(rid(1)),
            ProcedureClass::Subscription,
            Some(pdu(rid(1))),
            42,
            0
        ));
        assert!(!t.begin(0, ProcedureKey::Ric(rid(1)), ProcedureClass::Subscription, None, 43, 0));
        assert_eq!(t.len(), 1);
        let done = t.complete(0, ProcedureKey::Ric(rid(1))).unwrap();
        assert_eq!(done.user, 42);
        assert_eq!(done.ran_function(), Some(RanFunctionId::new(7)));
        assert!(t.is_empty());
        assert!(t.complete(0, ProcedureKey::Ric(rid(1))).is_none());
    }

    #[test]
    fn poll_retransmits_then_times_out() {
        let policy = RetryPolicy {
            subscription_deadline_ms: 10,
            max_deadline_ms: 1_000,
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut t: ProcedureTable<usize, ()> = ProcedureTable::new(policy);
        t.begin(
            0,
            ProcedureKey::Ric(rid(1)),
            ProcedureClass::Subscription,
            Some(pdu(rid(1))),
            (),
            0,
        );

        let mut sent = 0;
        assert!(t.poll(9, |_, _| sent += 1).is_empty());
        assert_eq!(sent, 0, "not due yet");

        // First expiry: retransmit, deadline doubles to 20 ms.
        assert!(t.poll(10, |_, _| sent += 1).is_empty());
        assert_eq!(sent, 1);
        assert_eq!(t.get(0, ProcedureKey::Ric(rid(1))).unwrap().attempts, 2);
        assert_eq!(t.get(0, ProcedureKey::Ric(rid(1))).unwrap().deadline_ms, 30);

        // Second expiry: last retransmit of the budget.
        assert!(t.poll(30, |_, _| sent += 1).is_empty());
        assert_eq!(sent, 2);
        assert_eq!(t.get(0, ProcedureKey::Ric(rid(1))).unwrap().deadline_ms, 70);

        // Budget exhausted: terminal timeout.
        let dead = t.poll(70, |_, _| sent += 1);
        assert_eq!(sent, 2, "no retransmit past the budget");
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].attempts, 3);
        assert!(t.is_empty());
    }

    #[test]
    fn control_is_never_retransmitted() {
        let policy =
            RetryPolicy { control_deadline_ms: 10, max_attempts: 4, ..RetryPolicy::default() };
        let mut t: ProcedureTable<usize, ()> = ProcedureTable::new(policy);
        t.begin(0, ProcedureKey::Ric(rid(9)), ProcedureClass::Control, Some(pdu(rid(9))), (), 0);
        let mut sent = 0;
        let dead = t.poll(10, |_, _| sent += 1);
        assert_eq!(sent, 0, "controls are not idempotent");
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].attempts, 1);
    }

    #[test]
    fn connection_lost_drains_one_peer() {
        let mut t: ProcedureTable<usize, ()> = ProcedureTable::new(RetryPolicy::default());
        t.begin(0, ProcedureKey::Ric(rid(1)), ProcedureClass::Subscription, None, (), 0);
        t.begin(0, ProcedureKey::Tx(5), ProcedureClass::ServiceUpdate, None, (), 0);
        t.begin(1, ProcedureKey::Ric(rid(1)), ProcedureClass::Subscription, None, (), 0);
        let lost = t.connection_lost(0);
        assert_eq!(lost.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.contains(1, ProcedureKey::Ric(rid(1))));
    }

    #[test]
    fn backoff_caps_at_max() {
        let b = Backoff { initial_ms: 50, max_ms: 5_000 };
        assert_eq!(b.delay_ms(0), 50);
        assert_eq!(b.delay_ms(1), 100);
        assert_eq!(b.delay_ms(6), 3_200);
        assert_eq!(b.delay_ms(7), 5_000);
        assert_eq!(b.delay_ms(63), 5_000);
        assert_eq!(b.delay_ms(64), 5_000, "shift overflow saturates");
        assert_eq!(b.delay_ms(u32::MAX), 5_000);
    }

    #[test]
    fn endpoint_allocators_skip_in_flight() {
        let mut ep: E2apEndpoint<usize, ()> = E2apEndpoint::new(RetryPolicy::default());
        let t0 = ep.alloc_tx_id();
        ep.table.begin(0, ProcedureKey::Tx(t0), ProcedureClass::Setup, None, (), 0);
        let t1 = ep.alloc_tx_id();
        assert_ne!(t0, t1);

        let r0 = ep.alloc_request_id(1, |_| false);
        ep.table.begin(0, ProcedureKey::Ric(r0), ProcedureClass::Subscription, None, (), 0);
        let r1 = ep.alloc_request_id(1, |_| false);
        assert_ne!(r0, r1);
        // An externally claimed instance is skipped too.
        let r2 = ep.alloc_request_id(1, |i| i == r1.instance.wrapping_add(1));
        assert_ne!(r2.instance, r1.instance.wrapping_add(1));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            /// Transaction-id allocation never hands out an id that is
            /// still in flight, across multiple wraparounds of the u8
            /// space.
            #[test]
            fn tx_id_alloc_never_collides(ops in proptest::collection::vec(any::<u16>(), 1..800)) {
                let mut alloc = TxIdAlloc::default();
                let mut live: HashSet<u8> = HashSet::new();
                let mut order: Vec<u8> = Vec::new();
                for op in ops {
                    // Keep headroom so allocation can always succeed.
                    if live.len() >= 200 || (op % 3 == 0 && !order.is_empty()) {
                        let idx = (op as usize) % order.len();
                        let id = order.swap_remove(idx);
                        live.remove(&id);
                    } else {
                        let id = alloc.alloc(|i| live.contains(&i)).expect("space available");
                        prop_assert!(!live.contains(&id), "collision on {id}");
                        live.insert(id);
                        order.push(id);
                    }
                }
            }

            /// The in-flight index answers as a scan over the entries
            /// does, after every operation that inserts or removes one.
            #[test]
            fn in_flight_index_matches_a_scan(
                ops in proptest::collection::vec(any::<u32>(), 1..400),
            ) {
                let policy = RetryPolicy {
                    control_deadline_ms: 7,
                    subscription_deadline_ms: 5,
                    max_attempts: 2,
                    ..RetryPolicy::default()
                };
                let mut t: ProcedureTable<u8, ()> = ProcedureTable::new(policy);
                let mut now = 0u64;
                for op in ops {
                    let peer = (op >> 8) as u8 % 3;
                    let id = RicRequestId::new((op >> 12) as u16 % 2, (op >> 16) as u16 % 8);
                    let key = if op & 0x80 == 0 {
                        ProcedureKey::Ric(id)
                    } else {
                        ProcedureKey::Tx(id.instance as u8)
                    };
                    match op % 8 {
                        0 | 1 => {
                            t.begin(peer, key, ProcedureClass::Control, None, (), now);
                        }
                        2 => {
                            let class = ProcedureClass::Subscription;
                            t.begin(peer, key, class, Some(pdu(id)), (), now);
                        }
                        3 => {
                            t.begin(peer, key, ProcedureClass::Control, Some(pdu(id)), (), now);
                        }
                        4 | 5 => {
                            t.complete(peer, key);
                        }
                        6 => {
                            now += (op >> 20) as u64 % 6;
                            t.poll(now, |_, _| {});
                        }
                        _ => {
                            t.connection_lost(peer);
                        }
                    }
                    for requestor in 0..2 {
                        for instance in 0..8 {
                            let key = ProcedureKey::Ric(RicRequestId::new(requestor, instance));
                            let scan = t.entries.keys().any(|(_, k)| *k == key);
                            prop_assert_eq!(t.instance_in_flight(requestor, instance), scan);
                        }
                    }
                    let ric = t.entries.keys().filter(|(_, k)| matches!(k, ProcedureKey::Ric(_)));
                    prop_assert_eq!(t.ric_in_flight.values().sum::<u32>() as usize, ric.count());
                }
            }

            /// Request-id instance allocation never collides either, even
            /// when the caller pins extra instances (established
            /// subscriptions) across wraparound of the u16 space.
            #[test]
            fn instance_alloc_never_collides(
                ops in proptest::collection::vec(any::<u32>(), 1..600),
                pinned in proptest::collection::hash_set(any::<u16>(), 0..16),
            ) {
                let mut alloc = InstanceAlloc { next: u16::MAX - 100 }; // force wraparound early
                let mut live: HashSet<u16> = HashSet::new();
                let mut order: Vec<u16> = Vec::new();
                for op in ops {
                    if live.len() >= 300 || (op % 4 == 0 && !order.is_empty()) {
                        let idx = (op as usize) % order.len();
                        let inst = order.swap_remove(idx);
                        live.remove(&inst);
                    } else {
                        let inst = alloc
                            .alloc(|i| live.contains(&i) || pinned.contains(&i))
                            .expect("space available");
                        prop_assert!(!live.contains(&inst), "collision on {inst}");
                        prop_assert!(!pinned.contains(&inst), "pinned instance reused: {inst}");
                        live.insert(inst);
                        order.push(inst);
                    }
                }
            }
        }
    }
}
