//! The shape the agent and the controller shard share: a state machine
//! that is fed events and answers with actions.
//!
//! A machine owns every decision of its library — which PDU answers which,
//! when a request is retransmitted, when a link is redialled, which
//! connection a frame may still come from — and touches nothing: it has no
//! socket, no task, no channel and no clock of its own.  Whatever drives it
//! (the crate's `driver` on threads and sockets, or [`crate::wire`] on one
//! virtual clock) tells it what happened, with the current time, and
//! carries out what it asks for:
//!
//! ```text
//!   driver observes            machine.handle(event, now_ms, &mut actions)
//!   ───────────────            ───────────────────────────────────────────
//!   a frame arrived      ──►   Event::Frame(peer, payload)
//!   a connection ended   ──►   Event::Closed(peer)
//!   a listener attached  ──►   Event::Accepted(peer, desc)
//!   a dial ended         ──►   Event::Dialled(tag, Ok(peer) / Err(why))
//!   time passed          ──►   Event::Tick
//!   anything else        ──►   Event::App(..)     (AgentIn / ShardIn)
//!
//!   Action::Send(peer, msg)    ◄──   write this frame
//!   Action::Hangup(peer)       ◄──   close this connection
//!   Action::Dial { tag, .. }   ◄──   connect to an address, after a wait
//!   Action::Handoff { .. }     ◄──   move a connection to a sibling machine
//!   Action::App(..)            ◄──   publish (AgentOut / ServerEvent)
//! ```
//!
//! The connection lifecycle is the same for every machine: each peer it is
//! handed arrives as `Accepted` or as the `Ok` of a `Dialled`, and a dial's
//! `tag` is the machine's to choose and read — a driver only hands it back.
//! A driver may host several machines of one kind side by side (a
//! controller's shards); a `Handoff` moves a peer from one to another.
//! Whatever else a machine asks for is output: the driver publishes each
//! `App` action to whoever listens and carries out none of them.
//!
//! Equal event sequences give equal action sequences, so a run can be
//! played again and a protocol rule is tested by feeding events.  The one
//! thing that would break this is hash-map iteration order, which differs
//! from run to run: wherever a machine acts on several entries of a map at
//! once it sorts them first (`in_order`, `poll_in_order`).

use std::hash::Hash;

use bytes::Bytes;
use flexric_e2ap::E2apPdu;
use flexric_transport::{TransportAddr, WireMsg};

use crate::endpoint::{Procedure, ProcedureKey, ProcedureTable};

/// One connection, as the driver names it when it hands it to a machine.
///
/// Ids are never reused: a reconnect is a new peer.  That makes the id the
/// connection's *epoch* as well — a machine binds a controller or an agent
/// to its current peer, and an event carrying any other id comes from a
/// connection that has been replaced and is ignored.
pub type PeerId = u64;

/// What a machine names one of its dials by ([`Action::Dial`]), read back
/// in the answer ([`Event::Dialled`]).
pub type DialTag = usize;

/// What a driver can observe.
#[derive(Debug)]
pub enum Event<X> {
    /// The payload of one frame arrived from `peer`.
    Frame(PeerId, Bytes),
    /// The connection of `peer` ended (orderly or not).
    Closed(PeerId),
    /// A listener of this machine attached `peer`, whose far end the
    /// string describes.
    Accepted(PeerId, String),
    /// The answer to the [`Action::Dial`] tagged `.0`: its connection, or
    /// why there is none.
    Dialled(DialTag, Result<PeerId, String>),
    /// Time has advanced to the `now_ms` passed alongside.
    Tick,
    /// What only this kind of machine is told.
    App(X),
}

/// What a driver can do.
#[derive(Debug)]
pub enum Action<Y> {
    /// Write `msg` to `peer`.
    Send(PeerId, WireMsg),
    /// Close `peer` once everything already sent to it is written.  From
    /// then on the machine hears nothing more of `peer` — no frame still on
    /// its way, no `Closed`.  It sends nothing to a peer after hanging up
    /// on it, and hangs up on every peer it was handed exactly once, unless
    /// it handed the peer on ([`Action::Handoff`]).
    Hangup(PeerId),
    /// Connect to `addr` once the clock has moved `after_ms` on, and answer
    /// with [`Event::Dialled`] under `tag`.  A dial still waiting when the
    /// driver stops is forgotten.
    Dial { tag: DialTag, addr: TransportAddr, after_ms: u64 },
    /// Move `peer`, and what is still unread of it, to sibling machine `to`
    /// of the same host (a controller's shard `to`).  The sibling is told
    /// `Accepted(peer', desc)` and then `Frame(peer', first)`, as if its own
    /// listener had accepted the connection and `first` were its first
    /// frame; this machine hears nothing more of `peer`.
    Handoff { peer: PeerId, to: usize, desc: String, first: Bytes },
    /// What only this kind of machine has to say: the driver publishes it
    /// to whoever listens and carries out nothing.
    App(Y),
}

/// A state machine with one entry point.
pub trait Machine {
    /// Its own events (carried by [`Event::App`]).
    type In;
    /// Its own output (carried by [`Action::App`]); each listener gets a
    /// copy.
    type Out: Clone;

    /// Takes one event at time `now_ms` and appends what must be done about
    /// it to `out`.  `now_ms` is whatever clock the driver runs on; it must
    /// not go backwards.
    fn handle(&mut self, event: Event<Self::In>, now_ms: u64, out: &mut Vec<Action<Self::Out>>);
}

/// Procedures that ended together (timed out on one tick, lost with one
/// connection), sorted by `(peer, key)`: the table hands them out in hash
/// order.
pub(crate) fn in_order<P: Copy + Ord, U>(mut procs: Vec<Procedure<P, U>>) -> Vec<Procedure<P, U>> {
    procs.sort_by_key(|p| match p.key {
        ProcedureKey::Tx(id) => (p.peer, Some(id), None),
        ProcedureKey::Ric(id) => (p.peer, None, Some(id)),
    });
    procs
}

/// What [`poll_in_order`] found due: requests to send again, by peer, and
/// procedures that expired.
pub(crate) type Polled<P, U> = (Vec<(P, E2apPdu)>, Vec<Procedure<P, U>>);

/// [`ProcedureTable::poll`] in a reproducible order: the requests to send
/// again, sorted by `(peer, request id, message type)`, and the procedures
/// that expired, [`in_order`].  (Two transaction-keyed requests of one type
/// toward one peer falling due on the same tick — two service updates, say
/// — is the one tie this leaves to the hash.)
pub(crate) fn poll_in_order<P: Copy + Ord + Hash, U>(
    table: &mut ProcedureTable<P, U>,
    now_ms: u64,
) -> Polled<P, U> {
    let mut again = Vec::new();
    let expired = table.poll(now_ms, |peer, pdu| again.push((peer, pdu.clone())));
    again.sort_by_key(|(peer, pdu)| (*peer, pdu.ric_request_id(), pdu.msg_type()));
    (again, in_order(expired))
}
