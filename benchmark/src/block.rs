//! What one block — one repetition of a workload's fixed work — yields,
//! and the load model that turns busy times into latencies.
//!
//! Load model: closed loop, one thread.  A tick's burst is generated,
//! carried and stored before the next tick starts.  Agents are parallel
//! machines: each starts at the TTI stamp and takes its own measured busy
//! time.  The controller is one serial consumer: it takes slabs in agent
//! order, each no earlier than its arrival and no earlier than the
//! controller is free.  Latencies are read off this virtual timeline, so
//! they contain the message's own agent, the queue at the controller and
//! the controller, and not the other agents the single thread happened to
//! run first.

use crate::glue::Counts;

/// One round — the workload's repeating unit of work: a tick of the
/// monitoring workloads, a step of `ctrl-storm`, an evaluation period of
/// `sla-loop`.  Times are sums of timed windows; the harness's checks are
/// outside every window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// Everything the program under test did, serially, for the round.
    pub wall_ns: u64,
    pub agent_busy_ns: u64,
    pub opportunities: u64,
    /// The controller's indication path only (control rounds excluded).
    pub ctrl_busy_ns: u64,
    pub stored: u64,
}

#[derive(Debug, Default)]
pub struct BlockOut {
    pub counts: Counts,
    pub rounds: Vec<Round>,
    /// TTI stamp → store insert, one per stored indication.
    pub age_ns: Vec<u32>,
    /// Decision → acknowledge completed, plus the age of the next stored
    /// report of that agent (the one that shows the new share).
    pub loop_ns: Vec<u32>,
}

impl BlockOut {
    /// Empties the block's results and keeps their buffers: the harness
    /// reuses one `BlockOut` for every block, so that its own allocations
    /// do not move the process's peak memory from run to run.
    pub fn clear(&mut self) {
        self.counts = Counts::default();
        self.rounds.clear();
        self.age_ns.clear();
        self.loop_ns.clear();
    }

    /// Blocks do identical work, so sample `j` of one block is the same
    /// operation as sample `j` of another: keeps, position by position,
    /// the faster of `self`'s and `other`'s.  What a neighbour on the
    /// shared host added to one block's sample is then not in the result.
    pub fn keep_fastest(&mut self, other: &BlockOut) {
        for (a, b) in self.rounds.iter_mut().zip(&other.rounds) {
            a.wall_ns = a.wall_ns.min(b.wall_ns);
            a.agent_busy_ns = a.agent_busy_ns.min(b.agent_busy_ns);
            a.ctrl_busy_ns = a.ctrl_busy_ns.min(b.ctrl_busy_ns);
        }
        for (a, b) in self.age_ns.iter_mut().zip(&other.age_ns) {
            *a = (*a).min(*b);
        }
        for (a, b) in self.loop_ns.iter_mut().zip(&other.loop_ns) {
            *a = (*a).min(*b);
        }
    }
}

/// The controller's side of one tick's virtual timeline.
#[derive(Default)]
pub struct Serial {
    pub free_at: u64,
}

impl Serial {
    /// Serves work that arrives at `arrival` and keeps the server busy for
    /// `busy`; returns when it is done.
    pub fn serve(&mut self, arrival: u64, busy: u64) -> u64 {
        self.free_at = self.free_at.max(arrival) + busy;
        self.free_at
    }
}

/// splitmix64: derives per-agent and per-episode seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
