//! Shard assignment.
//!
//! Everything on the indication hot path is shard-local; this module is
//! the *only* state shared between shards, and it is touched only on
//! accept and disconnect-finalize — neither is per-indication work.
//!
//! Assignment is keyed on the RAN-entity key (`(Plmn, node id)` with the
//! node type erased) rather than the connection: CU and DU agents of one
//! base station must land on the same shard so `RanDb` entity merging
//! stays shard-local, and the key pin outlives the connection so an agent
//! returning within the reconnect grace window rebinds on the shard that
//! still holds its identity and subscription intents.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use flexric_e2ap::Plmn;

use super::randb::AgentId;

/// Sticky least-loaded assignment of keys to `n` shards.
///
/// Pure `std` on purpose: the assignment invariants (stickiness, balance,
/// release) are the cross-shard correctness core and are unit-tested
/// standalone.
pub(crate) struct ShardMap<K> {
    assigned: HashMap<K, usize>,
    load: Vec<usize>,
}

impl<K: Hash + Eq> ShardMap<K> {
    pub(crate) fn new(shards: usize) -> Self {
        ShardMap { assigned: HashMap::new(), load: vec![0; shards.max(1)] }
    }

    /// Shard for `key`: the existing assignment if the key is known
    /// (sticky), otherwise the least-loaded shard (first wins on ties).
    pub(crate) fn assign(&mut self, key: K) -> usize {
        if let Some(&s) = self.assigned.get(&key) {
            return s;
        }
        let s = self.load.iter().enumerate().min_by_key(|(_, l)| **l).map(|(i, _)| i).unwrap_or(0);
        self.load[s] += 1;
        self.assigned.insert(key, s);
        s
    }

    /// Drops a key's assignment and returns its slot to the load balance.
    /// Called when the last agent of an entity is finally disconnected.
    pub(crate) fn release(&mut self, key: &K) {
        if let Some(s) = self.assigned.remove(key) {
            self.load[s] = self.load[s].saturating_sub(1);
        }
    }

    #[cfg(test)]
    fn load(&self) -> &[usize] {
        &self.load
    }
}

/// What the shards of one controller share, and whoever accepts its
/// connections consults: entity pins and the id allocator.  Plain memory
/// behind `std` locks — it names no shard's event queue.
pub struct ShardRouter {
    /// Entity-key → shard pins.  Accept/finalize path only.
    map: Mutex<ShardMap<(Plmn, u64)>>,
    /// Global sequential [`AgentId`] allocator, so ids keep the same
    /// dense-from-zero shape as a single shard's.
    next_agent: AtomicUsize,
}

impl ShardRouter {
    /// A router over `shards` shards (at least one).
    pub fn new(shards: usize) -> Self {
        ShardRouter { map: Mutex::new(ShardMap::new(shards)), next_agent: AtomicUsize::new(0) }
    }

    /// The shard an E2 setup from the RAN entity `key`
    /// ([`flexric_e2ap::GlobalE2NodeId::ran_entity_key`]) goes to: sticky
    /// per entity, least-loaded for a new one.
    pub fn assign(&self, key: (Plmn, u64)) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).assign(key)
    }

    pub(crate) fn alloc_agent(&self) -> AgentId {
        self.next_agent.fetch_add(1, Ordering::Relaxed)
    }

    /// Forgets the pin of an entity no agent of which remains.
    pub(crate) fn release(&self, key: &(Plmn, u64)) {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).release(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_keys_go_to_least_loaded_shard() {
        let mut m: ShardMap<u64> = ShardMap::new(3);
        assert_eq!(m.assign(10), 0);
        assert_eq!(m.assign(11), 1);
        assert_eq!(m.assign(12), 2);
        assert_eq!(m.assign(13), 0, "wraps to the least-loaded again");
        assert_eq!(m.load(), &[2, 1, 1]);
    }

    #[test]
    fn assignment_is_sticky() {
        let mut m: ShardMap<u64> = ShardMap::new(4);
        let s = m.assign(7);
        for _ in 0..10 {
            m.assign(99);
            m.assign(98);
            assert_eq!(m.assign(7), s, "re-asking for a known key never moves it");
        }
    }

    #[test]
    fn release_rebalances() {
        let mut m: ShardMap<u64> = ShardMap::new(2);
        assert_eq!(m.assign(1), 0);
        assert_eq!(m.assign(2), 1);
        assert_eq!(m.assign(3), 0);
        // Shard 0 has 2 keys, shard 1 has 1: next lands on 1.
        assert_eq!(m.assign(4), 1);
        m.release(&1);
        m.release(&3);
        // Now 0 is empty: new keys go there first.
        assert_eq!(m.assign(5), 0);
        // Releasing an unknown key is a no-op.
        m.release(&42);
        assert_eq!(m.load().iter().sum::<usize>(), 3);
    }

    #[test]
    fn single_shard_takes_everything() {
        let mut m: ShardMap<u64> = ShardMap::new(1);
        for k in 0..100 {
            assert_eq!(m.assign(k), 0);
        }
        assert_eq!(m.load(), &[100]);
    }
}
