//! Library-mode synchronization object state (the VM's "pthread library").
//!
//! Objects are identified by the memory address of their first word; the
//! words themselves are never touched, mirroring how a detector with
//! library knowledge treats primitives as opaque. The `nolib`
//! configuration never reaches this module — `spinrace-synclib` lowers the
//! operations to plain memory instructions first.

use crate::events::ThreadId;
use std::collections::{HashMap, VecDeque};

/// Mutex: owner + FIFO wait queue (direct handoff on unlock).
#[derive(Clone, Debug, Default)]
pub struct MutexState {
    /// Current owner.
    pub owner: Option<ThreadId>,
    /// Threads waiting to acquire, FIFO.
    pub waiters: VecDeque<ThreadId>,
}

/// Condition variable: FIFO wait queue.
#[derive(Clone, Debug, Default)]
pub struct CondState {
    /// Sleeping waiters, FIFO.
    pub waiters: VecDeque<ThreadId>,
}

/// Barrier: parties / arrivals / generation.
#[derive(Clone, Debug)]
pub struct BarrierState {
    /// Number of threads per round.
    pub parties: u32,
    /// Arrivals in the current round (excluding releases).
    pub arrived: u32,
    /// Completed rounds.
    pub gen: u64,
    /// Threads blocked in the current round.
    pub waiters: Vec<ThreadId>,
}

/// Counting semaphore.
#[derive(Clone, Debug, Default)]
pub struct SemState {
    /// Current count.
    pub count: i64,
    /// Blocked `P` callers, FIFO.
    pub waiters: VecDeque<ThreadId>,
}

/// All library synchronization objects, keyed by address.
#[derive(Clone, Debug, Default)]
pub struct SyncState {
    /// Mutexes (created lazily on first lock).
    pub mutexes: HashMap<u64, MutexState>,
    /// Condition variables (created lazily).
    pub conds: HashMap<u64, CondState>,
    /// Barriers (must be initialized via `BarrierInit`).
    pub barriers: HashMap<u64, BarrierState>,
    /// Semaphores (must be initialized via `SemInit`).
    pub sems: HashMap<u64, SemState>,
}

impl SyncState {
    /// Mutex at `addr`, created on demand.
    pub fn mutex(&mut self, addr: u64) -> &mut MutexState {
        self.mutexes.entry(addr).or_default()
    }
    /// Condition variable at `addr`, created on demand.
    pub fn cond(&mut self, addr: u64) -> &mut CondState {
        self.conds.entry(addr).or_default()
    }
    /// Semaphore at `addr` if initialized.
    pub fn sem(&mut self, addr: u64) -> Option<&mut SemState> {
        self.sems.get_mut(&addr)
    }
    /// Barrier at `addr` if initialized.
    pub fn barrier(&mut self, addr: u64) -> Option<&mut BarrierState> {
        self.barriers.get_mut(&addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_mutex_creation() {
        let mut s = SyncState::default();
        assert!(s.mutex(0x1000).owner.is_none());
        s.mutex(0x1000).owner = Some(3);
        assert_eq!(s.mutex(0x1000).owner, Some(3));
        assert_eq!(s.mutexes.len(), 1);
    }

    #[test]
    fn uninitialized_barrier_is_absent() {
        let mut s = SyncState::default();
        assert!(s.barrier(0x2000).is_none());
        s.barriers.insert(
            0x2000,
            BarrierState {
                parties: 2,
                arrived: 0,
                gen: 0,
                waiters: vec![],
            },
        );
        assert!(s.barrier(0x2000).is_some());
    }
}
