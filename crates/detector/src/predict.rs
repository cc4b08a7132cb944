//! Sync-preserving predictive race detection — races in *reorderings*
//! of the recorded trace, from one linear pass.
//!
//! This is the second access model on the shared happens-before engine
//! ([`crate::engine`]). The engine keeps every hard program-structure
//! edge — spawn/join, condition variables, barriers, semaphores and
//! machine atomics — exactly as the HB lineup does: reversing those
//! would not be a synchronization-preserving correct reordering. What
//! this model changes is the mutex policy and the access history.
//!
//! The HB lineup only reports races the recorded interleaving happened
//! to witness: every mutex release→acquire pair becomes an ordering
//! edge, even between critical sections that touch disjoint data and
//! could legally run in either order. Sync-preserving prediction
//! (Mathur, Pavlogiannis & Viswanathan, *Optimal Prediction of
//! Synchronization-Preserving Races*) keeps a critical-section edge only
//! when reversing it would change an observed value — here approximated
//! per variable: the release of a critical section on `m` orders a later
//! access to `x` inside a critical section on `m` **only if the earlier
//! section conflicted on `x`** (wrote `x` for any later access; read `x`
//! for a later write). Since any pair unordered under HB thus stays
//! unordered, the race set is a **superset of the HB race set** on the
//! same stream, by construction (the workload-oracle suite enforces this
//! differentially); dropping edges can leave several unordered priors,
//! so the history keeps every thread's last read and write per address.
//! Soundness is per the per-variable abstraction: a predicted pair is
//! racy in some sync-preserving reordering of the recorded trace
//! provided the intervening critical sections are value-independent of
//! the accesses — the classic trade the paper's linear-time variant
//! makes.
//!
//! The pass is a single in-order walk (release clocks flow through the
//! per-lock conflict maps in trace order); whole-trace and
//! chunk-streamed replay feed it the same sequence and are
//! byte-identical.

use crate::engine::{bump, HbEngine};
use crate::metrics::{
    self, DetectorMetrics, FRONTIER_ADDR_BYTES, FRONTIER_SITE_BYTES, SYNC_KEY_BYTES,
};
use crate::report::{AccessSummary, RaceKind, RaceReport};
use crate::vc::{Epoch, VectorClock};
use fxhash::FxHashMap;
use spinrace_tir::Pc;
use spinrace_vm::ThreadId;
use std::collections::hash_map::Entry;

/// A thread's last access to one address: its epoch plus the static
/// site, enough to both order against and report.
#[derive(Clone, Copy, Debug)]
struct SiteEpoch {
    clock: u32,
    pc: Pc,
    stack: u64,
}

/// Per-address access history: the last write and last read of *every*
/// thread.
#[derive(Default)]
struct AddrState {
    writes: FxHashMap<ThreadId, SiteEpoch>,
    reads: FxHashMap<ThreadId, SiteEpoch>,
}

/// Per-thread access frontiers and the conflict-conditional mutex edges.
#[derive(Default)]
pub struct SyncPreserving {
    /// Footprints of the open critical sections, keyed by (thread, lock):
    /// addr → (wrote, read), folded into the conflict maps at unlock.
    cs: FxHashMap<(ThreadId, u64), FxHashMap<u64, (bool, bool)>>,
    /// Per-lock conflict maps: `rel_w[m][x]` joins the release clocks of
    /// every closed critical section on `m` that wrote `x`; `rel_r` the
    /// same for reads. The conditional edge is applied at access time.
    rel_w: FxHashMap<u64, FxHashMap<u64, VectorClock>>,
    rel_r: FxHashMap<u64, FxHashMap<u64, VectorClock>>,
    /// Per-address frontier state.
    state: FxHashMap<u64, AddrState>,
    /// Charged bytes of `state` (the frontier costs of
    /// [`crate::metrics`]), kept as entries are first inserted (the
    /// frontier maps never shrink), so budget polls are O(1).
    state_bytes: usize,
    /// Racy-pair scratch (kept to avoid per-event allocation).
    scratch: Vec<(AccessSummary, RaceKind)>,
}

impl SyncPreserving {
    /// Fold the closed section's footprint into the lock's conflict maps.
    pub(crate) fn unlock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        let Some(fp) = self.cs.remove(&(tid, mutex)) else {
            return;
        };
        let vc = &e.vcs[tid as usize];
        for (&addr, &(wrote, read)) in &fp {
            if wrote {
                let rel = self.rel_w.entry(mutex).or_default();
                rel.entry(addr).or_default().join(vc);
            }
            if read {
                let rel = self.rel_r.entry(mutex).or_default();
                rel.entry(addr).or_default().join(vc);
            }
        }
    }

    /// Charged per-address frontier bytes — the analogue of shadow
    /// memory, and the quantity budget polls bound.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.state_bytes
    }

    /// Conflict maps count as library-sync state (they are the per-lock
    /// machinery), the per-address frontier as shadow state.
    pub(crate) fn metrics(&self, m: &mut DetectorMetrics) {
        let rel_bytes = |m: &FxHashMap<u64, FxHashMap<u64, VectorClock>>| -> usize {
            m.values()
                .map(|per| SYNC_KEY_BYTES + metrics::clock_bytes(SYNC_KEY_BYTES, per.values()))
                .sum()
        };
        m.shadow_bytes = self.state_bytes;
        m.lib_sync_bytes += rel_bytes(&self.rel_w) + rel_bytes(&self.rel_r);
    }

    /// A plain access: apply the conditional critical-section edges,
    /// check against every other thread's frontier, record the access in
    /// the history and in every open critical section's footprint.
    pub(crate) fn access(
        &mut self,
        e: &mut HbEngine,
        tid: ThreadId,
        addr: u64,
        pc: Pc,
        stack: u64,
        is_write: bool,
    ) {
        let ti = tid as usize;
        // Join the release clocks of earlier conflicting sections on every
        // held lock *before* the race check, so a kept edge suppresses the
        // pair exactly like a hard HB edge would.
        let (clock, t) = (&mut e.vcs[ti], &mut e.threads[ti]);
        for m in &t.held {
            if let Some(vc) = self.rel_w.get(m).and_then(|per| per.get(&addr)) {
                clock.join(vc);
                bump(&mut t.acquires);
            }
            if is_write {
                if let Some(vc) = self.rel_r.get(m).and_then(|per| per.get(&addr)) {
                    clock.join(vc);
                    bump(&mut t.acquires);
                }
            }
        }
        let vc = &e.vcs[ti];
        let st = match self.state.entry(addr) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.state_bytes += FRONTIER_ADDR_BYTES;
                v.insert(AddrState::default())
            }
        };
        self.scratch.clear();
        let mut check = |priors: &FxHashMap<ThreadId, SiteEpoch>, is_write: bool, kind| {
            for (&u, p) in priors {
                if u != tid && !vc.covers(Epoch::new(u, p.clock)) {
                    let prior = AccessSummary {
                        tid: u,
                        pc: p.pc,
                        stack: p.stack,
                        is_write,
                    };
                    self.scratch.push((prior, kind));
                }
            }
        };
        if is_write {
            check(&st.writes, true, RaceKind::WriteWrite);
            check(&st.reads, false, RaceKind::ReadWrite);
        } else {
            check(&st.writes, true, RaceKind::WriteRead);
        }
        let site = SiteEpoch {
            clock: vc.get(tid),
            pc,
            stack,
        };
        let history = if is_write {
            &mut st.writes
        } else {
            &mut st.reads
        };
        if history.insert(tid, site).is_none() {
            self.state_bytes += FRONTIER_SITE_BYTES;
        }
        // Canonical order (prior thread, writes before reads) so reports
        // are byte-stable regardless of hash-map iteration order.
        self.scratch
            .sort_by_key(|(prior, _)| (prior.tid, !prior.is_write));
        let current = AccessSummary {
            tid,
            pc,
            stack,
            is_write,
        };
        for &(prior, kind) in &self.scratch {
            e.reports.record(RaceReport {
                addr,
                prior,
                current,
                kind,
            });
        }
        for &m in &e.threads[ti].held {
            let slot = self
                .cs
                .entry((tid, m))
                .or_default()
                .entry(addr)
                .or_default();
            if is_write {
                slot.0 = true;
            } else {
                slot.1 = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::AnyModel;
    use crate::config::{DetectorConfig, MsmMode};
    use crate::AnyDetector;
    use spinrace_tir::{BlockId, FuncId};
    use spinrace_vm::{Event, EventSink};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn sp() -> AnyDetector {
        AnyDetector::new(DetectorConfig::sync_preserving())
    }

    fn spawn2(d: &mut dyn EventSink) {
        d.on_event(&Event::Spawn {
            parent: 0,
            child: 1,
            pc: pc(0),
        });
        d.on_event(&Event::Spawn {
            parent: 0,
            child: 2,
            pc: pc(0),
        });
    }

    fn write(d: &mut dyn EventSink, tid: u32, addr: u64, at: u32) {
        d.on_event(&Event::Write {
            tid,
            addr,
            value: 1,
            pc: pc(at),
            stack: 0,
            atomic: None,
        });
    }

    fn read(d: &mut dyn EventSink, tid: u32, addr: u64, at: u32) {
        d.on_event(&Event::Read {
            tid,
            addr,
            value: 0,
            pc: pc(at),
            stack: 0,
            atomic: None,
            spin: None,
        });
    }

    fn lock(d: &mut dyn EventSink, tid: u32, mutex: u64, at: u32) {
        d.on_event(&Event::MutexLock {
            tid,
            mutex,
            pc: pc(at),
        });
    }

    fn unlock(d: &mut dyn EventSink, tid: u32, mutex: u64, at: u32) {
        d.on_event(&Event::MutexUnlock {
            tid,
            mutex,
            pc: pc(at),
        });
    }

    /// Writes straddling two *non-conflicting* critical sections on the
    /// same lock: HB orders them through the lock edge; prediction drops
    /// the edge and reports the reorder-only race.
    #[test]
    fn unrelated_critical_sections_do_not_order() {
        let mut d = sp();
        spawn2(&mut d);
        let (x, mu, s1, s2) = (0x1000, 0x2000, 0x1001, 0x1002);
        write(&mut d, 1, x, 1);
        lock(&mut d, 1, mu, 2);
        write(&mut d, 1, s1, 3);
        unlock(&mut d, 1, mu, 4);
        lock(&mut d, 2, mu, 5);
        write(&mut d, 2, s2, 6);
        unlock(&mut d, 2, mu, 7);
        write(&mut d, 2, x, 8);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);

        // The HB lineup on the same stream: silent.
        for cfg in [
            DetectorConfig::helgrind_lib(MsmMode::Short),
            DetectorConfig::drd(),
        ] {
            let mut hb = AnyDetector::new(cfg);
            spawn2(&mut hb);
            write(&mut hb, 1, x, 1);
            lock(&mut hb, 1, mu, 2);
            write(&mut hb, 1, s1, 3);
            unlock(&mut hb, 1, mu, 4);
            lock(&mut hb, 2, mu, 5);
            write(&mut hb, 2, s2, 6);
            unlock(&mut hb, 2, mu, 7);
            write(&mut hb, 2, x, 8);
            assert_eq!(hb.racy_contexts(), 0);
        }
    }

    /// Conflicting critical sections keep their edge: same shape, but
    /// both sections write one shared word — clean under prediction too.
    #[test]
    fn conflicting_critical_sections_keep_the_edge() {
        let mut d = sp();
        spawn2(&mut d);
        let (x, mu, c) = (0x1000, 0x2000, 0x1003);
        write(&mut d, 1, x, 1);
        lock(&mut d, 1, mu, 2);
        write(&mut d, 1, c, 3);
        unlock(&mut d, 1, mu, 4);
        lock(&mut d, 2, mu, 5);
        write(&mut d, 2, c, 6);
        unlock(&mut d, 2, mu, 7);
        write(&mut d, 2, x, 8);
        assert_eq!(d.racy_contexts(), 0, "conflict on c keeps rel→acq");
    }

    /// The edge is also kept when the later section *reads* what the
    /// earlier one wrote (write→read conflict), and the acquired clock
    /// then orders the trailing access.
    #[test]
    fn write_read_conflict_keeps_the_edge() {
        let mut d = sp();
        spawn2(&mut d);
        let (x, mu, c) = (0x1000, 0x2000, 0x1003);
        lock(&mut d, 1, mu, 1);
        write(&mut d, 1, c, 2);
        write(&mut d, 1, x, 3);
        unlock(&mut d, 1, mu, 4);
        lock(&mut d, 2, mu, 5);
        read(&mut d, 2, c, 6);
        unlock(&mut d, 2, mu, 7);
        read(&mut d, 2, x, 8);
        // x was written inside T1's section; T2 read c inside its own
        // section (conflict) — the kept edge covers the write to x.
        assert_eq!(d.racy_contexts(), 0);
    }

    /// Publication after an unordered release: the publishing write sits
    /// inside the critical section, the consuming read after a
    /// non-conflicting section on the same lock — predicted, HB-silent.
    #[test]
    fn publish_after_unordered_release_is_predicted() {
        let mut d = sp();
        spawn2(&mut d);
        let (x, mu, s2) = (0x1000, 0x2000, 0x1002);
        lock(&mut d, 1, mu, 1);
        write(&mut d, 1, x, 2);
        unlock(&mut d, 1, mu, 3);
        lock(&mut d, 2, mu, 4);
        write(&mut d, 2, s2, 5);
        unlock(&mut d, 2, mu, 6);
        read(&mut d, 2, x, 7);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteRead);
    }

    /// Hard edges are never dropped: spawn/join, semaphores, barriers,
    /// condvars, atomics all order exactly as in the HB detector.
    #[test]
    fn hard_edges_still_order() {
        let mut d = sp();
        write(&mut d, 0, 0x1000, 1);
        d.on_event(&Event::Spawn {
            parent: 0,
            child: 1,
            pc: pc(0),
        });
        read(&mut d, 1, 0x1000, 2);
        d.on_event(&Event::SemPost {
            tid: 1,
            sem: 0x3000,
            pc: pc(3),
        });
        write(&mut d, 1, 0x1001, 4);
        d.on_event(&Event::Spawn {
            parent: 0,
            child: 2,
            pc: pc(0),
        });
        d.on_event(&Event::SemAcquired {
            tid: 2,
            sem: 0x3000,
            pc: pc(5),
        });
        // Not ordered: the sem edge was posted before the write.
        write(&mut d, 2, 0x1001, 6);
        assert_eq!(d.racy_contexts(), 1, "post precedes write: still racy");
        let mut clean = sp();
        spawn2(&mut clean);
        write(&mut clean, 1, 0x1001, 1);
        clean.on_event(&Event::SemPost {
            tid: 1,
            sem: 0x3000,
            pc: pc(2),
        });
        clean.on_event(&Event::SemAcquired {
            tid: 2,
            sem: 0x3000,
            pc: pc(3),
        });
        write(&mut clean, 2, 0x1001, 4);
        assert_eq!(clean.racy_contexts(), 0);
    }

    /// Superset of HB on an unordered pair: everything DRD reports, the
    /// predictive pass reports too (dropping edges can only unorder).
    #[test]
    fn plain_hb_races_still_reported() {
        let mut d = sp();
        spawn2(&mut d);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2);
        read(&mut d, 1, 0x1000, 3);
        assert!(d.racy_contexts() >= 2);
    }

    #[test]
    fn context_cap_saturates() {
        let mut d = AnyDetector::new(DetectorConfig::sync_preserving().with_cap(5));
        spawn2(&mut d);
        for i in 0..20 {
            write(&mut d, 1, 0x1000 + i, i as u32);
            write(&mut d, 2, 0x1000 + i, 100 + i as u32);
        }
        assert_eq!(d.racy_contexts(), 5);
        assert!(d.reports().dropped() > 0);
    }

    /// The running byte count equals a walk over every address's
    /// frontier maps after a stream mixing fresh addresses, repeated
    /// reads and writes, and accesses inside critical sections.
    #[test]
    fn resident_bytes_counter_matches_a_walk() {
        let mut d = sp();
        spawn2(&mut d);
        for i in 0..40u64 {
            let tid = 1 + (i % 2) as u32;
            let addr = 0x1000 + i % 7;
            if i % 5 == 0 {
                lock(&mut d, tid, 0x2000, i as u32);
            }
            if i % 3 == 0 {
                read(&mut d, tid, addr, i as u32);
            } else {
                write(&mut d, tid, addr, i as u32);
            }
            read(&mut d, 0, addr + 1, i as u32);
            if i % 5 == 0 {
                unlock(&mut d, tid, 0x2000, i as u32);
            }
        }
        let AnyModel::Predict(m) = &d.model else {
            unreachable!("a sync-preserving configuration")
        };
        let state = &m.state;
        let walked: usize = state
            .values()
            .map(|s| FRONTIER_ADDR_BYTES + (s.writes.len() + s.reads.len()) * FRONTIER_SITE_BYTES)
            .sum();
        assert_eq!(state.len(), 8);
        assert_eq!(d.shadow_resident_bytes(), walked);
        assert_eq!(d.metrics().shadow_bytes, walked);
    }

    #[test]
    fn metrics_account_conflict_maps() {
        let mut d = sp();
        spawn2(&mut d);
        lock(&mut d, 1, 0x2000, 1);
        write(&mut d, 1, 0x1000, 2);
        read(&mut d, 1, 0x1001, 3);
        unlock(&mut d, 1, 0x2000, 4);
        let m = d.metrics();
        assert!(m.lib_sync_bytes > 0, "rel maps populated");
        assert!(m.shadow_bytes > 0);
        assert_eq!(m.lockset_bytes, 0);
        assert_eq!(m.spin_sync_bytes, 0);
        assert!(m.total() > 0);
    }
}
