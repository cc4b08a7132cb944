//! The witnessed-interleaving access model: pure happens-before (DRD),
//! the hybrid lockset + HB algorithm (Helgrind+), and the paper's
//! spin-loop happens-before augmentation, on the shared
//! [`crate::engine::HbEngine`].
//!
//! # Hot-path design (epoch fast paths)
//!
//! The plain `read`/`write` hooks are FastTrack-shaped: the race check
//! against the last write is a single epoch compare against the accessing
//! thread's *borrowed* vector clock, the read history is the adaptive
//! [`ReadState`] (inline epoch until genuinely concurrent readers appear),
//! and shadow state lives in the flat paged [`ShadowTable`]. The race-free
//! fast paths perform **no `VectorClock` clone and no heap allocation**;
//! the racy slow path reuses a persistent scratch buffer. Semantics are
//! bit-for-bit those of the retained [`crate::ReferenceDetector`] — the
//! differential proptest in `tests/epoch_equivalence.rs` holds the two to
//! identical reports.
//!
//! # The sync-free shared-read path
//!
//! A read of a promoted (`Shared`) location must drop every record its
//! thread's clock covers, keeping the rest in arrival order. That prune
//! checks every record, and on a read-shared location it runs on every
//! read. Two facts make it skippable when nothing synchronized:
//!
//! * a vector holds at most one record per thread, since a thread's
//!   clock always covers its own earlier record;
//! * for `u ≠ t`, `C_t[u] < C_u[u]` unless `u`'s current epoch is
//!   exposed (see [`crate::engine`]), because every release ticks the
//!   releasing thread.
//!
//! So each record pushed into a shared vector carries its thread's
//! acquire count. When thread `t` reads again and its own record's stamp
//! still equals its count, `t` has joined nothing since the record went
//! in. The records that were there then survived `t`'s prune, and those
//! added later came from threads whose epochs `t` cannot know. Only
//! `t`'s own record is covered, so removing it and appending the new one
//! gives exactly what the prune and push give. A thread that pushes while
//! its epoch is exposed clears every other stamp, since those threads
//! may cover its record.

use crate::config::MsmMode;
use crate::engine::{acquire, bump, release, HbEngine, ThreadState};
use crate::lockset::{LocksetId, LocksetTable};
use crate::metrics::{self, DetectorMetrics, SYNC_KEY_BYTES};
use crate::report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
use crate::shadow::{AccessRecord, ReadState, ShadowTable};
use crate::vc::{Epoch, VectorClock};
use fxhash::FxHashMap;
use spinrace_tir::Pc;
use spinrace_vm::{Event, ThreadId};

/// Per-location access history, lockset stage, plain mutex edges and
/// spin promotion of the happens-before detectors.
#[derive(Default)]
pub struct HbAccess {
    /// Interned id of each thread's held-lock list (grown on first lock).
    held_ids: Vec<LocksetId>,
    locksets: LocksetTable,
    /// Release clocks of mutexes.
    mutex_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of *promoted* spin-condition locations — the memory
    /// cost of the paper's feature, reported by the memory figure.
    sync_loc: FxHashMap<u64, VectorClock>,
    /// Shadow memory: flat paged direct map.
    shadow: ShadowTable,
    /// Racy-write slow-path scratch (kept to avoid per-event allocation).
    read_scratch: Vec<AccessRecord>,
}

impl HbAccess {
    /// The paper's feature. Tagged spin-condition reads promote their
    /// address and, like every access to a promoted location, are exempt
    /// from race checks (synchronization-race suppression); a write to a
    /// promoted location releases into it; an atomic RMW promotes and
    /// acquires + releases (the arrival-counter pattern); a spin exit
    /// acquires every final-iteration read — the happens-before edge from
    /// the counterpart write to the loop exit.
    #[inline]
    pub(crate) fn spin(&mut self, e: &mut HbEngine, ev: &Event) -> bool {
        match *ev {
            Event::Read {
                addr,
                spin: Some(_),
                ..
            } => self.promote(e, addr),
            Event::Read { addr, .. } => return self.sync_loc.contains_key(&addr),
            Event::Write { tid, addr, .. } => match self.sync_loc.get_mut(&addr) {
                Some(lvc) => release(&mut e.vcs[tid as usize], tid, lvc),
                None => return false,
            },
            Event::Update { tid, addr, .. } => {
                self.promote(e, addr);
                let ti = tid as usize;
                let lvc = self.sync_loc.get_mut(&addr).expect("promoted");
                e.vcs[ti].join(lvc);
                bump(&mut e.threads[ti].acquires);
                release(&mut e.vcs[ti], tid, lvc);
            }
            Event::SpinExit { tid, ref reads, .. } => {
                let ti = tid as usize;
                for &(addr, _) in reads {
                    acquire(
                        &mut e.vcs[ti],
                        &mut e.threads[ti].acquires,
                        self.sync_loc.get(&addr),
                    );
                }
            }
            _ => return false,
        }
        true
    }

    #[inline]
    pub(crate) fn read(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let ti = tid as usize;
        let rec = AccessRecord::new(tid, e.vcs[ti].get(tid), pc, stack);
        let vc = &e.vcs[ti];
        let cell = self.shadow.cell(addr);
        // Race check: unordered prior write — one epoch compare against
        // the *borrowed* thread clock, never a clone.
        let racy_write = cell
            .last_write
            .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
        match racy_write {
            // Fast path (race-free read): fold into the adaptive state.
            None => push_read(&mut cell.reads, rec, e),
            // Racy read: report first (the reference's order), then update.
            Some(w) => {
                self.report_hb(e, addr, w, true, tid, pc, stack, false);
                push_read(&mut self.shadow.cell(addr).reads, rec, e);
            }
        }
    }

    #[inline]
    pub(crate) fn write(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let ti = tid as usize;
        let rec = AccessRecord::new(tid, e.vcs[ti].get(tid), pc, stack);
        let vc = &e.vcs[ti];
        let has_lockset = e.cfg.has_lockset() && !e.threads[ti].held.is_empty();
        let cell = self.shadow.cell(addr);
        let racy_write = cell
            .last_write
            .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
        let any_racy_read = cell
            .reads
            .as_slice()
            .iter()
            .any(|r| r.tid != tid && !vc.covers(Epoch::new(r.tid, r.clock)));

        if racy_write.is_none() && !any_racy_read {
            // Fast path (race-free write, including the same-epoch and
            // write-exclusive cases): no clones, no allocation, and at
            // most one page lookup.
            if has_lockset {
                let cur = self.held_ids[ti];
                eraser_update(
                    &mut self.locksets,
                    &mut e.reports,
                    &mut cell.write_lockset,
                    addr,
                    cur,
                    tid,
                    pc,
                    stack,
                );
            }
            cell.last_write = Some(rec);
            cell.reads.clear();
            return;
        }

        // Slow path: copy the racy candidates into the persistent scratch
        // (no per-event allocation once warmed), report in the reference
        // detector's order, then update.
        self.read_scratch.clear();
        for r in cell.reads.as_slice() {
            if r.tid != tid && !vc.covers(Epoch::new(r.tid, r.clock)) {
                self.read_scratch.push(*r);
            }
        }
        let mut hb_reported = false;
        if let Some(w) = racy_write {
            hb_reported |= self.report_hb(e, addr, w, true, tid, pc, stack, true);
        }
        let scratch = std::mem::take(&mut self.read_scratch);
        for &r in &scratch {
            hb_reported |= self.report_hb(e, addr, r, false, tid, pc, stack, true);
        }
        self.read_scratch = scratch;

        let cell = self.shadow.cell(addr);
        if has_lockset && !hb_reported {
            let cur = self.held_ids[ti];
            eraser_update(
                &mut self.locksets,
                &mut e.reports,
                &mut cell.write_lockset,
                addr,
                cur,
                tid,
                pc,
                stack,
            );
        }
        cell.last_write = Some(rec);
        cell.reads.clear();
    }

    pub(crate) fn lock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        let ti = tid as usize;
        acquire(
            &mut e.vcs[ti],
            &mut e.threads[ti].acquires,
            self.mutex_vc.get(&mutex),
        );
        self.intern_held(e, tid);
    }

    pub(crate) fn unlock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        let vc = &e.vcs[tid as usize];
        self.mutex_vc.entry(mutex).or_default().join(vc);
        self.intern_held(e, tid);
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.shadow.resident_bytes()
    }

    pub(crate) fn promoted_locations(&self) -> usize {
        self.sync_loc.len()
    }

    /// Shadow bytes count touched cells and live read records, wherever
    /// the paged layout keeps them.
    pub(crate) fn metrics(&self, m: &mut DetectorMetrics) {
        let (cells, records) = self.shadow.counts();
        let (sets, locks, memo) = self.locksets.counts();
        m.shadow_bytes = metrics::shadow_bytes(cells, records);
        m.lib_sync_bytes += metrics::clock_bytes(SYNC_KEY_BYTES, self.mutex_vc.values());
        m.spin_sync_bytes = metrics::clock_bytes(SYNC_KEY_BYTES, self.sync_loc.values());
        m.lockset_bytes = sets * metrics::LOCKSET_BYTES
            + locks * metrics::LOCK_ENTRY_BYTES
            + memo * metrics::MEMO_ENTRY_BYTES;
    }

    /// Re-intern `tid`'s held-lock list after it changed.
    fn intern_held(&mut self, e: &HbEngine, tid: ThreadId) {
        let ti = tid as usize;
        if self.held_ids.len() <= ti {
            self.held_ids.resize(ti + 1, LocksetId::EMPTY);
        }
        self.held_ids[ti] = self.locksets.intern_presorted(&e.threads[ti].held);
    }

    /// Promote `addr` to a synchronization location, seeding its release
    /// clock with the last writer's epoch (the partial edge for writes
    /// that happened before promotion). The writer may not have ticked
    /// since, so that epoch becomes exposed.
    fn promote(&mut self, e: &mut HbEngine, addr: u64) {
        if self.sync_loc.contains_key(&addr) {
            return;
        }
        let mut vc = VectorClock::new();
        if let Some(w) = self.shadow.get(addr).and_then(|cell| cell.last_write) {
            vc.set(w.tid, w.clock);
            let exposed = &mut e.threads[w.tid as usize].exposed;
            *exposed = (*exposed).max(w.clock);
        }
        self.sync_loc.insert(addr, vc);
    }

    /// Record an HB race, honouring the long-MSM gating. Returns whether a
    /// race was **detected** (passed the MSM gate) — deliberately *not*
    /// whether the collector kept it: the caller's Eraser-stage gating
    /// depends only on per-location state, never on the global dedup/cap
    /// state.
    #[allow(clippy::too_many_arguments)]
    fn report_hb(
        &mut self,
        e: &mut HbEngine,
        addr: u64,
        prior: AccessRecord,
        prior_is_write: bool,
        tid: ThreadId,
        pc: Pc,
        stack: u64,
        is_write: bool,
    ) -> bool {
        if let Some(MsmMode::Long) = e.cfg.msm() {
            let cell = self.shadow.cell(addr);
            cell.suspicions = cell.suspicions.saturating_add(1);
            if cell.suspicions < 2 {
                return false;
            }
        }
        let kind = match (prior_is_write, is_write) {
            (true, true) => RaceKind::WriteWrite,
            (true, false) => RaceKind::WriteRead,
            (false, true) => RaceKind::ReadWrite,
            (false, false) => unreachable!("read-read is never a race"),
        };
        e.reports.record(RaceReport {
            addr,
            prior: AccessSummary {
                tid: prior.tid,
                pc: prior.pc,
                stack: prior.stack,
                is_write: prior_is_write,
            },
            current: AccessSummary {
                tid,
                pc,
                stack,
                is_write,
            },
            kind,
        });
        true
    }
}

/// Eraser stage of a plain write (hybrid only): intersect the cell's
/// running write lockset with the writer's current one; an empty
/// intersection across distinct threads is a lock-discipline violation
/// even if this interleaving happened to order the writes. Shared by the
/// fast and slow write paths so the two can never diverge.
#[allow(clippy::too_many_arguments)]
fn eraser_update(
    locksets: &mut LocksetTable,
    reports: &mut ReportCollector,
    write_lockset: &mut Option<(LocksetId, u32, Pc, u64)>,
    addr: u64,
    cur: LocksetId,
    tid: ThreadId,
    pc: Pc,
    stack: u64,
) {
    let new_state = match *write_lockset {
        None => (cur, tid, pc, stack),
        Some((prev_id, prev_tid, prev_pc, prev_stack)) => {
            let inter = locksets.intersect(prev_id, cur);
            if prev_tid != tid && locksets.set_is_empty(inter) {
                reports.record(RaceReport {
                    addr,
                    prior: AccessSummary {
                        tid: prev_tid,
                        pc: prev_pc,
                        stack: prev_stack,
                        is_write: true,
                    },
                    current: AccessSummary {
                        tid,
                        pc,
                        stack,
                        is_write: true,
                    },
                    kind: RaceKind::LocksetViolation,
                });
            }
            (inter, tid, pc, stack)
        }
    };
    *write_lockset = Some(new_state);
}

/// Fold a race-free read into the adaptive read state, preserving the
/// reference detector's `retain`-then-`push` list semantics:
///
/// * `None` → the reader owns the cell (`Exclusive`);
/// * `Exclusive` whose record is ordered before the new read (same thread,
///   or covered by the reader's clock) → overwrite in place, O(1);
/// * `Exclusive` genuinely concurrent with the new read → promote to the
///   `Shared` vector (the only allocating transition);
/// * `Shared` → prune covered entries, append (exactly the reference),
///   skipping the prune when the reader's own record is the only one its
///   clock can cover (see the module docs).
///
/// `rec` comes unstamped; only records entering a `Shared` vector are
/// stamped with the reader's acquire count.
#[inline]
fn push_read(reads: &mut ReadState, mut rec: AccessRecord, e: &HbEngine) {
    let ti = rec.tid as usize;
    let vc = &e.vcs[ti];
    match reads {
        ReadState::None => *reads = ReadState::Exclusive(rec),
        ReadState::Exclusive(r) => {
            if r.same_access(&rec) {
                // Same epoch, same site: nothing changes.
            } else if r.tid == rec.tid || vc.covers(Epoch::new(r.tid, r.clock)) {
                *r = rec;
            } else {
                rec.acquires = e.threads[ti].acquires;
                *reads = ReadState::Shared(vec![*r, rec]);
            }
        }
        ReadState::Shared(v) => {
            let ThreadState {
                acquires, exposed, ..
            } = e.threads[ti];
            match v.iter().position(|r| r.tid == rec.tid) {
                // Nothing joined since the reader's record went in: it is
                // the only record the reader's clock covers.
                Some(i) if v[i].acquires == acquires && acquires != AccessRecord::UNSTAMPED => {
                    v.remove(i);
                }
                _ => v.retain(|r| !vc.covers(Epoch::new(r.tid, r.clock))),
            }
            // Another reader's clock may hold this epoch, so its stamp no
            // longer rules out covering the record pushed here.
            if rec.clock <= exposed {
                for r in v.iter_mut() {
                    r.acquires = AccessRecord::UNSTAMPED;
                }
            }
            rec.acquires = acquires;
            v.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any::AnyModel;
    use crate::{AnyDetector, DetectorConfig, ReferenceDetector};
    use spinrace_tir::{BlockId, FuncId, MemOrder, SpinLoopId};
    use spinrace_vm::EventSink;

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn spawn(det: &mut impl EventSink, parent: u32, child: u32) {
        det.on_event(&Event::Spawn {
            parent,
            child,
            pc: pc(0),
        });
    }

    fn write(det: &mut impl EventSink, tid: u32, addr: u64, at: u32) {
        det.on_event(&Event::Write {
            tid,
            addr,
            value: 1,
            pc: pc(at),
            stack: 0,
            atomic: None,
        });
    }

    fn read(det: &mut impl EventSink, tid: u32, addr: u64, at: u32) {
        det.on_event(&Event::Read {
            tid,
            addr,
            value: 0,
            pc: pc(at),
            stack: 0,
            atomic: None,
            spin: None,
        });
    }

    /// The fast detector and the reference, fed the same events.
    struct Both {
        fast: AnyDetector,
        slow: ReferenceDetector,
    }

    impl EventSink for Both {
        fn on_event(&mut self, ev: &Event) {
            self.fast.on_event(ev);
            self.slow.on_event(ev);
        }
    }

    impl Both {
        /// Threads 1..=3 spawned by thread 0.
        fn three_workers(cfg: DetectorConfig) -> Both {
            let mut b = Both {
                fast: AnyDetector::new(cfg),
                slow: ReferenceDetector::new(cfg),
            };
            for child in 1..=3 {
                spawn(&mut b, 0, child);
            }
            b
        }

        /// The fast detector's read records of `addr`, oldest first.
        fn reads(&self, addr: u64) -> Vec<AccessRecord> {
            let AnyModel::Hb(m) = &self.fast.model else {
                unreachable!("a happens-before configuration")
            };
            let cell = m.shadow.get(addr).expect("cell exists");
            cell.reads.as_slice().to_vec()
        }

        fn readers(&self, addr: u64) -> Vec<u32> {
            self.reads(addr).iter().map(|r| r.tid).collect()
        }

        /// Thread 0, ordered after none of the workers' reads, writes
        /// `addr`: the report list names the surviving readers in
        /// vector order, and must be the reference's.
        fn write_and_compare(&mut self, addr: u64) -> Vec<u32> {
            write(self, 0, addr, 99);
            assert_eq!(self.fast.reports().reports(), self.slow.reports().reports());
            self.fast
                .reports()
                .reports()
                .iter()
                .map(|r| r.prior.tid)
                .collect()
        }
    }

    fn lock(det: &mut impl EventSink, tid: u32, mutex: u64) {
        det.on_event(&Event::MutexLock {
            tid,
            mutex,
            pc: pc(50),
        });
    }

    fn unlock(det: &mut impl EventSink, tid: u32, mutex: u64) {
        det.on_event(&Event::MutexUnlock {
            tid,
            mutex,
            pc: pc(51),
        });
    }

    #[test]
    fn sync_free_rereads_keep_arrival_order() {
        let mut b = Both::three_workers(DetectorConfig::helgrind_lib(MsmMode::Short));
        let x = 0x1000;
        read(&mut b, 1, x, 1);
        read(&mut b, 2, x, 2);
        read(&mut b, 3, x, 3);
        assert_eq!(b.readers(x), [1, 2, 3]);
        // 2 joined nothing since its record went in: its record alone is
        // replaced, and it moves to the back.
        read(&mut b, 2, x, 4);
        assert_eq!(b.readers(x), [1, 3, 2]);
        read(&mut b, 3, x, 5);
        assert_eq!(b.readers(x), [1, 2, 3]);
        assert!(b.reads(x)[1..]
            .iter()
            .all(|r| r.acquires != AccessRecord::UNSTAMPED));
        assert_eq!(b.write_and_compare(x), [1, 2, 3]);
    }

    /// 2 releases a mutex that 1 then acquires, so 1's clock covers 2's
    /// read; 1's own record was stamped before the acquire.
    fn acquire_after_stamp(b: &mut Both, x: u64) {
        read(b, 2, x, 1);
        read(b, 1, x, 2);
        read(b, 3, x, 3);
        assert_eq!(b.readers(x), [2, 1, 3]);
        lock(b, 2, 0x2000);
        unlock(b, 2, 0x2000);
        lock(b, 1, 0x2000);
        read(b, 1, x, 4);
    }

    #[test]
    fn acquiring_reader_prunes_what_it_now_covers() {
        let mut b = Both::three_workers(DetectorConfig::drd());
        let x = 0x1000;
        acquire_after_stamp(&mut b, x);
        assert_eq!(b.readers(x), [3, 1], "2's read is covered by 1's clock");
        assert_eq!(b.write_and_compare(x), [3, 1]);
    }

    #[test]
    fn saturated_acquire_count_never_skips_the_prune() {
        let mut b = Both::three_workers(DetectorConfig::drd());
        b.fast.engine.threads[1].acquires = AccessRecord::UNSTAMPED;
        let x = 0x1000;
        acquire_after_stamp(&mut b, x);
        assert_eq!(b.fast.engine.threads[1].acquires, AccessRecord::UNSTAMPED);
        assert_eq!(b.readers(x), [3, 1]);
        assert_eq!(b.write_and_compare(x), [3, 1]);
    }

    #[test]
    fn exposed_epoch_of_a_joined_thread_clears_stamps() {
        // A trace may join a thread that keeps running: 1 then knows 2's
        // current epoch without acquiring again, so 2's next read is
        // covered by 1's clock.
        let mut b = Both::three_workers(DetectorConfig::drd());
        let x = 0x1000;
        read(&mut b, 3, x, 1);
        b.on_event(&Event::Join {
            parent: 1,
            child: 2,
            pc: pc(9),
        });
        read(&mut b, 1, x, 2);
        read(&mut b, 2, x, 3);
        read(&mut b, 1, x, 4);
        assert_eq!(b.readers(x), [3, 1]);
        assert_eq!(b.write_and_compare(x), [3, 1]);
    }

    #[test]
    fn exposed_epoch_of_a_promotion_seed_clears_stamps() {
        // Promotion seeds the flag's clock with 2's write epoch, and 2
        // has not ticked since; 1's spin exit acquires it.
        let mut b = Both::three_workers(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
        let (x, flag) = (0x1000, 0x1001);
        write(&mut b, 2, flag, 1);
        b.on_event(&Event::Read {
            tid: 1,
            addr: flag,
            value: 1,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(SpinLoopId(0)),
        });
        b.on_event(&Event::SpinExit {
            tid: 1,
            spin: SpinLoopId(0),
            reads: vec![(flag, pc(10))],
        });
        read(&mut b, 3, x, 2);
        read(&mut b, 1, x, 3);
        read(&mut b, 2, x, 4);
        read(&mut b, 1, x, 5);
        assert_eq!(b.readers(x), [3, 1]);
        assert_eq!(b.write_and_compare(x), [3, 1]);
    }

    #[test]
    fn unordered_writes_race() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn spawn_orders_parent_before_child() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        write(&mut d, 0, 0x1000, 1);
        spawn(&mut d, 0, 1);
        read(&mut d, 1, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        write(&mut d, 1, 0x1000, 1);
        d.on_event(&Event::Join {
            parent: 0,
            child: 1,
            pc: pc(9),
        });
        read(&mut d, 0, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn unjoined_child_write_races_with_parent_read() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        write(&mut d, 1, 0x1000, 1);
        read(&mut d, 0, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn mutex_edges_order_critical_sections() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let mu = 0x2000;
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: mu,
            pc: pc(1),
        });
        write(&mut d, 1, 0x1000, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: mu,
            pc: pc(3),
        });
        d.on_event(&Event::MutexLock {
            tid: 2,
            mutex: mu,
            pc: pc(4),
        });
        write(&mut d, 2, 0x1000, 5);
        d.on_event(&Event::MutexUnlock {
            tid: 2,
            mutex: mu,
            pc: pc(6),
        });
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn nolib_ignores_mutex_events() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_nolib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let mu = 0x2000;
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: mu,
            pc: pc(1),
        });
        write(&mut d, 1, 0x1000, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: mu,
            pc: pc(3),
        });
        d.on_event(&Event::MutexLock {
            tid: 2,
            mutex: mu,
            pc: pc(4),
        });
        write(&mut d, 2, 0x1000, 5);
        assert_eq!(d.racy_contexts(), 1, "library knowledge removed");
    }

    #[test]
    fn spin_promotion_suppresses_and_orders() {
        // T1: data=1; flag=1.   T2: spin-reads flag, exits, reads data.
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, flag) = (0x1000, 0x1001);
        // T2 spins first (reads 0), promoting flag.
        d.on_event(&Event::Read {
            tid: 2,
            addr: flag,
            value: 0,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(spinrace_tir::SpinLoopId(0)),
        });
        write(&mut d, 1, data, 1);
        write(&mut d, 1, flag, 2); // counterpart write: release, no check
        d.on_event(&Event::Read {
            tid: 2,
            addr: flag,
            value: 1,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(spinrace_tir::SpinLoopId(0)),
        });
        d.on_event(&Event::SpinExit {
            tid: 2,
            spin: spinrace_tir::SpinLoopId(0),
            reads: vec![(flag, pc(10))],
        });
        read(&mut d, 2, data, 11);
        assert_eq!(d.racy_contexts(), 0, "both sync and apparent race gone");
        assert_eq!(d.promoted_locations(), 1);
    }

    #[test]
    fn without_spin_the_same_trace_floods() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, flag) = (0x1000, 0x1001);
        read(&mut d, 2, flag, 10); // spin read seen as plain
        write(&mut d, 1, data, 1);
        write(&mut d, 1, flag, 2);
        read(&mut d, 2, flag, 10);
        read(&mut d, 2, data, 11);
        // flag: read-write + write-read context(s); data: write-read.
        assert!(d.racy_contexts() >= 2);
    }

    #[test]
    fn update_is_sync_with_spin_feature() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, cnt) = (0x1000, 0x1001);
        write(&mut d, 1, data, 1);
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        read(&mut d, 2, data, 4);
        assert_eq!(d.racy_contexts(), 0, "RMW chain carries the clock");
    }

    #[test]
    fn update_floods_without_spin_or_atomics() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let cnt = 0x1001;
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        assert!(d.racy_contexts() >= 1, "lib-only hybrid flags RMW pairs");
    }

    #[test]
    fn drd_handles_atomics_but_not_plain_flags() {
        let mut d = AnyDetector::new(DetectorConfig::drd());
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (data, cnt, flag) = (0x1000, 0x1001, 0x1002);
        // atomic chain: fine
        write(&mut d, 1, data, 1);
        d.on_event(&Event::Update {
            tid: 1,
            addr: cnt,
            old: 0,
            new: 1,
            pc: pc(2),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        d.on_event(&Event::Update {
            tid: 2,
            addr: cnt,
            old: 1,
            new: 2,
            pc: pc(3),
            stack: 0,
            order: MemOrder::SeqCst,
        });
        read(&mut d, 2, data, 4);
        assert_eq!(d.racy_contexts(), 0);
        // plain flag handoff: DRD floods (no spin knowledge)
        write(&mut d, 1, flag, 5);
        read(&mut d, 2, flag, 6);
        assert_eq!(d.racy_contexts(), 1);
    }

    #[test]
    fn lockset_violation_catches_hb_hidden_race() {
        // T1 writes x under m1; unrelated sync orders T2 after T1; T2
        // writes x under m2. Pure HB is silent; the hybrid's Eraser stage
        // reports a lockset violation.
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        let x = 0x1000;
        let (m1, m2, m3) = (0x2000, 0x2001, 0x2002);
        d.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m1,
            pc: pc(1),
        });
        write(&mut d, 0, x, 2);
        d.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m1,
            pc: pc(3),
        });
        // ordering through unrelated mutex m3
        d.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m3,
            pc: pc(4),
        });
        d.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m3,
            pc: pc(5),
        });
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m3,
            pc: pc(6),
        });
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m3,
            pc: pc(7),
        });
        d.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m2,
            pc: pc(8),
        });
        write(&mut d, 1, x, 9);
        d.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m2,
            pc: pc(10),
        });
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::LocksetViolation);
        // DRD on the same trace: silent (this is a DRD "missed race").
        let mut drd = AnyDetector::new(DetectorConfig::drd());
        // replay
        spawn(&mut drd, 0, 1);
        drd.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m1,
            pc: pc(1),
        });
        write(&mut drd, 0, x, 2);
        drd.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m1,
            pc: pc(3),
        });
        drd.on_event(&Event::MutexLock {
            tid: 0,
            mutex: m3,
            pc: pc(4),
        });
        drd.on_event(&Event::MutexUnlock {
            tid: 0,
            mutex: m3,
            pc: pc(5),
        });
        drd.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m3,
            pc: pc(6),
        });
        drd.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m3,
            pc: pc(7),
        });
        drd.on_event(&Event::MutexLock {
            tid: 1,
            mutex: m2,
            pc: pc(8),
        });
        write(&mut drd, 1, x, 9);
        drd.on_event(&Event::MutexUnlock {
            tid: 1,
            mutex: m2,
            pc: pc(10),
        });
        assert_eq!(drd.racy_contexts(), 0);
    }

    #[test]
    fn cv_handoff_has_no_lockset_false_positive() {
        // Producer/consumer with CV ordering and lock-free data writes —
        // the hybrid must stay silent (writers hold no locks).
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        let (data, cv) = (0x1000, 0x3000);
        write(&mut d, 0, data, 1);
        d.on_event(&Event::CondSignal {
            tid: 0,
            cv,
            pc: pc(2),
        });
        d.on_event(&Event::CondWaitReturn {
            tid: 1,
            cv,
            mutex: 0x2000,
            pc: pc(3),
        });
        write(&mut d, 1, data, 4);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn long_msm_requires_second_confirmation() {
        let short = {
            let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
            spawn(&mut d, 0, 1);
            spawn(&mut d, 0, 2);
            write(&mut d, 1, 0x1000, 1);
            write(&mut d, 2, 0x1000, 2);
            d.racy_contexts()
        };
        assert_eq!(short, 1);
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Long));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2); // first suspicion: silent
        assert_eq!(d.racy_contexts(), 0);
        write(&mut d, 1, 0x1000, 1); // second unordered pair: reported
        assert_eq!(d.racy_contexts(), 1);
    }

    #[test]
    fn barrier_events_give_all_to_all_ordering() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        let (a, b) = (0x1000, 0x1001);
        write(&mut d, 1, a, 1);
        write(&mut d, 2, b, 2);
        for t in [1, 2] {
            d.on_event(&Event::BarrierEnter {
                tid: t,
                barrier: 0x4000,
                gen: 0,
                pc: pc(3),
            });
        }
        for t in [1, 2] {
            d.on_event(&Event::BarrierLeave {
                tid: t,
                barrier: 0x4000,
                gen: 0,
                pc: pc(4),
            });
        }
        read(&mut d, 1, b, 5);
        read(&mut d, 2, a, 6);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn context_cap_saturates_at_configured_value() {
        let mut d = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(5));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        for i in 0..20 {
            write(&mut d, 1, 0x1000 + i, i as u32);
            write(&mut d, 2, 0x1000 + i, 100 + i as u32);
        }
        assert_eq!(d.racy_contexts(), 5);
        assert!(d.reports().dropped() > 0);
    }
}
