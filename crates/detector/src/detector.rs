//! The race detector: an [`EventSink`] implementing pure happens-before
//! (DRD), the hybrid lockset + HB algorithm (Helgrind+), and the paper's
//! spin-loop happens-before augmentation.
//!
//! # Hot-path design (epoch fast paths)
//!
//! `on_plain_read`/`on_plain_write` are FastTrack-shaped: the race check
//! against the last write is a single epoch compare against the accessing
//! thread's *borrowed* vector clock, the read history is the adaptive
//! [`ReadState`] (inline epoch until genuinely concurrent readers appear),
//! and shadow state lives in the flat paged [`ShadowTable`]. The race-free
//! fast paths perform **no `VectorClock` clone and no heap allocation**;
//! the racy slow path reuses a persistent scratch buffer. Semantics are
//! bit-for-bit those of the retained [`crate::ReferenceDetector`] — the
//! differential proptest in `tests/epoch_equivalence.rs` holds the two to
//! identical reports.

use crate::config::{DetectorConfig, MsmMode};
use crate::lockset::{LocksetId, LocksetTable};
use crate::report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
use crate::shadow::{AccessRecord, ReadState, ShadowTable};
use crate::vc::{Epoch, VectorClock};
use fxhash::FxHashMap;
use spinrace_tir::{MemOrder, Pc};
use spinrace_vm::{Event, EventSink, ThreadId};

/// Dynamic race detector. Feed it a VM event stream (it implements
/// [`EventSink`]) and read the results from [`RaceDetector::reports`].
pub struct RaceDetector {
    cfg: DetectorConfig,
    /// Per-thread vector clocks.
    vcs: Vec<VectorClock>,
    /// Per-thread held locks (sorted) and the interned id thereof.
    locks_held: Vec<Vec<u64>>,
    held_ids: Vec<LocksetId>,
    locksets: LocksetTable,
    /// Release clocks of library sync objects.
    mutex_vc: FxHashMap<u64, VectorClock>,
    cv_vc: FxHashMap<u64, VectorClock>,
    barrier_vc: FxHashMap<(u64, u64), VectorClock>,
    sem_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of atomic locations (DRD machine-atomics model).
    atomic_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of *promoted* spin-condition locations — the memory
    /// cost of the paper's feature, reported by the memory figure.
    sync_loc: FxHashMap<u64, VectorClock>,
    /// Shadow memory: flat paged/sharded direct map.
    shadow: ShadowTable,
    /// Racy-write slow-path scratch (kept to avoid per-event allocation).
    read_scratch: Vec<AccessRecord>,
    reports: ReportCollector,
    events_seen: u64,
}

impl RaceDetector {
    /// Fresh detector for one run.
    pub fn new(cfg: DetectorConfig) -> RaceDetector {
        RaceDetector {
            cfg,
            vcs: vec![initial_vc()],
            locks_held: vec![Vec::new()],
            held_ids: vec![LocksetId::EMPTY],
            locksets: LocksetTable::default(),
            mutex_vc: FxHashMap::default(),
            cv_vc: FxHashMap::default(),
            barrier_vc: FxHashMap::default(),
            sem_vc: FxHashMap::default(),
            atomic_vc: FxHashMap::default(),
            sync_loc: FxHashMap::default(),
            shadow: ShadowTable::new(),
            read_scratch: Vec::new(),
            reports: ReportCollector::new(cfg.context_cap),
            events_seen: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// Collected reports.
    pub fn reports(&self) -> &ReportCollector {
        &self.reports
    }

    /// Number of distinct racy contexts (the paper's table metric).
    pub fn racy_contexts(&self) -> usize {
        self.reports.contexts()
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Promoted synchronization locations (spin feature state).
    pub fn promoted_locations(&self) -> usize {
        self.sync_loc.len()
    }

    // ---- state accessors for metrics ----

    /// Per-thread clocks (metrics).
    pub fn thread_vcs(&self) -> &[VectorClock] {
        &self.vcs
    }
    /// Mutex release clocks (metrics).
    pub fn mutex_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.mutex_vc
    }
    /// Condvar release clocks (metrics).
    pub fn cv_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.cv_vc
    }
    /// Barrier generation clocks (metrics).
    pub fn barrier_vcs(&self) -> &FxHashMap<(u64, u64), VectorClock> {
        &self.barrier_vc
    }
    /// Semaphore release clocks (metrics).
    pub fn sem_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.sem_vc
    }
    /// Atomic-location clocks (metrics).
    pub fn atomic_vcs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.atomic_vc
    }
    /// Promoted spin locations (metrics).
    pub fn sync_locs(&self) -> &FxHashMap<u64, VectorClock> {
        &self.sync_loc
    }
    /// Total shadow bytes (metrics): probe tables, page slabs, and
    /// promoted read vectors — the honest cost of the paged layout.
    pub fn shadow_iter_bytes(&self) -> usize {
        self.shadow.approx_bytes()
    }
    /// Cheap O(shards) lower bound on shadow bytes — probe tables and
    /// page slabs without the per-page walk. For hot-path budget polls.
    pub fn shadow_resident_bytes(&self) -> usize {
        self.shadow.resident_bytes()
    }
    /// Allocated shadow pages (diagnostics).
    pub fn shadow_pages(&self) -> usize {
        self.shadow.page_count()
    }
    /// Lockset table bytes (metrics).
    pub fn lockset_table_bytes(&self) -> usize {
        self.locksets.approx_bytes()
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let t = t as usize;
        while self.vcs.len() <= t {
            self.vcs.push(initial_vc());
            self.locks_held.push(Vec::new());
            self.held_ids.push(LocksetId::EMPTY);
        }
    }

    /// Promote `addr` to a synchronization location, seeding its release
    /// clock with the last writer's epoch (the partial edge for writes
    /// that happened before promotion).
    fn promote(&mut self, addr: u64) {
        if self.sync_loc.contains_key(&addr) {
            return;
        }
        let mut vc = VectorClock::new();
        if let Some(w) = self.shadow.get(addr).and_then(|cell| cell.last_write) {
            vc.set(w.tid, w.clock);
        }
        self.sync_loc.insert(addr, vc);
    }

    fn is_promoted(&self, addr: u64) -> bool {
        self.sync_loc.contains_key(&addr)
    }

    /// Record an HB race, honouring the long-MSM gating. Returns whether a
    /// race was **detected** (passed the MSM gate) — deliberately *not*
    /// whether the collector kept it: the caller's Eraser-stage gating
    /// depends only on per-location state, never on the global dedup/cap
    /// state.
    #[allow(clippy::too_many_arguments)]
    fn report_hb(
        &mut self,
        addr: u64,
        prior: AccessRecord,
        prior_is_write: bool,
        tid: ThreadId,
        pc: Pc,
        stack: u64,
        is_write: bool,
    ) -> bool {
        if let Some(MsmMode::Long) = self.cfg.msm() {
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
        self.reports.record(RaceReport {
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

    fn on_plain_read(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let ti = tid as usize;
        let rec = AccessRecord {
            tid,
            clock: self.vcs[ti].get(tid),
            pc,
            stack,
        };
        let vc = &self.vcs[ti];
        let cell = self.shadow.cell(addr);
        // Race check: unordered prior write — one epoch compare against
        // the *borrowed* thread clock, never a clone.
        let racy_write = cell
            .last_write
            .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
        match racy_write {
            // Fast path (race-free read): fold into the adaptive state.
            None => push_read(&mut cell.reads, rec, vc),
            // Racy read: report first (the reference's order), then update.
            Some(w) => {
                self.report_hb(addr, w, true, tid, pc, stack, false);
                let vc = &self.vcs[ti];
                push_read(&mut self.shadow.cell(addr).reads, rec, vc);
            }
        }
    }

    fn on_plain_write(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let ti = tid as usize;
        let rec = AccessRecord {
            tid,
            clock: self.vcs[ti].get(tid),
            pc,
            stack,
        };
        let vc = &self.vcs[ti];
        let has_lockset = self.cfg.has_lockset() && !self.locks_held[ti].is_empty();
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
                    &mut self.reports,
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
            hb_reported |= self.report_hb(addr, w, true, tid, pc, stack, true);
        }
        let scratch = std::mem::take(&mut self.read_scratch);
        for &r in &scratch {
            hb_reported |= self.report_hb(addr, r, false, tid, pc, stack, true);
        }
        self.read_scratch = scratch;

        let cell = self.shadow.cell(addr);
        if has_lockset && !hb_reported {
            let cur = self.held_ids[ti];
            eraser_update(
                &mut self.locksets,
                &mut self.reports,
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

    /// Release into a promoted location: accumulate the writer's clock.
    fn release_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        let vc = &self.vcs[tid as usize];
        self.sync_loc.get_mut(&addr).expect("promoted").join(vc);
        self.vcs[tid as usize].tick(tid);
    }

    fn acquire_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        if let Some(lvc) = self.sync_loc.get(&addr) {
            self.vcs[tid as usize].join(lvc);
        }
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
/// * `Shared` → prune covered entries, append (exactly the reference).
#[inline]
fn push_read(reads: &mut ReadState, rec: AccessRecord, vc: &VectorClock) {
    match reads {
        ReadState::None => *reads = ReadState::Exclusive(rec),
        ReadState::Exclusive(r) => {
            if *r == rec {
                // Same epoch, same site: nothing changes.
            } else if r.tid == rec.tid || vc.covers(Epoch::new(r.tid, r.clock)) {
                *r = rec;
            } else {
                *reads = ReadState::Shared(vec![*r, rec]);
            }
        }
        ReadState::Shared(v) => {
            v.retain(|r| !vc.covers(Epoch::new(r.tid, r.clock)));
            v.push(rec);
        }
    }
}

fn initial_vc() -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(0, 1);
    vc
}

impl EventSink for RaceDetector {
    fn on_event(&mut self, ev: &Event) {
        self.events_seen += 1;
        self.handle(ev);
    }
}

impl RaceDetector {
    /// The event cascade.
    fn handle(&mut self, ev: &Event) {
        match *ev {
            Event::Spawn { parent, child, .. } => {
                self.ensure_thread(parent);
                self.ensure_thread(child);
                let pvc = self.vcs[parent as usize].clone();
                let cvc = &mut self.vcs[child as usize];
                cvc.join(&pvc);
                cvc.tick(child);
                self.vcs[parent as usize].tick(parent);
            }
            Event::Join { parent, child, .. } => {
                self.ensure_thread(parent);
                self.ensure_thread(child);
                let cvc = self.vcs[child as usize].clone();
                self.vcs[parent as usize].join(&cvc);
            }
            Event::ThreadEnd { .. } => {}

            Event::Read {
                tid,
                addr,
                pc,
                stack,
                atomic,
                spin,
                ..
            } => {
                self.ensure_thread(tid);
                // Spin feature: tagged condition reads promote & suppress.
                if self.cfg.spin && spin.is_some() {
                    self.promote(addr);
                    return;
                }
                // Promoted locations are synchronization state: exempt.
                if self.cfg.spin && self.is_promoted(addr) {
                    return;
                }
                // DRD: atomics are synchronization, not data.
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.acquires() {
                            if let Some(avc) = self.atomic_vc.get(&addr) {
                                self.vcs[tid as usize].join(avc);
                            }
                        }
                        return;
                    }
                }
                self.on_plain_read(tid, addr, pc, stack);
            }
            Event::Write {
                tid,
                addr,
                pc,
                stack,
                atomic,
                ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.spin && self.is_promoted(addr) {
                    // Counterpart write to a sync location: release, no
                    // race check (synchronization-race suppression).
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.releases() {
                            let vc = &self.vcs[tid as usize];
                            self.atomic_vc.entry(addr).or_default().join(vc);
                            self.vcs[tid as usize].tick(tid);
                        }
                        return;
                    }
                }
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Update {
                tid,
                addr,
                pc,
                stack,
                ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.spin {
                    // Atomic RMW = machine-visible sync candidate: promote,
                    // acquire + release (arrival-counter pattern).
                    self.promote(addr);
                    self.acquire_sync_loc(tid, addr);
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    // Acquire + release through one map probe.
                    let avc = self.atomic_vc.entry(addr).or_default();
                    self.vcs[tid as usize].join(avc);
                    avc.join(&self.vcs[tid as usize]);
                    self.vcs[tid as usize].tick(tid);
                    return;
                }
                // Library-knowledge-only hybrid: an RMW is just a plain
                // read+write — the source of its ad-hoc-atomics floods.
                self.on_plain_read(tid, addr, pc, stack);
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Fence { .. } => {}

            Event::MutexLock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(mvc) = self.mutex_vc.get(&mutex) {
                        self.vcs[tid as usize].join(mvc);
                    }
                    let held = &mut self.locks_held[tid as usize];
                    if let Err(i) = held.binary_search(&mutex) {
                        held.insert(i, mutex);
                    }
                    self.held_ids[tid as usize] = self
                        .locksets
                        .intern_presorted(&self.locks_held[tid as usize]);
                }
            }
            Event::MutexUnlock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.mutex_vc.entry(mutex).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                    let held = &mut self.locks_held[tid as usize];
                    if let Ok(i) = held.binary_search(&mutex) {
                        held.remove(i);
                    }
                    self.held_ids[tid as usize] = self
                        .locksets
                        .intern_presorted(&self.locks_held[tid as usize]);
                }
            }
            Event::CondSignal { tid, cv, .. } | Event::CondBroadcast { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.cv_vc.entry(cv).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::CondWaitReturn { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(cvc) = self.cv_vc.get(&cv) {
                        self.vcs[tid as usize].join(cvc);
                    }
                }
            }
            Event::BarrierEnter {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.barrier_vc.entry((barrier, gen)).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::BarrierLeave {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(bvc) = self.barrier_vc.get(&(barrier, gen)) {
                        self.vcs[tid as usize].join(bvc);
                    }
                }
            }
            Event::SemPost { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = &self.vcs[tid as usize];
                    self.sem_vc.entry(sem).or_default().join(vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::SemAcquired { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(svc) = self.sem_vc.get(&sem) {
                        self.vcs[tid as usize].join(svc);
                    }
                }
            }

            Event::SpinEnter { .. } => {}
            Event::SpinExit { tid, ref reads, .. } => {
                self.ensure_thread(tid);
                if self.cfg.spin {
                    // The happens-before edge from the counterpart write to
                    // the loop exit: acquire every final-iteration read.
                    for &(addr, _) in reads {
                        self.acquire_sync_loc(tid, addr);
                    }
                }
            }
            Event::Output { .. } => {}
        }
    }
}

/// Convenience used by tests & metrics: does `ord` release?
pub fn releases(ord: MemOrder) -> bool {
    ord.releases()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use spinrace_tir::{BlockId, FuncId};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn spawn(det: &mut RaceDetector, parent: u32, child: u32) {
        det.on_event(&Event::Spawn {
            parent,
            child,
            pc: pc(0),
        });
    }

    fn write(det: &mut RaceDetector, tid: u32, addr: u64, at: u32) {
        det.on_event(&Event::Write {
            tid,
            addr,
            value: 1,
            pc: pc(at),
            stack: 0,
            atomic: None,
        });
    }

    fn read(det: &mut RaceDetector, tid: u32, addr: u64, at: u32) {
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

    #[test]
    fn unordered_writes_race() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        spawn(&mut d, 0, 2);
        write(&mut d, 1, 0x1000, 1);
        write(&mut d, 2, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn spawn_orders_parent_before_child() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        write(&mut d, 0, 0x1000, 1);
        spawn(&mut d, 0, 1);
        read(&mut d, 1, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 0);
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        spawn(&mut d, 0, 1);
        write(&mut d, 1, 0x1000, 1);
        read(&mut d, 0, 0x1000, 2);
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteRead);
    }

    #[test]
    fn mutex_edges_order_critical_sections() {
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_nolib_spin(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib_spin(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::drd());
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut drd = RaceDetector::new(DetectorConfig::drd());
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
            let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
            spawn(&mut d, 0, 1);
            spawn(&mut d, 0, 2);
            write(&mut d, 1, 0x1000, 1);
            write(&mut d, 2, 0x1000, 2);
            d.racy_contexts()
        };
        assert_eq!(short, 1);
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Long));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        let mut d = RaceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(5));
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
