//! The retained **slow full-vector-clock reference detector**.
//!
//! This is the pre-epoch-fast-path implementation of the happens-before
//! [`crate::AnyDetector`], kept verbatim as the semantic ground truth the
//! fast paths must preserve: the differential tests (`tests/epoch_equivalence.rs`) replay
//! random event schedules and recorded PARSEC streams through both
//! detectors and assert identical reports.
//!
//! Its costs are the ones the fast detector eliminates: a full
//! `VectorClock` clone on **every** plain access, a `Vec` of read records
//! per shadow cell even for never-shared locations, and SipHash `HashMap`
//! lookups for shadow and sync state. Keep this file dumb — any
//! "optimization" here defeats its purpose.

use crate::config::{DetectorConfig, MsmMode};
use crate::lockset::{LocksetId, LocksetTable};
use crate::report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
use crate::shadow::AccessRecord;
use crate::vc::{Epoch, VectorClock};
use spinrace_tir::Pc;
use spinrace_vm::{Event, EventSink, ThreadId};
use std::collections::HashMap;

/// Shadow cell of the reference detector: always a full read vector.
#[derive(Clone, Debug, Default)]
struct RefShadowCell {
    last_write: Option<AccessRecord>,
    reads: Vec<AccessRecord>,
    write_lockset: Option<(LocksetId, u32, Pc, u64)>,
    suspicions: u8,
}

/// The slow reference detector. Same event-level semantics as
/// the happens-before [`crate::AnyDetector`], pre-optimization
/// representation.
pub struct ReferenceDetector {
    cfg: DetectorConfig,
    vcs: Vec<VectorClock>,
    locks_held: Vec<Vec<u64>>,
    held_ids: Vec<LocksetId>,
    locksets: LocksetTable,
    mutex_vc: HashMap<u64, VectorClock>,
    cv_vc: HashMap<u64, VectorClock>,
    barrier_vc: HashMap<(u64, u64), VectorClock>,
    sem_vc: HashMap<u64, VectorClock>,
    atomic_vc: HashMap<u64, VectorClock>,
    sync_loc: HashMap<u64, VectorClock>,
    shadow: HashMap<u64, RefShadowCell>,
    reports: ReportCollector,
    events_seen: u64,
}

impl ReferenceDetector {
    /// Fresh reference detector for one run.
    pub fn new(cfg: DetectorConfig) -> ReferenceDetector {
        ReferenceDetector {
            cfg,
            vcs: vec![initial_vc()],
            locks_held: vec![Vec::new()],
            held_ids: vec![LocksetId::EMPTY],
            locksets: LocksetTable::default(),
            mutex_vc: HashMap::new(),
            cv_vc: HashMap::new(),
            barrier_vc: HashMap::new(),
            sem_vc: HashMap::new(),
            atomic_vc: HashMap::new(),
            sync_loc: HashMap::new(),
            shadow: HashMap::new(),
            reports: ReportCollector::new(cfg.context_cap),
            events_seen: 0,
        }
    }

    /// Collected reports.
    pub fn reports(&self) -> &ReportCollector {
        &self.reports
    }

    /// Number of distinct racy contexts.
    pub fn racy_contexts(&self) -> usize {
        self.reports.contexts()
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Promoted synchronization locations.
    pub fn promoted_locations(&self) -> usize {
        self.sync_loc.len()
    }

    /// Charged shadow bytes, counted from the `HashMap` representation:
    /// the fast detector's `metrics().shadow_bytes` must equal it.
    pub fn shadow_bytes(&self) -> usize {
        let touched = self.shadow.values().filter(|c| {
            c.last_write.is_some()
                || !c.reads.is_empty()
                || c.write_lockset.is_some()
                || c.suspicions != 0
        });
        let (cells, records) =
            touched.fold((0, 0), |(n, records), c| (n + 1, records + c.reads.len()));
        crate::metrics::shadow_bytes(cells, records)
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let t = t as usize;
        while self.vcs.len() <= t {
            self.vcs.push(initial_vc());
            self.locks_held.push(Vec::new());
            self.held_ids.push(LocksetId::EMPTY);
        }
    }

    fn epoch(&self, t: ThreadId) -> u32 {
        self.vcs[t as usize].get(t)
    }

    fn promote(&mut self, addr: u64) {
        if self.sync_loc.contains_key(&addr) {
            return;
        }
        let mut vc = VectorClock::new();
        if let Some(cell) = self.shadow.get(&addr) {
            if let Some(w) = &cell.last_write {
                vc.set(w.tid, w.clock);
            }
        }
        self.sync_loc.insert(addr, vc);
    }

    fn is_promoted(&self, addr: u64) -> bool {
        self.sync_loc.contains_key(&addr)
    }

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
            let cell = self.shadow.entry(addr).or_default();
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
        // "Detected", not "recorded": the Eraser gate must not observe the
        // collector's global dedup/cap state (see HbAccess::report_hb).
        true
    }

    fn on_plain_read(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let clock = self.epoch(tid);
        let prior = self
            .shadow
            .get(&addr)
            .and_then(|c| c.last_write)
            .filter(|w| !self.vcs[tid as usize].covers(Epoch::new(w.tid, w.clock)));
        if let Some(w) = prior {
            self.report_hb(addr, w, true, tid, pc, stack, false);
        }
        let vc = self.vcs[tid as usize].clone();
        let cell = self.shadow.entry(addr).or_default();
        cell.reads
            .retain(|r| !vc.covers(Epoch::new(r.tid, r.clock)));
        cell.reads.push(AccessRecord::new(tid, clock, pc, stack));
    }

    fn on_plain_write(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        let clock = self.epoch(tid);
        let vc = self.vcs[tid as usize].clone();
        let (prior_write, concurrent_reads) = match self.shadow.get(&addr) {
            Some(c) => {
                let pw = c
                    .last_write
                    .filter(|w| !vc.covers(Epoch::new(w.tid, w.clock)));
                let rs: Vec<AccessRecord> = c
                    .reads
                    .iter()
                    .copied()
                    .filter(|r| r.tid != tid && !vc.covers(Epoch::new(r.tid, r.clock)))
                    .collect();
                (pw, rs)
            }
            None => (None, Vec::new()),
        };
        let mut hb_reported = false;
        if let Some(w) = prior_write {
            hb_reported |= self.report_hb(addr, w, true, tid, pc, stack, true);
        }
        for r in concurrent_reads {
            hb_reported |= self.report_hb(addr, r, false, tid, pc, stack, true);
        }

        if self.cfg.has_lockset() && !hb_reported && !self.locks_held[tid as usize].is_empty() {
            let cur = self.held_ids[tid as usize];
            let prev = self.shadow.get(&addr).and_then(|c| c.write_lockset);
            let new_state = match prev {
                None => (cur, tid, pc, stack),
                Some((prev_id, prev_tid, prev_pc, prev_stack)) => {
                    let inter = self.locksets.intersect(prev_id, cur);
                    if prev_tid != tid && self.locksets.set_is_empty(inter) {
                        self.reports.record(RaceReport {
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
            self.shadow.entry(addr).or_default().write_lockset = Some(new_state);
        }

        let cell = self.shadow.entry(addr).or_default();
        cell.last_write = Some(AccessRecord::new(tid, clock, pc, stack));
        cell.reads.clear();
    }

    fn release_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        let vc = self.vcs[tid as usize].clone();
        self.sync_loc.get_mut(&addr).expect("promoted").join(&vc);
        self.vcs[tid as usize].tick(tid);
    }

    fn acquire_sync_loc(&mut self, tid: ThreadId, addr: u64) {
        if let Some(lvc) = self.sync_loc.get(&addr) {
            let lvc = lvc.clone();
            self.vcs[tid as usize].join(&lvc);
        }
    }
}

fn initial_vc() -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(0, 1);
    vc
}

impl EventSink for ReferenceDetector {
    fn on_event(&mut self, ev: &Event) {
        self.events_seen += 1;
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
                if self.cfg.spin && spin.is_some() {
                    self.promote(addr);
                    return;
                }
                if self.cfg.spin && self.is_promoted(addr) {
                    return;
                }
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.acquires() {
                            if let Some(avc) = self.atomic_vc.get(&addr) {
                                let avc = avc.clone();
                                self.vcs[tid as usize].join(&avc);
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
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    if let Some(ord) = atomic {
                        if ord.releases() {
                            let vc = self.vcs[tid as usize].clone();
                            self.atomic_vc.entry(addr).or_default().join(&vc);
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
                    self.promote(addr);
                    self.acquire_sync_loc(tid, addr);
                    self.release_sync_loc(tid, addr);
                    return;
                }
                if self.cfg.atomics_sync {
                    let avc = self.atomic_vc.entry(addr).or_default().clone();
                    self.vcs[tid as usize].join(&avc);
                    let vc = self.vcs[tid as usize].clone();
                    self.atomic_vc.entry(addr).or_default().join(&vc);
                    self.vcs[tid as usize].tick(tid);
                    return;
                }
                self.on_plain_read(tid, addr, pc, stack);
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Fence { .. } => {}

            Event::MutexLock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(mvc) = self.mutex_vc.get(&mutex) {
                        let mvc = mvc.clone();
                        self.vcs[tid as usize].join(&mvc);
                    }
                    let held = &mut self.locks_held[tid as usize];
                    if let Err(i) = held.binary_search(&mutex) {
                        held.insert(i, mutex);
                    }
                    self.held_ids[tid as usize] =
                        self.locksets.intern(&self.locks_held[tid as usize]);
                }
            }
            Event::MutexUnlock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = self.vcs[tid as usize].clone();
                    self.mutex_vc.entry(mutex).or_default().join(&vc);
                    self.vcs[tid as usize].tick(tid);
                    let held = &mut self.locks_held[tid as usize];
                    if let Ok(i) = held.binary_search(&mutex) {
                        held.remove(i);
                    }
                    self.held_ids[tid as usize] =
                        self.locksets.intern(&self.locks_held[tid as usize]);
                }
            }
            Event::CondSignal { tid, cv, .. } | Event::CondBroadcast { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = self.vcs[tid as usize].clone();
                    self.cv_vc.entry(cv).or_default().join(&vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::CondWaitReturn { tid, cv, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(cvc) = self.cv_vc.get(&cv) {
                        let cvc = cvc.clone();
                        self.vcs[tid as usize].join(&cvc);
                    }
                }
            }
            Event::BarrierEnter {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = self.vcs[tid as usize].clone();
                    self.barrier_vc.entry((barrier, gen)).or_default().join(&vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::BarrierLeave {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(bvc) = self.barrier_vc.get(&(barrier, gen)) {
                        let bvc = bvc.clone();
                        self.vcs[tid as usize].join(&bvc);
                    }
                }
            }
            Event::SemPost { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    let vc = self.vcs[tid as usize].clone();
                    self.sem_vc.entry(sem).or_default().join(&vc);
                    self.vcs[tid as usize].tick(tid);
                }
            }
            Event::SemAcquired { tid, sem, .. } => {
                self.ensure_thread(tid);
                if self.cfg.lib {
                    if let Some(svc) = self.sem_vc.get(&sem) {
                        let svc = svc.clone();
                        self.vcs[tid as usize].join(&svc);
                    }
                }
            }

            Event::SpinEnter { .. } => {}
            Event::SpinExit { tid, ref reads, .. } => {
                self.ensure_thread(tid);
                if self.cfg.spin {
                    for &(addr, _) in reads {
                        self.acquire_sync_loc(tid, addr);
                    }
                }
            }
            Event::Output { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{BlockId, FuncId};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    #[test]
    fn reference_detects_the_basic_race() {
        let mut d = ReferenceDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
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
        for t in [1u32, 2u32] {
            d.on_event(&Event::Write {
                tid: t,
                addr: 0x1000,
                value: 1,
                pc: pc(t),
                stack: 0,
                atomic: None,
            });
        }
        assert_eq!(d.racy_contexts(), 1);
        assert_eq!(d.reports().reports()[0].kind, RaceKind::WriteWrite);
    }
}
