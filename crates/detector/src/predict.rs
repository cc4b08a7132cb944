//! Sync-preserving predictive race detection — races in *reorderings*
//! of the recorded trace, from one linear pass.
//!
//! The happens-before lineup only reports races the recorded
//! interleaving happened to witness: every mutex release→acquire pair
//! becomes an ordering edge, even between critical sections that touch
//! disjoint data and could legally run in either order. Sync-preserving
//! prediction (Mathur, Pavlogiannis & Viswanathan, *Optimal Prediction
//! of Synchronization-Preserving Races*) keeps a critical-section edge
//! only when reversing it would change an observed value — here
//! approximated per variable: the release of a critical section on `m`
//! orders a later access to `x` inside a critical section on `m` **only
//! if the earlier section conflicted on `x`** (wrote `x` for any later
//! access; read `x` for a later write). Hard program-structure edges —
//! spawn/join, condition variables, barriers, semaphores, and machine
//! atomics — are always kept: reversing those would not be a
//! synchronization-preserving correct reordering.
//!
//! Because this detector only ever *drops* edges relative to the pure
//! happens-before relation, any pair unordered under HB stays unordered
//! here: its race set is a **superset of the HB race set** on the same
//! stream, by construction (the workload-oracle suite enforces this
//! differentially). Soundness is per the per-variable abstraction: a
//! predicted pair is racy in some sync-preserving reordering of the
//! recorded trace provided the intervening critical sections are
//! value-independent of the accesses — the classic trade the paper's
//! linear-time variant makes.
//!
//! The pass is a single in-order walk (release clocks flow through the
//! per-lock conflict maps in trace order); whole-trace and
//! chunk-streamed replay feed it the same sequence and are
//! byte-identical.

use crate::config::DetectorConfig;
use crate::metrics::{vc_map_bytes, DetectorMetrics};
use crate::report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
use crate::vc::{Epoch, VectorClock};
use fxhash::FxHashMap;
use spinrace_tir::Pc;
use spinrace_vm::{Event, EventSink, ThreadId};
use std::mem::size_of;

/// A thread's last access to one address: its epoch plus the static
/// site, enough to both order against and report.
#[derive(Clone, Copy, Debug)]
struct SiteEpoch {
    clock: u32,
    pc: Pc,
    stack: u64,
}

/// Per-address access history: the last write and last read of *every*
/// thread (an epoch per thread, not just the globally last access —
/// prediction must check the current access against each thread's
/// frontier, since dropping edges can leave several unordered priors).
#[derive(Default)]
struct AddrState {
    writes: FxHashMap<ThreadId, SiteEpoch>,
    reads: FxHashMap<ThreadId, SiteEpoch>,
}

/// The footprint of one open critical section: which addresses it wrote
/// and read so far (folded into the per-lock conflict maps at unlock).
#[derive(Default)]
struct CsFootprint {
    /// addr → (wrote, read)
    accesses: FxHashMap<u64, (bool, bool)>,
}

/// The sync-preserving predictive detector. Feed it a VM event stream
/// (it implements [`EventSink`]) and read results from
/// [`SyncPreservingDetector::reports`] — same surface as
/// [`crate::RaceDetector`], same [`ReportCollector`] dedup/cap
/// semantics, reusable by every replay path.
pub struct SyncPreservingDetector {
    cfg: DetectorConfig,
    /// Per-thread clocks over the *weakened* ordering.
    vcs: Vec<VectorClock>,
    /// Per-thread held locks (sorted).
    held: Vec<Vec<u64>>,
    /// Per-thread open critical-section footprints, keyed by lock.
    cs: Vec<FxHashMap<u64, CsFootprint>>,
    /// Per-lock conflict maps: `rel_w[m][x]` joins the release clocks of
    /// every closed critical section on `m` that wrote `x`; `rel_r` the
    /// same for reads. The conditional edge is applied at access time.
    rel_w: FxHashMap<u64, FxHashMap<u64, VectorClock>>,
    rel_r: FxHashMap<u64, FxHashMap<u64, VectorClock>>,
    /// Hard-edge release clocks (always kept).
    cv_vc: FxHashMap<u64, VectorClock>,
    barrier_vc: FxHashMap<(u64, u64), VectorClock>,
    sem_vc: FxHashMap<u64, VectorClock>,
    atomic_vc: FxHashMap<u64, VectorClock>,
    /// Per-address frontier state.
    state: FxHashMap<u64, AddrState>,
    /// Racy-pair scratch (kept to avoid per-event allocation).
    scratch: Vec<(AccessSummary, RaceKind)>,
    reports: ReportCollector,
    events_seen: u64,
}

impl SyncPreservingDetector {
    /// Fresh detector for one pass.
    pub fn new(cfg: DetectorConfig) -> SyncPreservingDetector {
        SyncPreservingDetector {
            cfg,
            vcs: vec![initial_vc()],
            held: vec![Vec::new()],
            cs: vec![FxHashMap::default()],
            rel_w: FxHashMap::default(),
            rel_r: FxHashMap::default(),
            cv_vc: FxHashMap::default(),
            barrier_vc: FxHashMap::default(),
            sem_vc: FxHashMap::default(),
            atomic_vc: FxHashMap::default(),
            state: FxHashMap::default(),
            scratch: Vec::new(),
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

    /// Number of distinct racy contexts.
    pub fn racy_contexts(&self) -> usize {
        self.reports.contexts()
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Prediction promotes no spin locations; the accessor exists so
    /// both detector families expose the same result shape.
    pub fn promoted_locations(&self) -> usize {
        0
    }

    /// Retained per-address frontier bytes — the analogue of shadow
    /// memory, and the quantity budget polls bound.
    pub fn shadow_resident_bytes(&self) -> usize {
        let entry = size_of::<u64>() + size_of::<AddrState>();
        let site = size_of::<(ThreadId, SiteEpoch)>();
        self.state
            .values()
            .map(|s| entry + (s.writes.len() + s.reads.len()) * site)
            .sum()
    }

    /// Measure retained state in the shared metrics shape. Conflict maps
    /// count as library-sync state (they are the per-lock machinery),
    /// the per-address frontier as shadow state.
    pub fn metrics(&self) -> DetectorMetrics {
        let rel_bytes = |m: &FxHashMap<u64, FxHashMap<u64, VectorClock>>| -> usize {
            m.values()
                .map(|per| size_of::<u64>() + vc_map_bytes(per))
                .sum()
        };
        DetectorMetrics {
            shadow_bytes: self.shadow_resident_bytes(),
            thread_vc_bytes: self
                .vcs
                .iter()
                .map(|v| size_of::<VectorClock>() + v.approx_bytes())
                .sum(),
            lib_sync_bytes: vc_map_bytes(&self.cv_vc)
                + self
                    .barrier_vc
                    .values()
                    .map(|v| size_of::<(u64, u64)>() + v.approx_bytes())
                    .sum::<usize>()
                + vc_map_bytes(&self.sem_vc)
                + rel_bytes(&self.rel_w)
                + rel_bytes(&self.rel_r),
            atomic_bytes: vc_map_bytes(&self.atomic_vc),
            spin_sync_bytes: 0,
            lockset_bytes: 0,
            report_bytes: self.reports.approx_bytes(),
        }
    }

    fn ensure_thread(&mut self, t: ThreadId) {
        let t = t as usize;
        while self.vcs.len() <= t {
            self.vcs.push(initial_vc());
            self.held.push(Vec::new());
            self.cs.push(FxHashMap::default());
        }
    }

    /// Apply the conditional critical-section edges for an access to
    /// `addr` under every lock the thread holds: join the release clocks
    /// of earlier conflicting sections *before* the race check, so a
    /// kept edge suppresses the pair exactly like a hard HB edge would.
    fn acquire_conflicting(&mut self, tid: ThreadId, addr: u64, is_write: bool) {
        let ti = tid as usize;
        for i in 0..self.held[ti].len() {
            let m = self.held[ti][i];
            if let Some(vc) = self.rel_w.get(&m).and_then(|per| per.get(&addr)) {
                self.vcs[ti].join(vc);
            }
            if is_write {
                if let Some(vc) = self.rel_r.get(&m).and_then(|per| per.get(&addr)) {
                    self.vcs[ti].join(vc);
                }
            }
        }
    }

    /// Record the access in every open critical section's footprint.
    fn note_cs_access(&mut self, tid: ThreadId, addr: u64, is_write: bool) {
        let ti = tid as usize;
        if self.held[ti].is_empty() {
            return;
        }
        for i in 0..self.held[ti].len() {
            let m = self.held[ti][i];
            let slot = self.cs[ti]
                .entry(m)
                .or_default()
                .accesses
                .entry(addr)
                .or_insert((false, false));
            if is_write {
                slot.0 = true;
            } else {
                slot.1 = true;
            }
        }
    }

    fn on_plain_read(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        self.acquire_conflicting(tid, addr, false);
        let ti = tid as usize;
        let vc = &self.vcs[ti];
        let st = self.state.entry(addr).or_default();
        self.scratch.clear();
        for (&u, e) in &st.writes {
            if u != tid && !vc.covers(Epoch::new(u, e.clock)) {
                self.scratch.push((
                    AccessSummary {
                        tid: u,
                        pc: e.pc,
                        stack: e.stack,
                        is_write: true,
                    },
                    RaceKind::WriteRead,
                ));
            }
        }
        st.reads.insert(
            tid,
            SiteEpoch {
                clock: vc.get(tid),
                pc,
                stack,
            },
        );
        self.emit(addr, tid, pc, stack, false);
        self.note_cs_access(tid, addr, false);
    }

    fn on_plain_write(&mut self, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        self.acquire_conflicting(tid, addr, true);
        let ti = tid as usize;
        let vc = &self.vcs[ti];
        let st = self.state.entry(addr).or_default();
        self.scratch.clear();
        for (&u, e) in &st.writes {
            if u != tid && !vc.covers(Epoch::new(u, e.clock)) {
                self.scratch.push((
                    AccessSummary {
                        tid: u,
                        pc: e.pc,
                        stack: e.stack,
                        is_write: true,
                    },
                    RaceKind::WriteWrite,
                ));
            }
        }
        for (&u, e) in &st.reads {
            if u != tid && !vc.covers(Epoch::new(u, e.clock)) {
                self.scratch.push((
                    AccessSummary {
                        tid: u,
                        pc: e.pc,
                        stack: e.stack,
                        is_write: false,
                    },
                    RaceKind::ReadWrite,
                ));
            }
        }
        st.writes.insert(
            tid,
            SiteEpoch {
                clock: vc.get(tid),
                pc,
                stack,
            },
        );
        self.emit(addr, tid, pc, stack, true);
        self.note_cs_access(tid, addr, true);
    }

    /// Flush the racy-pair scratch into the collector in a canonical
    /// order (prior thread, writes before reads) so reports are
    /// byte-stable regardless of hash-map iteration order.
    fn emit(&mut self, addr: u64, tid: ThreadId, pc: Pc, stack: u64, is_write: bool) {
        let mut pairs = std::mem::take(&mut self.scratch);
        pairs.sort_by_key(|(prior, _)| (prior.tid, !prior.is_write));
        for (prior, kind) in pairs.drain(..) {
            self.reports.record(RaceReport {
                addr,
                prior,
                current: AccessSummary {
                    tid,
                    pc,
                    stack,
                    is_write,
                },
                kind,
            });
        }
        self.scratch = pairs;
    }

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
                ..
            } => {
                self.ensure_thread(tid);
                // Machine atomics are synchronization, not data (spin-
                // tagged reads carry no special meaning here: without the
                // promotion feature they are plain reads).
                if let Some(ord) = atomic {
                    if ord.acquires() {
                        if let Some(avc) = self.atomic_vc.get(&addr) {
                            self.vcs[tid as usize].join(avc);
                        }
                    }
                    return;
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
                if let Some(ord) = atomic {
                    if ord.releases() {
                        let vc = &self.vcs[tid as usize];
                        self.atomic_vc.entry(addr).or_default().join(vc);
                        self.vcs[tid as usize].tick(tid);
                    }
                    return;
                }
                self.on_plain_write(tid, addr, pc, stack);
            }
            Event::Update { tid, addr, .. } => {
                self.ensure_thread(tid);
                // RMW: acquire + release through one clock (hard edge).
                let avc = self.atomic_vc.entry(addr).or_default();
                self.vcs[tid as usize].join(avc);
                avc.join(&self.vcs[tid as usize]);
                self.vcs[tid as usize].tick(tid);
            }
            Event::Fence { .. } => {}

            Event::MutexLock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                // No unconditional acquire — the whole point. Just open
                // the critical section.
                let held = &mut self.held[tid as usize];
                if let Err(i) = held.binary_search(&mutex) {
                    held.insert(i, mutex);
                }
                self.cs[tid as usize].entry(mutex).or_default();
            }
            Event::MutexUnlock { tid, mutex, .. } => {
                self.ensure_thread(tid);
                let ti = tid as usize;
                if let Ok(i) = self.held[ti].binary_search(&mutex) {
                    self.held[ti].remove(i);
                }
                if let Some(fp) = self.cs[ti].remove(&mutex) {
                    let vc = &self.vcs[ti];
                    for (&addr, &(wrote, read)) in &fp.accesses {
                        if wrote {
                            self.rel_w
                                .entry(mutex)
                                .or_default()
                                .entry(addr)
                                .or_default()
                                .join(vc);
                        }
                        if read {
                            self.rel_r
                                .entry(mutex)
                                .or_default()
                                .entry(addr)
                                .or_default()
                                .join(vc);
                        }
                    }
                }
                self.vcs[ti].tick(tid);
            }
            Event::CondSignal { tid, cv, .. } | Event::CondBroadcast { tid, cv, .. } => {
                self.ensure_thread(tid);
                let vc = &self.vcs[tid as usize];
                self.cv_vc.entry(cv).or_default().join(vc);
                self.vcs[tid as usize].tick(tid);
            }
            Event::CondWaitReturn { tid, cv, .. } => {
                self.ensure_thread(tid);
                if let Some(cvc) = self.cv_vc.get(&cv) {
                    self.vcs[tid as usize].join(cvc);
                }
            }
            Event::BarrierEnter {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                let vc = &self.vcs[tid as usize];
                self.barrier_vc.entry((barrier, gen)).or_default().join(vc);
                self.vcs[tid as usize].tick(tid);
            }
            Event::BarrierLeave {
                tid, barrier, gen, ..
            } => {
                self.ensure_thread(tid);
                if let Some(bvc) = self.barrier_vc.get(&(barrier, gen)) {
                    self.vcs[tid as usize].join(bvc);
                }
            }
            Event::SemPost { tid, sem, .. } => {
                self.ensure_thread(tid);
                let vc = &self.vcs[tid as usize];
                self.sem_vc.entry(sem).or_default().join(vc);
                self.vcs[tid as usize].tick(tid);
            }
            Event::SemAcquired { tid, sem, .. } => {
                self.ensure_thread(tid);
                if let Some(svc) = self.sem_vc.get(&sem) {
                    self.vcs[tid as usize].join(svc);
                }
            }

            Event::SpinEnter { .. } | Event::SpinExit { .. } | Event::Output { .. } => {}
        }
    }
}

fn initial_vc() -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(0, 1);
    vc
}

impl EventSink for SyncPreservingDetector {
    fn on_event(&mut self, ev: &Event) {
        self.events_seen += 1;
        self.handle(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DetectorConfig, MsmMode};
    use crate::RaceDetector;
    use spinrace_tir::{BlockId, FuncId};

    fn pc(n: u32) -> Pc {
        Pc::new(FuncId(0), BlockId(0), n)
    }

    fn sp() -> SyncPreservingDetector {
        SyncPreservingDetector::new(DetectorConfig::sync_preserving())
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
            let mut hb = RaceDetector::new(cfg);
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
        let mut d = SyncPreservingDetector::new(DetectorConfig::sync_preserving().with_cap(5));
        spawn2(&mut d);
        for i in 0..20 {
            write(&mut d, 1, 0x1000 + i, i as u32);
            write(&mut d, 2, 0x1000 + i, 100 + i as u32);
        }
        assert_eq!(d.racy_contexts(), 5);
        assert!(d.reports().dropped() > 0);
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
