//! The happens-before engine both detector families run on, and the one
//! detector type, [`AnyDetector`].
//!
//! Every detector here is a vector-clock happens-before detector; the
//! families differ only in how they treat plain memory accesses and
//! mutex edges. [`HbEngine`] owns what they share: the configuration,
//! per-thread clocks and sorted held-lock lists, the condvar, barrier,
//! semaphore and atomic release clocks, the report collector and the
//! event count. It runs every edge that is not a mutex edge, gated by
//! `cfg.lib` (library sync objects), `cfg.atomics_sync` (machine atomics)
//! and `cfg.spin` (the paper's spin feature, which the access model
//! implements). An [`AnyModel`], picked once from
//! [`DetectorConfig::kind`], supplies the rest:
//! [`crate::detector::HbAccess`] (shadow epochs, Eraser lockset, long
//! MSM, spin promotion, plain mutex edges) or
//! [`crate::predict::SyncPreserving`] (per-thread frontiers,
//! conflict-conditional mutex edges). [`AnyDetector`] pairs the engine
//! with that model and is the [`EventSink`] every replay path drives.
//!
//! # Acquire counts and exposed epochs
//!
//! Besides the clocks, the engine keeps two per-thread numbers (in
//! `ThreadState`) that let [`crate::detector::HbAccess`] skip the
//! prune of a shared read vector when no synchronization happened:
//!
//! * `acquires` of thread `t` counts the joins into `t`'s clock — spawn
//!   (child), join, acquiring atomic loads and RMWs, every `acquire`
//!   (mutex, condvar, barrier, semaphore, spin exit), the spin feature's
//!   RMW join and the predictive model's conditional edges. Only a join
//!   moves another thread's component of `t`'s clock, so while the count
//!   stands still, so do those components. It saturates at
//!   [`AccessRecord::UNSTAMPED`], which never matches a stamp.
//! * `exposed` of thread `u` is the highest own epoch of `u` that
//!   reached another clock before `u` ticked again. Every release ticks
//!   the releasing thread, so normally `C_t[u] < C_u[u]` for every
//!   `t ≠ u`; only a join (the joined thread's clock, final in a VM run),
//!   a spin promotion (seeded with the last writer's epoch) and the
//!   initial clocks (thread 0 at 1, fresh threads at 0) break it, and `u`
//!   is exposed while `C_u[u] <= exposed`.

use crate::any::AnyModel;
use crate::config::DetectorConfig;
use crate::metrics::{self, DetectorMetrics, SYNC_KEY_BYTES};
use crate::report::ReportCollector;
use crate::shadow::AccessRecord;
use crate::vc::VectorClock;
use fxhash::FxHashMap;
use spinrace_vm::{Event, EventSink, ThreadId};

/// The state every detector family shares.
pub struct HbEngine {
    pub(crate) cfg: DetectorConfig,
    /// Per-thread vector clocks.
    pub(crate) vcs: Vec<VectorClock>,
    /// Per-thread held locks and fast-path numbers.
    pub(crate) threads: Vec<ThreadState>,
    /// Release clocks of condvars, barrier generations and semaphores.
    cv_vc: FxHashMap<u64, VectorClock>,
    barrier_vc: FxHashMap<(u64, u64), VectorClock>,
    sem_vc: FxHashMap<u64, VectorClock>,
    /// Release clocks of atomic locations (machine-atomics model).
    atomic_vc: FxHashMap<u64, VectorClock>,
    pub(crate) reports: ReportCollector,
    events_seen: u64,
}

/// What the engine keeps of one thread besides its clock. The default
/// is a fresh thread's: no locks, nothing acquired, and its epoch 0 is
/// in every clock.
#[derive(Debug, Default)]
pub(crate) struct ThreadState {
    /// Held locks, sorted.
    pub(crate) held: Vec<u64>,
    /// Joins into the thread's clock, saturating (see the module docs).
    pub(crate) acquires: u32,
    /// Highest own epoch known to another clock without a tick since.
    pub(crate) exposed: u32,
}

/// A race detector of either family: the shared engine driving the
/// access model [`DetectorConfig::kind`] picks. Feed it a VM event stream
/// (it implements [`EventSink`]) and read the results from
/// [`AnyDetector::reports`].
pub struct AnyDetector {
    pub(crate) engine: HbEngine,
    pub(crate) model: AnyModel,
}

impl AnyDetector {
    /// Fresh detector for one run.
    pub fn new(cfg: DetectorConfig) -> Self {
        AnyDetector {
            engine: HbEngine {
                cfg,
                vcs: vec![initial_vc()],
                // Every fresh clock carries thread 0 at 1.
                threads: vec![ThreadState {
                    exposed: 1,
                    ..ThreadState::default()
                }],
                cv_vc: FxHashMap::default(),
                barrier_vc: FxHashMap::default(),
                sem_vc: FxHashMap::default(),
                atomic_vc: FxHashMap::default(),
                reports: ReportCollector::new(cfg.context_cap),
                events_seen: 0,
            },
            model: AnyModel::new(&cfg),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.engine.cfg
    }

    /// Collected reports.
    pub fn reports(&self) -> &ReportCollector {
        &self.engine.reports
    }

    /// Number of distinct racy contexts (the paper's table metric).
    pub fn racy_contexts(&self) -> usize {
        self.engine.reports.contexts()
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        self.engine.events_seen
    }

    /// Spin locations promoted to synchronization variables (always 0
    /// for the predictive pass).
    pub fn promoted_locations(&self) -> usize {
        self.model.promoted_locations()
    }

    /// Cheap resident-size estimate of the access history, for hot-path
    /// budget polls.
    pub fn shadow_resident_bytes(&self) -> usize {
        self.model.resident_bytes()
    }

    /// Measure retained state (counts at the costs of [`metrics`]).
    pub fn metrics(&self) -> DetectorMetrics {
        let e = &self.engine;
        let sync = e
            .cv_vc
            .values()
            .chain(e.barrier_vc.values())
            .chain(e.sem_vc.values());
        let mut m = DetectorMetrics {
            thread_vc_bytes: metrics::clock_bytes(0, &e.vcs),
            lib_sync_bytes: metrics::clock_bytes(SYNC_KEY_BYTES, sync),
            atomic_bytes: metrics::clock_bytes(SYNC_KEY_BYTES, e.atomic_vc.values()),
            report_bytes: e.reports.reports().len() * metrics::REPORT_BYTES
                + e.reports.contexts() * metrics::CONTEXT_BYTES,
            ..DetectorMetrics::default()
        };
        self.model.metrics(&mut m);
        m
    }
}

impl EventSink for AnyDetector {
    #[inline]
    fn on_event(&mut self, ev: &Event) {
        self.engine.step(&mut self.model, ev);
    }
}

impl HbEngine {
    /// Grow per-thread state to cover `t`. The growth path is out of
    /// line: each thread takes it once, and every event checks it.
    #[inline]
    fn ensure_thread(&mut self, t: ThreadId) {
        if self.vcs.len() <= t as usize {
            self.add_threads(t);
        }
    }

    #[cold]
    fn add_threads(&mut self, t: ThreadId) {
        let n = t as usize + 1;
        self.vcs.resize_with(n, initial_vc);
        self.threads.resize_with(n, ThreadState::default);
    }

    /// The event cascade.
    #[inline]
    fn step(&mut self, m: &mut AnyModel, ev: &Event) {
        self.events_seen += 1;
        if let Event::Spawn { child, .. } | Event::Join { child, .. } = *ev {
            self.ensure_thread(child);
        }
        let tid = ev.tid();
        self.ensure_thread(tid);
        let ti = tid as usize;
        let (lib, atomics, spin) = (self.cfg.lib, self.cfg.atomics_sync, self.cfg.spin);
        match *ev {
            // The spin feature claims tagged and promoted accesses, RMWs
            // and spin exits first; what it leaves falls through.
            Event::Read { .. }
            | Event::Write { .. }
            | Event::Update { .. }
            | Event::SpinExit { .. }
                if spin && m.spin(self, ev) => {}
            Event::Spawn { child, .. } => {
                let pvc = self.vcs[ti].clone();
                let ci = child as usize;
                self.vcs[ci].join(&pvc);
                bump(&mut self.threads[ci].acquires);
                self.vcs[ci].tick(child);
                self.vcs[ti].tick(tid);
            }
            Event::Join { child, .. } => {
                let ci = child as usize;
                let cvc = self.vcs[ci].clone();
                self.vcs[ti].join(&cvc);
                bump(&mut self.threads[ti].acquires);
                self.threads[ci].exposed = cvc.get(child);
            }
            // Machine atomics are synchronization, not data: acquiring
            // loads and releasing stores move clocks, and no atomic access
            // is race-checked.
            Event::Read {
                addr,
                atomic: Some(ord),
                ..
            } if atomics && ord.acquires() => {
                acquire(
                    &mut self.vcs[ti],
                    &mut self.threads[ti].acquires,
                    self.atomic_vc.get(&addr),
                );
            }
            Event::Write {
                addr,
                atomic: Some(ord),
                ..
            } if atomics && ord.releases() => {
                let avc = self.atomic_vc.entry(addr).or_default();
                release(&mut self.vcs[ti], tid, avc);
            }
            Event::Read {
                atomic: Some(_), ..
            }
            | Event::Write {
                atomic: Some(_), ..
            } if atomics => {}
            Event::Read {
                addr, pc, stack, ..
            } => m.read(self, tid, addr, pc, stack),
            Event::Write {
                addr, pc, stack, ..
            } => m.write(self, tid, addr, pc, stack),
            Event::Update { addr, .. } if atomics => {
                // Acquire + release through one map probe.
                let avc = self.atomic_vc.entry(addr).or_default();
                self.vcs[ti].join(avc);
                bump(&mut self.threads[ti].acquires);
                release(&mut self.vcs[ti], tid, avc);
            }
            // Without atomics (or spin) knowledge an RMW is a plain
            // read + write — the source of the lib-only ad-hoc floods.
            Event::Update {
                addr, pc, stack, ..
            } => {
                m.read(self, tid, addr, pc, stack);
                m.write(self, tid, addr, pc, stack);
            }
            Event::MutexLock { mutex, .. } if lib => {
                let held = &mut self.threads[ti].held;
                if let Err(i) = held.binary_search(&mutex) {
                    held.insert(i, mutex);
                }
                m.lock(self, tid, mutex);
            }
            Event::MutexUnlock { mutex, .. } if lib => {
                let held = &mut self.threads[ti].held;
                if let Ok(i) = held.binary_search(&mutex) {
                    held.remove(i);
                }
                m.unlock(self, tid, mutex);
                self.vcs[ti].tick(tid);
            }
            Event::CondSignal { cv, .. } | Event::CondBroadcast { cv, .. } if lib => {
                release(&mut self.vcs[ti], tid, self.cv_vc.entry(cv).or_default());
            }
            Event::CondWaitReturn { cv, .. } if lib => {
                acquire(
                    &mut self.vcs[ti],
                    &mut self.threads[ti].acquires,
                    self.cv_vc.get(&cv),
                );
            }
            Event::BarrierEnter { barrier, gen, .. } if lib => {
                let bvc = self.barrier_vc.entry((barrier, gen)).or_default();
                release(&mut self.vcs[ti], tid, bvc);
            }
            Event::BarrierLeave { barrier, gen, .. } if lib => {
                acquire(
                    &mut self.vcs[ti],
                    &mut self.threads[ti].acquires,
                    self.barrier_vc.get(&(barrier, gen)),
                );
            }
            Event::SemPost { sem, .. } if lib => {
                release(&mut self.vcs[ti], tid, self.sem_vc.entry(sem).or_default());
            }
            Event::SemAcquired { sem, .. } if lib => {
                acquire(
                    &mut self.vcs[ti],
                    &mut self.threads[ti].acquires,
                    self.sem_vc.get(&sem),
                );
            }
            _ => {}
        }
    }
}

/// Release thread `tid`'s clock `vc` into a sync object's clock, then
/// start `tid`'s next epoch.
pub(crate) fn release(vc: &mut VectorClock, tid: ThreadId, into: &mut VectorClock) {
    into.join(vc);
    vc.tick(tid);
}

/// Acquire a sync object's release clock, if it was ever released, and
/// count the join in the thread's `acquires`.
pub(crate) fn acquire(vc: &mut VectorClock, acquires: &mut u32, from: Option<&VectorClock>) {
    if let Some(from) = from {
        vc.join(from);
        bump(acquires);
    }
}

/// Count one join into a thread's clock. The count saturates at
/// [`AccessRecord::UNSTAMPED`], which never takes the fast path.
#[inline]
pub(crate) fn bump(acquires: &mut u32) {
    *acquires = acquires.saturating_add(1);
}

const _: () = assert!(AccessRecord::UNSTAMPED == u32::MAX);

fn initial_vc() -> VectorClock {
    let mut vc = VectorClock::new();
    vc.set(0, 1);
    vc
}
