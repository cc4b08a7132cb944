//! Replay limits and the one detection loop that enforces them.
//!
//! Every detection feeds its event stream through one crate-private
//! loop: one in-order pass that feeds each event to every target's
//! detector, in event-major order, and polls the optional wall-clock
//! watchdog and the shadow-byte budget every 4096 events. A
//! [`DetectRequest`](crate::DetectRequest) is the only way in, and it
//! runs three ways:
//!
//! * **live** — [`PreparedModule::try_run`] makes the loop the VM's
//!   [`EventSink`], so events go from the interpreter to the detectors
//!   with no recording;
//! * **recorded** — [`ExecutedRun::try_run`] feeds it the whole
//!   in-memory trace as a single chunk;
//! * **streamed** — the decode-ahead reader of
//!   [`PreparedModule::try_run_streamed`] feeds it one decoded chunk at a
//!   time.
//!
//! All three trip the same limits at the same event with the same
//! partial metrics.
//!
//! A recorded or streamed replay knows its stream length up front, so a
//! tripped limit simply ends the feeding. A live run learns its length
//! only when the VM stops, and the sink interface cannot return an
//! error, so the loop latches the first watchdog or shadow-budget error,
//! feeds no detector after it, and reports [`EventSink::halted`]; the VM
//! polls that every 4096 steps and stops. An exhausted event budget does
//! not halt the VM: the loop keeps counting events without feeding them,
//! so the error's `used` is the whole stream's length, as the recorded
//! and streamed paths report it. `VmConfig::max_steps` bounds that
//! counting.
//!
//! [`PreparedModule::try_run`]: crate::PreparedModule::try_run
//! [`PreparedModule::try_run_streamed`]: crate::PreparedModule::try_run_streamed
//! [`ExecutedRun::try_run`]: crate::ExecutedRun::try_run

use spinrace_detector::{AnyDetector, DetectorConfig};
use spinrace_vm::{Event, EventSink};
use std::fmt;
use std::time::{Duration, Instant};

/// How often (in events) the loop polls the watchdog and the shadow
/// budget: every 4096 events, so the hot loop pays one masked compare per
/// event in the common case.
const PERIODIC_MASK: u64 = 0xFFF;

/// A structured replay failure: a tripped limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The whole detection ran past [`EngineOptions::watchdog`].
    Watchdog {
        /// The configured limit.
        limit_ms: u64,
    },
    /// A resource budget was exhausted; detection terminated gracefully
    /// with partial results.
    BudgetExhausted {
        /// Which budget tripped.
        resource: BudgetResource,
        /// The configured ceiling.
        limit: u64,
        /// The observed value that exceeded it.
        used: u64,
        /// What the detection had seen when it stopped.
        partial: PartialMetrics,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Watchdog { limit_ms } => {
                write!(f, "replay exceeded the {limit_ms} ms watchdog")
            }
            EngineError::BudgetExhausted {
                resource,
                limit,
                used,
                partial,
            } => write!(
                f,
                "{resource} budget exhausted ({used} > {limit}); stopped after {} event(s), \
                 {} racy context(s) so far",
                partial.events_processed, partial.contexts
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The resource whose [`Budget`] ceiling a detection ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// [`Budget::max_events`].
    Events,
    /// [`Budget::max_shadow_bytes`].
    ShadowBytes,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetResource::Events => "event",
            BudgetResource::ShadowBytes => "shadow-byte",
        })
    }
}

/// What a budget-terminated detection had seen when it stopped — enough
/// to report "analysis incomplete after N events, K contexts" the way a
/// production tool would.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialMetrics {
    /// Events processed before termination.
    pub events_processed: u64,
    /// Racy contexts recorded so far by the detector the error names
    /// (the first target for an event-budget trip).
    pub contexts: usize,
    /// Shadow memory resident at termination: the physical estimate the
    /// budget polls, not the logical metric.
    pub shadow_bytes: usize,
}

/// Per-detection resource ceilings. `None` (the default) means
/// unlimited; enforcement is free when unlimited.
///
/// * `max_events` bounds the number of events a detection may process.
///   It is exact and deterministic: the affordable prefix is replayed
///   for faithful partial metrics, then [`EngineError::BudgetExhausted`]
///   is returned.
/// * `max_shadow_bytes` bounds resident shadow memory. It is checked
///   every 4096 events, and once more at the end of the stream, against
///   each target's physical resident-size estimate, read in O(1): the HB
///   shadow table's probe table, arena and page slabs, or the
///   sync-preserving frontiers' running count. This is the quantity
///   [`PartialMetrics::shadow_bytes`] reports. It is not the logical
///   `metrics.shadow_bytes` of an outcome, which counts touched cells
///   and read records at fixed costs (`spinrace_detector::metrics`):
///   that guards nothing, and the budget guards the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum events one detection may process.
    pub max_events: Option<u64>,
    /// Maximum resident shadow bytes of any one target's detector.
    pub max_shadow_bytes: Option<usize>,
}

impl Budget {
    /// Bound the number of events one detection may process.
    pub fn with_max_events(mut self, max_events: u64) -> Budget {
        self.max_events = Some(max_events);
        self
    }

    /// Bound the resident shadow bytes of one detection.
    pub fn with_max_shadow_bytes(mut self, max_shadow_bytes: usize) -> Budget {
        self.max_shadow_bytes = Some(max_shadow_bytes);
        self
    }
}

/// The limits one replay runs under. [`EngineOptions::default`] sets
/// none: no watchdog and an unlimited budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Optional wall-clock ceiling for the whole detection
    /// ([`EngineError::Watchdog`] when exceeded). `None` = unlimited.
    pub watchdog: Option<Duration>,
    /// Resource budgets.
    pub budget: Budget,
}

impl EngineOptions {
    /// Bound the whole detection by a wall-clock watchdog.
    pub fn with_watchdog(mut self, limit: Duration) -> EngineOptions {
        self.watchdog = Some(limit);
        self
    }

    /// Set resource budgets.
    pub fn with_budget(mut self, budget: Budget) -> EngineOptions {
        self.budget = budget;
        self
    }

    /// These limits clamped under `ceiling`: each limit is the tighter
    /// of the two, and one that only one side sets applies as set.
    pub fn within(self, ceiling: EngineOptions) -> EngineOptions {
        let (b, c) = (self.budget, ceiling.budget);
        EngineOptions {
            watchdog: self.watchdog.into_iter().chain(ceiling.watchdog).min(),
            budget: Budget {
                max_events: b.max_events.into_iter().chain(c.max_events).min(),
                max_shadow_bytes: b
                    .max_shadow_bytes
                    .into_iter()
                    .chain(c.max_shadow_bytes)
                    .min(),
            },
        }
    }
}

/// The one detection loop: feeds a `total`-event stream, in chunks or
/// one event at a time from the VM, to one detector per target and
/// enforces an [`EngineOptions`]' limits.
///
/// Sessions drive it for every [`DetectRequest`](crate::DetectRequest).
pub(crate) struct ReplayLoop {
    dets: Vec<AnyDetector>,
    /// Events seen so far: fed, except for those a live run offers past
    /// the event budget.
    events: u64,
    total: u64,
    /// Events the event budget affords (`total` when unlimited).
    limit: u64,
    deadline: Option<(Instant, Duration)>,
    shadow_limit: usize,
    /// The first limit a live run tripped (see the module docs).
    tripped: Option<EngineError>,
}

impl ReplayLoop {
    /// A loop over fresh detectors for `cfgs`, starting its watchdog now.
    /// A live run, whose length is unknown, passes `u64::MAX` as `total`.
    pub fn new(
        cfgs: impl IntoIterator<Item = DetectorConfig>,
        opts: EngineOptions,
        total: u64,
    ) -> ReplayLoop {
        ReplayLoop {
            dets: cfgs.into_iter().map(AnyDetector::new).collect(),
            events: 0,
            total,
            limit: opts.budget.max_events.map_or(total, |m| m.min(total)),
            deadline: opts.watchdog.map(|d| (Instant::now() + d, d)),
            shadow_limit: opts.budget.max_shadow_bytes.unwrap_or(usize::MAX),
            tripped: None,
        }
    }

    /// The detectors, in target order.
    pub fn detectors(&self) -> &[AnyDetector] {
        &self.dets
    }

    /// Events fed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Feed the next chunk of the stream to every detector, event-major.
    /// Fails on a tripped watchdog or shadow budget, and at the end of the
    /// chunk in which the event budget runs out.
    pub fn feed(&mut self, chunk: &[Event]) -> Result<(), EngineError> {
        let affordable = (self.limit - self.events).min(chunk.len() as u64) as usize;
        for ev in &chunk[..affordable] {
            self.step(ev)?;
        }
        if self.events == self.limit && self.limit < self.total {
            return Err(self.events_exhausted(self.total));
        }
        Ok(())
    }

    /// Feed one event to every detector, polling the limits first at
    /// every 4096th event. Inlined: it is the per-event body of both the
    /// chunk loop and the live sink.
    #[inline(always)]
    fn step(&mut self, ev: &Event) -> Result<(), EngineError> {
        if self.events & PERIODIC_MASK == 0 {
            self.poll()?;
        }
        for det in &mut self.dets {
            det.on_event(ev);
        }
        self.events += 1;
        Ok(())
    }

    /// End of stream: the error a live run latched or ran into, else one
    /// last shadow check (the periodic poll samples every 4096 events, so
    /// a short stream that ends over budget is caught here), then hand
    /// back the detectors in target order.
    pub fn finish(self) -> Result<Vec<AnyDetector>, EngineError> {
        if let Some(e) = self.tripped {
            return Err(e);
        }
        if self.events > self.limit {
            return Err(self.events_exhausted(self.events));
        }
        self.check_shadow()?;
        Ok(self.dets)
    }

    /// The event-budget error for a stream of `used` events.
    fn events_exhausted(&self, used: u64) -> EngineError {
        let first = self.dets.first();
        EngineError::BudgetExhausted {
            resource: BudgetResource::Events,
            limit: self.limit,
            used,
            partial: PartialMetrics {
                events_processed: self.limit,
                contexts: first.map_or(0, AnyDetector::racy_contexts),
                shadow_bytes: first.map_or(0, AnyDetector::shadow_resident_bytes),
            },
        }
    }

    fn poll(&self) -> Result<(), EngineError> {
        if let Some((at, d)) = self.deadline {
            if Instant::now() >= at {
                return Err(EngineError::Watchdog {
                    limit_ms: d.as_millis() as u64,
                });
            }
        }
        self.check_shadow()
    }

    fn check_shadow(&self) -> Result<(), EngineError> {
        if self.shadow_limit == usize::MAX {
            return Ok(());
        }
        for det in &self.dets {
            let bytes = det.shadow_resident_bytes();
            if bytes > self.shadow_limit {
                return Err(EngineError::BudgetExhausted {
                    resource: BudgetResource::ShadowBytes,
                    limit: self.shadow_limit as u64,
                    used: bytes as u64,
                    partial: PartialMetrics {
                        events_processed: self.events,
                        contexts: det.racy_contexts(),
                        shadow_bytes: bytes,
                    },
                });
            }
        }
        Ok(())
    }
}

/// The live face of the loop: the VM hands it each event as it runs.
impl EventSink for ReplayLoop {
    fn on_event(&mut self, ev: &Event) {
        if self.tripped.is_some() || self.events >= self.limit {
            self.events += 1;
        } else if let Err(e) = self.step(ev) {
            self.tripped = Some(e);
        }
    }

    fn halted(&self) -> bool {
        self.tripped.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_detector::MsmMode;
    use spinrace_tir::{Module, ModuleBuilder};
    use spinrace_vm::{record_run, Trace, VmConfig};

    /// Locked counters + an ad-hoc flag handoff + a deliberate race: all
    /// detector features (locksets, promotion, HB reports) in one module.
    fn mixed_trace() -> Trace {
        let mut mb = ModuleBuilder::new("mixed");
        let mu = mb.global("mu", 1);
        let shared = mb.global("shared", 1);
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
        let victim = mb.global("victim", 1);
        let w = mb.function("w", 1, |f| {
            f.lock(mu.at(0));
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            f.unlock(mu.at(0));
            let r = f.load(victim.at(0));
            let r2 = f.add(r, 1);
            f.store(victim.at(0), r2);
            f.ret(None);
        });
        let waiter = mb.function("waiter", 1, |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, done, head);
            f.switch_to(done);
            let d = f.load(data.at(0));
            f.output(d);
            f.ret(None);
        });
        mb.entry("main", |f| {
            let tw = f.spawn(waiter, 0);
            let t1 = f.spawn(w, 0);
            let t2 = f.spawn(w, 1);
            f.store(data.at(0), 7);
            f.store(flag.at(0), 1);
            f.join(t1);
            f.join(t2);
            f.join(tw);
            f.ret(None);
        });
        let m: Module = mb.finish().unwrap();
        record_run(&m, VmConfig::round_robin(), "test").unwrap()
    }

    fn run(
        cfgs: &[DetectorConfig],
        events: &[Event],
        opts: EngineOptions,
        chunk: usize,
    ) -> Result<Vec<AnyDetector>, EngineError> {
        let mut lp = ReplayLoop::new(cfgs.iter().copied(), opts, events.len() as u64);
        for c in events.chunks(chunk) {
            lp.feed(c)?;
        }
        lp.finish()
    }

    /// One event-major pass over several detectors equals one plain
    /// sequential detector per configuration, whatever the chunking.
    #[test]
    fn run_many_matches_individual_runs() {
        let trace = mixed_trace();
        let cfgs = [
            DetectorConfig::helgrind_lib(MsmMode::Short),
            DetectorConfig::helgrind_lib_spin(MsmMode::Long),
            DetectorConfig::drd(),
            DetectorConfig::sync_preserving(),
        ];
        for chunk in [1, 7, trace.events.len()] {
            let dets = run(&cfgs, &trace.events, EngineOptions::default(), chunk).unwrap();
            assert_eq!(dets.len(), cfgs.len());
            for (cfg, det) in cfgs.iter().zip(&dets) {
                let mut seq = AnyDetector::new(*cfg);
                trace.replay(&mut seq);
                assert_eq!(det.reports().reports(), seq.reports().reports());
                assert_eq!(det.metrics(), seq.metrics(), "chunk {chunk}");
                assert_eq!(det.promoted_locations(), seq.promoted_locations());
            }
        }
    }

    #[test]
    fn event_budget_reports_partial_metrics_from_the_prefix() {
        let trace = mixed_trace();
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short);
        let budget = (trace.events.len() / 2) as u64;
        let opts = EngineOptions::default().with_budget(Budget::default().with_max_events(budget));
        // Ground truth: a sequential detector over the affordable prefix.
        let mut prefix = AnyDetector::new(cfg);
        for ev in &trace.events[..budget as usize] {
            prefix.on_event(ev);
        }
        for chunk in [1, 5, trace.events.len()] {
            let err = run(&[cfg], &trace.events, opts, chunk)
                .err()
                .expect("budget must trip");
            assert_eq!(
                err,
                EngineError::BudgetExhausted {
                    resource: BudgetResource::Events,
                    limit: budget,
                    used: trace.events.len() as u64,
                    partial: PartialMetrics {
                        events_processed: budget,
                        contexts: prefix.racy_contexts(),
                        shadow_bytes: prefix.shadow_resident_bytes(),
                    },
                },
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn shadow_budget_trips_with_partial_metrics() {
        let trace = mixed_trace();
        let cfg = DetectorConfig::helgrind_lib(MsmMode::Short);
        let opts = EngineOptions::default().with_budget(Budget::default().with_max_shadow_bytes(1));
        for chunk in [3, trace.events.len()] {
            let err = run(&[cfg], &trace.events, opts, chunk)
                .err()
                .expect("a 1-byte shadow budget must trip");
            match err {
                EngineError::BudgetExhausted {
                    resource: BudgetResource::ShadowBytes,
                    limit,
                    used,
                    partial,
                } => {
                    assert_eq!(limit, 1);
                    assert!(used > 1);
                    assert_eq!(partial.shadow_bytes as u64, used);
                }
                other => panic!("expected shadow-budget error, got {other}"),
            }
        }
    }

    #[test]
    fn within_takes_the_tighter_of_each_limit() {
        let ms = Duration::from_millis;
        let client = EngineOptions::default()
            .with_watchdog(ms(50))
            .with_budget(Budget::default().with_max_events(10));
        let ceiling = EngineOptions::default().with_watchdog(ms(20)).with_budget(
            Budget::default()
                .with_max_events(30)
                .with_max_shadow_bytes(4096),
        );
        assert_eq!(
            client.within(ceiling),
            EngineOptions {
                watchdog: Some(ms(20)),
                budget: Budget {
                    max_events: Some(10),
                    max_shadow_bytes: Some(4096),
                },
            }
        );
        // `None` on either side: the side that sets a limit decides it.
        let none = EngineOptions::default();
        assert_eq!(client.within(none), client);
        assert_eq!(none.within(ceiling), ceiling);
        assert_eq!(none.within(none), none);
    }

    #[test]
    fn zero_watchdog_trips_on_the_first_event() {
        let trace = mixed_trace();
        let opts = EngineOptions::default().with_watchdog(Duration::ZERO);
        let err = run(&[DetectorConfig::drd()], &trace.events, opts, 64)
            .err()
            .expect("a zero watchdog must trip");
        assert_eq!(err, EngineError::Watchdog { limit_ms: 0 });
    }
}
