//! Race reports, racy-context deduplication, and the report cap.

use fxhash::FxHashSet;
use serde::{Deserialize, Serialize};
use spinrace_tir::Pc;

/// One side of a race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessSummary {
    /// Thread performing the access.
    pub tid: u32,
    /// Static location.
    pub pc: Pc,
    /// Call-chain hash (Helgrind-style context component).
    pub stack: u64,
    /// Write or read.
    pub is_write: bool,
}

/// Race flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaceKind {
    /// Two writes, unordered by happens-before.
    WriteWrite,
    /// Read then write, unordered.
    ReadWrite,
    /// Write then read, unordered.
    WriteRead,
    /// Lock-discipline violation (hybrid detector's Eraser stage): two
    /// lock-holding writers with no common lock, even if fortuitously
    /// ordered in this interleaving.
    LocksetViolation,
}

/// One reported race.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport {
    /// Conflicting address (word-granular).
    pub addr: u64,
    /// Earlier access.
    pub prior: AccessSummary,
    /// Current access (the one that triggered the report).
    pub current: AccessSummary,
    /// Flavor.
    pub kind: RaceKind,
}

impl RaceReport {
    /// The racy context: the deduplication key — both access sites with
    /// their call-chain hashes (Helgrind dedupes errors by stack trace).
    pub fn context(&self) -> ((Pc, u64), (Pc, u64)) {
        (
            (self.prior.pc, self.prior.stack),
            (self.current.pc, self.current.stack),
        )
    }
}

/// Collects reports, deduplicating by racy context with a cap.
///
/// The cap mirrors Helgrind's error cap: once `cap` distinct contexts have
/// been recorded, further *new* contexts are dropped (the saturation
/// visible as "1000" cells in the paper's PARSEC tables, and the mechanism
/// behind the false negative that spin detection removes — a real race
/// drowning past the cap in a flood of false positives).
#[derive(Clone, Debug)]
pub struct ReportCollector {
    reports: Vec<RaceReport>,
    contexts: FxHashSet<((Pc, u64), (Pc, u64))>,
    cap: usize,
    dropped: usize,
}

impl ReportCollector {
    /// Collector with the given context cap.
    pub fn new(cap: usize) -> ReportCollector {
        ReportCollector {
            reports: Vec::new(),
            contexts: FxHashSet::default(),
            cap,
            dropped: 0,
        }
    }

    /// Record a race; returns true if it created a new context.
    pub fn record(&mut self, r: RaceReport) -> bool {
        let ctx = r.context();
        if self.contexts.contains(&ctx) {
            return false;
        }
        if self.contexts.len() >= self.cap {
            self.dropped += 1;
            return false;
        }
        self.contexts.insert(ctx);
        self.reports.push(r);
        true
    }

    /// Distinct racy contexts recorded (capped).
    pub fn contexts(&self) -> usize {
        self.contexts.len()
    }

    /// New contexts that arrived after saturation.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// One representative report per context, in discovery order.
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Was any race reported on `addr`?
    pub fn has_race_on(&self, addr: u64) -> bool {
        self.reports.iter().any(|r| r.addr == addr)
    }
}

impl Default for ReportCollector {
    fn default() -> Self {
        ReportCollector::new(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{BlockId, FuncId};

    fn report(i: u32) -> RaceReport {
        let pc = |n| Pc::new(FuncId(0), BlockId(n), 0);
        RaceReport {
            addr: 0x1000,
            prior: AccessSummary {
                tid: 0,
                pc: pc(i),
                stack: 0,
                is_write: true,
            },
            current: AccessSummary {
                tid: 1,
                pc: pc(i + 100),
                stack: 0,
                is_write: true,
            },
            kind: RaceKind::WriteWrite,
        }
    }

    #[test]
    fn dedupe_by_context() {
        let mut c = ReportCollector::new(10);
        assert!(c.record(report(1)));
        assert!(!c.record(report(1)));
        assert!(c.record(report(2)));
        assert_eq!(c.contexts(), 2);
        assert_eq!(c.reports().len(), 2);
    }

    #[test]
    fn cap_saturates() {
        let mut c = ReportCollector::new(3);
        for i in 0..10 {
            c.record(report(i));
        }
        assert_eq!(c.contexts(), 3);
        assert_eq!(c.dropped(), 7);
        // duplicates of existing contexts are not counted as dropped
        c.record(report(0));
        assert_eq!(c.dropped(), 7);
    }

    #[test]
    fn has_race_on_addr() {
        let mut c = ReportCollector::new(10);
        c.record(report(1));
        assert!(c.has_race_on(0x1000));
        assert!(!c.has_race_on(0x2000));
    }
}
