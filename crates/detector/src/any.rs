//! One [`EventSink`] surface over both detector families.
//!
//! The witnessed-interleaving detectors ([`RaceDetector`]: Helgrind+
//! hybrids and DRD) and the predictive pass
//! ([`SyncPreservingDetector`]) expose the same result shape but are
//! different state machines. [`AnyDetector`] dispatches on
//! [`DetectorConfig::kind`] so replay engines can instantiate whatever
//! the request's tool asks for without caring which family it is.

use crate::config::DetectorConfig;
use crate::detector::RaceDetector;
use crate::metrics::DetectorMetrics;
use crate::predict::SyncPreservingDetector;
use crate::report::ReportCollector;
use spinrace_vm::{Event, EventSink};

/// A detector of either family, chosen by [`DetectorConfig::kind`].
pub enum AnyDetector {
    /// Witnessed-interleaving detection (Helgrind+ hybrid or DRD).
    Hb(RaceDetector),
    /// Sync-preserving predictive detection.
    Predict(SyncPreservingDetector),
}

impl AnyDetector {
    /// Instantiate the family the configuration names.
    pub fn new(cfg: DetectorConfig) -> AnyDetector {
        if cfg.is_predictive() {
            AnyDetector::Predict(SyncPreservingDetector::new(cfg))
        } else {
            AnyDetector::Hb(RaceDetector::new(cfg))
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        match self {
            AnyDetector::Hb(d) => d.config(),
            AnyDetector::Predict(d) => d.config(),
        }
    }

    /// Collected reports.
    pub fn reports(&self) -> &ReportCollector {
        match self {
            AnyDetector::Hb(d) => d.reports(),
            AnyDetector::Predict(d) => d.reports(),
        }
    }

    /// Number of distinct racy contexts.
    pub fn racy_contexts(&self) -> usize {
        match self {
            AnyDetector::Hb(d) => d.racy_contexts(),
            AnyDetector::Predict(d) => d.racy_contexts(),
        }
    }

    /// Events processed.
    pub fn events_seen(&self) -> u64 {
        match self {
            AnyDetector::Hb(d) => d.events_seen(),
            AnyDetector::Predict(d) => d.events_seen(),
        }
    }

    /// Spin locations promoted to synchronization variables (always 0
    /// for the predictive pass).
    pub fn promoted_locations(&self) -> usize {
        match self {
            AnyDetector::Hb(d) => d.promoted_locations(),
            AnyDetector::Predict(d) => d.promoted_locations(),
        }
    }

    /// Resident shadow-state bytes (budget polls).
    pub fn shadow_resident_bytes(&self) -> usize {
        match self {
            AnyDetector::Hb(d) => d.shadow_resident_bytes(),
            AnyDetector::Predict(d) => d.shadow_resident_bytes(),
        }
    }

    /// Measure retained state.
    pub fn metrics(&self) -> DetectorMetrics {
        match self {
            AnyDetector::Hb(d) => d.metrics(),
            AnyDetector::Predict(d) => d.metrics(),
        }
    }
}

impl EventSink for AnyDetector {
    fn on_event(&mut self, ev: &Event) {
        match self {
            AnyDetector::Hb(d) => d.on_event(ev),
            AnyDetector::Predict(d) => d.on_event(ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsmMode;
    use spinrace_tir::{BlockId, FuncId, Pc};

    fn feed(d: &mut AnyDetector) {
        let pc = |n| Pc::new(FuncId(0), BlockId(0), n);
        d.on_event(&Event::Spawn {
            parent: 0,
            child: 1,
            pc: pc(0),
        });
        d.on_event(&Event::Write {
            tid: 0,
            addr: 0x1000,
            value: 1,
            pc: pc(1),
            stack: 0,
            atomic: None,
        });
        d.on_event(&Event::Write {
            tid: 1,
            addr: 0x1000,
            value: 2,
            pc: pc(2),
            stack: 0,
            atomic: None,
        });
    }

    #[test]
    fn dispatches_by_kind() {
        let mut hb = AnyDetector::new(DetectorConfig::helgrind_lib(MsmMode::Short));
        assert!(matches!(hb, AnyDetector::Hb(_)));
        let mut sp = AnyDetector::new(DetectorConfig::sync_preserving());
        assert!(matches!(sp, AnyDetector::Predict(_)));
        feed(&mut hb);
        feed(&mut sp);
        assert_eq!(hb.events_seen(), 3);
        assert_eq!(sp.events_seen(), 3);
        // Unordered write pair: both families report it.
        assert_eq!(hb.racy_contexts(), 1);
        assert_eq!(sp.racy_contexts(), 1);
        assert_eq!(sp.promoted_locations(), 0);
        assert_eq!(sp.reports().contexts(), 1);
    }
}
