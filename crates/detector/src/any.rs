//! One [`spinrace_vm::EventSink`] surface over both detector families.
//!
//! The witnessed-interleaving model ([`HbAccess`]: Helgrind+ hybrids and
//! DRD) and the predictive one ([`SyncPreserving`]) run on the same
//! engine; [`AnyModel`] picks one by [`DetectorConfig::kind`] so replay
//! engines can instantiate whatever the request's tool asks for without
//! caring which family it is.

use crate::config::DetectorConfig;
use crate::detector::HbAccess;
use crate::engine::{AccessModel, Detector, HbEngine};
use crate::metrics::DetectorMetrics;
use crate::predict::SyncPreserving;
use spinrace_tir::Pc;
use spinrace_vm::{Event, ThreadId};

/// A detector of either family, chosen by [`DetectorConfig::kind`].
pub type AnyDetector = Detector<AnyModel>;

/// The access model of either family.
pub enum AnyModel {
    /// Witnessed-interleaving detection (Helgrind+ hybrid or DRD).
    Hb(HbAccess),
    /// Sync-preserving predictive detection.
    Predict(SyncPreserving),
}

/// Run `$body` on whichever model `$self` holds, bound to `$m`.
macro_rules! each {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyModel::Hb($m) => $body,
            AnyModel::Predict($m) => $body,
        }
    };
}

impl AccessModel for AnyModel {
    fn new(cfg: &DetectorConfig) -> AnyModel {
        if cfg.is_predictive() {
            AnyModel::Predict(SyncPreserving::new(cfg))
        } else {
            AnyModel::Hb(HbAccess::new(cfg))
        }
    }

    #[inline]
    fn spin(&mut self, e: &mut HbEngine, ev: &Event) -> bool {
        each!(self, m => m.spin(e, ev))
    }

    #[inline]
    fn read(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        each!(self, m => m.read(e, tid, addr, pc, stack))
    }

    #[inline]
    fn write(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        each!(self, m => m.write(e, tid, addr, pc, stack))
    }

    fn lock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        each!(self, m => m.lock(e, tid, mutex))
    }

    fn unlock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        each!(self, m => m.unlock(e, tid, mutex))
    }

    fn resident_bytes(&self) -> usize {
        each!(self, m => m.resident_bytes())
    }

    fn promoted_locations(&self) -> usize {
        each!(self, m => m.promoted_locations())
    }

    fn metrics(&self, out: &mut DetectorMetrics) {
        each!(self, m => m.metrics(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsmMode;
    use spinrace_tir::{BlockId, FuncId};
    use spinrace_vm::EventSink;

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
        assert!(matches!(hb.model, AnyModel::Hb(_)));
        let mut sp = AnyDetector::new(DetectorConfig::sync_preserving());
        assert!(matches!(sp.model, AnyModel::Predict(_)));
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
