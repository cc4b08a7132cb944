//! The access model of either detector family.
//!
//! The witnessed-interleaving model ([`HbAccess`]: Helgrind+ hybrids and
//! DRD) and the predictive one ([`SyncPreserving`]) run on the same
//! engine. [`AnyModel`] holds whichever [`DetectorConfig::kind`] picks,
//! so replay engines can instantiate whatever the request's tool asks
//! for without caring which family it is, and the engine dispatches each
//! hook with one match.

use crate::config::DetectorConfig;
use crate::detector::HbAccess;
use crate::engine::HbEngine;
use crate::metrics::DetectorMetrics;
use crate::predict::SyncPreserving;
use spinrace_tir::Pc;
use spinrace_vm::{Event, ThreadId};

/// The access model of either family: how it checks plain accesses,
/// which mutex edges it keeps, and the memory it retains.
pub enum AnyModel {
    /// Witnessed-interleaving detection (Helgrind+ hybrid or DRD).
    Hb(HbAccess),
    /// Sync-preserving predictive detection.
    Predict(SyncPreserving),
}

impl AnyModel {
    /// Fresh model state for one run of `cfg`'s family.
    pub(crate) fn new(cfg: &DetectorConfig) -> AnyModel {
        if cfg.is_predictive() {
            AnyModel::Predict(SyncPreserving::default())
        } else {
            AnyModel::Hb(HbAccess::default())
        }
    }

    /// The spin feature's claim on an event, asked before anything else
    /// when `cfg.spin` is set. Returns whether the event was consumed.
    /// The predictive pass makes no claim.
    #[inline]
    pub(crate) fn spin(&mut self, e: &mut HbEngine, ev: &Event) -> bool {
        match self {
            AnyModel::Hb(m) => m.spin(e, ev),
            AnyModel::Predict(_) => false,
        }
    }

    /// A plain (non-synchronizing) read.
    #[inline]
    pub(crate) fn read(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        match self {
            AnyModel::Hb(m) => m.read(e, tid, addr, pc, stack),
            AnyModel::Predict(m) => m.access(e, tid, addr, pc, stack, false),
        }
    }

    /// A plain write.
    #[inline]
    pub(crate) fn write(&mut self, e: &mut HbEngine, tid: ThreadId, addr: u64, pc: Pc, stack: u64) {
        match self {
            AnyModel::Hb(m) => m.write(e, tid, addr, pc, stack),
            AnyModel::Predict(m) => m.access(e, tid, addr, pc, stack, true),
        }
    }

    /// `tid` acquired `mutex`, which is already in its held list. The
    /// predictive pass takes no unconditional edge: it applies a
    /// section's edges per access, from its conflict maps.
    #[inline]
    pub(crate) fn lock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        match self {
            AnyModel::Hb(m) => m.lock(e, tid, mutex),
            AnyModel::Predict(_) => {}
        }
    }

    /// `tid` released `mutex`, which is already out of its held list;
    /// the engine ticks `tid`'s clock after this returns.
    #[inline]
    pub(crate) fn unlock(&mut self, e: &mut HbEngine, tid: ThreadId, mutex: u64) {
        match self {
            AnyModel::Hb(m) => m.unlock(e, tid, mutex),
            AnyModel::Predict(m) => m.unlock(e, tid, mutex),
        }
    }

    /// Cheap estimate of the retained access history (budget polls).
    #[inline]
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            AnyModel::Hb(m) => m.resident_bytes(),
            AnyModel::Predict(m) => m.resident_bytes(),
        }
    }

    /// Spin locations promoted to synchronization variables; the
    /// predictive pass promotes none.
    #[inline]
    pub(crate) fn promoted_locations(&self) -> usize {
        match self {
            AnyModel::Hb(m) => m.promoted_locations(),
            AnyModel::Predict(_) => 0,
        }
    }

    /// Fill in the model's share of `m`: shadow, spin and lockset bytes,
    /// plus its mutex-edge state added to `lib_sync_bytes`.
    #[inline]
    pub(crate) fn metrics(&self, out: &mut DetectorMetrics) {
        match self {
            AnyModel::Hb(m) => m.metrics(out),
            AnyModel::Predict(m) => m.metrics(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsmMode;
    use crate::AnyDetector;
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
