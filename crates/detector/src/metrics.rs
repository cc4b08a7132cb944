//! Detector-state memory accounting — the series behind the paper's
//! memory-consumption figure (library mode vs. spin-augmented modes).

use serde::{Deserialize, Serialize};

/// Byte-granular breakdown of a detector's retained state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorMetrics {
    /// Shadow cells (access history per word).
    pub shadow_bytes: usize,
    /// Per-thread vector clocks.
    pub thread_vc_bytes: usize,
    /// Library sync-object clocks (mutex/CV/barrier/sem).
    pub lib_sync_bytes: usize,
    /// Atomic-location clocks (DRD machine-atomic model).
    pub atomic_bytes: usize,
    /// Promoted spin-condition location clocks — the cost of the paper's
    /// feature.
    pub spin_sync_bytes: usize,
    /// Interned lockset table.
    pub lockset_bytes: usize,
    /// Race reports and contexts.
    pub report_bytes: usize,
}

impl DetectorMetrics {
    /// Total retained bytes.
    pub fn total(&self) -> usize {
        self.shadow_bytes
            + self.thread_vc_bytes
            + self.lib_sync_bytes
            + self.atomic_bytes
            + self.spin_sync_bytes
            + self.lockset_bytes
            + self.report_bytes
    }
}

/// Bytes of a `u64 → VectorClock` map's retained clocks.
pub(crate) fn vc_map_bytes(m: &fxhash::FxHashMap<u64, crate::vc::VectorClock>) -> usize {
    use std::mem::size_of;
    m.values()
        .map(|v| size_of::<u64>() + size_of::<crate::vc::VectorClock>() + v.approx_bytes())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DetectorConfig, MsmMode};
    use spinrace_tir::{BlockId, FuncId, Pc, SpinLoopId};
    use spinrace_vm::{Event, EventSink};

    #[test]
    fn spin_feature_costs_memory() {
        let pc = Pc::new(FuncId(0), BlockId(0), 0);
        let mk = |spin: bool| {
            let cfg = if spin {
                DetectorConfig::helgrind_lib_spin(MsmMode::Short)
            } else {
                DetectorConfig::helgrind_lib(MsmMode::Short)
            };
            let mut d = crate::RaceDetector::new(cfg);
            d.on_event(&Event::Spawn {
                parent: 0,
                child: 1,
                pc,
            });
            for i in 0..50u64 {
                d.on_event(&Event::Read {
                    tid: 1,
                    addr: 0x1000 + i,
                    value: 0,
                    pc,
                    stack: 0,
                    atomic: None,
                    spin: spin.then_some(SpinLoopId(0)),
                });
            }
            d.metrics()
        };
        let with = mk(true);
        let without = mk(false);
        assert!(with.spin_sync_bytes > 0);
        assert_eq!(without.spin_sync_bytes, 0);
        assert!(with.total() > 0 && without.total() > 0);
    }

    #[test]
    fn totals_add_up() {
        let m = DetectorMetrics {
            shadow_bytes: 1,
            thread_vc_bytes: 2,
            lib_sync_bytes: 3,
            atomic_bytes: 4,
            spin_sync_bytes: 5,
            lockset_bytes: 6,
            report_bytes: 7,
        };
        assert_eq!(m.total(), 28);
    }
}
