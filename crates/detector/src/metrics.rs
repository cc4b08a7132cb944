//! Detector-state memory accounting — the series behind the paper's
//! memory-consumption figure (library mode vs. spin-augmented modes).
//!
//! Every [`DetectorMetrics`] field is a count of what the detector
//! holds, times a fixed cost from the table below. No field reads a
//! container's capacity or the `size_of` of a detector type, so growth
//! policy and layout changes (a smaller access record, another page
//! size) move no outcome document. The costs are the sizes the
//! representation had when this model was fixed, so the numbers stay
//! familiar; they are a model, not a measurement. Budget polls guard the host instead, and read a
//! physical estimate of the shadow table
//! ([`AnyDetector::shadow_resident_bytes`](crate::AnyDetector::shadow_resident_bytes)).
//!
//! | Field | Count | Cost per item (bytes) |
//! |---|---|---|
//! | `shadow_bytes` (HB) | touched shadow cells; live read records | [`CELL_BYTES`] 128; [`READ_RECORD_BYTES`] 32 |
//! | `shadow_bytes` (predictive) | frontier addresses; per-thread last reads and writes | [`FRONTIER_ADDR_BYTES`] 72; [`FRONTIER_SITE_BYTES`] 32 |
//! | `thread_vc_bytes` | thread clocks; their entries | [`CLOCK_BYTES`] 24; [`CLOCK_ENTRY_BYTES`] 4 |
//! | `lib_sync_bytes` | mutex, condvar, barrier-generation and semaphore clocks, the predictive model's per-lock conflict clocks; their entries | [`SYNC_KEY_BYTES`] 8 + [`CLOCK_BYTES`] 24; 4 |
//! | `atomic_bytes` | atomic-location clocks; their entries | 8 + 24; 4 |
//! | `spin_sync_bytes` | promoted spin-location clocks; their entries | 8 + 24; 4 |
//! | `lockset_bytes` | interned locksets; their locks; memoized intersections | [`LOCKSET_BYTES`] 24; [`LOCK_ENTRY_BYTES`] 8; [`MEMO_ENTRY_BYTES`] 12 |
//! | `report_bytes` | race reports; racy contexts | [`REPORT_BYTES`] 80; [`CONTEXT_BYTES`] 48 |
//!
//! The predictive model also charges [`SYNC_KEY_BYTES`] for each lock
//! that has a conflict map.

use crate::vc::VectorClock;
use serde::{Deserialize, Serialize};

/// One touched shadow cell: the last write, the read state, the lockset
/// stage and the suspicion counter of one word.
pub const CELL_BYTES: usize = 128;
/// One live read record (an epoch, its site and its call-chain hash).
pub const READ_RECORD_BYTES: usize = 32;
/// One vector clock, whatever its width.
pub const CLOCK_BYTES: usize = 24;
/// One vector-clock entry.
pub const CLOCK_ENTRY_BYTES: usize = 4;
/// The key under which a sync object's or a lock's state is found.
pub const SYNC_KEY_BYTES: usize = 8;
/// One interned lockset, whatever its size.
pub const LOCKSET_BYTES: usize = 24;
/// One lock in an interned lockset.
pub const LOCK_ENTRY_BYTES: usize = 8;
/// One memoized lockset intersection.
pub const MEMO_ENTRY_BYTES: usize = 12;
/// One race report.
pub const REPORT_BYTES: usize = 80;
/// One racy context in the deduplication set.
pub const CONTEXT_BYTES: usize = 48;
/// One address in the predictive model's frontier map.
pub const FRONTIER_ADDR_BYTES: usize = 72;
/// One thread's last read or last write of a frontier address.
pub const FRONTIER_SITE_BYTES: usize = 32;

/// Byte-granular breakdown of a detector's retained state (see the
/// module docs for what each field counts).
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

/// Charged bytes of the HB shadow table: `cells` touched cells holding
/// `records` live read records.
pub(crate) fn shadow_bytes(cells: usize, records: usize) -> usize {
    cells * CELL_BYTES + records * READ_RECORD_BYTES
}

/// Charged bytes of `clocks`, each found under a key of `key` bytes:
/// 0 for thread clocks, [`SYNC_KEY_BYTES`] for the clocks of sync
/// objects, atomic and promoted locations and conflict maps.
pub(crate) fn clock_bytes<'a>(
    key: usize,
    clocks: impl IntoIterator<Item = &'a VectorClock>,
) -> usize {
    clocks
        .into_iter()
        .map(|c| key + CLOCK_BYTES + c.width() * CLOCK_ENTRY_BYTES)
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
            let mut d = crate::AnyDetector::new(cfg);
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
        // 50 promoted locations whose clocks are still empty, and no
        // shadow history for them; without spin, 50 cells of one record.
        assert_eq!(with.spin_sync_bytes, 50 * (SYNC_KEY_BYTES + CLOCK_BYTES));
        assert_eq!(with.shadow_bytes, 0);
        assert_eq!(without.spin_sync_bytes, 0);
        assert_eq!(without.shadow_bytes, 50 * (CELL_BYTES + READ_RECORD_BYTES));
        // Thread 0's clock ⟨2⟩ and thread 1's ⟨1,1⟩ on both sides.
        for m in [with, without] {
            assert_eq!(m.thread_vc_bytes, 2 * CLOCK_BYTES + 3 * CLOCK_ENTRY_BYTES);
            assert_eq!(m.lockset_bytes, LOCKSET_BYTES, "the empty lockset");
            assert_eq!(m.report_bytes, 0);
        }
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
