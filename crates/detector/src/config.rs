//! Detector configurations — the four tool columns of the paper's tables.

use serde::{Deserialize, Serialize};

/// Memory-state-machine sensitivity (Helgrind+, IPDPS'09).
///
/// * `Short` — for short-running programs (unit tests): report the first
///   unordered access pair on a location. More sensitive, more false
///   positives.
/// * `Long` — for long-running programs (integration tests): a location
///   must exhibit unordered behaviour twice before reports are emitted
///   ("might miss a race on the first iteration, but not on the second").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsmMode {
    /// Report on first suspicion.
    Short,
    /// Require a second confirmation per location.
    Long,
}

/// Which detector algorithm runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Hybrid lockset + happens-before (Helgrind+).
    HelgrindPlus {
        /// State-machine sensitivity.
        msm: MsmMode,
    },
    /// Pure happens-before with machine-atomic edges (DRD).
    Drd,
    /// Sync-preserving predictive detection (Mathur, Pavlogiannis &
    /// Viswanathan): a weakened happens-before whose mutex release→acquire
    /// edges are kept only between critical sections that *conflict* on
    /// the accessed variable, so races that merely require reordering two
    /// independent critical sections are predicted from one recorded
    /// trace. Single-pass and inherently sequential.
    SyncPreserving,
}

/// Full configuration of a detector run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Algorithm.
    pub kind: DetectorKind,
    /// Understand library synchronization events (mutex/CV/barrier/sem).
    /// Spawn/join edges are always understood — thread creation is program
    /// structure, not a library call.
    pub lib: bool,
    /// The paper's contribution: derive happens-before from instrumented
    /// spinning read loops (requires a spin-instrumented module), treat
    /// promoted condition locations as synchronization variables, and
    /// treat atomic read-modify-writes as synchronization operations.
    pub spin: bool,
    /// Derive happens-before edges from atomic memory orderings
    /// (release/acquire/CAS/RMW) and exempt atomics from race checks —
    /// DRD's machine-level atomics handling.
    pub atomics_sync: bool,
    /// Racy-context cap (Helgrind's error cap; the paper's "1000" cells).
    pub context_cap: usize,
}

impl DetectorConfig {
    /// `Helgrind+ lib` — hybrid with library knowledge, no spin detection.
    pub fn helgrind_lib(msm: MsmMode) -> Self {
        DetectorConfig {
            kind: DetectorKind::HelgrindPlus { msm },
            lib: true,
            spin: false,
            atomics_sync: false,
            context_cap: 1000,
        }
    }

    /// `Helgrind+ lib+spin` — library knowledge plus spin detection.
    pub fn helgrind_lib_spin(msm: MsmMode) -> Self {
        DetectorConfig {
            spin: true,
            ..Self::helgrind_lib(msm)
        }
    }

    /// `Helgrind+ nolib+spin` — the universal detector: no library
    /// knowledge, spin detection only (run it on a lowered module).
    pub fn helgrind_nolib_spin(msm: MsmMode) -> Self {
        DetectorConfig {
            lib: false,
            spin: true,
            ..Self::helgrind_lib(msm)
        }
    }

    /// `DRD` — pure happens-before baseline.
    pub fn drd() -> Self {
        DetectorConfig {
            kind: DetectorKind::Drd,
            lib: true,
            spin: false,
            atomics_sync: true,
            context_cap: 1000,
        }
    }

    /// `SyncPreserving` — predictive detection over a recorded trace:
    /// hard happens-before from spawn/join, condvars, barriers,
    /// semaphores and machine atomics, but mutex edges only between
    /// conflicting critical sections (see [`DetectorKind::SyncPreserving`]).
    pub fn sync_preserving() -> Self {
        DetectorConfig {
            kind: DetectorKind::SyncPreserving,
            lib: true,
            spin: false,
            atomics_sync: true,
            context_cap: 1000,
        }
    }

    /// Override the racy-context cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.context_cap = cap;
        self
    }

    /// Is the hybrid lockset stage active?
    pub fn has_lockset(&self) -> bool {
        matches!(self.kind, DetectorKind::HelgrindPlus { .. })
    }

    /// Is this a predictive (reordering-aware) detector?
    pub fn is_predictive(&self) -> bool {
        matches!(self.kind, DetectorKind::SyncPreserving)
    }

    /// The long-MSM gating, if any.
    pub fn msm(&self) -> Option<MsmMode> {
        match self.kind {
            DetectorKind::HelgrindPlus { msm } => Some(msm),
            DetectorKind::Drd | DetectorKind::SyncPreserving => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_columns() {
        let lib = DetectorConfig::helgrind_lib(MsmMode::Short);
        assert!(lib.lib && !lib.spin && !lib.atomics_sync && lib.has_lockset());
        let spin = DetectorConfig::helgrind_lib_spin(MsmMode::Short);
        assert!(spin.lib && spin.spin);
        let nolib = DetectorConfig::helgrind_nolib_spin(MsmMode::Long);
        assert!(!nolib.lib && nolib.spin);
        let drd = DetectorConfig::drd();
        assert!(drd.atomics_sync && !drd.has_lockset() && !drd.spin);
        assert_eq!(drd.context_cap, 1000);
        let sp = DetectorConfig::sync_preserving();
        assert!(sp.is_predictive() && !sp.has_lockset() && sp.msm().is_none());
        assert!(!lib.is_predictive() && !drd.is_predictive());
    }

    #[test]
    fn cap_override() {
        let c = DetectorConfig::drd().with_cap(25);
        assert_eq!(c.context_cap, 25);
    }
}
