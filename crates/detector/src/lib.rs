//! # SpinRace detector — the runtime phase
//!
//! Dynamic race detection over the VM's event stream, reproducing the
//! detector landscape of *Jannesari & Tichy (IPDPS 2010)*:
//!
//! * **Helgrind+ style hybrid** ([`DetectorKind::HelgrindPlus`]) — vector
//!   clock happens-before plus an Eraser-style lock-discipline check, with
//!   the short-/long-running memory state machine distinction of the
//!   Helgrind+ line (long mode needs a second confirmation per location
//!   before reporting, trading first-iteration sensitivity for fewer false
//!   positives);
//! * **DRD style pure happens-before** ([`DetectorKind::Drd`]) — no
//!   lockset stage, but machine-level atomics (CAS/RMW, release/acquire
//!   loads and stores) induce happens-before edges;
//! * the paper's **spin-loop HB augmentation** (`spin: true`) — tagged
//!   spin-condition loads *promote* their addresses to synchronization
//!   locations; writes to promoted locations release the writer's clock
//!   into a per-location vector clock, and a [`spinrace_vm::Event::SpinExit`]
//!   acquires the clocks of the final iteration's reads, installing the
//!   happens-before edge from the counterpart write to the loop exit.
//!   Accesses to promoted locations are exempt from race checking, which
//!   suppresses the paper's *synchronization races*; the acquired edge
//!   removes the *apparent races* on the data the flag guards. Atomic
//!   read-modify-writes also promote (they are the counterpart-write
//!   pattern of arrival counters), which the library-knowledge-only
//!   configuration deliberately lacks.
//!
//! Race reports are deduplicated into **racy contexts** — pairs of static
//! instruction locations — and capped (default 1000, Helgrind's error
//! cap, visible in the paper's PARSEC tables).
//!
//! ## One detector type, two access models
//!
//! Every detector here is an [`AnyDetector`]: the [`engine::HbEngine`]
//! driving an [`any::AnyModel`] that [`DetectorConfig::kind`] picks once,
//! at construction. The engine owns the per-thread clocks and held-lock
//! lists, every non-mutex edge (spawn/join, condvars, barriers,
//! semaphores, machine atomics), the reports and the shared metrics. The
//! two models differ in how they check plain accesses and which mutex
//! edges they keep:
//!
//! * [`detector::HbAccess`] ([`DetectorKind::HelgrindPlus`],
//!   [`DetectorKind::Drd`]) — the witnessed-interleaving lineup above:
//!   shadow epochs, the Eraser lockset stage, the long MSM, spin
//!   promotion, and a release→acquire edge for every mutex hand-off;
//! * [`predict::SyncPreserving`] ([`DetectorKind::SyncPreserving`]) —
//!   sync-preserving prediction, which reports races in *correct
//!   reorderings* of a recorded trace: per-thread access frontiers, and
//!   mutex edges kept only between critical sections that conflict on
//!   the accessed variable. Since it only ever drops edges relative to
//!   happens-before, its race set is a superset of the HB lineup's on
//!   the same stream.
//!
//! Either way the detector is one [`spinrace_vm::EventSink`], and every
//! replay path, test and benchmark drives that same type.

pub mod any;
pub mod config;
pub mod detector;
pub mod engine;
pub mod lockset;
pub mod metrics;
pub mod predict;
pub mod reference;
pub mod report;
pub mod shadow;
pub mod vc;

pub use config::{DetectorConfig, DetectorKind, MsmMode};
pub use engine::AnyDetector;
pub use lockset::{LocksetId, LocksetTable};
pub use metrics::DetectorMetrics;
pub use reference::ReferenceDetector;
pub use report::{AccessSummary, RaceKind, RaceReport, ReportCollector};
pub use vc::{Epoch, VectorClock};
