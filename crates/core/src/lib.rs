//! # SpinRace core — the analysis pipeline
//!
//! The pipeline is staged (see [`session`]): **prepare** (lower/
//! instrument), **detect** (a [`DetectRequest`]: one or more detector
//! configurations under optional limits), **report**. A request runs
//! three ways through the one detection loop in [`limits`]: **live**, on
//! the running VM with nothing recorded; **recorded**, replaying a
//! [`spinrace_vm::Trace`] of one VM run as often as needed; and
//! **streamed**, over a binary chunk stream.
//!
//! The staged [`Session`] API is the one interface. A single live
//! analysis is
//! `Session::for_module(&m).prepare(tool)?.try_run(&DetectRequest::own())?`;
//! a recorded run fans out to many detections:
//!
//! ```
//! use spinrace_core::{DetectRequest, Session, Tool};
//! use spinrace_tir::ModuleBuilder;
//!
//! // A racy program: two threads increment without synchronization.
//! let mut mb = ModuleBuilder::new("racy");
//! let g = mb.global("g", 1);
//! let w = mb.function("w", 1, |f| {
//!     let v = f.load(g.at(0));
//!     let v2 = f.add(v, 1);
//!     f.store(g.at(0), v2);
//!     f.ret(None);
//! });
//! mb.entry("main", |f| {
//!     let t1 = f.spawn(w, 0);
//!     let t2 = f.spawn(w, 1);
//!     f.join(t1);
//!     f.join(t2);
//!     f.ret(None);
//! });
//! let m = mb.finish().unwrap();
//!
//! // Detect live: one VM run, no recording.
//! let live = Session::for_module(&m)
//!     .prepare(Tool::HelgrindLibSpin { window: 7 })
//!     .unwrap()
//!     .try_run(&DetectRequest::own())
//!     .unwrap()
//!     .into_single();
//! assert!(live.has_race_on("g"));
//!
//! // Or prepare once, execute once…
//! let run = Session::for_module(&m)
//!     .prepare(Tool::HelgrindLibSpin { window: 7 })
//!     .unwrap()
//!     .execute()
//!     .unwrap();
//!
//! // …then detect as often as needed on the recorded trace: the default
//! // configuration, a capped variant, even another tool that shares the
//! // same prepared module.
//! let out = run.run(&DetectRequest::own()).into_single();
//! assert_eq!(out.contexts, live.contexts);
//! let cfg = run.prepared().default_config().with_cap(1);
//! let capped = run.run(&DetectRequest::config(cfg)).into_single();
//! assert_eq!(capped.contexts, 1);
//!
//! // The trace itself encodes to the binary format; decoding it back
//! // replays identically.
//! let bytes = spinrace_tracefmt::encode_trace(run.trace());
//! let decoded = spinrace_tracefmt::decode_trace(&bytes).unwrap();
//! assert_eq!(&decoded, run.trace());
//! ```

pub mod limits;
pub mod request;
pub mod session;

pub use limits::{Budget, BudgetResource, EngineError, EngineOptions, PartialMetrics};
pub use request::{DetectOutcome, DetectRequest, DetectTarget};
pub use session::{ExecutedRun, PreparedModule, Session, StreamProgress};

use spinrace_detector::{DetectorMetrics, MsmMode, RaceReport};
use spinrace_synclib::LowerError;
use spinrace_vm::{RunSummary, TraceError, VmError};
use std::fmt;
use std::str::FromStr;

/// The four tool configurations of the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tool {
    /// Hybrid detector with library knowledge, no spin detection.
    HelgrindLib,
    /// Hybrid with library knowledge plus spin detection at `window`.
    HelgrindLibSpin {
        /// Spin-detection basic-block window (paper default 7).
        window: u32,
    },
    /// The universal detector: module lowered to the spin library, no
    /// library knowledge, spin detection at `window`.
    HelgrindNolibSpin {
        /// Spin-detection basic-block window.
        window: u32,
    },
    /// Pure happens-before baseline.
    Drd,
    /// Sync-preserving predictive detection: reports races in correct
    /// reorderings of the recorded trace (mutex edges kept only between
    /// conflicting critical sections).
    SyncPreserving,
}

impl Tool {
    /// Table label, e.g. `Helgrind+ lib+spin(7)`.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// The paper's standard tool line-up with the default window.
    pub fn paper_lineup() -> [Tool; 4] {
        [
            Tool::HelgrindLib,
            Tool::HelgrindLibSpin { window: 7 },
            Tool::HelgrindNolibSpin { window: 7 },
            Tool::Drd,
        ]
    }

    /// The detector configuration this tool runs under `msm` with the
    /// given racy-context cap — the single source of the tool→detector
    /// mapping (sessions, CLIs, and the benchmark all derive from here).
    pub fn detector_config(&self, msm: MsmMode, cap: usize) -> spinrace_detector::DetectorConfig {
        use spinrace_detector::DetectorConfig;
        let cfg = match self {
            Tool::HelgrindLib => DetectorConfig::helgrind_lib(msm),
            Tool::HelgrindLibSpin { .. } => DetectorConfig::helgrind_lib_spin(msm),
            Tool::HelgrindNolibSpin { .. } => DetectorConfig::helgrind_nolib_spin(msm),
            Tool::Drd => DetectorConfig::drd(),
            Tool::SyncPreserving => DetectorConfig::sync_preserving(),
        };
        cfg.with_cap(cap)
    }

    /// Is this a predictive (reordering-aware) tool?
    pub fn is_predictive(&self) -> bool {
        matches!(self, Tool::SyncPreserving)
    }
}

impl fmt::Display for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tool::HelgrindLib => f.write_str("Helgrind+ lib"),
            Tool::HelgrindLibSpin { window } => write!(f, "Helgrind+ lib+spin({window})"),
            Tool::HelgrindNolibSpin { window } => write!(f, "Helgrind+ nolib+spin({window})"),
            Tool::Drd => f.write_str("DRD"),
            Tool::SyncPreserving => f.write_str("SyncPreserving"),
        }
    }
}

/// A tool name that [`Tool::from_str`] could not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseToolError(pub String);

impl fmt::Display for ParseToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown tool {:?} (expected `lib`, `lib+spin[(W)]`, `nolib+spin[(W)]`, `drd` or \
             `sync-preserving`, optionally prefixed with `Helgrind+ `)",
            self.0
        )
    }
}

impl std::error::Error for ParseToolError {}

impl FromStr for Tool {
    type Err = ParseToolError;

    /// Parses the canonical table labels ([`Tool::label`]) and the short
    /// forms used on command lines: `lib`, `lib+spin`, `lib+spin(5)`,
    /// `nolib+spin`, `nolib+spin(5)`, `drd`, `sync-preserving`
    /// (case-insensitive for `drd` and `sync-preserving`; the window
    /// defaults to the paper's 7 when omitted).
    fn from_str(s: &str) -> Result<Tool, ParseToolError> {
        let err = || ParseToolError(s.to_string());
        let t = s.trim();
        if t.eq_ignore_ascii_case("drd") {
            return Ok(Tool::Drd);
        }
        // `SyncPreserving` / `sync-preserving` / `sync_preserving`.
        let squashed: String = t
            .chars()
            .filter(|c| !matches!(c, '-' | '_'))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        if squashed == "syncpreserving" {
            return Ok(Tool::SyncPreserving);
        }
        let t = t
            .strip_prefix("Helgrind+")
            .map(str::trim_start)
            .unwrap_or(t);
        let (base, window) = match t.split_once('(') {
            Some((base, rest)) => {
                let digits = rest.strip_suffix(')').ok_or_else(err)?;
                let w: u32 = digits.trim().parse().map_err(|_| err())?;
                (base.trim_end(), Some(w))
            }
            None => (t, None),
        };
        match (base, window) {
            ("lib", None) => Ok(Tool::HelgrindLib),
            ("lib+spin", w) => Ok(Tool::HelgrindLibSpin {
                window: w.unwrap_or(7),
            }),
            ("nolib+spin", w) => Ok(Tool::HelgrindNolibSpin {
                window: w.unwrap_or(7),
            }),
            _ => Err(err()),
        }
    }
}

/// A race report plus the human-readable location of the raced address
/// (resolved against the analyzed module's globals).
#[derive(Clone, Debug)]
pub struct DescribedReport {
    /// e.g. `"flag"` or `"slots[2]"` or `"heap+0x10"`.
    pub location: String,
    /// The raw report.
    pub report: RaceReport,
}

/// Everything a harness needs from one run.
#[derive(Clone, Debug)]
pub struct AnalysisOutcome {
    /// Name of the *original* module.
    pub module_name: String,
    /// Tool label (table column).
    pub tool_label: String,
    /// Distinct racy contexts (capped) — the paper's headline metric.
    pub contexts: usize,
    /// One representative report per context.
    pub reports: Vec<DescribedReport>,
    /// Detector memory metrics.
    pub metrics: DetectorMetrics,
    /// Locations promoted to sync locations by the spin feature.
    pub promoted_locations: usize,
    /// Spinning read loops found by the instrumentation phase.
    pub spin_loops_found: usize,
    /// VM run statistics.
    pub summary: RunSummary,
}

impl AnalysisOutcome {
    /// Was any race reported at a location whose description matches
    /// `name` (exact global name, or `name[...]` element)?
    pub fn has_race_on(&self, name: &str) -> bool {
        self.reports.iter().any(|r| {
            r.location == name
                || r.location
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('['))
        })
    }

    /// True when no races at all were reported.
    pub fn is_clean(&self) -> bool {
        self.contexts == 0
    }
}

/// Pipeline failures.
#[derive(Clone, Debug)]
pub enum AnalyzeError {
    /// The lowering pass failed (e.g. undersized barrier object).
    Lower(LowerError),
    /// Execution failed (trap, deadlock, step limit).
    Vm(VmError),
    /// A trace was offered for replay against a prepared module it was
    /// not recorded from (fingerprints differ).
    TraceMismatch {
        /// Fingerprint in the trace header.
        trace_fingerprint: u64,
        /// Fingerprint of the prepared module.
        module_fingerprint: u64,
    },
    /// A trace file could not be read or decoded.
    Trace(TraceError),
    /// The watchdog or a resource budget tripped ([`EngineError`] from a
    /// [`DetectRequest`] execution).
    Engine(EngineError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Lower(e) => write!(f, "lowering failed: {e}"),
            AnalyzeError::Vm(e) => write!(f, "execution failed: {e}"),
            AnalyzeError::TraceMismatch {
                trace_fingerprint,
                module_fingerprint,
            } => write!(
                f,
                "trace fingerprint {trace_fingerprint:#018x} does not match prepared module \
                 {module_fingerprint:#018x}"
            ),
            AnalyzeError::Trace(e) => write!(f, "{e}"),
            AnalyzeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<LowerError> for AnalyzeError {
    fn from(e: LowerError) -> Self {
        AnalyzeError::Lower(e)
    }
}
impl From<VmError> for AnalyzeError {
    fn from(e: VmError) -> Self {
        AnalyzeError::Vm(e)
    }
}
impl From<TraceError> for AnalyzeError {
    fn from(e: TraceError) -> Self {
        AnalyzeError::Trace(e)
    }
}
impl From<EngineError> for AnalyzeError {
    fn from(e: EngineError) -> Self {
        AnalyzeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{Module, ModuleBuilder};

    /// One live analysis: prepare, then detect with the detector attached.
    fn analyze(tool: Tool, m: &Module) -> AnalysisOutcome {
        Session::for_module(m)
            .prepare(tool)
            .unwrap()
            .try_run(&DetectRequest::own())
            .unwrap()
            .into_single()
    }

    /// Two threads increment `g` with no synchronization at all.
    pub(crate) fn racy() -> Module {
        let mut mb = ModuleBuilder::new("racy");
        let g = mb.global("g", 1);
        let w = mb.function("w", 1, |f| {
            let v = f.load(g.at(0));
            let v2 = f.add(v, 1);
            f.store(g.at(0), v2);
            f.ret(None);
        });
        mb.entry("main", |f| {
            let t1 = f.spawn(w, 0);
            let t2 = f.spawn(w, 1);
            f.join(t1);
            f.join(t2);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    /// Race-free flag handoff — the paper's canonical motivating example.
    /// Spin instrumentation accepts its waiter loop, so `+spin`
    /// preparations differ from the plain one.
    pub(crate) fn flag_handoff() -> Module {
        let mut mb = ModuleBuilder::new("flag-handoff");
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
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
            let t = f.spawn(waiter, 0);
            f.store(data.at(0), 42);
            f.store(flag.at(0), 1);
            f.join(t);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn lib_mode_floods_on_adhoc_sync() {
        let out = analyze(Tool::HelgrindLib, &flag_handoff());
        assert!(out.contexts >= 2, "sync + apparent races reported");
        assert!(out.has_race_on("flag"), "synchronization race");
        assert!(out.has_race_on("data"), "apparent race");
    }

    #[test]
    fn spin_mode_is_clean_on_adhoc_sync() {
        let out = analyze(Tool::HelgrindLibSpin { window: 7 }, &flag_handoff());
        assert!(out.is_clean(), "reports: {:?}", out.reports);
        assert_eq!(out.spin_loops_found, 1);
        assert!(out.promoted_locations >= 1);
    }

    #[test]
    fn drd_also_floods_on_plain_flag() {
        let out = analyze(Tool::Drd, &flag_handoff());
        assert!(!out.is_clean());
    }

    #[test]
    fn nolib_spin_handles_lowered_locks() {
        // Lock-protected counter, analyzed with zero library knowledge.
        let mut mb = ModuleBuilder::new("locked");
        let mu = mb.global("mu", 1);
        let g = mb.global("g", 1);
        let w = mb.function("w", 1, |f| {
            f.lock(mu.at(0));
            let v = f.load(g.at(0));
            let v2 = f.add(v, 1);
            f.store(g.at(0), v2);
            f.unlock(mu.at(0));
            f.ret(None);
        });
        mb.entry("main", |f| {
            let t1 = f.spawn(w, 0);
            let t2 = f.spawn(w, 1);
            f.join(t1);
            f.join(t2);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let out = analyze(Tool::HelgrindNolibSpin { window: 7 }, &m);
        assert!(out.is_clean(), "reports: {:?}", out.reports);
        assert!(out.spin_loops_found >= 1, "TTAS loop instrumented");
    }

    #[test]
    fn racy_program_is_caught_by_every_tool() {
        let m = racy();
        for tool in Tool::paper_lineup() {
            let out = analyze(tool, &m);
            assert!(out.has_race_on("g"), "{} must catch the race", tool.label());
        }
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(Tool::HelgrindLib.label(), "Helgrind+ lib");
        assert_eq!(
            Tool::HelgrindLibSpin { window: 7 }.label(),
            "Helgrind+ lib+spin(7)"
        );
        assert_eq!(
            Tool::HelgrindNolibSpin { window: 3 }.label(),
            "Helgrind+ nolib+spin(3)"
        );
        assert_eq!(Tool::Drd.label(), "DRD");
        assert_eq!(Tool::SyncPreserving.label(), "SyncPreserving");
    }

    #[test]
    fn tool_labels_round_trip_through_from_str() {
        // The paper lineup plus non-default windows: Display → FromStr is
        // the identity, which is what lets CLIs take --tool arguments.
        let mut tools = Tool::paper_lineup().to_vec();
        tools.push(Tool::HelgrindLibSpin { window: 3 });
        tools.push(Tool::HelgrindNolibSpin { window: 12 });
        tools.push(Tool::SyncPreserving);
        for tool in tools {
            let label = tool.label();
            assert_eq!(label.parse::<Tool>().unwrap(), tool, "{label}");
        }
    }

    #[test]
    fn tool_from_str_accepts_short_forms() {
        assert_eq!("lib".parse::<Tool>().unwrap(), Tool::HelgrindLib);
        assert_eq!(
            "lib+spin".parse::<Tool>().unwrap(),
            Tool::HelgrindLibSpin { window: 7 }
        );
        assert_eq!(
            "lib+spin(5)".parse::<Tool>().unwrap(),
            Tool::HelgrindLibSpin { window: 5 }
        );
        assert_eq!(
            "nolib+spin(9)".parse::<Tool>().unwrap(),
            Tool::HelgrindNolibSpin { window: 9 }
        );
        assert_eq!("drd".parse::<Tool>().unwrap(), Tool::Drd);
        assert_eq!("DRD".parse::<Tool>().unwrap(), Tool::Drd);
        for sp in ["sync-preserving", "sync_preserving", "SyncPreserving"] {
            assert_eq!(sp.parse::<Tool>().unwrap(), Tool::SyncPreserving);
            assert!(sp.parse::<Tool>().unwrap().is_predictive());
        }
        assert!(!Tool::Drd.is_predictive());
        for bad in ["", "lib+spin(", "lib+spin()", "helgrind", "spin(7)"] {
            assert!(bad.parse::<Tool>().is_err(), "{bad:?} must not parse");
        }
    }
}
