//! # SpinRace — ad-hoc synchronization detection for race detectors
//!
//! A full reproduction of *Jannesari & Tichy, "Identifying Ad-hoc
//! Synchronization for Enhanced Race Detection" (IPDPS 2010)*: a hybrid
//! dynamic race detector in the style of Helgrind+, extended with static
//! detection and runtime exploitation of **spinning read loops** — the
//! common implementation pattern behind ad-hoc, programmer-written
//! synchronization and behind the primitives of unknown synchronization
//! libraries.
//!
//! This facade crate re-exports the whole workspace. See the individual
//! crates for details:
//!
//! * [`tir`] — the threaded IR that plays the role of machine code
//! * [`cfg`](mod@cfg) — control-flow graphs, dominators, natural loops,
//!   slices
//! * [`spinfind`] — the paper's instrumentation phase (spin-loop detection)
//! * [`synclib`] — spin-loop based sync primitives + `nolib` lowering
//! * [`vm`] — the deterministic multithreaded interpreter
//! * [`detector`] — vector clocks, locksets, the hybrid detector, spin-HB
//! * [`suites`] — the `data-race-test`-style suite and PARSEC-style workloads
//! * [`workloads`] — parameterized workload generators with computable
//!   ground-truth race oracles
//! * [`tracefmt`] — the binary columnar trace encoding with chunked
//!   streaming replay
//! * [`report`] — tables and experiment summaries
//! * [`core`] — the staged [`core::Session`] pipeline (prepare → detect,
//!   live or over a replayable [`vm::Trace`]) and its one detection
//!   entry point, [`core::DetectRequest`]
//! * [`serve`] — detection as a service: a streaming analysis server
//!   accepting framed trace uploads over TCP or stdin, multiplexing
//!   concurrent `DetectRequest` sessions across a bounded worker pool

pub use spinrace_cfg as cfg;
pub use spinrace_core as core;
pub use spinrace_detector as detector;
pub use spinrace_report as report;
pub use spinrace_serve as serve;
pub use spinrace_spinfind as spinfind;
pub use spinrace_suites as suites;
pub use spinrace_synclib as synclib;
pub use spinrace_tir as tir;
pub use spinrace_tracefmt as tracefmt;
pub use spinrace_vm as vm;
pub use spinrace_workloads as workloads;

pub use spinrace_core::{
    AnalysisOutcome, DetectOutcome, DetectRequest, ExecutedRun, PreparedModule, Session, Tool,
};
pub use spinrace_detector::{DetectorConfig, DetectorKind, RaceReport};
pub use spinrace_tir::{Module, ModuleBuilder};
pub use spinrace_vm::{Trace, TraceRecorder};
