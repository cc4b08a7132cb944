//! # SpinRace suites — the paper's evaluation workloads
//!
//! Two workload families, mirroring the paper's evaluation section:
//!
//! * [`drt`] — a 120-case suite in the mould of Google's `data-race-test`
//!   (the framework the paper evaluates on): racy and race-free programs
//!   over 2–16 threads covering library primitives, ad-hoc flag
//!   synchronization (plain and atomic, with spin-loop weights probing the
//!   3–8 basic-block window), obscure patterns that defeat the spin
//!   criteria, and races hidden from specific detectors (fortuitous
//!   atomic ordering for DRD, report-cap floods for `lib` mode, latent
//!   schedule-dependent branches for everyone).
//! * [`parsec`] — thirteen miniature programs reproducing the
//!   *synchronization skeletons* of the PARSEC 2.0 applications the paper
//!   measures (which primitives, which ad-hoc patterns, per its
//!   characteristics table), with partially unrolled kernels so
//!   racy-context counts reach paper-like magnitudes.
//!
//! [`harness`] classifies analysis outcomes against ground truth and
//! aggregates the numbers behind every table of the paper.
//!
//! A third table lives alongside the paper's two: [`workloads`] runs the
//! `spinrace-workloads` generator families — programs whose true race
//! set is *computed*, not recorded — through the lineup and classifies
//! every outcome against the workload's oracle (soundness and
//! completeness on known ground truth).

//! [`rebind`] re-prepares the one module a serialized trace's header
//! names and checks its fingerprint, so replay tools and the analysis
//! server can bind uploads back to source locations.

pub mod drt;
pub mod harness;
pub mod parsec;
pub mod rebind;
pub mod workloads;

pub use drt::{all_cases, Category, DrtCase};
pub use harness::{
    run_drt, run_drt_with, run_parsec, CaseOutcome, DrtRow, DrtTable, ParsecCell, ParsecTable,
};
pub use parsec::{all_programs, ParsecProgram};
pub use rebind::{prepared_for_replay, unbound_message};
pub use workloads::{
    judge_outcome, run_workloads, run_workloads_with, standard_specs, WorkloadRow, WorkloadTable,
};
