//! # SpinRace spinfind — detecting spinning read loops
//!
//! This crate implements the **instrumentation phase** of *Jannesari &
//! Tichy (IPDPS 2010)*. Quoting the paper's criteria, a loop is a
//! *spinning read loop* when:
//!
//! 1. it is a **small** loop — at most `window` basic blocks (the paper
//!    sweeps 3, 6, 7, 8 and settles on 7);
//! 2. the **loop condition involves at least one load** from memory;
//! 3. the **value of the loop condition is not changed inside the loop**;
//! 4. the body otherwise "does nothing" (the paper's `/* do_nothing() */`).
//!
//! The paper notes that real spin conditions frequently evaluate through
//! "templates and complex function calls", which is why small windows
//! (3 or 6) miss them. We model this with the *interprocedural extension*:
//! a condition may call a **pure** function; the callee's basic blocks
//! count toward the loop's effective size (`weight`), and the callee's
//! loads become condition loads.
//!
//! [`SpinFinder::instrument`] attaches a [`spinrace_tir::SpinTable`] to the
//! module; the VM uses it to emit spin events, and the detector derives
//! happens-before edges from them (the runtime phase).
//!
//! A module that ends in a fixed library (the `nolib` spin library) need
//! not have that library re-analysed: [`LibraryAnalysis`] analyses it once
//! with no window bound, and [`SpinFinder::analyze_with_library`] splices
//! that analysis in at any window, with the same result as
//! [`SpinFinder::analyze`].

pub mod criteria;
pub mod inventory;
mod library;
pub mod summary;

pub use criteria::{Decision, LoopVerdict, RejectReason, SpinAnalysis, SpinCriteria, SpinFinder};
pub use inventory::{sync_inventory, SyncInventory};
pub use library::LibraryAnalysis;
pub use summary::{summarize_functions, FnSummary};
