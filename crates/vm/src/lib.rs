//! # SpinRace VM — the runtime phase's execution substrate
//!
//! A deterministic, multithreaded interpreter for TIR. It plays the role
//! Valgrind plays for Helgrind+: it executes the (instrumented) program
//! while streaming every memory access, synchronization operation and
//! spin-loop lifecycle event to an [`EventSink`] — typically a race
//! detector from `spinrace-detector`.
//!
//! Key properties:
//!
//! * **Determinism** — given the same module, scheduler and seed, the VM
//!   produces bit-identical event streams (property-tested). The VM
//!   preempts at every instruction and picks the next thread straight
//!   from its thread table: [`SchedulerKind::RoundRobin`] takes the first
//!   runnable thread after the last pick, [`SchedulerKind::Random`] a
//!   seeded uniform draw among the runnable threads. All interleavings of
//!   interest are reachable by varying seeds.
//! * **Two synchronization levels** — library ops ([`tir`] `MutexLock`
//!   etc.) are executed natively with blocking semantics (the *known
//!   library* mode of the paper), while lowered programs synchronize
//!   purely through memory and spin loops (the *unknown library* mode).
//! * **Spin-loop runtime tracking** — when the module carries a
//!   [`spinrace_tir::SpinTable`], the VM maintains per-thread stacks of
//!   active spin-loop instances, records the tagged condition loads of the
//!   current iteration, and emits [`Event::SpinExit`] with the final
//!   iteration's reads when the loop is left — exactly the information the
//!   detector needs to place the happens-before edge from the counterpart
//!   write to the loop exit.
//!
//! [`tir`]: spinrace_tir

pub mod error;
pub mod events;
pub mod exec;
mod machine;
mod memory;
mod sched;
mod spin_rt;
mod sync;
pub mod trace;

pub use error::VmError;
pub use events::{Event, EventSink, NullSink, RecordingSink, Tee, ThreadId};
pub use exec::{run_module, RunSummary, Vm, VmConfig};
pub use sched::SchedulerKind;
pub use trace::{record_run, Trace, TraceError, TraceHeader, TraceRecorder, TRACE_FORMAT_VERSION};
