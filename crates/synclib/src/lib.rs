//! # SpinRace synclib — synchronization from spinning read loops
//!
//! The paper's "universal race detector" rests on one observation:
//! *synchronization operations are ultimately implemented by spinning read
//! loops*. This crate makes that concrete. It provides:
//!
//! * [`primitives`] — mutex, condition variable, barrier and semaphore
//!   implemented **in TIR** from plain loads/stores, CAS/RMW and pure
//!   spinning read loops (test-and-test-and-set locks, sequence-number
//!   condvars, generation barriers);
//! * [`lower::lower_to_spinlib_styled`] — the lowering pass that replaces
//!   every library synchronization instruction in a module with calls into
//!   those implementations, in the [`LibStyle`] given. A lowered module
//!   contains **no** library operations, so a detector run on it has no
//!   library knowledge to exploit — the paper's `nolib` configuration.
//!   Each style's library is built once per process
//!   ([`library_functions`]) and spliced into every lowered module;
//! * [`patterns`] — builder combinators for the ad-hoc spin patterns the
//!   test suites use (flag waits, padded multi-block spin conditions).
//!
//! Object layout conventions (word-granular):
//!
//! | object    | words | contents                        |
//! |-----------|-------|---------------------------------|
//! | mutex     | 1     | `0` free / `1` held             |
//! | condvar   | 1     | sequence number                 |
//! | barrier   | 3     | `[parties, count, generation]`  |
//! | semaphore | 1     | count                           |
//!
//! Library mode only uses object *addresses* as identities, so declaring
//! every barrier as 3 words keeps programs portable across both modes.

pub mod lower;
pub mod patterns;
pub mod primitives;

pub use lower::{lower_to_spinlib_styled, LowerError};
pub use primitives::{library_functions, LibStyle, SpinLib};
