//! # SpinRace workloads — generated programs with known ground truth
//!
//! Every pinned suite in this repository checks tools against *recorded*
//! numbers. This crate closes the other half of the loop: parameterized
//! generators of TIR modules whose **true race set is known by
//! construction**, in the tradition of the workloads predictive-race and
//! replay-based evaluations are judged on. A [`WorkloadSpec`] (family,
//! threads, events per thread, address-space size, skew, seed, injected
//! races) deterministically builds a [`Workload`]:
//!
//! * a [`spinrace_tir::Module`] that is valid, spin-instrumentable
//!   TIR across the whole tool lineup (including `nolib` lowering), and
//! * an [`Oracle`] — either [`Oracle::RaceFree`] (correct-by-construction
//!   synchronization: every tool must report **0** contexts) or
//!   [`Oracle::SeededRaces`] (deliberately injected unsynchronized store
//!   pairs with computable variable names and thread ids: every tool must
//!   report **exactly** that set).
//!
//! Because loop trip counts — not unrolling — carry the scale, the same
//! families serve 100-event oracle tests and multi-million-event
//! steady-state benchmark streams; see [`Family`] for what each family
//! stresses.
//!
//! ```
//! use spinrace_workloads::{Family, Oracle, WorkloadSpec};
//!
//! let wl = WorkloadSpec::new(Family::Ring).races(2).seed(7).build();
//! let Oracle::SeededRaces(expected) = &wl.oracle else {
//!     panic!("races(2) seeds races");
//! };
//! assert_eq!(expected.len(), 2);
//! // The same spec always rebuilds the identical module…
//! let again = WorkloadSpec::from_name(&wl.module.name).unwrap().build();
//! assert_eq!(again.module.fingerprint(), wl.module.fingerprint());
//! // …and the race-free variant of every family is one knob away.
//! let clean = WorkloadSpec::new(Family::Ring).seed(7).build();
//! assert_eq!(clean.oracle, Oracle::RaceFree);
//! ```

mod families;
mod oracle;
mod spec;

pub use oracle::{ExpectedRace, Oracle, OracleVerdict};
pub use spec::{Family, ParseFamilyError, WorkloadSpec};

use spinrace_tir::Module;

/// A generated workload: the module plus its ground truth.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The spec that built this workload.
    pub spec: WorkloadSpec,
    /// The generated module (its name encodes the spec — see
    /// [`WorkloadSpec::name`]).
    pub module: Module,
    /// The computable ground truth.
    pub oracle: Oracle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_vm::record_run;

    #[test]
    fn every_family_builds_and_is_deterministic() {
        for fam in Family::all() {
            for races in [0u32, 2] {
                let spec = WorkloadSpec::new(fam).races(races).seed(42);
                let a = spec.build();
                let b = spec.build();
                assert_eq!(
                    a.module.fingerprint(),
                    b.module.fingerprint(),
                    "{fam}: same spec must rebuild the identical module"
                );
                assert_eq!(a.oracle, b.oracle, "{fam}: oracle must be deterministic");
                assert_eq!(a.module.name, spec.name());
                match races {
                    0 => assert_eq!(a.oracle, Oracle::RaceFree),
                    n => assert_eq!(a.oracle.expected().len(), n as usize, "{fam}"),
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::new(Family::Zipf).seed(1).build();
        let b = WorkloadSpec::new(Family::Zipf).seed(2).build();
        // Different table initializers (and a different name) — distinct
        // fingerprints.
        assert_ne!(a.module.fingerprint(), b.module.fingerprint());
    }

    #[test]
    fn expected_tids_are_worker_range() {
        for fam in Family::all() {
            let spec = WorkloadSpec::new(fam).races(3).seed(9);
            let wl = spec.build();
            let workers = spec.worker_threads();
            for e in wl.oracle.expected() {
                assert!(e.tids.0 >= 1 && e.tids.1 <= workers, "{fam}: {e}");
                assert!(e.tids.0 < e.tids.1, "{fam}: {e}");
            }
        }
    }

    /// The event budget is approximate by design, but it must stay within
    /// a small constant factor — `trace gen --events N` and the
    /// long-stream sizing of tests, CI and perfbench all rely on it.
    #[test]
    fn recorded_streams_land_near_the_event_budget() {
        for fam in Family::all() {
            let spec = WorkloadSpec::new(fam).threads(4).events_per_thread(300);
            let wl = spec.build();
            let trace = record_run(&wl.module, spec.vm_config(), "cal").unwrap();
            let hint = spec.total_events_hint() as f64;
            let got = trace.events.len() as f64;
            assert!(
                got >= 0.5 * hint && got <= 4.0 * hint,
                "{fam}: {got} events for a hint of {hint}"
            );
        }
    }

    /// Wide fan-out at the top of its range builds and runs within the
    /// spec's own VM budget.
    #[test]
    fn wide_fanout_runs_at_64_threads() {
        let spec = WorkloadSpec::new(Family::Fanout)
            .threads(64)
            .events_per_thread(40);
        let wl = spec.build();
        let trace = record_run(&wl.module, spec.vm_config(), "wide").unwrap();
        assert_eq!(trace.summary.threads_created, 65);
    }
}
