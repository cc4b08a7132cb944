//! # SpinRace bench — benchmark harness
//!
//! Two entry points:
//!
//! * `cargo run -p spinrace-bench --bin tables -- [t1|t2|t3|t4|t5|t6|f1|f2|all]`
//!   regenerates the paper's tables and figures from live pipeline runs
//!   and prints them (plus JSON under `target/experiments/`).
//! * `cargo bench -p spinrace-bench` runs the Criterion benches:
//!   `runtime_overhead` (figure F2's wall-clock series), `vm_throughput`,
//!   `instrumentation` (spin-finder cost) and `detector_stages`
//!   (per-event detector cost by configuration).
//!
//! Shared helpers for the benches live here.

use spinrace_core::{Session, Tool};
use spinrace_suites::all_programs;
use spinrace_tir::Module;

/// Benchmark workloads: a small, representative PARSEC subset (one
/// no-ad-hoc program, one plain-flag program, one atomics program).
pub fn bench_programs() -> Vec<(&'static str, Module)> {
    all_programs()
        .into_iter()
        .filter(|p| matches!(p.name, "blackscholes" | "vips" | "dedup"))
        .map(|p| (p.name, (p.build)(p.threads, p.size)))
        .collect()
}

/// The tool lineup used by the benches.
pub fn bench_tools() -> Vec<(&'static str, Tool)> {
    vec![
        ("lib", Tool::HelgrindLib),
        ("lib+spin", Tool::HelgrindLibSpin { window: 7 }),
        ("nolib+spin", Tool::HelgrindNolibSpin { window: 7 }),
        ("drd", Tool::Drd),
    ]
}

/// One full pipeline run (panics on pipeline errors — benches only).
pub fn run_once(tool: Tool, module: &Module) {
    Session::for_module(module)
        .long_msm()
        .prepare(tool)
        .and_then(|p| p.detect_live())
        .expect("bench run");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_programs_build() {
        let ps = bench_programs();
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn run_once_completes() {
        let (_, m) = &bench_programs()[0];
        run_once(Tool::HelgrindLibSpin { window: 7 }, m);
    }
}
