//! Workspace smoke test: guards the end-to-end pipeline (build → spin
//! instrumentation → VM execution → detection → report) independently of
//! the full evaluation suites. If this file fails, the pipeline itself is
//! broken, not a particular workload.

mod common;

use common::{analyze, motivating, racy};
use spinrace::core::{Session, Tool};

#[test]
fn racy_module_reports_at_least_one_context() {
    for tool in Tool::paper_lineup() {
        let out = analyze(Session::for_module(&racy(2)), tool);
        assert!(
            out.contexts >= 1,
            "{} must flag the unsynchronized counter, got {} contexts",
            tool.label(),
            out.contexts
        );
        assert!(
            out.has_race_on("victim"),
            "{}: {:?}",
            tool.label(),
            out.reports
        );
    }
}

#[test]
fn spin_synchronized_module_is_clean_under_spin_tools() {
    for tool in [
        Tool::HelgrindLibSpin { window: 7 },
        Tool::HelgrindNolibSpin { window: 7 },
    ] {
        let out = analyze(Session::for_module(&motivating()), tool);
        assert_eq!(
            out.contexts,
            0,
            "{} must accept the flag handoff as synchronization: {:?}",
            tool.label(),
            out.reports
        );
        assert!(
            out.spin_loops_found >= 1,
            "{} should have instrumented the spin loop",
            tool.label()
        );
    }
}

#[test]
fn spin_blind_tool_sees_the_adhoc_pattern_as_racy() {
    // The contrast that motivates the paper: without spin-loop knowledge,
    // the same race-free program produces reports.
    let out = analyze(Session::for_module(&motivating()), Tool::HelgrindLib);
    assert!(
        out.contexts >= 1,
        "library-only mode should report the flag/data accesses"
    );
}
