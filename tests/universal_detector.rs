//! The universal-detector claim, tested exhaustively: for every race-free
//! library-synchronization case in the suite, the `nolib+spin`
//! configuration (zero library knowledge) must reach the same verdict as
//! the library-aware tools; for every plainly racy case it must still
//! find the race.

use spinrace::core::{AnalysisOutcome, AnalyzeError, DetectRequest, Session, Tool};
use spinrace::suites::{all_cases, Category};
use spinrace::tir::Module;

/// The universal detector: zero library knowledge, spin window 7.
const NOLIB: Tool = Tool::HelgrindNolibSpin { window: 7 };

/// One live analysis of `m` under `tool`.
fn analyze(tool: Tool, m: &Module) -> Result<AnalysisOutcome, AnalyzeError> {
    Ok(Session::for_module(m)
        .prepare(tool)?
        .try_run(&DetectRequest::own())?
        .into_single())
}

#[test]
fn nolib_is_clean_on_every_lib_sync_case() {
    for case in all_cases()
        .iter()
        .filter(|c| matches!(c.category, Category::LibSync))
    {
        let out = analyze(NOLIB, &case.module)
            .unwrap_or_else(|e| panic!("case {} ({}) failed to run: {e}", case.id, case.name));
        assert!(
            out.is_clean(),
            "case {} ({}): universal detector reported {:?}",
            case.id,
            case.name,
            out.reports
        );
    }
}

#[test]
fn nolib_catches_every_plain_race() {
    for case in all_cases()
        .iter()
        .filter(|c| matches!(c.category, Category::RacyPlain))
    {
        let out = analyze(NOLIB, &case.module).unwrap();
        assert!(
            out.has_race_on(case.race_location.unwrap()),
            "case {} ({}): race missed",
            case.id,
            case.name
        );
    }
}

#[test]
fn lowering_preserves_every_case_outcome() {
    // Execution must terminate and produce identical Output logs in lib
    // and nolib pipelines for every deterministic (round-robin) run.
    for case in all_cases()
        .iter()
        .filter(|c| matches!(c.category, Category::LibSync))
    {
        let lib = analyze(Tool::HelgrindLib, &case.module).unwrap();
        let nolib = analyze(NOLIB, &case.module).unwrap();
        let a: Vec<i64> = lib.summary.outputs.iter().map(|(_, v)| *v).collect();
        let b: Vec<i64> = nolib.summary.outputs.iter().map(|(_, v)| *v).collect();
        assert_eq!(
            a, b,
            "case {} ({}): lowering changed program results",
            case.id, case.name
        );
    }
}

#[test]
fn spin_instrumentation_finds_loops_in_every_lowered_case() {
    // Every lowered lib-sync case that blocks must contain detectable
    // spin loops (the primitives themselves).
    let mut with_loops = 0;
    let mut total = 0;
    for case in all_cases()
        .iter()
        .filter(|c| matches!(c.category, Category::LibSync))
    {
        let out = analyze(NOLIB, &case.module).unwrap();
        total += 1;
        if out.spin_loops_found > 0 {
            with_loops += 1;
        }
    }
    assert_eq!(
        with_loops, total,
        "every lowered module carries the spin library's wait loops"
    );
}
