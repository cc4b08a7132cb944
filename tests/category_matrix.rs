//! The drt suite's category × tool expectation matrix, tested per case.
//!
//! Each suite category was designed to fail specific tools for specific
//! reasons (the paper's failure taxonomy). This test pins the *entire*
//! matrix, so any detector regression shows up as the exact case and
//! tool that changed behaviour.

use spinrace::core::{DetectRequest, Session, Tool};
use spinrace::suites::harness::DRT_CAP;
use spinrace::suites::{all_cases, Category};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// Race-free case: tool must be silent.
    Clean,
    /// Race-free case: tool must report something (a false alarm).
    FalseAlarm,
    /// Racy case: tool must report the victim race.
    Caught,
    /// Racy case: tool must miss the victim race.
    Missed,
}

/// The designed matrix: what each tool does on each category.
///
/// The predictive `SyncPreserving` column matches DRD's everywhere:
/// the pass drops mutex edges between non-conflicting critical
/// sections, but no drt category hides a race behind such an edge (the
/// suite was designed around the witnessed-interleaving taxonomy —
/// spin windows and library knowledge), so weakening DRD's
/// happens-before changes nothing here. The scenarios where the
/// predictive tool diverges from the HB class live in the
/// reorder-only workload families (`tests/workload_oracles.rs`).
fn expectation(cat: &Category, tool: &Tool) -> Expect {
    use Category::*;
    let window = match tool {
        Tool::HelgrindLibSpin { window } | Tool::HelgrindNolibSpin { window } => *window,
        _ => 0,
    };
    match (cat, tool) {
        (LibSync, _) => Expect::Clean,

        (AdhocPlain { weight }, Tool::HelgrindLibSpin { .. })
        | (AdhocPlain { weight }, Tool::HelgrindNolibSpin { .. }) => {
            if *weight <= window {
                Expect::Clean
            } else {
                Expect::FalseAlarm
            }
        }
        (AdhocPlain { .. }, Tool::HelgrindLib)
        | (AdhocPlain { .. }, Tool::Drd)
        | (AdhocPlain { .. }, Tool::SyncPreserving) => Expect::FalseAlarm,

        (AdhocAtomic { weight }, Tool::HelgrindLibSpin { .. })
        | (AdhocAtomic { weight }, Tool::HelgrindNolibSpin { .. }) => {
            if *weight <= window {
                Expect::Clean
            } else {
                Expect::FalseAlarm
            }
        }
        (AdhocAtomic { .. }, Tool::HelgrindLib) => Expect::FalseAlarm,
        (AdhocAtomic { .. }, Tool::Drd) | (AdhocAtomic { .. }, Tool::SyncPreserving) => {
            Expect::Clean
        }

        (Obscure, _) => Expect::FalseAlarm,

        (RacyPlain, _) => Expect::Caught,

        (RacyAtomicOrdered, Tool::Drd) | (RacyAtomicOrdered, Tool::SyncPreserving) => {
            Expect::Missed
        }
        (RacyAtomicOrdered, _) => Expect::Caught,

        (RacyLatent, _) => Expect::Missed,

        (RacyFlooded, Tool::HelgrindLib)
        | (RacyFlooded, Tool::Drd)
        | (RacyFlooded, Tool::SyncPreserving) => Expect::Missed,
        (RacyFlooded, _) => Expect::Caught,
    }
}

#[test]
fn full_category_matrix_holds() {
    let cases = all_cases();
    let mut tools = Tool::paper_lineup().to_vec();
    tools.push(Tool::SyncPreserving);
    let mut checked = 0;
    for tool in tools {
        for case in &cases {
            let out = Session::for_module(&case.module)
                .cap(DRT_CAP)
                .prepare(tool)
                .and_then(|p| p.try_run(&DetectRequest::own()))
                .unwrap_or_else(|e| panic!("{} on {}: {e}", tool.label(), case.name))
                .into_single();
            let expect = expectation(&case.category, &tool);
            let actual = if case.racy {
                if out.has_race_on(case.race_location.unwrap()) {
                    Expect::Caught
                } else {
                    Expect::Missed
                }
            } else if out.is_clean() {
                Expect::Clean
            } else {
                Expect::FalseAlarm
            };
            assert_eq!(
                actual,
                expect,
                "case {} ({:?}) under {}: contexts={} reports={:?}",
                case.name,
                case.category,
                tool.label(),
                out.contexts,
                out.reports
                    .iter()
                    .map(|r| (&r.location, r.report.kind))
                    .collect::<Vec<_>>()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 120 * 5);
}

/// The window sweep matrix over the ad-hoc categories only: a loop of
/// weight `w` is cleaned up exactly by windows ≥ `w`.
#[test]
fn window_matrix_on_adhoc_cases() {
    let cases = all_cases();
    for window in [3u32, 6, 7, 8] {
        for case in cases.iter().filter(|c| {
            matches!(
                c.category,
                Category::AdhocPlain { .. } | Category::AdhocAtomic { .. }
            )
        }) {
            let weight = match case.category {
                Category::AdhocPlain { weight } | Category::AdhocAtomic { weight } => weight,
                _ => unreachable!(),
            };
            let out = Session::for_module(&case.module)
                .cap(DRT_CAP)
                .prepare(Tool::HelgrindLibSpin { window })
                .and_then(|p| p.try_run(&DetectRequest::own()))
                .unwrap()
                .into_single();
            if weight <= window {
                assert!(
                    out.is_clean(),
                    "{} (w={weight}) must be clean at window {window}: {:?}",
                    case.name,
                    out.reports
                );
            } else {
                assert!(
                    !out.is_clean(),
                    "{} (w={weight}) must false-alarm at window {window}",
                    case.name
                );
            }
        }
    }
}
