//! The `nolib` splice. Lowering appends a copy of the spin library built
//! once per style, and `Session::prepare` for `nolib+spin(w)` projects a
//! once-per-style, window-free analysis of that library onto window `w`.
//! These tests hold every such preparation of the drt cases and the
//! PARSEC programs, under both library styles, to a from-scratch analysis
//! of the whole lowered module.

use spinrace::core::{Session, Tool};
use spinrace::spinfind::{Decision, LibraryAnalysis, RejectReason, SpinFinder};
use spinrace::suites::{all_cases, all_programs};
use spinrace::synclib::{library_functions, lower_to_spinlib_styled, LibStyle};
use spinrace::tir::{Function, Instr, Module};

/// Every drt case and every PARSEC program at its own size.
fn modules() -> Vec<Module> {
    let mut modules: Vec<Module> = all_cases().into_iter().map(|c| c.module).collect();
    modules.extend(all_programs().iter().map(|p| (p.build)(p.threads, p.size)));
    modules
}

/// Windows 0 to 10 and the largest one a request can name.
fn windows() -> impl Iterator<Item = u32> {
    (0..=10).chain([u32::MAX])
}

/// `f` with its call and spawn targets moved up by `offset`, done here
/// independently of the lowering pass.
fn moved(f: &Function, offset: usize) -> Function {
    let mut f = f.clone();
    for block in &mut f.blocks {
        for instr in &mut block.instrs {
            match instr {
                Instr::Call { func, .. } | Instr::Spawn { func, .. } => {
                    *func = spinrace::tir::FuncId(func.0 + offset as u32)
                }
                _ => {}
            }
        }
    }
    f
}

/// Compare every spliced preparation under `style` with the reference,
/// and return how many library loops the window rejected as too large.
fn check_style(style: LibStyle) -> usize {
    let lib = library_functions(style);
    let analysed = LibraryAnalysis::new(lib);
    let mut library_too_large = 0;
    for m in modules() {
        let n = m.functions.len();
        let lowered = lower_to_spinlib_styled(&m, style).unwrap();
        assert_eq!(lowered.functions.len(), n + lib.len(), "{}", m.name);
        for (got, base) in lowered.functions[n..].iter().zip(lib) {
            assert_eq!(*got, moved(base, n), "{}: library tail", m.name);
        }
        let session = Session::for_module(&m).nolib_style(style);
        for window in windows() {
            let finder = SpinFinder::with_window(window);
            let reference = finder.analyze(&lowered);
            let spliced = finder.analyze_with_library(&lowered, &analysed);
            let what = format!("{} {style:?} window {window}", m.name);
            assert_eq!(spliced.verdicts, reference.verdicts, "{what}: verdicts");
            assert_eq!(spliced.table, reference.table, "{what}: spin table");
            library_too_large += reference
                .verdicts
                .iter()
                .filter(|v| v.func.0 as usize >= n)
                .filter(|v| {
                    matches!(
                        v.decision,
                        Decision::Rejected {
                            reason: RejectReason::TooLarge { .. }
                        }
                    )
                })
                .count();

            let mut expected = lowered.clone();
            expected.spin = Some(reference.table.clone());
            let prepared = session
                .prepare(Tool::HelgrindNolibSpin { window })
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(prepared.module() == &expected, "{what}: prepared module");
            assert_eq!(prepared.fingerprint(), expected.fingerprint(), "{what}");
            assert_eq!(prepared.spin_loops_found(), reference.accepted(), "{what}");
        }
    }
    library_too_large
}

#[test]
fn textbook_splice_matches_a_from_scratch_analysis() {
    // The small windows reject library wait loops by size, so the
    // projection's size check is exercised.
    assert!(check_style(LibStyle::Textbook) > 0);
}

#[test]
fn obscure_splice_matches_a_from_scratch_analysis() {
    assert!(check_style(LibStyle::Obscure) > 0);
}

#[test]
#[should_panic(expected = "does not end in the library")]
fn a_module_lowered_in_another_style_is_refused() {
    let m = all_programs()
        .iter()
        .map(|p| (p.build)(p.threads, p.size))
        .next()
        .unwrap();
    let lowered = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    let obscure = LibraryAnalysis::new(library_functions(LibStyle::Obscure));
    SpinFinder::default().analyze_with_library(&lowered, &obscure);
}
