//! Ablations for the design choices DESIGN.md calls out: the short/long
//! memory state machine, the interprocedural condition extension, and
//! the report cap.
//!
//! Detector-side ablations (MSM flavour, report cap) are pure replay
//! fan-out since the session redesign: each program executes **once** and
//! every ablated configuration detects on the recorded trace.

use spinrace::core::{DetectRequest, Session, Tool};
use spinrace::detector::{DetectorConfig, MsmMode};
use spinrace::spinfind::{SpinCriteria, SpinFinder};
use spinrace::suites::all_programs;
use spinrace::synclib::LibStyle;
use spinrace::tir::{ModuleBuilder, Operand};

/// Long MSM trades first-iteration sensitivity for fewer false positives
/// (Helgrind+'s short-vs-long distinction): on a one-shot unordered
/// access pattern the short machine reports and the long machine stays
/// silent; on a repeated pattern both report.
#[test]
fn msm_short_vs_long_sensitivity() {
    // One-shot handoff with a *benign* (ordered-by-luck, unprotected)
    // access pattern the detectors see as unordered exactly once.
    let build = |repeats: i64| {
        let mut mb = ModuleBuilder::new("msm-abl");
        let g = mb.global("g", 1);
        let w = mb.function("w", 1, |f| {
            for _ in 0..repeats {
                let v = f.load(g.at(0));
                let v2 = f.add(v, 1);
                f.store(g.at(0), v2);
            }
            f.ret(None);
        });
        mb.entry("main", |f| {
            let a = f.spawn(w, 0);
            let b = f.spawn(w, 1);
            f.join(a);
            f.join(b);
            f.ret(None);
        });
        mb.finish().unwrap()
    };

    let one_shot = build(1);
    let repeated = build(3);

    // The MSM flavour is a detector knob, not an execution knob: record
    // each program once and fan both MSM configurations out on the trace.
    let msm_configs = [
        DetectorConfig::helgrind_lib(MsmMode::Short),
        DetectorConfig::helgrind_lib(MsmMode::Long),
    ];
    let run = Session::for_module(&one_shot)
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap();
    let outs = run.run(&DetectRequest::configs(&msm_configs)).into_vec();
    let (short, long) = (&outs[0], &outs[1]);
    assert!(
        !short.is_clean(),
        "short MSM reports the first unordered pair"
    );
    assert!(
        long.contexts <= short.contexts,
        "long MSM is never more sensitive"
    );

    let run = Session::for_module(&repeated)
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap();
    let outs = run.run(&DetectRequest::configs(&msm_configs)).into_vec();
    assert!(
        !outs[1].is_clean(),
        "long MSM catches it on the second iteration"
    );
}

/// Disabling the interprocedural condition extension loses the loops
/// whose conditions evaluate through helper functions — the mechanism
/// behind the paper's "templates and complex function calls" note.
#[test]
fn interprocedural_extension_ablation() {
    let mut mb = ModuleBuilder::new("interproc-abl");
    let flag = mb.global("flag", 1);
    let check = mb.function("check", 0, |f| {
        let v = f.load(flag.at(0));
        f.ret(Some(Operand::Reg(v)));
    });
    mb.entry("main", |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.call(check, &[]);
        f.branch(v, done, head);
        f.switch_to(done);
        f.ret(None);
    });
    let m = mb.finish().unwrap();

    let with = SpinFinder::new(SpinCriteria {
        interprocedural: true,
        ..Default::default()
    })
    .analyze(&m);
    let without = SpinFinder::new(SpinCriteria {
        interprocedural: false,
        ..Default::default()
    })
    .analyze(&m);
    assert_eq!(with.accepted(), 1);
    assert_eq!(without.accepted(), 0);
}

/// The report cap changes *counts*, never verdict direction: raising it
/// can only reveal more contexts.
#[test]
fn report_cap_is_monotone() {
    let p = all_programs()
        .into_iter()
        .find(|p| p.name == "vips")
        .unwrap();
    let m = (p.build)(p.threads, p.size);
    // One execution; the cap sweep is pure detector fan-out on the trace.
    let run = Session::for_module(&m)
        .long_msm()
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap();
    let caps = [5usize, 25, 100, 1000];
    let configs: Vec<DetectorConfig> = caps
        .iter()
        .map(|&cap| DetectorConfig::helgrind_lib(MsmMode::Long).with_cap(cap))
        .collect();
    let mut prev = 0;
    let outs = run.run(&DetectRequest::configs(&configs));
    for (out, &cap) in outs.iter().zip(&caps) {
        assert!(out.contexts <= cap);
        assert!(out.contexts >= prev.min(cap));
        prev = out.contexts;
    }
}

/// The obscure-library flavour is what creates the PARSEC `nolib`
/// regressions: with the textbook library instead, the obscure programs'
/// nolib runs match their lib+spin runs much more closely.
#[test]
fn obscure_library_drives_nolib_regressions() {
    let p = all_programs()
        .into_iter()
        .find(|p| p.name == "bodytrack")
        .unwrap();
    let m = (p.build)(p.threads, p.size);
    let session = Session::for_module(&m).long_msm().seed(1);
    let contexts = |session: Session<'_>, tool| {
        session
            .prepare(tool)
            .and_then(|p| p.try_run(&DetectRequest::own()))
            .unwrap()
            .into_single()
            .contexts
    };
    let nolib = Tool::HelgrindNolibSpin { window: 7 };
    let spin = contexts(session, Tool::HelgrindLibSpin { window: 7 });
    let nolib_textbook = contexts(session, nolib);
    let nolib_obscure = contexts(session.nolib_style(LibStyle::Obscure), nolib);
    assert!(
        nolib_obscure > nolib_textbook,
        "obscure internals add contexts: {nolib_obscure} vs {nolib_textbook}"
    );
    assert!(
        nolib_textbook <= spin + 4,
        "textbook nolib stays close to lib+spin ({nolib_textbook} vs {spin})"
    );
}
