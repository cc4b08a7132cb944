//! Workspace smoke test: guards the end-to-end pipeline (build → spin
//! instrumentation → VM execution → detection → report) independently of
//! the full evaluation suites. If this file fails, the pipeline itself is
//! broken, not a particular workload.

use spinrace::core::{Session, Tool};
use spinrace::tir::{Module, ModuleBuilder};

/// Two threads increment a shared counter with no synchronization at all.
fn racy_module() -> Module {
    let mut mb = ModuleBuilder::new("smoke-racy");
    let victim = mb.global("victim", 1);
    let w = mb.function("w", 1, |f| {
        let v = f.load(victim.at(0));
        let v2 = f.add(v, 1);
        f.store(victim.at(0), v2);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(w, 0);
        let t2 = f.spawn(w, 1);
        f.join(t1);
        f.join(t2);
        f.ret(None);
    });
    mb.finish().expect("valid racy module")
}

/// The paper's motivating pattern, race-free via an ad-hoc spin loop:
/// writer does `DATA++; FLAG = 1`, reader spins on `FLAG` then `DATA--`.
fn spin_synchronized_module() -> Module {
    let mut mb = ModuleBuilder::new("smoke-spin-sync");
    let flag = mb.global("FLAG", 1);
    let data = mb.global("DATA", 1);
    let reader = mb.function("reader", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        let d2 = f.sub(d, 1);
        f.store(data.at(0), d2);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(reader, 0);
        let d = f.load(data.at(0));
        let d2 = f.add(d, 1);
        f.store(data.at(0), d2);
        f.store(flag.at(0), 1);
        f.join(t);
        f.ret(None);
    });
    mb.finish().expect("valid spin module")
}

#[test]
fn racy_module_reports_at_least_one_context() {
    for tool in Tool::paper_lineup() {
        let out = Session::for_module(&racy_module())
            .prepare(tool)
            .and_then(|p| p.detect_live())
            .expect("analysis succeeds");
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
        let out = Session::for_module(&spin_synchronized_module())
            .prepare(tool)
            .and_then(|p| p.detect_live())
            .expect("analysis succeeds");
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
    let out = Session::for_module(&spin_synchronized_module())
        .prepare(Tool::HelgrindLib)
        .and_then(|p| p.detect_live())
        .expect("analysis succeeds");
    assert!(
        out.contexts >= 1,
        "library-only mode should report the flag/data accesses"
    );
}
