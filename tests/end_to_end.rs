//! Cross-crate integration: facade-level pipeline behaviour.

mod common;

use common::{analyze, motivating};
use spinrace::core::{Session, Tool};
use spinrace::detector::RaceKind;
use spinrace::tir::{MemOrder, ModuleBuilder};

/// The paper's motivating example, end to end through the facade.
#[test]
fn motivating_example_through_facade() {
    let m = motivating();

    let lib = analyze(Session::for_module(&m), Tool::HelgrindLib);
    assert!(lib.has_race_on("FLAG"), "synchronization race");
    assert!(lib.has_race_on("DATA"), "apparent race");

    let spin = analyze(Session::for_module(&m), Tool::HelgrindLibSpin { window: 7 });
    assert!(spin.is_clean());
    assert_eq!(spin.spin_loops_found, 1);

    let nolib = analyze(
        Session::for_module(&m),
        Tool::HelgrindNolibSpin { window: 7 },
    );
    assert!(nolib.is_clean());
}

/// Program output is identical across every tool's preparation pipeline
/// (lowering must preserve semantics).
#[test]
fn outputs_agree_across_tools() {
    let mut mb = ModuleBuilder::new("sum");
    let mu = mb.global("mu", 1);
    let acc = mb.global("acc", 1);
    let w = mb.function("w", 1, |f| {
        f.lock(mu.at(0));
        let v = f.load(acc.at(0));
        let v2 = f.add(v, f.param(0));
        f.store(acc.at(0), v2);
        f.unlock(mu.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(w, 5);
        let t2 = f.spawn(w, 7);
        let t3 = f.spawn(w, 11);
        f.join(t1);
        f.join(t2);
        f.join(t3);
        let v = f.load(acc.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let mut outputs = Vec::new();
    for tool in Tool::paper_lineup() {
        let out = analyze(Session::for_module(&m), tool);
        outputs.push(
            out.summary
                .outputs
                .iter()
                .map(|(_, v)| *v)
                .collect::<Vec<_>>(),
        );
    }
    for o in &outputs {
        assert_eq!(o, &vec![23], "all pipelines compute the same result");
    }
}

/// The lockset stage catches a race that every pure-HB view misses.
#[test]
fn lockset_violation_end_to_end() {
    let mut mb = ModuleBuilder::new("wrong-locks");
    let m1 = mb.global("m1", 1);
    let m2 = mb.global("m2", 1);
    let m3 = mb.global("m3", 1);
    let victim = mb.global("victim", 1);
    // T1 writes under m1, then syncs with main through m3; main hands the
    // "baton" to T2 through m3; T2 writes under m2. HB-ordered, but no
    // common lock protects `victim`.
    let t1 = mb.function("t1", 1, |f| {
        f.lock(m1.at(0));
        f.store(victim.at(0), 1);
        f.unlock(m1.at(0));
        f.lock(m3.at(0));
        f.unlock(m3.at(0));
        f.ret(None);
    });
    let t2 = mb.function("t2", 1, |f| {
        for _ in 0..12 {
            f.yield_();
        }
        f.lock(m3.at(0));
        f.unlock(m3.at(0));
        f.lock(m2.at(0));
        f.store(victim.at(0), 2);
        f.unlock(m2.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        let a = f.spawn(t1, 0);
        let b = f.spawn(t2, 0);
        f.join(a);
        f.join(b);
        f.ret(None);
    });
    let m = mb.finish().unwrap();

    let hybrid = analyze(Session::for_module(&m), Tool::HelgrindLib);
    // Either the schedule exposes the HB race directly, or the lockset
    // stage flags the discipline violation — the hybrid must not be silent.
    assert!(hybrid.has_race_on("victim"), "{:?}", hybrid.reports);
    let has_lockset_kind = hybrid
        .reports
        .iter()
        .any(|r| r.report.kind == RaceKind::LocksetViolation);
    let drd = analyze(Session::for_module(&m), Tool::Drd);
    if has_lockset_kind {
        assert!(
            !drd.has_race_on("victim"),
            "DRD misses what the lockset stage catches"
        );
    }
}

/// Atomics-based ad-hoc sync: DRD clean, lib floods, spin configs clean.
#[test]
fn atomic_adhoc_tool_matrix() {
    let mut mb = ModuleBuilder::new("atomic-adhoc");
    let flag = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load_atomic(flag.at(0), MemOrder::Acquire);
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(data.at(0), 9);
        f.store_atomic(flag.at(0), 1, MemOrder::Release);
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();

    assert!(!analyze(Session::for_module(&m), Tool::HelgrindLib).is_clean());
    assert!(analyze(Session::for_module(&m), Tool::HelgrindLibSpin { window: 7 }).is_clean());
    assert!(analyze(Session::for_module(&m), Tool::Drd).is_clean());
}

/// Seeds explore different interleavings but never produce spurious
/// reports on a fully locked program.
#[test]
fn no_false_positives_across_seeds_on_locked_program() {
    let mut mb = ModuleBuilder::new("locked");
    let mu = mb.global("mu", 1);
    let g = mb.global("g", 1);
    let w = mb.function("w", 1, |f| {
        for _ in 0..3 {
            f.lock(mu.at(0));
            let v = f.load(g.at(0));
            let v2 = f.add(v, 1);
            f.store(g.at(0), v2);
            f.unlock(mu.at(0));
        }
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(w, 0);
        let t2 = f.spawn(w, 1);
        let t3 = f.spawn(w, 2);
        f.join(t1);
        f.join(t2);
        f.join(t3);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for seed in 0..15 {
        for tool in Tool::paper_lineup() {
            let out = analyze(Session::for_module(&m).seed(seed), tool);
            assert!(
                out.is_clean(),
                "{} seed {} reported {:?}",
                tool.label(),
                seed,
                out.reports
            );
        }
    }
}
