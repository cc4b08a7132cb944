//! Fixtures shared by the integration tests.

// Each test crate uses only some of these.
#![allow(dead_code)]

use spinrace::core::{AnalysisOutcome, DetectRequest, Session, Tool};
use spinrace::tir::{MemOrder, Module, ModuleBuilder, RmwOp};

/// One live analysis of `session`'s module under `tool`.
pub fn analyze(session: Session<'_>, tool: Tool) -> AnalysisOutcome {
    session
        .prepare(tool)
        .and_then(|p| p.try_run(&DetectRequest::own()))
        .expect("analysis succeeds")
        .into_single()
}

/// `threads` workers increment the unsynchronized counter `victim`.
pub fn racy(threads: u32) -> Module {
    let mut mb = ModuleBuilder::new("racy");
    let victim = mb.global("victim", 1);
    let w = mb.function("w", 1, |f| {
        let v = f.load(victim.at(0));
        let v2 = f.add(v, 1);
        f.store(victim.at(0), v2);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let tids: Vec<_> = (0..threads).map(|i| f.spawn(w, i as i64)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    mb.finish().unwrap()
}

/// The paper's motivating example, race-free via an ad-hoc spin loop:
/// writer does `DATA++; FLAG = 1`, reader spins on `FLAG` then `DATA--`.
pub fn motivating() -> Module {
    let mut mb = ModuleBuilder::new("motivating");
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
    mb.finish().unwrap()
}

/// A small random workload exercising every detector feature: lock-
/// protected counters (locksets), an optional ad-hoc flag handoff (spin
/// promotion), an optional deliberately racy slot (HB reports), and an
/// optional atomic-counter rendezvous (RMW promotion / DRD atomic edges).
pub fn feature_mix(
    threads: u32,
    iters: u8,
    lock: bool,
    flag: bool,
    racy: bool,
    rmw: bool,
) -> Module {
    let mut mb = ModuleBuilder::new("feature-mix");
    let mu = mb.global("mu", 1);
    let shared = mb.global("shared", 1);
    let flag_g = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let victim = mb.global("victim", 1);
    let counter = mb.global("counter", 1);
    let w = mb.function("w", 1, |f| {
        for _ in 0..iters {
            if lock {
                f.lock(mu.at(0));
            }
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            if lock {
                f.unlock(mu.at(0));
            }
            if racy {
                let r = f.load(victim.at(0));
                let r2 = f.add(r, 1);
                f.store(victim.at(0), r2);
            }
            if rmw {
                f.rmw(RmwOp::Add, counter.at(0), 1, MemOrder::SeqCst);
            }
        }
        f.ret(None);
    });
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag_g.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let mut tids = Vec::new();
        if flag {
            tids.push(f.spawn(waiter, 0));
        }
        for i in 0..threads {
            tids.push(f.spawn(w, i as i64));
        }
        if flag {
            f.store(data.at(0), 7);
            f.store(flag_g.at(0), 1);
        }
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    mb.finish().unwrap()
}
