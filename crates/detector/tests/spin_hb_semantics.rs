//! End-to-end semantics of the spin-HB augmentation: soundness (real
//! races survive the suppression) and completeness (the installed edges
//! are transitive enough for barriers and lock chains).

use spinrace_detector::{AnyDetector, DetectorConfig, MsmMode};
use spinrace_spinfind::SpinFinder;
use spinrace_synclib::{lower_to_spinlib_styled, LibStyle};
use spinrace_tir::{Module, ModuleBuilder};
use spinrace_vm::{run_module, VmConfig};

fn analyze(m: &Module, cfg: DetectorConfig, seed: Option<u64>) -> AnyDetector {
    let mut m = m.clone();
    let _ = SpinFinder::default().instrument(&mut m);
    let mut det = AnyDetector::new(cfg);
    let vm_cfg = match seed {
        Some(s) => VmConfig::random(s),
        None => VmConfig::round_robin(),
    };
    run_module(&m, vm_cfg, &mut det).expect("run");
    det
}

fn spin_cfg() -> DetectorConfig {
    DetectorConfig::helgrind_lib_spin(MsmMode::Short)
}

/// BROKEN flag protocol: the flag is raised *before* the data write.
/// The spin suppression must NOT hide this real race: the data write
/// happens after the release point, so its epoch exceeds what the loop
/// exit acquires.
#[test]
fn early_flag_bug_is_still_caught() {
    let mut mb = ModuleBuilder::new("early-flag");
    let flag = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(flag.at(0), 1); // BUG: flag before data
        for _ in 0..6 {
            f.nop(); // give the waiter room to wake and read early
        }
        f.store(data.at(0), 42);
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    // Under at least one schedule the reader's data access is unordered
    // with the late data write and must be reported despite the spin
    // machinery treating `flag` as synchronization.
    let mut caught = false;
    for seed in 0..20 {
        let det = analyze(&m, spin_cfg(), Some(seed));
        let data_addr = Module::GLOBAL_BASE + 1;
        if det.reports().has_race_on(data_addr) {
            caught = true;
            break;
        }
    }
    assert!(caught, "the early-flag bug must be detectable");
}

/// Correct protocol for contrast: flag raised after the data write is
/// clean under every seed.
#[test]
fn correct_flag_protocol_is_clean_under_all_seeds() {
    let mut mb = ModuleBuilder::new("late-flag");
    let flag = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(data.at(0), 42);
        f.store(flag.at(0), 1);
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for seed in 0..20 {
        let det = analyze(&m, spin_cfg(), Some(seed));
        assert_eq!(det.racy_contexts(), 0, "seed {seed}");
    }
}

/// The lowered barrier provides *all-to-all* ordering: every thread's
/// pre-barrier writes are visible race-free to every other thread after
/// the barrier (requires the RMW arrival chain + generation release).
#[test]
fn lowered_barrier_gives_all_to_all_ordering() {
    let mut mb = ModuleBuilder::new("spin-barrier-all2all");
    let bar = mb.global("bar", 3);
    let slots = mb.global("slots", 4);
    let sums = mb.global("sums", 4);
    let worker = mb.function("worker", 1, |f| {
        let id = f.param(0);
        let v = f.add(id, 7);
        f.store(slots.idx(id), v);
        f.barrier_wait(bar.at(0));
        let mut total = f.const_(0);
        for i in 0..4 {
            let s = f.load(slots.at(i));
            total = f.add(total, s);
        }
        f.store(sums.idx(id), total);
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.barrier_init(bar.at(0), 4);
        let tids: Vec<_> = (0..4).map(|i| f.spawn(worker, i)).collect();
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    for seed in 0..10 {
        let det = analyze(
            &low,
            DetectorConfig::helgrind_nolib_spin(MsmMode::Short),
            Some(seed),
        );
        assert_eq!(
            det.racy_contexts(),
            0,
            "seed {seed}: lowered barrier must order all-to-all"
        );
    }
}

/// Lock-chain transitivity through the lowered mutex: A writes under the
/// lock, B bumps under the lock, C reads under the lock — C must be
/// ordered after A's write through B's critical section.
#[test]
fn lowered_mutex_chains_transitively() {
    let mut mb = ModuleBuilder::new("spin-mutex-chain");
    let mu = mb.global("mu", 1);
    let x = mb.global("x", 1);
    let w = mb.function("w", 1, |f| {
        f.lock(mu.at(0));
        let v = f.load(x.at(0));
        let v2 = f.add(v, 1);
        f.store(x.at(0), v2);
        f.unlock(mu.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        let a = f.spawn(w, 0);
        let b = f.spawn(w, 1);
        let c = f.spawn(w, 2);
        f.join(a);
        f.join(b);
        f.join(c);
        let v = f.load(x.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    for seed in 0..15 {
        let det = analyze(
            &low,
            DetectorConfig::helgrind_nolib_spin(MsmMode::Short),
            Some(seed),
        );
        assert_eq!(det.racy_contexts(), 0, "seed {seed}");
    }
}

/// Promotion after a pre-existing write uses the partial (writer-epoch)
/// edge: the writer's *own* earlier stores are still ordered.
#[test]
fn partial_edge_orders_writers_own_history() {
    let mut mb = ModuleBuilder::new("partial-edge");
    let flag = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let waiter = mb.function("waiter", 1, |f| {
        // Delay so the counterpart write certainly precedes the first
        // spin read under round-robin (promotion happens after it).
        for _ in 0..12 {
            f.nop();
        }
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(data.at(0), 5);
        f.store(flag.at(0), 1);
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let det = analyze(&m, spin_cfg(), None);
    assert_eq!(
        det.racy_contexts(),
        0,
        "writer-epoch seeding must cover the writer's earlier stores"
    );
}

/// Suppression is not global: a second, unrelated race in a program with
/// spin sync is still reported.
#[test]
fn unrelated_race_next_to_spin_sync_is_reported() {
    let mut mb = ModuleBuilder::new("spin-plus-race");
    let flag = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let victim = mb.global("victim", 1);
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        let _ = d;
        f.store(victim.at(0), 1); // unsynchronized with main's write below
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(data.at(0), 1);
        f.store(flag.at(0), 1);
        f.store(victim.at(0), 2); // races with the waiter's store
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let victim_addr = Module::GLOBAL_BASE + 2;
    let mut caught = false;
    for seed in 0..20 {
        let det = analyze(&m, spin_cfg(), Some(seed));
        if det.reports().has_race_on(victim_addr) {
            caught = true;
        }
        // and never a false positive on data/flag
        assert!(!det.reports().has_race_on(Module::GLOBAL_BASE));
        assert!(!det.reports().has_race_on(Module::GLOBAL_BASE + 1));
    }
    assert!(caught, "the victim race must surface under some schedule");
}

/// The obscure library flavour changes detectability, not semantics:
/// same outputs, more contexts.
#[test]
fn obscure_lowering_is_semantically_equivalent_but_noisier() {
    let mut mb = ModuleBuilder::new("cv-prog");
    let mu = mb.global("mu", 1);
    let cv = mb.global("cv", 1);
    let ready = mb.global("ready", 1);
    let data = mb.global("data", 1);
    let consumer = mb.function("consumer", 1, |f| {
        let check = f.new_block();
        let sleep = f.new_block();
        let done = f.new_block();
        f.lock(mu.at(0));
        f.jump(check);
        f.switch_to(check);
        let r = f.load(ready.at(0));
        f.branch(r, done, sleep);
        f.switch_to(sleep);
        f.wait(cv.at(0), mu.at(0));
        f.jump(check);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.unlock(mu.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(consumer, 0);
        f.lock(mu.at(0));
        f.store(data.at(0), 11);
        f.store(ready.at(0), 1);
        f.signal(cv.at(0));
        f.unlock(mu.at(0));
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();

    let textbook = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    let obscure = lower_to_spinlib_styled(&m, LibStyle::Obscure).unwrap();
    let run_one = |module: &Module| {
        let mut module = module.clone();
        let _ = SpinFinder::default().instrument(&mut module);
        let mut det = AnyDetector::new(DetectorConfig::helgrind_nolib_spin(MsmMode::Short));
        let summary = run_module(&module, VmConfig::round_robin(), &mut det).expect("run");
        (
            summary.outputs.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            det.racy_contexts(),
        )
    };
    let (out_t, ctx_t) = run_one(&textbook);
    let (out_o, ctx_o) = run_one(&obscure);
    assert_eq!(out_t, vec![11]);
    assert_eq!(out_o, vec![11], "obscure internals compute the same result");
    assert_eq!(ctx_t, 0, "textbook primitives are fully detectable");
    assert!(
        ctx_o > 0,
        "obscure condvar internals defeat the patterns (got {ctx_o})"
    );
}
