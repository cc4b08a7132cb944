//! Semantic equivalence of lowered programs, and detectability of the
//! spin library by the instrumentation phase — the foundation of the
//! paper's `nolib` ("universal detector") experiments.

use spinrace_spinfind::SpinFinder;
use spinrace_synclib::lower::spinlib_ids;
use spinrace_synclib::{lower_to_spinlib_styled, LibStyle};
use spinrace_tir::{Module, ModuleBuilder};
use spinrace_vm::{run_module, NullSink, VmConfig};

fn outputs(m: &Module, cfg: VmConfig) -> Vec<i64> {
    let mut sink = NullSink;
    run_module(m, cfg, &mut sink)
        .expect("run ok")
        .outputs
        .iter()
        .map(|(_, v)| *v)
        .collect()
}

/// Run lib and lowered versions under many seeds; outputs must agree with
/// the deterministic expectation.
fn check_equivalence(m: &Module, expected: &[i64], seeds: u64) {
    let low = lower_to_spinlib_styled(m, LibStyle::Textbook).expect("lowering ok");
    for seed in 0..seeds {
        assert_eq!(
            outputs(m, VmConfig::random(seed)),
            expected,
            "lib mode, seed {seed}"
        );
        assert_eq!(
            outputs(&low, VmConfig::random(seed)),
            expected,
            "nolib mode, seed {seed}"
        );
    }
    assert_eq!(outputs(m, VmConfig::round_robin()), expected);
    assert_eq!(outputs(&low, VmConfig::round_robin()), expected);
}

fn mutex_counter_module() -> Module {
    let mut mb = ModuleBuilder::new("mutex_counter");
    let mu = mb.global("mu", 1);
    let counter = mb.global("counter", 1);
    let worker = mb.function("worker", 1, |f| {
        let check = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, 8);
        f.branch(c, body, done);
        f.switch_to(body);
        f.lock(mu.at(0));
        let v = f.load(counter.at(0));
        let v2 = f.add(v, 1);
        f.store(counter.at(0), v2);
        f.unlock(mu.at(0));
        let i2 = f.add(i, 1);
        f.mov(i, i2);
        f.jump(check);
        f.switch_to(done);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(worker, 0);
        let t2 = f.spawn(worker, 1);
        f.join(t1);
        f.join(t2);
        let v = f.load(counter.at(0));
        f.output(v);
        f.ret(None);
    });
    mb.finish().unwrap()
}

#[test]
fn lowered_mutex_preserves_mutual_exclusion() {
    check_equivalence(&mutex_counter_module(), &[16], 12);
}

#[test]
fn lowered_condvar_handshake() {
    let mut mb = ModuleBuilder::new("cv_handshake");
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
        f.store(data.at(0), 77);
        f.lock(mu.at(0));
        f.store(ready.at(0), 1);
        f.signal(cv.at(0));
        f.unlock(mu.at(0));
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    check_equivalence(&m, &[77], 12);
}

#[test]
fn lowered_barrier_synchronizes_rounds() {
    // 3 threads, 2 rounds: each writes its slot before the barrier, reads
    // all slots after; sums are deterministic iff the barrier works.
    let mut mb = ModuleBuilder::new("barrier_rounds");
    let bar = mb.global("bar", 3);
    let slots = mb.global("slots", 3);
    let results = mb.global("results", 6);
    let worker = mb.function("worker", 1, |f| {
        let id = f.param(0);
        for round in 0..2 {
            let base = f.const_(round * 100);
            let v = f.add(base, id);
            f.store(slots.idx(id), v);
            f.barrier_wait(bar.at(0));
            let mut total = f.const_(0);
            for i in 0..3 {
                let s = f.load(slots.at(i));
                total = f.add(total, s);
            }
            let slot = f.const_(round * 3);
            let ridx = f.add(slot, id);
            f.store(results.idx(ridx), total);
            // Second barrier separates the read phase from the next
            // round's writes.
            f.barrier_wait(bar.at(0));
        }
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.barrier_init(bar.at(0), 3);
        let t1 = f.spawn(worker, 0);
        let t2 = f.spawn(worker, 1);
        let t3 = f.spawn(worker, 2);
        f.join(t1);
        f.join(t2);
        f.join(t3);
        for i in 0..6 {
            let v = f.load(results.at(i));
            f.output(v);
        }
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    // Round 0: 0+1+2 = 3; round 1: 100+101+102 = 303.
    check_equivalence(&m, &[3, 3, 3, 303, 303, 303], 8);
}

#[test]
fn lowered_semaphore_acts_as_lock() {
    let mut mb = ModuleBuilder::new("sem_lock");
    let sem = mb.global("sem", 1);
    let counter = mb.global("counter", 1);
    let worker = mb.function("worker", 1, |f| {
        let check = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, 6);
        f.branch(c, body, done);
        f.switch_to(body);
        f.sem_wait(sem.at(0));
        let v = f.load(counter.at(0));
        let v2 = f.add(v, 1);
        f.store(counter.at(0), v2);
        f.sem_post(sem.at(0));
        let i2 = f.add(i, 1);
        f.mov(i, i2);
        f.jump(check);
        f.switch_to(done);
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.sem_init(sem.at(0), 1);
        let t1 = f.spawn(worker, 0);
        let t2 = f.spawn(worker, 1);
        f.join(t1);
        f.join(t2);
        let v = f.load(counter.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    check_equivalence(&m, &[12], 12);
}

#[test]
fn spinfind_rediscovers_library_primitives() {
    // Instrument the lowered module: the spin library's waiting loops must
    // all be detected with the default window — this is the paper's claim
    // that primitives are identifiable from their spin loops.
    let m = mutex_counter_module();
    let mut low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    let analysis = SpinFinder::default().instrument(&mut low);
    let lib = spinlib_ids(&m);
    let spin = low.spin.as_ref().unwrap();
    // mutex_lock's TTAS read loop:
    assert!(
        spin.loops.iter().any(|l| l.func == lib.mutex_lock),
        "TTAS inner read spin detected; verdicts: {:#?}",
        analysis.verdicts
    );
}

#[test]
fn spinfind_finds_all_four_primitive_wait_loops() {
    let mut mb = ModuleBuilder::new("all_prims");
    let mu = mb.global("mu", 1);
    let cv = mb.global("cv", 1);
    let bar = mb.global("bar", 3);
    let sem = mb.global("sem", 1);
    let worker = mb.function("worker", 1, |f| {
        f.lock(mu.at(0));
        f.wait(cv.at(0), mu.at(0));
        f.unlock(mu.at(0));
        f.barrier_wait(bar.at(0));
        f.sem_wait(sem.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.barrier_init(bar.at(0), 2);
        f.sem_init(sem.at(0), 0);
        let t = f.spawn(worker, 0);
        f.lock(mu.at(0));
        f.signal(cv.at(0));
        f.unlock(mu.at(0));
        f.barrier_wait(bar.at(0));
        f.sem_post(sem.at(0));
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let mut low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    let _ = SpinFinder::default().instrument(&mut low);
    let lib = spinlib_ids(&m);
    let spin = low.spin.as_ref().unwrap();
    for (name, func) in [
        ("mutex_lock", lib.mutex_lock),
        ("cond_wait", lib.cond_wait),
        ("barrier_wait", lib.barrier_wait),
        ("sem_wait", lib.sem_wait),
    ] {
        assert!(
            spin.loops.iter().any(|l| l.func == func),
            "{name} wait loop not detected"
        );
    }
}

#[test]
fn lowered_runs_track_spin_instances() {
    let m = mutex_counter_module();
    let mut low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
    let _ = SpinFinder::default().instrument(&mut low);
    let mut sink = NullSink;
    let summary = run_module(&low, VmConfig::random(5), &mut sink).expect("run");
    assert_eq!(summary.spin_enters, summary.spin_exits);
}
