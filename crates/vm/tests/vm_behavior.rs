//! End-to-end behavioural tests of the VM: program semantics, library
//! synchronization, spin-loop runtime tracking, determinism, and failure
//! modes.

use spinrace_spinfind::SpinFinder;
use spinrace_tir::{MemOrder, Module, ModuleBuilder, Operand, RmwOp};
use spinrace_vm::{
    run_module, Event, EventSink, NullSink, RecordingSink, RunSummary, VmConfig, VmError,
};

fn run(m: &Module, cfg: VmConfig) -> (RunSummary, Vec<Event>) {
    let mut sink = RecordingSink::default();
    let summary = run_module(m, cfg, &mut sink).expect("run ok");
    (summary, sink.events)
}

fn outputs(m: &Module, cfg: VmConfig) -> Vec<i64> {
    run(m, cfg).0.outputs.iter().map(|(_, v)| *v).collect()
}

#[test]
fn arithmetic_and_output() {
    let mut mb = ModuleBuilder::new("arith");
    mb.entry("main", |f| {
        let a = f.const_(6);
        let b = f.const_(7);
        let c = f.mul(a, b);
        f.output(c);
        let d = f.sub(c, 2);
        f.output(d);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![42, 40]);
}

#[test]
fn memory_store_load_round_trip() {
    let mut mb = ModuleBuilder::new("mem");
    let g = mb.global("g", 4);
    mb.entry("main", |f| {
        f.store(g.at(2), 11);
        let v = f.load(g.at(2));
        f.output(v);
        let z = f.load(g.at(0));
        f.output(z);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![11, 0]);
}

#[test]
fn global_initializers_are_visible() {
    let mut mb = ModuleBuilder::new("init");
    let g = mb.global_init("g", 3, vec![5, 6]);
    mb.entry("main", |f| {
        let a = f.load(g.at(0));
        let b = f.load(g.at(1));
        let c = f.load(g.at(2));
        let s1 = f.add(a, b);
        let s = f.add(s1, c);
        f.output(s);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![11]);
}

#[test]
fn heap_alloc_and_pointer_access() {
    let mut mb = ModuleBuilder::new("heap");
    mb.entry("main", |f| {
        let p = f.alloc(4);
        f.store(
            spinrace_tir::AddrExpr::Based { base: p, disp: 3 },
            Operand::Imm(9),
        );
        let v = f.load(spinrace_tir::AddrExpr::Based { base: p, disp: 3 });
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![9]);
}

#[test]
fn call_and_return_value() {
    let mut mb = ModuleBuilder::new("call");
    let dbl = mb.function("dbl", 1, |f| {
        let v = f.mul(f.param(0), 2);
        f.ret(Some(Operand::Reg(v)));
    });
    mb.entry("main", |f| {
        let v = f.call(dbl, &[Operand::Imm(21)]);
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![42]);
}

#[test]
fn stack_context_distinguishes_call_sites() {
    // The same library function touching the same address from two
    // different call sites must yield distinct Helgrind-style stack
    // hashes, while repeated events from one site agree — the contract
    // the O(1) incremental `Frame::ctx` hash must uphold.
    let mut mb = ModuleBuilder::new("stacks");
    let g = mb.global("g", 1);
    let lib = mb.function("lib", 1, |f| {
        let v = f.load(g.at(0));
        let v2 = f.add(v, 1);
        f.store(g.at(0), v2);
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.call(lib, &[Operand::Imm(0)]);
        f.call(lib, &[Operand::Imm(0)]);
        let v = f.load(g.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (_, events) = run(&m, VmConfig::round_robin());
    let lib_reads: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Read { stack, .. } => Some(*stack),
            _ => None,
        })
        .collect();
    // Two lib-internal reads (one per call site) and the main-frame read.
    assert_eq!(lib_reads.len(), 3);
    assert_ne!(
        lib_reads[0], lib_reads[1],
        "distinct call sites must hash differently"
    );
    assert_ne!(lib_reads[0], lib_reads[2]);
    // Within one call, the read and the write share the frame context.
    let lib_writes: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Write { stack, .. } => Some(*stack),
            _ => None,
        })
        .collect();
    assert_eq!(lib_writes.len(), 2);
    assert_eq!(lib_reads[0], lib_writes[0]);
    assert_eq!(lib_reads[1], lib_writes[1]);
}

#[test]
fn spawn_join_passes_argument() {
    let mut mb = ModuleBuilder::new("spawn");
    let g = mb.global("g", 1);
    let worker = mb.function("worker", 1, |f| {
        let v = f.add(f.param(0), 100);
        f.store(g.at(0), v);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(worker, 7);
        f.join(t);
        let v = f.load(g.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for cfg in [
        VmConfig::round_robin(),
        VmConfig::random(1),
        VmConfig::random(99),
    ] {
        assert_eq!(outputs(&m, cfg), vec![107]);
    }
}

#[test]
fn join_emits_event_even_for_already_finished_thread() {
    let mut mb = ModuleBuilder::new("latejoin");
    let worker = mb.function("worker", 1, |f| {
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(worker, 0);
        // Busy-wait a bit so the child can finish first under round-robin.
        for _ in 0..8 {
            f.nop();
        }
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (_, events) = run(&m, VmConfig::round_robin());
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Join {
            parent: 0,
            child: 1,
            ..
        }
    )));
}

/// Two threads increment a counter under a mutex; the result must be exact
/// under every scheduler (mutual exclusion works).
fn locked_counter_module(iters: i64) -> Module {
    let mut mb = ModuleBuilder::new("mutex");
    let mu = mb.global("mu", 1);
    let counter = mb.global("counter", 1);
    let worker = mb.function("worker", 1, |f| {
        let body = f.new_block();
        let check = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, iters);
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
fn mutex_provides_mutual_exclusion() {
    let m = locked_counter_module(10);
    for seed in 0..10 {
        assert_eq!(outputs(&m, VmConfig::random(seed)), vec![20], "seed {seed}");
    }
    assert_eq!(outputs(&m, VmConfig::round_robin()), vec![20]);
}

#[test]
fn mutex_lock_unlock_events_alternate_per_thread() {
    let m = locked_counter_module(3);
    let (_, events) = run(&m, VmConfig::random(7));
    let mut depth = 0i32;
    for e in &events {
        match e {
            Event::MutexLock { .. } => {
                depth += 1;
                assert_eq!(depth, 1, "no two threads hold the mutex");
            }
            Event::MutexUnlock { .. } => {
                depth -= 1;
                assert_eq!(depth, 0);
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0);
}

#[test]
fn condvar_handoff() {
    // Classic producer/consumer handshake through CV + mutex.
    let mut mb = ModuleBuilder::new("cv");
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
        f.store(data.at(0), 33);
        f.lock(mu.at(0));
        f.store(ready.at(0), 1);
        f.signal(cv.at(0));
        f.unlock(mu.at(0));
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for seed in 0..20 {
        assert_eq!(outputs(&m, VmConfig::random(seed)), vec![33], "seed {seed}");
    }
    let (_, events) = run(&m, VmConfig::round_robin());
    assert!(events.iter().any(|e| matches!(e, Event::CondSignal { .. })));
    // The consumer either saw ready=1 without sleeping or got a
    // CondWaitReturn; in the round-robin interleaving the consumer runs
    // first and must sleep.
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::CondWaitReturn { .. })));
}

#[test]
fn condvar_broadcast_wakes_all() {
    let mut mb = ModuleBuilder::new("bcast");
    let mu = mb.global("mu", 1);
    let cv = mb.global("cv", 1);
    let go = mb.global("go", 1);
    let done_count = mb.global("done_count", 1);
    let waiter = mb.function("waiter", 1, |f| {
        let check = f.new_block();
        let sleep = f.new_block();
        let done = f.new_block();
        f.lock(mu.at(0));
        f.jump(check);
        f.switch_to(check);
        let g = f.load(go.at(0));
        f.branch(g, done, sleep);
        f.switch_to(sleep);
        f.wait(cv.at(0), mu.at(0));
        f.jump(check);
        f.switch_to(done);
        let d = f.load(done_count.at(0));
        let d2 = f.add(d, 1);
        f.store(done_count.at(0), d2);
        f.unlock(mu.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(waiter, 0);
        let t2 = f.spawn(waiter, 1);
        let t3 = f.spawn(waiter, 2);
        for _ in 0..30 {
            f.yield_();
        }
        f.lock(mu.at(0));
        f.store(go.at(0), 1);
        f.broadcast(cv.at(0));
        f.unlock(mu.at(0));
        f.join(t1);
        f.join(t2);
        f.join(t3);
        let v = f.load(done_count.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for seed in 0..10 {
        assert_eq!(outputs(&m, VmConfig::random(seed)), vec![3], "seed {seed}");
    }
}

#[test]
fn barrier_synchronizes_phases() {
    // Each of 3 threads writes its slot, barrier, then sums all slots.
    let mut mb = ModuleBuilder::new("barrier");
    let bar = mb.global("bar", 1);
    let slots = mb.global("slots", 3);
    let sums = mb.global("sums", 3);
    let worker = mb.function("worker", 1, |f| {
        let id = f.param(0);
        let hundred = f.const_(100);
        let v = f.add(id, hundred);
        f.store(slots.idx(id), v);
        f.barrier_wait(bar.at(0));
        let mut total = f.const_(0);
        for i in 0..3 {
            let s = f.load(slots.at(i));
            total = f.add(total, s);
        }
        f.store(sums.idx(id), total);
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
        for i in 0..3 {
            let s = f.load(sums.at(i));
            f.output(s);
        }
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    // 100+101+102 = 303 for every thread, under every schedule.
    for seed in 0..10 {
        assert_eq!(
            outputs(&m, VmConfig::random(seed)),
            vec![303, 303, 303],
            "seed {seed}"
        );
    }
}

#[test]
fn barrier_events_carry_generation() {
    let mut mb = ModuleBuilder::new("bargen");
    let bar = mb.global("bar", 1);
    let worker = mb.function("worker", 1, |f| {
        f.barrier_wait(bar.at(0));
        f.barrier_wait(bar.at(0));
        f.ret(None);
    });
    mb.entry("main", |f| {
        f.barrier_init(bar.at(0), 2);
        let t = f.spawn(worker, 0);
        f.barrier_wait(bar.at(0));
        f.barrier_wait(bar.at(0));
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (_, events) = run(&m, VmConfig::round_robin());
    let gens: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::BarrierLeave { gen, .. } => Some(*gen),
            _ => None,
        })
        .collect();
    assert_eq!(gens, vec![0, 0, 1, 1]);
}

#[test]
fn semaphore_bounds_concurrency() {
    // Binary semaphore used as a lock.
    let mut mb = ModuleBuilder::new("sem");
    let sem = mb.global("sem", 1);
    let counter = mb.global("counter", 1);
    let worker = mb.function("worker", 1, |f| {
        let body = f.new_block();
        let check = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, 5);
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
    for seed in 0..10 {
        assert_eq!(outputs(&m, VmConfig::random(seed)), vec![10], "seed {seed}");
    }
}

#[test]
fn rmw_and_cas_are_atomic_steps() {
    let mut mb = ModuleBuilder::new("atom");
    let x = mb.global("x", 1);
    let worker = mb.function("worker", 1, |f| {
        let check = f.new_block();
        let body = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, 50);
        f.branch(c, body, done);
        f.switch_to(body);
        f.rmw(RmwOp::Add, x.at(0), 1, MemOrder::SeqCst);
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
        let v = f.load(x.at(0));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for seed in 0..5 {
        assert_eq!(
            outputs(&m, VmConfig::random(seed)),
            vec![100],
            "seed {seed}"
        );
    }
}

#[test]
fn cas_failure_emits_atomic_read() {
    let mut mb = ModuleBuilder::new("casfail");
    let x = mb.global_init("x", 1, vec![5]);
    mb.entry("main", |f| {
        let old = f.cas(x.at(0), 0, 1, MemOrder::AcqRel);
        f.output(old);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (summary, events) = run(&m, VmConfig::round_robin());
    assert_eq!(summary.outputs, vec![(0, 5)]);
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Read {
            atomic: Some(MemOrder::AcqRel),
            value: 5,
            ..
        }
    )));
    assert!(!events.iter().any(|e| matches!(e, Event::Update { .. })));
}

/// Flag handoff via ad-hoc spin; instrumented so the VM tracks the loop.
fn spin_handoff_module() -> Module {
    let mut mb = ModuleBuilder::new("spin");
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
        f.store(data.at(0), 55);
        f.store(flag.at(0), 1);
        f.join(t);
        f.ret(None);
    });
    let mut m = mb.finish().unwrap();
    let analysis = SpinFinder::default().instrument(&mut m);
    assert_eq!(analysis.accepted(), 1);
    m
}

#[test]
fn spin_handoff_completes_and_reports_exit_reads() {
    let m = spin_handoff_module();
    for seed in 0..10 {
        let (summary, events) = run(&m, VmConfig::random(seed));
        assert_eq!(
            summary.outputs.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![55],
            "seed {seed}"
        );
        assert!(summary.spin_enters >= 1);
        assert_eq!(summary.spin_enters, summary.spin_exits);
        // The SpinExit of the waiter must carry the flag read of the final
        // iteration.
        let exit = events
            .iter()
            .find_map(|e| match e {
                Event::SpinExit { tid: 1, reads, .. } => Some(reads.clone()),
                _ => None,
            })
            .expect("waiter spin exit");
        assert_eq!(exit.len(), 1, "final iteration reads exactly the flag");
        let flag_addr = Module::GLOBAL_BASE;
        assert_eq!(exit[0].0, flag_addr);
    }
}

#[test]
fn spin_reads_are_marked_in_event_stream() {
    let m = spin_handoff_module();
    let (_, events) = run(&m, VmConfig::round_robin());
    let spin_reads = events
        .iter()
        .filter(|e| matches!(e, Event::Read { spin: Some(_), .. }))
        .count();
    assert!(spin_reads >= 1, "tagged loads are marked");
    // data loads are NOT spin-marked
    let data_addr = Module::GLOBAL_BASE + 1;
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Read {
            addr,
            spin: None,
            ..
        } if *addr == data_addr
    )));
}

#[test]
fn deadlock_is_detected() {
    let mut mb = ModuleBuilder::new("deadlock");
    let mu = mb.global("mu", 1);
    let cv = mb.global("cv", 1);
    mb.entry("main", |f| {
        f.lock(mu.at(0));
        f.wait(cv.at(0), mu.at(0)); // nobody will ever signal
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let err = run_module(&m, VmConfig::round_robin(), &mut NullSink).unwrap_err();
    assert!(matches!(err, VmError::Deadlock { .. }));
}

#[test]
fn step_limit_stops_runaway_loops() {
    let mut mb = ModuleBuilder::new("runaway");
    mb.entry("main", |f| {
        let head = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.jump(head);
    });
    let m = mb.finish().unwrap();
    let cfg = VmConfig {
        max_steps: 1000,
        ..VmConfig::round_robin()
    };
    let err = run_module(&m, cfg, &mut NullSink).unwrap_err();
    assert!(matches!(err, VmError::StepLimit { steps: 1000 }));
}

/// A sink that reports `halted` stops the run at the VM's next poll, at
/// most 4096 steps later, instead of the step limit ending it.
#[test]
fn halted_sink_stops_the_run_within_one_poll_period() {
    /// Counts events; halted from the 10,000th on.
    struct HaltAfter(u64);
    impl EventSink for HaltAfter {
        fn on_event(&mut self, _ev: &Event) {
            self.0 += 1;
        }
        fn halted(&self) -> bool {
            self.0 >= 10_000
        }
    }
    // One read per iteration, so a step emits at most one event.
    let mut mb = ModuleBuilder::new("endless-reader");
    let g = mb.global("g", 1);
    mb.entry("main", |f| {
        let head = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.load(g.at(0));
        f.jump(head);
    });
    let m = mb.finish().unwrap();
    let mut sink = HaltAfter(0);
    let summary = run_module(&m, VmConfig::round_robin(), &mut sink).expect("halts cleanly");
    assert!(
        (10_000..=10_000 + 4096).contains(&sink.0),
        "{} events",
        sink.0
    );
    assert!(summary.steps < VmConfig::round_robin().max_steps);
}

#[test]
fn assert_failure_traps() {
    let mut mb = ModuleBuilder::new("trap");
    mb.entry("main", |f| {
        f.assert_(Operand::Imm(0), "boom");
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let err = run_module(&m, VmConfig::round_robin(), &mut NullSink).unwrap_err();
    match err {
        VmError::Trap { message, .. } => assert!(message.contains("boom")),
        e => panic!("expected trap, got {e:?}"),
    }
}

#[test]
fn division_by_zero_traps() {
    let mut mb = ModuleBuilder::new("div0");
    mb.entry("main", |f| {
        let z = f.const_(0);
        let v = f.bin(spinrace_tir::BinOp::Div, 1, z);
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert!(matches!(
        run_module(&m, VmConfig::round_robin(), &mut NullSink),
        Err(VmError::Trap { .. })
    ));
}

#[test]
fn recursive_lock_traps() {
    let mut mb = ModuleBuilder::new("relock");
    let mu = mb.global("mu", 1);
    mb.entry("main", |f| {
        f.lock(mu.at(0));
        f.lock(mu.at(0));
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert!(matches!(
        run_module(&m, VmConfig::round_robin(), &mut NullSink),
        Err(VmError::Trap { .. })
    ));
}

#[test]
fn unlock_without_ownership_traps() {
    let mut mb = ModuleBuilder::new("badunlock");
    let mu = mb.global("mu", 1);
    mb.entry("main", |f| {
        f.unlock(mu.at(0));
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    assert!(matches!(
        run_module(&m, VmConfig::round_robin(), &mut NullSink),
        Err(VmError::Trap { .. })
    ));
}

#[test]
fn exit_terminates_all_threads() {
    let mut mb = ModuleBuilder::new("exit");
    let spinner = {
        let g = mb.global("g", 1);
        mb.function("spinner", 1, |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(g.at(0));
            f.branch(v, done, head);
            f.switch_to(done);
            f.ret(None);
        })
    };
    mb.entry("main", |f| {
        let _t = f.spawn(spinner, 0);
        f.output(1);
        f.exit();
    });
    let m = mb.finish().unwrap();
    let (summary, _) = run(&m, VmConfig::round_robin());
    assert_eq!(summary.outputs, vec![(0, 1)]);
}

#[test]
fn identical_seeds_produce_identical_event_streams() {
    let m = spin_handoff_module();
    let (_, e1) = run(&m, VmConfig::random(12345));
    let (_, e2) = run(&m, VmConfig::random(12345));
    assert_eq!(e1, e2);
    let (_, e3) = run(&m, VmConfig::random(54321));
    // Streams from different seeds usually differ (not a hard guarantee,
    // but these two do for this program).
    assert_ne!(e1, e3);
}

#[test]
fn round_robin_is_reproducible() {
    let m = locked_counter_module(5);
    let (_, e1) = run(&m, VmConfig::round_robin());
    let (_, e2) = run(&m, VmConfig::round_robin());
    assert_eq!(e1, e2);
}

#[test]
fn events_are_per_thread_program_ordered() {
    let m = locked_counter_module(3);
    let (_, events) = run(&m, VmConfig::random(3));
    // Within one thread, event pcs of consecutive same-block memory events
    // never decrease in instruction index unless the block changed (loop).
    // Weaker sanity: Spawn of child precedes any event of that child.
    for child in [1u32, 2u32] {
        let spawn_pos = events
            .iter()
            .position(|e| matches!(e, Event::Spawn { child: c, .. } if *c == child))
            .expect("spawn");
        let first_child_event = events.iter().position(|e| e.tid() == child);
        if let Some(p) = first_child_event {
            assert!(spawn_pos < p, "child {child} acts only after spawn");
        }
    }
}

#[test]
fn run_summary_counts_threads_and_memory() {
    let m = locked_counter_module(1);
    let (summary, _) = run(&m, VmConfig::round_robin());
    assert_eq!(summary.threads_created, 3);
    assert_eq!(summary.memory_words, 2); // mu + counter
    assert!(summary.steps > 0);
}
