//! VM edge cases: nested spin instances, spin exit via return, scaled
//! addressing, thread limits, and scheduler starvation-freedom.

use spinrace_spinfind::SpinFinder;
use spinrace_tir::{AddrExpr, Module, ModuleBuilder, Operand};
use spinrace_vm::{run_module, Event, NullSink, RecordingSink, VmConfig, VmError};

fn run_instrumented(m: &Module, cfg: VmConfig) -> (spinrace_vm::RunSummary, Vec<Event>) {
    let mut m = m.clone();
    let _ = SpinFinder::default().instrument(&mut m);
    let mut sink = RecordingSink::default();
    let s = run_module(&m, cfg, &mut sink).expect("run");
    (s, sink.events)
}

/// A spin loop nested inside a non-spin outer loop: instances are pushed
/// and popped per outer iteration, with balanced enter/exit counts.
#[test]
fn spin_instances_balance_inside_outer_loops() {
    let mut mb = ModuleBuilder::new("nested");
    let flags = mb.global("flags", 4);
    let waiter = mb.function("waiter", 1, |f| {
        // for i in 0..4 { spin on flags[i] }
        let check = f.new_block();
        let body = f.new_block();
        let spin = f.new_block();
        let after_spin = f.new_block();
        let done = f.new_block();
        let i = f.const_(0);
        f.jump(check);
        f.switch_to(check);
        let c = f.lt(i, 4);
        f.branch(c, body, done);
        f.switch_to(body);
        f.jump(spin);
        f.switch_to(spin);
        let v = f.load(flags.idx(i));
        f.branch(v, after_spin, spin);
        f.switch_to(after_spin);
        let i2 = f.add(i, 1);
        f.mov(i, i2);
        f.jump(check);
        f.switch_to(done);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        for i in 0..4 {
            f.store(flags.at(i), 1);
        }
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (summary, events) = run_instrumented(&m, VmConfig::round_robin());
    assert_eq!(summary.spin_enters, summary.spin_exits);
    assert!(summary.spin_enters >= 4, "one instance per outer iteration");
    // Each SpinExit's final read targets the flag of that iteration.
    let exits: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SpinExit { .. }))
        .collect();
    assert!(exits.len() >= 4);
}

/// A function whose entry block is itself a spin header (no preamble
/// jump): the instance must be tracked from frame creation.
#[test]
fn entry_block_spin_header_is_tracked() {
    let mut mb = ModuleBuilder::new("entry-spin");
    let flag = mb.global("flag", 1);
    let waiter = mb.function("waiter", 1, |f| {
        // block 0 is the loop header: load; branch back to block 0.
        let done = f.new_block();
        let v = f.load(flag.at(0));
        f.branch(v, done, spinrace_tir::BlockId(0));
        f.switch_to(done);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t = f.spawn(waiter, 0);
        f.store(flag.at(0), 1);
        f.join(t);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (summary, _) = run_instrumented(&m, VmConfig::round_robin());
    assert!(summary.spin_enters >= 1);
    assert_eq!(summary.spin_enters, summary.spin_exits);
}

/// `main`'s own entry block is a spin header: the run opens with its
/// `SpinEnter`, so the instance's exit is balanced.
#[test]
fn main_entry_block_spin_header_is_entered() {
    let mut mb = ModuleBuilder::new("main-entry-spin");
    let flag = mb.global_init("flag", 1, vec![1]);
    mb.entry("main", |f| {
        let done = f.new_block();
        let v = f.load(flag.at(0));
        f.branch(v, done, spinrace_tir::BlockId(0));
        f.switch_to(done);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let (summary, events) = run_instrumented(&m, VmConfig::round_robin());
    assert_eq!((summary.spin_enters, summary.spin_exits), (1, 1));
    let spin_events: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SpinEnter { .. } | Event::SpinExit { .. }))
        .collect();
    assert!(matches!(
        spin_events[..],
        [
            Event::SpinEnter { tid: 0, .. },
            Event::SpinExit { tid: 0, .. }
        ]
    ));
}

/// Scaled and displaced addressing round-trips through memory.
#[test]
fn scaled_indexed_addressing() {
    let mut mb = ModuleBuilder::new("scaled");
    let grid = mb.global("grid", 16);
    mb.entry("main", |f| {
        let row = f.const_(2);
        // grid[row*4 + 1] = 99
        f.store(grid.idx_scaled(row, 4, 1), 99);
        let v = f.load(grid.at(9));
        f.output(v);
        // pointer-based with index: p[row*2] via BasedIndexed
        let p = f.addr_of(grid, 0);
        let two = f.const_(2);
        f.store(
            AddrExpr::BasedIndexed {
                base: p,
                index: row,
                scale: 2,
                disp: 0,
            },
            Operand::Reg(two),
        );
        let w = f.load(grid.at(4));
        f.output(w);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let mut sink = NullSink;
    let s = run_module(&m, VmConfig::round_robin(), &mut sink).unwrap();
    assert_eq!(
        s.outputs.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
        vec![99, 2]
    );
}

/// Exceeding the thread limit is a clean error, not a panic.
#[test]
fn thread_limit_is_enforced() {
    let mut mb = ModuleBuilder::new("forkbomb");
    let worker = mb.function("w", 1, |f| {
        f.ret(None);
    });
    mb.entry("main", |f| {
        for _ in 0..40 {
            let t = f.spawn(worker, 0);
            f.join(t);
        }
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let cfg = VmConfig {
        max_threads: 8,
        ..VmConfig::round_robin()
    };
    match run_module(&m, cfg, &mut NullSink) {
        Err(VmError::TooManyThreads { limit: 8 }) => {}
        other => panic!("expected TooManyThreads, got {other:?}"),
    }
}

/// Round-robin never starves the counterpart writer: a chain of eight
/// dependent spin handoffs completes well within the step budget.
#[test]
fn spin_chains_make_progress_under_round_robin() {
    let mut mb = ModuleBuilder::new("chain");
    let flags = mb.global("flags", 9);
    let relay = mb.function("relay", 1, |f| {
        let id = f.param(0);
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flags.idx(id));
        f.branch(v, done, head);
        f.switch_to(done);
        let next = f.add(id, 1);
        f.store(flags.idx(next), 1);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let tids: Vec<_> = (0..8).map(|i| f.spawn(relay, i)).collect();
        f.store(flags.at(0), 1);
        for t in tids {
            f.join(t);
        }
        let v = f.load(flags.at(8));
        f.output(v);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    for cfg in [VmConfig::round_robin(), VmConfig::random(9)] {
        let mut sink = NullSink;
        let s = run_module(&m, cfg, &mut sink).unwrap();
        assert_eq!(s.outputs, vec![(0, 1)]);
        assert!(s.steps < 100_000, "no pathological spinning: {}", s.steps);
    }
}

/// Stack hashes distinguish the same library code called from different
/// sites (the Helgrind-style context model).
#[test]
fn stack_hashes_distinguish_call_sites() {
    let mut mb = ModuleBuilder::new("stacks");
    let g = mb.global("g", 1);
    let helper = mb.function("helper", 0, |f| {
        let v = f.load(g.at(0));
        f.ret(Some(Operand::Reg(v)));
    });
    mb.entry("main", |f| {
        let a = f.call(helper, &[]);
        let b = f.call(helper, &[]);
        let s = f.add(a, b);
        f.output(s);
        f.ret(None);
    });
    let m = mb.finish().unwrap();
    let mut sink = RecordingSink::default();
    run_module(&m, VmConfig::round_robin(), &mut sink).unwrap();
    let stacks: Vec<u64> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Read { stack, .. } => Some(*stack),
            _ => None,
        })
        .collect();
    assert_eq!(stacks.len(), 2);
    assert_ne!(stacks[0], stacks[1], "distinct call sites, distinct stacks");
}
