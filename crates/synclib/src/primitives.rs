//! The spin-based synchronization primitives, built as TIR functions.
//!
//! Every blocking primitive bottoms out in a **pure spinning read loop**
//! (a self-loop whose condition is a memory load), with the state change
//! performed by CAS/RMW *outside* that loop — the exact shape the paper's
//! instrumentation phase detects. See the crate docs for object layouts.

use spinrace_tir::{AddrExpr, FuncId, Function, FunctionBuilder, MemOrder, Operand, Reg, RmwOp};
use std::sync::OnceLock;

/// The function ids of the spin library inside a lowered module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinLib {
    /// `spin_mutex_lock(p)` — TTAS acquire.
    pub mutex_lock: FuncId,
    /// `spin_mutex_unlock(p)` — plain store release.
    pub mutex_unlock: FuncId,
    /// `spin_cond_signal(c)` — sequence bump.
    pub cond_signal: FuncId,
    /// `spin_cond_broadcast(c)` — sequence bump (wakes all by value change).
    pub cond_broadcast: FuncId,
    /// `spin_cond_wait(c, m)` — release, spin on sequence, re-acquire.
    pub cond_wait: FuncId,
    /// `spin_barrier_init(b, n)`.
    pub barrier_init: FuncId,
    /// `spin_barrier_wait(b)` — generation barrier.
    pub barrier_wait: FuncId,
    /// `spin_sem_init(s, v)`.
    pub sem_init: FuncId,
    /// `spin_sem_wait(s)` — spin until positive, CAS decrement.
    pub sem_wait: FuncId,
    /// `spin_sem_post(s)` — RMW increment.
    pub sem_post: FuncId,
}

/// Flavour of the generated library.
///
/// `Textbook` primitives all bottom out in clean, detectable spinning read
/// loops. `Obscure` models *real* library internals the paper describes as
/// undetectable ("function pointers for condition evaluation and obscure
/// implementation ... do not match the spin patterns"): its condition
/// variable evaluates the wait condition through a deep pure-call chain
/// (inflating the loop past any realistic window) and signals with a
/// non-atomic read-increment-write, so the sequence word never gets
/// promoted — execution semantics are unchanged, but the detector cannot
/// recover the happens-before edges, which is exactly why the paper's
/// `nolib` column regresses on condition-variable-heavy PARSEC programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LibStyle {
    /// Every wait loop matches the spin idiom (fully detectable).
    #[default]
    Textbook,
    /// Condition-variable internals dodge the spin patterns.
    Obscure,
}

impl SpinLib {
    /// Ids when the library is appended after `existing` functions.
    /// (`Obscure` appends two extra helper functions after the ten
    /// primitives.)
    pub fn at_offset(existing: usize) -> SpinLib {
        let f = |i: usize| FuncId((existing + i) as u32);
        SpinLib {
            mutex_lock: f(0),
            mutex_unlock: f(1),
            cond_signal: f(2),
            cond_broadcast: f(3),
            cond_wait: f(4),
            barrier_init: f(5),
            barrier_wait: f(6),
            sem_init: f(7),
            sem_wait: f(8),
            sem_post: f(9),
        }
    }

    /// Build the library functions, in id order.
    pub(crate) fn build_functions(&self, style: LibStyle) -> Vec<Function> {
        match style {
            LibStyle::Textbook => vec![
                build_mutex_lock(),
                build_mutex_unlock(),
                build_cond_signal("spin_cond_signal"),
                build_cond_signal("spin_cond_broadcast"),
                build_cond_wait(self),
                build_barrier_init(),
                build_barrier_wait(),
                build_sem_init(),
                build_sem_wait(),
                build_sem_post(),
            ],
            LibStyle::Obscure => {
                // Helper ids follow the ten primitives.
                let check_outer = FuncId(self.sem_post.0 + 1);
                let check_inner = FuncId(self.sem_post.0 + 2);
                vec![
                    build_mutex_lock(),
                    build_mutex_unlock(),
                    build_obscure_signal("spin_cond_signal"),
                    build_obscure_signal("spin_cond_broadcast"),
                    build_obscure_cond_wait(self, check_outer),
                    build_barrier_init(),
                    build_barrier_wait(),
                    build_sem_init(),
                    build_sem_wait(),
                    build_sem_post(),
                    build_obscure_check_outer(check_inner),
                    build_obscure_check_inner(),
                ]
            }
        }
    }
}

/// The library functions of `style` at offset 0, in id order: their
/// `Call` targets are ids into this slice. Built once per style per
/// process; lowering splices a copy into each module with every target
/// moved up by the module's function count.
pub fn library_functions(style: LibStyle) -> &'static [Function] {
    static TEXTBOOK: OnceLock<Vec<Function>> = OnceLock::new();
    static OBSCURE: OnceLock<Vec<Function>> = OnceLock::new();
    let cell = match style {
        LibStyle::Textbook => &TEXTBOOK,
        LibStyle::Obscure => &OBSCURE,
    };
    cell.get_or_init(|| SpinLib::at_offset(0).build_functions(style))
}

fn based(p: Reg, disp: i64) -> AddrExpr {
    AddrExpr::Based { base: p, disp }
}

fn finish(fb: FunctionBuilder) -> Function {
    let (f, strings) = fb.finish_standalone().expect("synclib function");
    assert!(
        strings.is_empty(),
        "synclib functions use no assert strings"
    );
    f
}

/// Test-and-test-and-set lock:
/// ```text
///   test: v = load [p]           ; pure spinning read loop (self-loop)
///         branch v ? test : try
///   try:  old = cas [p] 0 -> 1
///         branch old ? test : done
/// ```
fn build_mutex_lock() -> Function {
    let mut f = FunctionBuilder::standalone("spin_mutex_lock", 1);
    let p = f.param(0);
    let test = f.new_block();
    let try_b = f.new_block();
    let done = f.new_block();
    f.jump(test);
    f.switch_to(test);
    let v = f.load(based(p, 0));
    f.branch(v, test, try_b);
    f.switch_to(try_b);
    let old = f.cas(based(p, 0), 0, 1, MemOrder::AcqRel);
    f.branch(old, test, done);
    f.switch_to(done);
    f.ret(None);
    finish(f)
}

/// Unlock: plain store of 0, as x86 compilers emit (`mov [p], 0`).
fn build_mutex_unlock() -> Function {
    let mut f = FunctionBuilder::standalone("spin_mutex_unlock", 1);
    let p = f.param(0);
    f.store(based(p, 0), 0);
    f.ret(None);
    finish(f)
}

/// Signal and broadcast both bump the sequence word; waiters spin on the
/// value changing, so one bump releases every current waiter.
fn build_cond_signal(name: &str) -> Function {
    let mut f = FunctionBuilder::standalone(name, 1);
    let c = f.param(0);
    f.rmw(RmwOp::Add, based(c, 0), 1, MemOrder::SeqCst);
    f.ret(None);
    finish(f)
}

/// Sequence-number wait: capture seq under the mutex, release, spin until
/// the sequence changes, re-acquire.
fn build_cond_wait(lib: &SpinLib) -> Function {
    let mut f = FunctionBuilder::standalone("spin_cond_wait", 2);
    let c = f.param(0);
    let m = f.param(1);
    let spin = f.new_block();
    let reacq = f.new_block();
    let seq = f.load(based(c, 0));
    f.call_void(lib.mutex_unlock, &[Operand::Reg(m)]);
    f.jump(spin);
    f.switch_to(spin);
    let v = f.load(based(c, 0));
    let same = f.eq(v, seq);
    f.branch(same, spin, reacq);
    f.switch_to(reacq);
    f.call_void(lib.mutex_lock, &[Operand::Reg(m)]);
    f.ret(None);
    finish(f)
}

/// `[b] = parties, [b+1] = 0, [b+2] = 0`.
fn build_barrier_init() -> Function {
    let mut f = FunctionBuilder::standalone("spin_barrier_init", 2);
    let b = f.param(0);
    let n = f.param(1);
    f.store(based(b, 0), n);
    f.store(based(b, 1), 0);
    f.store(based(b, 2), 0);
    f.ret(None);
    finish(f)
}

/// Generation barrier:
/// ```text
///   gen   = load [b+2]
///   old   = rmw.add [b+1], 1
///   last? = (old + 1 == load [b])
///   last:  store [b+1] <- 0 ; rmw.add [b+2], 1
///   rest:  spin while load [b+2] == gen       ; pure spinning read loop
/// ```
/// The count reset precedes the generation bump, so next-round arrivals
/// (which can only exist after the bump) never race the reset.
fn build_barrier_wait() -> Function {
    let mut f = FunctionBuilder::standalone("spin_barrier_wait", 1);
    let b = f.param(0);
    let last_b = f.new_block();
    let spin = f.new_block();
    let done = f.new_block();
    let gen = f.load(based(b, 2));
    let old = f.rmw(RmwOp::Add, based(b, 1), 1, MemOrder::SeqCst);
    let parties = f.load(based(b, 0));
    let arrived = f.add(old, 1);
    let is_last = f.eq(arrived, parties);
    f.branch(is_last, last_b, spin);
    f.switch_to(last_b);
    f.store(based(b, 1), 0);
    f.rmw(RmwOp::Add, based(b, 2), 1, MemOrder::SeqCst);
    f.jump(done);
    f.switch_to(spin);
    let g2 = f.load(based(b, 2));
    let same = f.eq(g2, gen);
    f.branch(same, spin, done);
    f.switch_to(done);
    f.ret(None);
    finish(f)
}

fn build_sem_init() -> Function {
    let mut f = FunctionBuilder::standalone("spin_sem_init", 2);
    let s = f.param(0);
    let v = f.param(1);
    f.store(based(s, 0), v);
    f.ret(None);
    finish(f)
}

/// Spin until the count is positive, then CAS-decrement (retry on races).
fn build_sem_wait() -> Function {
    let mut f = FunctionBuilder::standalone("spin_sem_wait", 1);
    let s = f.param(0);
    let spin = f.new_block();
    let try_b = f.new_block();
    let done = f.new_block();
    f.jump(spin);
    f.switch_to(spin);
    let v = f.load(based(s, 0));
    let empty = f.bin(spinrace_tir::BinOp::Le, v, 0);
    f.branch(empty, spin, try_b);
    f.switch_to(try_b);
    let vm1 = f.sub(v, 1);
    let old = f.cas(based(s, 0), v, vm1, MemOrder::AcqRel);
    let ok = f.eq(old, v);
    f.branch(ok, done, spin);
    f.switch_to(done);
    f.ret(None);
    finish(f)
}

fn build_sem_post() -> Function {
    let mut f = FunctionBuilder::standalone("spin_sem_post", 1);
    let s = f.param(0);
    f.rmw(RmwOp::Add, based(s, 0), 1, MemOrder::SeqCst);
    f.ret(None);
    finish(f)
}

// ---- the obscure (realistic, undetectable) condvar internals ----

/// Non-atomic sequence bump: `load; add; store`. Correct when signalling
/// under the usual mutex convention, but — crucially — not an atomic RMW,
/// so the detector never promotes the sequence word.
fn build_obscure_signal(name: &str) -> Function {
    let mut f = FunctionBuilder::standalone(name, 1);
    let c = f.param(0);
    let v = f.load(based(c, 0));
    let v2 = f.add(v, 1);
    f.store(based(c, 0), v2);
    f.ret(None);
    finish(f)
}

/// Wait whose condition evaluation goes through a two-level pure call
/// chain. The chain's blocks inflate the loop weight far past the paper's
/// 7-block window, so the loop is never classified as a spinning read
/// loop (the "obscure implementation" failure mode).
fn build_obscure_cond_wait(lib: &SpinLib, check_outer: FuncId) -> Function {
    let mut f = FunctionBuilder::standalone("spin_cond_wait", 2);
    let c = f.param(0);
    let m = f.param(1);
    let spin = f.new_block();
    let reacq = f.new_block();
    let seq = f.load(based(c, 0));
    f.call_void(lib.mutex_unlock, &[Operand::Reg(m)]);
    f.jump(spin);
    f.switch_to(spin);
    let v = f.call(check_outer, &[Operand::Reg(c)]);
    let same = f.eq(v, seq);
    f.branch(same, spin, reacq);
    f.switch_to(reacq);
    f.call_void(lib.mutex_lock, &[Operand::Reg(m)]);
    f.ret(None);
    finish(f)
}

/// Outer condition evaluator: pads blocks, delegates to the inner reader.
fn build_obscure_check_outer(check_inner: FuncId) -> Function {
    let mut f = FunctionBuilder::standalone("cv_check_outer", 1);
    let c = f.param(0);
    let mut prev = f.current();
    for _ in 0..4 {
        let nb = f.new_block();
        f.switch_to(prev);
        f.nop();
        f.jump(nb);
        prev = nb;
        f.switch_to(nb);
    }
    let v = f.call(check_inner, &[Operand::Reg(c)]);
    f.ret(Some(Operand::Reg(v)));
    finish(f)
}

/// Inner condition evaluator: more padding plus the actual load.
fn build_obscure_check_inner() -> Function {
    let mut f = FunctionBuilder::standalone("cv_check_inner", 1);
    let c = f.param(0);
    let mut prev = f.current();
    for _ in 0..4 {
        let nb = f.new_block();
        f.switch_to(prev);
        f.nop();
        f.jump(nb);
        prev = nb;
        f.switch_to(nb);
    }
    let v = f.load(based(c, 0));
    f.ret(Some(Operand::Reg(v)));
    finish(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_ten_functions_in_id_order() {
        let lib = SpinLib::at_offset(3);
        assert_eq!(lib.mutex_lock, FuncId(3));
        assert_eq!(lib.sem_post, FuncId(12));
        let funcs = lib.build_functions(LibStyle::Textbook);
        assert_eq!(funcs.len(), 10);
        assert_eq!(funcs[0].name, "spin_mutex_lock");
        assert_eq!(funcs[9].name, "spin_sem_post");
    }

    #[test]
    fn obscure_library_adds_helper_functions() {
        let lib = SpinLib::at_offset(0);
        let funcs = lib.build_functions(LibStyle::Obscure);
        assert_eq!(funcs.len(), 12);
        assert_eq!(funcs[10].name, "cv_check_outer");
        assert_eq!(funcs[11].name, "cv_check_inner");
        // The obscure signal has no RMW.
        let has_rmw = funcs[2]
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .any(|i| matches!(i, spinrace_tir::Instr::Rmw { .. }));
        assert!(!has_rmw, "obscure signal must be a plain load/add/store");
    }

    #[test]
    fn lock_has_ttas_shape() {
        let f = build_mutex_lock();
        // 4 blocks: entry, test, try, done
        assert_eq!(f.blocks.len(), 4);
        // exactly one CAS
        let cas_count: usize = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, spinrace_tir::Instr::Cas { .. }))
            .count();
        assert_eq!(cas_count, 1);
    }

    #[test]
    fn cond_wait_calls_unlock_then_lock() {
        let lib = SpinLib::at_offset(0);
        let f = build_cond_wait(&lib);
        let calls: Vec<FuncId> = f
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter_map(|i| i.callee())
            .collect();
        assert_eq!(calls, vec![lib.mutex_unlock, lib.mutex_lock]);
    }
}
