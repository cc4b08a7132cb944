//! The interpreter: executes a module one instruction at a time, picking
//! the next thread deterministically, streaming events to an [`EventSink`].

use crate::error::VmError;
use crate::events::{Event, EventSink, ThreadId};
use crate::machine::{Frame, Thread, ThreadState};
use crate::memory::Memory;
use crate::sched::{Picker, SchedulerKind};
use crate::spin_rt::SpinRuntime;
use crate::sync::{BarrierState, SyncState};
use serde::{Deserialize, Serialize};
use spinrace_tir::{
    AddrExpr, Atomicity, BinOp, BlockId, Instr, MemOrder, Module, Operand, Pc, Reg, RmwOp,
    Terminator, UnOp,
};

/// Run configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Scheduling policy.
    pub sched: SchedulerKind,
    /// Abort with [`VmError::StepLimit`] after this many instructions.
    pub max_steps: u64,
    /// Maximum live + finished threads.
    pub max_threads: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            sched: SchedulerKind::RoundRobin,
            max_steps: 5_000_000,
            max_threads: 128,
        }
    }
}

impl VmConfig {
    /// Round-robin configuration (the fully deterministic default).
    pub fn round_robin() -> Self {
        Self::default()
    }
    /// Seeded-random configuration.
    pub fn random(seed: u64) -> Self {
        VmConfig {
            sched: SchedulerKind::Random(seed),
            ..Default::default()
        }
    }
}

/// Statistics of a completed run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Executed instructions (terminators included).
    pub steps: u64,
    /// `Output` values in emission order.
    pub outputs: Vec<(ThreadId, i64)>,
    /// Total threads ever created (main included).
    pub threads_created: usize,
    /// Spin-loop instances entered.
    pub spin_enters: u64,
    /// Spin-loop instances exited.
    pub spin_exits: u64,
    /// Final memory footprint in words (globals + heap).
    pub memory_words: usize,
}

/// [`Vm::run`] asks the sink whether it has halted once every
/// `HALT_POLL_MASK + 1` steps.
const HALT_POLL_MASK: u64 = 0xFFF;

/// The halt poll, kept out of line: the step loop then carries only the
/// masked compare in front of it.
#[cold]
#[inline(never)]
fn poll_halted(sink: &dyn EventSink) -> bool {
    sink.halted()
}

/// The virtual machine for one run.
pub struct Vm<'m> {
    m: &'m Module,
    cfg: VmConfig,
    mem: Memory,
    sync: SyncState,
    threads: Vec<Thread>,
    global_base: Vec<u64>,
    spin_rt: SpinRuntime,
    outputs: Vec<(ThreadId, i64)>,
    steps: u64,
    exited: bool,
}

/// Convenience: run `m` to completion with `cfg`, streaming into `sink`.
pub fn run_module(
    m: &Module,
    cfg: VmConfig,
    sink: &mut dyn EventSink,
) -> Result<RunSummary, VmError> {
    Vm::new(m, cfg).run(sink)
}

impl<'m> Vm<'m> {
    /// Create a VM with the main thread ready at the module entry.
    pub fn new(m: &'m Module, cfg: VmConfig) -> Vm<'m> {
        let global_base = (0..m.globals.len())
            .map(|g| m.global_base(spinrace_tir::GlobalId(g as u32)))
            .collect();
        let root = Frame::new(m.entry, m.function(m.entry).num_regs, None);
        let threads = vec![Thread::new(0, root)];
        Vm {
            m,
            cfg,
            mem: Memory::new(m),
            sync: SyncState::default(),
            threads,
            global_base,
            spin_rt: SpinRuntime::new(m),
            outputs: Vec::new(),
            steps: 0,
            exited: false,
        }
    }

    /// Execute until all threads finish (or an error occurs), or until
    /// the sink reports [`EventSink::halted`]: that is polled every 4096
    /// steps, and a halted run returns the summary of the steps it took.
    ///
    /// Each step runs one instruction of a thread picked straight from
    /// the thread table: under [`SchedulerKind::RoundRobin`] the first
    /// runnable thread after the last pick, wrapping; under
    /// [`SchedulerKind::Random`] the `k`-th of the `n` runnable threads
    /// for one seeded draw of `k` in `0..n`. No runnable thread means the
    /// run is finished, or else deadlocked.
    pub fn run(mut self, sink: &mut dyn EventSink) -> Result<RunSummary, VmError> {
        // The entry block could itself be a spin header.
        self.spin_rt
            .on_block_entry(0, &mut self.threads[0].frames[0], BlockId(0), sink);
        let mut picker = Picker::new(self.cfg.sched);
        while !self.exited {
            let Some(t) = picker.pick(&self.threads) else {
                if self
                    .threads
                    .iter()
                    .all(|t| t.state == ThreadState::Finished)
                {
                    break;
                }
                return Err(VmError::Deadlock {
                    blocked: self
                        .threads
                        .iter()
                        .filter(|t| t.state != ThreadState::Finished)
                        .map(|t| (t.id, t.state.describe()))
                        .collect(),
                });
            };
            if self.steps >= self.cfg.max_steps {
                return Err(VmError::StepLimit { steps: self.steps });
            }
            if self.steps & HALT_POLL_MASK == 0 && poll_halted(sink) {
                break;
            }
            self.step(t, sink)?;
            self.steps += 1;
        }
        Ok(RunSummary {
            steps: self.steps,
            outputs: self.outputs,
            threads_created: self.threads.len(),
            spin_enters: self.spin_rt.enters,
            spin_exits: self.spin_rt.exits,
            memory_words: self.mem.words(),
        })
    }

    // ---- small accessors ----

    fn val(&self, t: usize, o: Operand) -> i64 {
        match o {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.threads[t].frame().regs[r.0 as usize],
        }
    }

    fn set_reg(&mut self, t: usize, r: Reg, v: i64) {
        self.threads[t].frame_mut().regs[r.0 as usize] = v;
    }

    fn addr(&self, t: usize, a: &AddrExpr) -> u64 {
        let reg = |r: Reg| self.threads[t].frame().regs[r.0 as usize];
        let wrap = |base: u64, off: i64| base.wrapping_add(off as u64);
        match a {
            AddrExpr::Global { global, disp } => wrap(self.global_base[global.0 as usize], *disp),
            AddrExpr::GlobalIndexed {
                global,
                index,
                scale,
                disp,
            } => wrap(
                self.global_base[global.0 as usize],
                reg(*index).wrapping_mul(*scale).wrapping_add(*disp),
            ),
            AddrExpr::Based { base, disp } => wrap(reg(*base) as u64, *disp),
            AddrExpr::BasedIndexed {
                base,
                index,
                scale,
                disp,
            } => wrap(
                reg(*base) as u64,
                reg(*index).wrapping_mul(*scale).wrapping_add(*disp),
            ),
        }
    }

    fn pc_of(&self, t: usize) -> Pc {
        self.threads[t].frame().pc()
    }

    /// Helgrind-style stack context: a hash of the call chain. Caller
    /// frames contribute their call-site position (their `ip` points just
    /// past the call), the leaf contributes its function id, so the same
    /// library code reached from different call sites yields different
    /// contexts.
    ///
    /// O(1): every frame carries the fold over its callers (`Frame::ctx`,
    /// extended at `Call`/`Spawn` time — caller positions are frozen while
    /// a callee runs), so only the leaf's contribution remains. Memory
    /// events are the VM's hottest path; the old per-event walk over the
    /// frame stack was its dominant cost on call-heavy programs.
    fn stack_of(&self, t: usize) -> u64 {
        let f = self.threads[t].frame();
        (f.ctx ^ f.func.0 as u64).wrapping_mul(crate::machine::STACK_HASH_PRIME)
    }

    /// The call-chain prefix for a frame called from the current top frame
    /// of `t` (whose `ip` must already point past the call instruction).
    fn callee_ctx(&self, t: usize) -> u64 {
        let caller = self.threads[t].frame();
        let v = ((caller.func.0 as u64) << 32) | ((caller.block.0 as u64) << 16) | caller.ip as u64;
        (caller.ctx ^ v).wrapping_mul(crate::machine::STACK_HASH_PRIME)
    }

    fn advance(&mut self, t: usize) {
        self.threads[t].frame_mut().ip += 1;
    }

    fn trap(&self, t: usize, message: impl Into<String>) -> VmError {
        VmError::Trap {
            tid: self.threads[t].id,
            pc: self.pc_of(t),
            message: message.into(),
        }
    }

    fn goto(&mut self, t: usize, block: BlockId, sink: &mut dyn EventSink) {
        let thread = &mut self.threads[t];
        let frame = thread.frames.last_mut().expect("frame");
        frame.block = block;
        frame.ip = 0;
        self.spin_rt.on_block_entry(thread.id, frame, block, sink);
    }

    // ---- the interpreter ----

    fn step(&mut self, t: usize, sink: &mut dyn EventSink) -> Result<(), VmError> {
        let m = self.m; // &'m — independent of &mut self below
        let (func_id, block_id, ip) = {
            let f = self.threads[t].frame();
            (f.func, f.block, f.ip)
        };
        let block = m.function(func_id).block(block_id);
        if (ip as usize) < block.instrs.len() {
            let instr: &'m Instr = &block.instrs[ip as usize];
            self.exec_instr(t, instr, sink)
        } else {
            let term: &'m Terminator = &block.term;
            self.exec_term(t, term, sink)
        }
    }

    fn exec_term(
        &mut self,
        t: usize,
        term: &Terminator,
        sink: &mut dyn EventSink,
    ) -> Result<(), VmError> {
        match term {
            Terminator::Jump(b) => {
                self.goto(t, *b, sink);
                Ok(())
            }
            Terminator::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let v = self.val(t, *cond);
                self.goto(t, if v != 0 { *if_true } else { *if_false }, sink);
                Ok(())
            }
            Terminator::Ret(v) => {
                let value = v.map(|o| self.val(t, o));
                self.do_ret(t, value, sink);
                Ok(())
            }
            Terminator::Exit => {
                self.exited = true;
                Ok(())
            }
        }
    }

    fn do_ret(&mut self, t: usize, value: Option<i64>, sink: &mut dyn EventSink) {
        let tid = self.threads[t].id;
        let mut frame = self.threads[t].frames.pop().expect("frame");
        self.spin_rt.drain_frame(tid, &mut frame, sink);
        if self.threads[t].frames.is_empty() {
            self.threads[t].state = ThreadState::Finished;
            sink.on_event(&Event::ThreadEnd { tid });
            self.wake_joiners(tid, sink);
        } else if let (Some(dst), Some(v)) = (frame.ret_to, value) {
            self.set_reg(t, dst, v);
        }
    }

    fn wake_joiners(&mut self, ended: ThreadId, sink: &mut dyn EventSink) {
        for w in 0..self.threads.len() {
            if self.threads[w].state == (ThreadState::BlockedJoin { target: ended }) {
                let pc = self.pc_of(w);
                let parent = self.threads[w].id;
                self.threads[w].state = ThreadState::Runnable;
                self.advance(w);
                sink.on_event(&Event::Join {
                    parent,
                    child: ended,
                    pc,
                });
            }
        }
    }

    /// Release `mutex` owned by `t` (unlock or the release half of a
    /// condition wait), handing off to the first waiter if any.
    fn release_mutex(
        &mut self,
        t: usize,
        mutex: u64,
        sink: &mut dyn EventSink,
    ) -> Result<(), VmError> {
        let tid = self.threads[t].id;
        let pc = self.pc_of(t);
        let owner = self.sync.mutex(mutex).owner;
        if owner != Some(tid) {
            return Err(VmError::Trap {
                tid,
                pc,
                message: format!("unlock of mutex {mutex:#x} not owned"),
            });
        }
        sink.on_event(&Event::MutexUnlock { tid, mutex, pc });
        let next = {
            let mu = self.sync.mutex(mutex);
            match mu.waiters.pop_front() {
                Some(w) => {
                    mu.owner = Some(w);
                    Some(w)
                }
                None => {
                    mu.owner = None;
                    None
                }
            }
        };
        if let Some(w) = next {
            self.grant_mutex(w as usize, mutex, sink);
        }
        Ok(())
    }

    /// `w` (blocked on `mutex`) now owns it: wake, emit, advance.
    fn grant_mutex(&mut self, w: usize, mutex: u64, sink: &mut dyn EventSink) {
        let wtid = self.threads[w].id;
        let pc = self.pc_of(w);
        let for_cond = match self.threads[w].state {
            ThreadState::BlockedMutex { for_cond, .. } => for_cond,
            ref s => unreachable!("grant_mutex on thread in state {s:?}"),
        };
        self.threads[w].state = ThreadState::Runnable;
        self.advance(w);
        sink.on_event(&Event::MutexLock {
            tid: wtid,
            mutex,
            pc,
        });
        if let Some(cv) = for_cond {
            sink.on_event(&Event::CondWaitReturn {
                tid: wtid,
                cv,
                mutex,
                pc,
            });
        }
    }

    /// A condvar waiter was signalled: try to re-acquire its mutex.
    fn wake_cond_waiter(&mut self, w: usize, sink: &mut dyn EventSink) {
        let (cv, mutex) = match self.threads[w].state {
            ThreadState::BlockedCond { cv, mutex } => (cv, mutex),
            ref s => unreachable!("wake_cond_waiter on state {s:?}"),
        };
        let tid = self.threads[w].id;
        let acquired = {
            let mu = self.sync.mutex(mutex);
            if mu.owner.is_none() {
                mu.owner = Some(tid);
                true
            } else {
                mu.waiters.push_back(tid);
                false
            }
        };
        self.threads[w].state = ThreadState::BlockedMutex {
            mutex,
            for_cond: Some(cv),
        };
        if acquired {
            self.grant_mutex(w, mutex, sink);
        }
    }

    fn exec_instr(
        &mut self,
        t: usize,
        instr: &Instr,
        sink: &mut dyn EventSink,
    ) -> Result<(), VmError> {
        let tid = self.threads[t].id;
        let pc = self.pc_of(t);
        match instr {
            Instr::Const { dst, value } => {
                self.set_reg(t, *dst, *value);
                self.advance(t);
            }
            Instr::Mov { dst, src } => {
                let v = self.threads[t].frame().regs[src.0 as usize];
                self.set_reg(t, *dst, v);
                self.advance(t);
            }
            Instr::Bin { op, dst, a, b } => {
                let x = self.val(t, *a);
                let y = self.val(t, *b);
                let v = eval_bin(*op, x, y).map_err(|e| self.trap(t, e))?;
                self.set_reg(t, *dst, v);
                self.advance(t);
            }
            Instr::Un { op, dst, a } => {
                let x = self.val(t, *a);
                let v = match op {
                    UnOp::Not => (x == 0) as i64,
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::BitNot => !x,
                };
                self.set_reg(t, *dst, v);
                self.advance(t);
            }
            Instr::AddrOf { dst, global, disp } => {
                let a = self.global_base[global.0 as usize].wrapping_add(*disp as u64);
                self.set_reg(t, *dst, a as i64);
                self.advance(t);
            }
            Instr::Load { dst, addr, atomic } => {
                let a = self.addr(t, addr);
                let v = self.mem.read(a).map_err(|e| self.trap(t, e))?;
                let spin = if self.spin_rt.is_tagged(pc) {
                    match self.threads[t].innermost_spin() {
                        Some((fi, si)) => {
                            let spin_id = {
                                let th = &mut self.threads[t];
                                th.frames[fi].spins[si].reads.push((a, pc));
                                th.frames[fi].spins[si].loop_idx
                            };
                            Some(self.spin_rt.id(spin_id))
                        }
                        None => None,
                    }
                } else {
                    None
                };
                sink.on_event(&Event::Read {
                    tid,
                    addr: a,
                    value: v,
                    pc,
                    stack: self.stack_of(t),
                    atomic: order_of(*atomic),
                    spin,
                });
                self.set_reg(t, *dst, v);
                self.advance(t);
            }
            Instr::Store { src, addr, atomic } => {
                let a = self.addr(t, addr);
                let v = self.val(t, *src);
                self.mem.write(a, v).map_err(|e| self.trap(t, e))?;
                sink.on_event(&Event::Write {
                    tid,
                    addr: a,
                    value: v,
                    pc,
                    stack: self.stack_of(t),
                    atomic: order_of(*atomic),
                });
                self.advance(t);
            }
            Instr::Cas {
                dst,
                addr,
                expected,
                new,
                order,
            } => {
                let a = self.addr(t, addr);
                let old = self.mem.read(a).map_err(|e| self.trap(t, e))?;
                let exp = self.val(t, *expected);
                let newv = self.val(t, *new);
                if old == exp {
                    self.mem.write(a, newv).map_err(|e| self.trap(t, e))?;
                    sink.on_event(&Event::Update {
                        tid,
                        addr: a,
                        old,
                        new: newv,
                        pc,
                        stack: self.stack_of(t),
                        order: *order,
                    });
                } else {
                    sink.on_event(&Event::Read {
                        tid,
                        addr: a,
                        value: old,
                        pc,
                        stack: self.stack_of(t),
                        atomic: Some(*order),
                        spin: None,
                    });
                }
                self.set_reg(t, *dst, old);
                self.advance(t);
            }
            Instr::Rmw {
                op,
                dst,
                addr,
                src,
                order,
            } => {
                let a = self.addr(t, addr);
                let old = self.mem.read(a).map_err(|e| self.trap(t, e))?;
                let x = self.val(t, *src);
                let newv = match op {
                    RmwOp::Add => old.wrapping_add(x),
                    RmwOp::Sub => old.wrapping_sub(x),
                    RmwOp::And => old & x,
                    RmwOp::Or => old | x,
                    RmwOp::Xor => old ^ x,
                    RmwOp::Xchg => x,
                    RmwOp::Min => old.min(x),
                    RmwOp::Max => old.max(x),
                };
                self.mem.write(a, newv).map_err(|e| self.trap(t, e))?;
                sink.on_event(&Event::Update {
                    tid,
                    addr: a,
                    old,
                    new: newv,
                    pc,
                    stack: self.stack_of(t),
                    order: *order,
                });
                self.set_reg(t, *dst, old);
                self.advance(t);
            }
            Instr::Fence { order } => {
                sink.on_event(&Event::Fence {
                    tid,
                    order: *order,
                    pc,
                });
                self.advance(t);
            }
            Instr::Alloc { dst, words } => {
                let w = self.val(t, *words);
                if w < 0 {
                    return Err(self.trap(t, "negative allocation size"));
                }
                let base = self.mem.alloc(w as u64);
                self.set_reg(t, *dst, base as i64);
                self.advance(t);
            }

            // ---- library synchronization ----
            Instr::MutexLock { addr } => {
                let a = self.addr(t, addr);
                let owner = self.sync.mutex(a).owner;
                if owner == Some(tid) {
                    return Err(VmError::Trap {
                        tid,
                        pc,
                        message: format!("recursive lock of mutex {a:#x}"),
                    });
                }
                let acquired = {
                    let mu = self.sync.mutex(a);
                    if mu.owner.is_none() {
                        mu.owner = Some(tid);
                        true
                    } else {
                        mu.waiters.push_back(tid);
                        false
                    }
                };
                if acquired {
                    sink.on_event(&Event::MutexLock { tid, mutex: a, pc });
                    self.advance(t);
                } else {
                    self.threads[t].state = ThreadState::BlockedMutex {
                        mutex: a,
                        for_cond: None,
                    };
                }
            }
            Instr::MutexUnlock { addr } => {
                let a = self.addr(t, addr);
                self.release_mutex(t, a, sink)?;
                self.advance(t);
            }
            Instr::CondSignal { cv } => {
                let a = self.addr(t, cv);
                sink.on_event(&Event::CondSignal { tid, cv: a, pc });
                self.advance(t);
                if let Some(w) = self.sync.cond(a).waiters.pop_front() {
                    self.wake_cond_waiter(w as usize, sink);
                }
            }
            Instr::CondBroadcast { cv } => {
                let a = self.addr(t, cv);
                sink.on_event(&Event::CondBroadcast { tid, cv: a, pc });
                self.advance(t);
                let waiters: Vec<ThreadId> = self.sync.cond(a).waiters.drain(..).collect();
                for w in waiters {
                    self.wake_cond_waiter(w as usize, sink);
                }
            }
            Instr::CondWait { cv, mutex } => {
                let cva = self.addr(t, cv);
                let mua = self.addr(t, mutex);
                self.release_mutex(t, mua, sink)?;
                self.sync.cond(cva).waiters.push_back(tid);
                self.threads[t].state = ThreadState::BlockedCond {
                    cv: cva,
                    mutex: mua,
                };
                // ip not advanced: completion happens via grant_mutex.
            }
            Instr::BarrierInit { addr, count } => {
                let a = self.addr(t, addr);
                let n = self.val(t, *count);
                if n <= 0 {
                    return Err(self.trap(t, "barrier initialized with non-positive count"));
                }
                if let Some(b) = self.sync.barriers.get(&a) {
                    if !b.waiters.is_empty() {
                        return Err(self.trap(t, "barrier re-initialized while in use"));
                    }
                }
                self.sync.barriers.insert(
                    a,
                    BarrierState {
                        parties: n as u32,
                        arrived: 0,
                        gen: 0,
                        waiters: Vec::new(),
                    },
                );
                self.advance(t);
            }
            Instr::BarrierWait { addr } => {
                let a = self.addr(t, addr);
                let Some(bar) = self.sync.barrier(a) else {
                    return Err(VmError::Trap {
                        tid,
                        pc,
                        message: format!("wait on uninitialized barrier {a:#x}"),
                    });
                };
                let gen = bar.gen;
                bar.arrived += 1;
                sink.on_event(&Event::BarrierEnter {
                    tid,
                    barrier: a,
                    gen,
                    pc,
                });
                let trip = bar.arrived == bar.parties;
                if trip {
                    bar.gen += 1;
                    bar.arrived = 0;
                    let waiters = std::mem::take(&mut bar.waiters);
                    self.advance(t);
                    sink.on_event(&Event::BarrierLeave {
                        tid,
                        barrier: a,
                        gen,
                        pc,
                    });
                    for w in waiters {
                        let w = w as usize;
                        let wpc = self.pc_of(w);
                        let wtid = self.threads[w].id;
                        self.threads[w].state = ThreadState::Runnable;
                        self.advance(w);
                        sink.on_event(&Event::BarrierLeave {
                            tid: wtid,
                            barrier: a,
                            gen,
                            pc: wpc,
                        });
                    }
                } else {
                    bar.waiters.push(tid);
                    self.threads[t].state = ThreadState::BlockedBarrier { barrier: a, gen };
                }
            }
            Instr::SemInit { addr, value } => {
                let a = self.addr(t, addr);
                let v = self.val(t, *value);
                if let Some(s) = self.sync.sems.get(&a) {
                    if !s.waiters.is_empty() {
                        return Err(self.trap(t, "semaphore re-initialized while in use"));
                    }
                }
                self.sync.sems.insert(
                    a,
                    crate::sync::SemState {
                        count: v,
                        waiters: Default::default(),
                    },
                );
                self.advance(t);
            }
            Instr::SemWait { addr } => {
                let a = self.addr(t, addr);
                let Some(sem) = self.sync.sem(a) else {
                    return Err(VmError::Trap {
                        tid,
                        pc,
                        message: format!("wait on uninitialized semaphore {a:#x}"),
                    });
                };
                if sem.count > 0 {
                    sem.count -= 1;
                    sink.on_event(&Event::SemAcquired { tid, sem: a, pc });
                    self.advance(t);
                } else {
                    sem.waiters.push_back(tid);
                    self.threads[t].state = ThreadState::BlockedSem { sem: a };
                }
            }
            Instr::SemPost { addr } => {
                let a = self.addr(t, addr);
                let Some(sem) = self.sync.sem(a) else {
                    return Err(VmError::Trap {
                        tid,
                        pc,
                        message: format!("post to uninitialized semaphore {a:#x}"),
                    });
                };
                sem.count += 1;
                sink.on_event(&Event::SemPost { tid, sem: a, pc });
                self.advance(t);
                let woken = {
                    let sem = self.sync.sem(a).expect("just used");
                    if sem.count > 0 {
                        if let Some(w) = sem.waiters.pop_front() {
                            sem.count -= 1;
                            Some(w)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                };
                if let Some(w) = woken {
                    let w = w as usize;
                    let wpc = self.pc_of(w);
                    let wtid = self.threads[w].id;
                    self.threads[w].state = ThreadState::Runnable;
                    self.advance(w);
                    sink.on_event(&Event::SemAcquired {
                        tid: wtid,
                        sem: a,
                        pc: wpc,
                    });
                }
            }

            // ---- threads & calls ----
            Instr::Spawn { dst, func, arg } => {
                if self.threads.len() >= self.cfg.max_threads {
                    return Err(VmError::TooManyThreads {
                        limit: self.cfg.max_threads,
                    });
                }
                let child = self.threads.len() as ThreadId;
                let argv = self.val(t, *arg);
                let callee = self.m.function(*func);
                let mut root = Frame::new(*func, callee.num_regs, None);
                if callee.params >= 1 {
                    root.regs[0] = argv;
                }
                self.threads.push(Thread::new(child, root));
                sink.on_event(&Event::Spawn {
                    parent: tid,
                    child,
                    pc,
                });
                let root = &mut self.threads[child as usize].frames[0];
                self.spin_rt.on_block_entry(child, root, BlockId(0), sink);
                self.set_reg(t, *dst, child as i64);
                self.advance(t);
            }
            Instr::Join { tid: target } => {
                let target = self.val(t, *target);
                if target < 0 || target as usize >= self.threads.len() {
                    return Err(self.trap(t, format!("join of unknown thread {target}")));
                }
                let target = target as ThreadId;
                if target == tid {
                    return Err(self.trap(t, "thread joining itself"));
                }
                if self.threads[target as usize].state == ThreadState::Finished {
                    sink.on_event(&Event::Join {
                        parent: tid,
                        child: target,
                        pc,
                    });
                    self.advance(t);
                } else {
                    self.threads[t].state = ThreadState::BlockedJoin { target };
                }
            }
            Instr::Call { dst, func, args } => {
                let argv: Vec<i64> = args.iter().map(|a| self.val(t, *a)).collect();
                let callee = self.m.function(*func);
                // Caller resumes after the call once the callee returns.
                self.advance(t);
                let mut frame = Frame::new(*func, callee.num_regs, *dst);
                frame.ctx = self.callee_ctx(t);
                for (i, v) in argv.into_iter().enumerate() {
                    frame.regs[i] = v;
                }
                self.threads[t].frames.push(frame);
                let frame = self.threads[t].frame_mut();
                self.spin_rt.on_block_entry(tid, frame, BlockId(0), sink);
            }

            // ---- misc ----
            Instr::Yield | Instr::Nop => {
                self.advance(t);
            }
            Instr::Output { src } => {
                let v = self.val(t, *src);
                self.outputs.push((tid, v));
                sink.on_event(&Event::Output { tid, value: v });
                self.advance(t);
            }
            Instr::Assert { cond, msg } => {
                let v = self.val(t, *cond);
                if v == 0 {
                    let text = self.m.string(*msg).to_string();
                    return Err(self.trap(t, format!("assertion failed: {text}")));
                }
                self.advance(t);
            }
        }
        Ok(())
    }
}

fn order_of(a: Atomicity) -> Option<MemOrder> {
    match a {
        Atomicity::Plain => None,
        Atomicity::Atomic(o) => Some(o),
    }
}

fn eval_bin(op: BinOp, x: i64, y: i64) -> Result<i64, String> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err("division by zero".into());
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err("remainder by zero".into());
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32 & 63),
        BinOp::Shr => x.wrapping_shr(y as u32 & 63),
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    })
}
