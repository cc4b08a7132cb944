//! Instruction set of the threaded IR.
//!
//! The instruction set is deliberately close to what a binary-level race
//! detector sees: plain and atomic loads/stores, compare-and-swap,
//! read-modify-write, fences, and — separately — *library* synchronization
//! operations (mutex/condvar/barrier/semaphore) whose semantics are only
//! visible to a detector configured with library knowledge. The
//! `spinrace-synclib` crate lowers the library operations to pure
//! memory-instruction implementations built around spinning read loops,
//! which is how the paper's `nolib` ("universal detector") configuration is
//! produced.

use crate::ids::{FuncId, GlobalId, Reg, StrId};
use crate::BlockId;
use serde::{Deserialize, Serialize};

/// Either a register or an immediate 64-bit constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Read the value of a virtual register.
    Reg(Reg),
    /// A constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}
impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl Operand {
    /// The register this operand reads, if any.
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Imm(_) => None,
        }
    }
}

/// Binary ALU / comparison operations. Comparisons yield 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division; division by zero traps the executing thread.
    Div,
    /// Signed remainder; division by zero traps the executing thread.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Minimum of two signed values.
    Min,
    /// Maximum of two signed values.
    Max,
}

/// Unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical negation: 0 -> 1, non-zero -> 0.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    BitNot,
}

/// Atomic read-modify-write operations (return the *old* value).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RmwOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Unconditional exchange.
    Xchg,
    Min,
    Max,
}

/// Memory ordering annotation for atomic operations.
///
/// The VM executes everything sequentially consistently (it interleaves
/// whole instructions), so orderings do not change *program* results; they
/// exist so detectors can model what a binary-level tool would infer from
/// the instruction stream. The DRD-style baseline, for example, derives
/// happens-before edges from `Acquire`/`Release`/`SeqCst` atomics, while
/// the Helgrind+-style hybrid ignores them — exactly the asymmetry visible
/// in the paper's PARSEC table (`dedup` vs `x264`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOrder {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl MemOrder {
    /// Whether a load with this ordering has acquire semantics.
    pub fn acquires(self) -> bool {
        matches!(
            self,
            MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }
    /// Whether a store with this ordering has release semantics.
    pub fn releases(self) -> bool {
        matches!(
            self,
            MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }
}

/// Whether a memory access is a plain access or an atomic one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Atomicity {
    /// Ordinary, non-atomic access — the bread and butter of race detection.
    Plain,
    /// Atomic access with the given ordering.
    Atomic(MemOrder),
}

impl Atomicity {
    /// True if this is an atomic access.
    pub fn is_atomic(&self) -> bool {
        matches!(self, Atomicity::Atomic(_))
    }
}

/// An address expression: how instructions name memory.
///
/// Addresses are *word* granular (one address = one `i64` cell). Globals
/// are laid out contiguously by the VM; `Reg`-based addressing supports
/// heap objects and pointer-passing between threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrExpr {
    /// `&global + disp`
    Global { global: GlobalId, disp: i64 },
    /// `&global + index * scale + disp`
    GlobalIndexed {
        global: GlobalId,
        index: Reg,
        scale: i64,
        disp: i64,
    },
    /// `*(base) + disp` where `base` holds an address.
    Based { base: Reg, disp: i64 },
    /// `*(base) + index * scale + disp`.
    BasedIndexed {
        base: Reg,
        index: Reg,
        scale: i64,
        disp: i64,
    },
}

impl AddrExpr {
    /// Registers read when evaluating this address.
    pub fn regs(&self, out: &mut Vec<Reg>) {
        match self {
            AddrExpr::Global { .. } => {}
            AddrExpr::GlobalIndexed { index, .. } => out.push(*index),
            AddrExpr::Based { base, .. } => out.push(*base),
            AddrExpr::BasedIndexed { base, index, .. } => {
                out.push(*base);
                out.push(*index);
            }
        }
    }

    /// The global this address statically refers to, if known.
    pub fn global(&self) -> Option<GlobalId> {
        match self {
            AddrExpr::Global { global, .. } | AddrExpr::GlobalIndexed { global, .. } => {
                Some(*global)
            }
            _ => None,
        }
    }
}

/// One non-terminator instruction.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// `dst = value`
    Const { dst: Reg, value: i64 },
    /// `dst = src`
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b`
    Bin {
        op: BinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = <op> a`
    Un { op: UnOp, dst: Reg, a: Operand },
    /// `dst = address-of(global) + disp` — materialize a pointer.
    AddrOf {
        dst: Reg,
        global: GlobalId,
        disp: i64,
    },
    /// `dst = mem[addr]`
    Load {
        dst: Reg,
        addr: AddrExpr,
        atomic: Atomicity,
    },
    /// `mem[addr] = src`
    Store {
        src: Operand,
        addr: AddrExpr,
        atomic: Atomicity,
    },
    /// Atomic compare-and-swap. `dst` receives the *old* value; the swap
    /// succeeded iff `dst == expected`.
    Cas {
        dst: Reg,
        addr: AddrExpr,
        expected: Operand,
        new: Operand,
        order: MemOrder,
    },
    /// Atomic read-modify-write; `dst` receives the old value.
    Rmw {
        op: RmwOp,
        dst: Reg,
        addr: AddrExpr,
        src: Operand,
        order: MemOrder,
    },
    /// Memory fence.
    Fence { order: MemOrder },
    /// Allocate `words` fresh heap words; `dst` receives the base address.
    Alloc { dst: Reg, words: Operand },

    // ---- library synchronization (visible only to lib-aware detectors) ----
    /// Acquire the mutex whose state lives at `addr` (blocking).
    MutexLock { addr: AddrExpr },
    /// Release the mutex at `addr`.
    MutexUnlock { addr: AddrExpr },
    /// Signal one waiter of the condition variable at `cv`.
    CondSignal { cv: AddrExpr },
    /// Wake all waiters of the condition variable at `cv`.
    CondBroadcast { cv: AddrExpr },
    /// Atomically release `mutex`, wait on `cv`, re-acquire `mutex`.
    CondWait { cv: AddrExpr, mutex: AddrExpr },
    /// Initialize the barrier at `addr` for `count` parties.
    BarrierInit { addr: AddrExpr, count: Operand },
    /// Wait at the barrier at `addr`.
    BarrierWait { addr: AddrExpr },
    /// Initialize the counting semaphore at `addr` with `value`.
    SemInit { addr: AddrExpr, value: Operand },
    /// P operation (blocking decrement).
    SemWait { addr: AddrExpr },
    /// V operation (increment, wakes a waiter).
    SemPost { addr: AddrExpr },

    // ---- threads & calls ----
    /// Start a new thread running `func(arg)`; `dst` receives its id.
    Spawn {
        dst: Reg,
        func: FuncId,
        arg: Operand,
    },
    /// Block until the thread whose id is in `tid` terminates.
    Join { tid: Operand },
    /// Direct call; `args` are bound to the callee's parameter registers.
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args: Vec<Operand>,
    },

    // ---- misc ----
    /// Scheduling hint (a no-op with a preemption point).
    Yield,
    /// No operation.
    Nop,
    /// Record `src` in the VM output log (used to verify program results).
    Output { src: Operand },
    /// Trap the thread if `cond` evaluates to 0.
    Assert { cond: Operand, msg: StrId },
}

impl Instr {
    /// The register defined (written) by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::AddrOf { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Cas { dst, .. }
            | Instr::Rmw { dst, .. }
            | Instr::Alloc { dst, .. }
            | Instr::Spawn { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Append all registers read by this instruction to `out`.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        fn op(o: &Operand, out: &mut Vec<Reg>) {
            if let Operand::Reg(r) = o {
                out.push(*r)
            }
        }
        match self {
            Instr::Const { .. }
            | Instr::AddrOf { .. }
            | Instr::Fence { .. }
            | Instr::Yield
            | Instr::Nop => {}
            Instr::Mov { src, .. } => out.push(*src),
            Instr::Bin { a, b, .. } => {
                op(a, out);
                op(b, out);
            }
            Instr::Un { a, .. } => op(a, out),
            Instr::Load { addr, .. } => addr.regs(out),
            Instr::Store { src, addr, .. } => {
                op(src, out);
                addr.regs(out);
            }
            Instr::Cas {
                addr,
                expected,
                new,
                ..
            } => {
                addr.regs(out);
                op(expected, out);
                op(new, out);
            }
            Instr::Rmw { addr, src, .. } => {
                addr.regs(out);
                op(src, out);
            }
            Instr::Alloc { words, .. } => op(words, out),
            Instr::MutexLock { addr }
            | Instr::MutexUnlock { addr }
            | Instr::BarrierWait { addr }
            | Instr::SemWait { addr }
            | Instr::SemPost { addr } => addr.regs(out),
            Instr::BarrierInit { addr, count } => {
                addr.regs(out);
                op(count, out);
            }
            Instr::SemInit { addr, value } => {
                addr.regs(out);
                op(value, out);
            }
            Instr::CondSignal { cv } | Instr::CondBroadcast { cv } => cv.regs(out),
            Instr::CondWait { cv, mutex } => {
                cv.regs(out);
                mutex.regs(out);
            }
            Instr::Spawn { arg, .. } => op(arg, out),
            Instr::Join { tid } => op(tid, out),
            Instr::Call { args, .. } => {
                for a in args {
                    op(a, out)
                }
            }
            Instr::Output { src } => op(src, out),
            Instr::Assert { cond, .. } => op(cond, out),
        }
    }

    /// The address expression this instruction *loads* from, if any
    /// (plain/atomic loads; `Cas`/`Rmw` both read and write).
    pub fn load_addr(&self) -> Option<&AddrExpr> {
        match self {
            Instr::Load { addr, .. } | Instr::Cas { addr, .. } | Instr::Rmw { addr, .. } => {
                Some(addr)
            }
            _ => None,
        }
    }

    /// The address expression this instruction *stores* to, if any.
    pub fn store_addr(&self) -> Option<&AddrExpr> {
        match self {
            Instr::Store { addr, .. } | Instr::Cas { addr, .. } | Instr::Rmw { addr, .. } => {
                Some(addr)
            }
            _ => None,
        }
    }

    /// True for library synchronization operations.
    pub fn is_lib_sync(&self) -> bool {
        matches!(
            self,
            Instr::MutexLock { .. }
                | Instr::MutexUnlock { .. }
                | Instr::CondSignal { .. }
                | Instr::CondBroadcast { .. }
                | Instr::CondWait { .. }
                | Instr::BarrierInit { .. }
                | Instr::BarrierWait { .. }
                | Instr::SemInit { .. }
                | Instr::SemWait { .. }
                | Instr::SemPost { .. }
        )
    }

    /// True if the instruction is a pure value computation: no memory
    /// traffic, no synchronization, no observable effect. Pure instructions
    /// may appear freely inside a spinning read loop's condition slice.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instr::Const { .. }
                | Instr::Mov { .. }
                | Instr::Bin { .. }
                | Instr::Un { .. }
                | Instr::AddrOf { .. }
                | Instr::Nop
        )
    }

    /// True if the instruction has an effect other than defining `dst`
    /// (stores, RMWs, sync ops, thread ops, I/O, allocation).
    ///
    /// `Load` is *not* side-effecting by this definition; the spin-loop
    /// "do-nothing body" criterion treats condition loads specially.
    pub fn has_side_effect(&self) -> bool {
        match self {
            Instr::Store { .. }
            | Instr::Cas { .. }
            | Instr::Rmw { .. }
            | Instr::Alloc { .. }
            | Instr::Spawn { .. }
            | Instr::Join { .. }
            | Instr::Call { .. }
            | Instr::Output { .. }
            | Instr::Assert { .. } => true,
            i if i.is_lib_sync() => true,
            _ => false,
        }
    }

    /// Callee of a direct call, if this is one.
    pub fn callee(&self) -> Option<FuncId> {
        match self {
            Instr::Call { func, .. } => Some(*func),
            _ => None,
        }
    }
}

/// Block terminator: every basic block ends in exactly one of these.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        cond: Operand,
        if_true: BlockId,
        if_false: BlockId,
    },
    /// Return from the current function (thread exit if at the root frame).
    Ret(Option<Operand>),
    /// Terminate the whole program immediately.
    Exit,
}

impl Terminator {
    /// Successor blocks within the same function.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(*t), None),
            Terminator::Branch {
                if_true, if_false, ..
            } => (Some(*if_true), Some(*if_false)),
            Terminator::Ret(_) | Terminator::Exit => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Registers read by the terminator.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Terminator::Branch {
                cond: Operand::Reg(r),
                ..
            } => out.push(*r),
            Terminator::Ret(Some(Operand::Reg(r))) => out.push(*r),
            _ => {}
        }
    }

    /// The branch condition operand, if this is a conditional branch.
    pub fn branch_cond(&self) -> Option<Operand> {
        match self {
            Terminator::Branch { cond, .. } => Some(*cond),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u16) -> Reg {
        Reg(n)
    }

    #[test]
    fn def_and_uses_cover_loads() {
        let i = Instr::Load {
            dst: r(3),
            addr: AddrExpr::GlobalIndexed {
                global: GlobalId(0),
                index: r(1),
                scale: 1,
                disp: 0,
            },
            atomic: Atomicity::Plain,
        };
        assert_eq!(i.def(), Some(r(3)));
        let mut u = vec![];
        i.uses(&mut u);
        assert_eq!(u, vec![r(1)]);
        assert!(i.load_addr().is_some());
        assert!(i.store_addr().is_none());
    }

    #[test]
    fn cas_reads_and_writes_memory() {
        let i = Instr::Cas {
            dst: r(0),
            addr: AddrExpr::Global {
                global: GlobalId(2),
                disp: 1,
            },
            expected: Operand::Imm(0),
            new: Operand::Reg(r(5)),
            order: MemOrder::AcqRel,
        };
        assert!(i.load_addr().is_some());
        assert!(i.store_addr().is_some());
        assert!(i.has_side_effect());
        let mut u = vec![];
        i.uses(&mut u);
        assert_eq!(u, vec![r(5)]);
    }

    #[test]
    fn sync_ops_are_flagged() {
        let m = AddrExpr::Global {
            global: GlobalId(0),
            disp: 0,
        };
        assert!(Instr::MutexLock { addr: m }.is_lib_sync());
        assert!(Instr::MutexLock { addr: m }.has_side_effect());
        assert!(!Instr::Yield.is_lib_sync());
        assert!(!Instr::Yield.has_side_effect());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Reg(r(0)),
            if_true: BlockId(1),
            if_false: BlockId(2),
        };
        let succ: Vec<_> = t.successors().collect();
        assert_eq!(succ, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Exit.successors().count(), 0);
    }

    #[test]
    fn orderings_classify() {
        assert!(MemOrder::Acquire.acquires());
        assert!(!MemOrder::Acquire.releases());
        assert!(MemOrder::SeqCst.acquires() && MemOrder::SeqCst.releases());
        assert!(!MemOrder::Relaxed.acquires() && !MemOrder::Relaxed.releases());
    }

    #[test]
    fn purity_classification() {
        assert!(Instr::Const {
            dst: r(0),
            value: 1
        }
        .is_pure());
        assert!(!Instr::Load {
            dst: r(0),
            addr: AddrExpr::Global {
                global: GlobalId(0),
                disp: 0
            },
            atomic: Atomicity::Plain
        }
        .is_pure());
        assert!(!Instr::Output {
            src: Operand::Imm(1)
        }
        .is_pure());
    }
}
