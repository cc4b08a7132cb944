//! Ergonomic construction of TIR modules.
//!
//! [`ModuleBuilder`] owns globals/functions/strings; [`FunctionBuilder`] is
//! a little assembler with one *current block* that instructions are
//! appended to. Forward references to blocks and functions are supported
//! (declare with [`ModuleBuilder::declare_function`] /
//! [`FunctionBuilder::new_block`], fill in later); [`ModuleBuilder::finish`]
//! validates the result.

use crate::ids::{BlockId, FuncId, GlobalId, Reg, StrId};
use crate::instr::{AddrExpr, Atomicity, BinOp, Instr, MemOrder, Operand, RmwOp, Terminator, UnOp};
use crate::module::{BasicBlock, Function, GlobalDecl, Module};
use crate::validate::{validate, ValidationError};
use std::collections::HashMap;

/// Handle to a declared global; produces [`AddrExpr`]s addressing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalRef {
    /// The underlying id.
    pub id: GlobalId,
}

impl GlobalRef {
    /// `&global + disp` (static address).
    pub fn at(self, disp: i64) -> AddrExpr {
        AddrExpr::Global {
            global: self.id,
            disp,
        }
    }
    /// `&global + index` (word-indexed array access).
    pub fn idx(self, index: Reg) -> AddrExpr {
        AddrExpr::GlobalIndexed {
            global: self.id,
            index,
            scale: 1,
            disp: 0,
        }
    }
    /// `&global + index * scale + disp`.
    pub fn idx_scaled(self, index: Reg, scale: i64, disp: i64) -> AddrExpr {
        AddrExpr::GlobalIndexed {
            global: self.id,
            index,
            scale,
            disp,
        }
    }
}

#[derive(Default)]
struct BlockInProgress {
    instrs: Vec<Instr>,
    term: Option<Terminator>,
}

/// Builds one [`Function`]; obtained through
/// [`ModuleBuilder::function`] / [`ModuleBuilder::define_function`].
pub struct FunctionBuilder {
    name: String,
    params: u16,
    next_reg: u16,
    blocks: Vec<BlockInProgress>,
    cur: usize,
    /// Strings interned locally; remapped into the module table on define.
    strings: Vec<String>,
}

impl FunctionBuilder {
    /// Build a function outside a [`ModuleBuilder`] — used by lowering
    /// passes that synthesize functions into an existing module. The
    /// caller is responsible for string-table remapping if `assert_` is
    /// used (see [`FunctionBuilder::finish_standalone`]).
    pub fn standalone(name: &str, params: u16) -> Self {
        Self::new(name, params)
    }

    /// Finalize a standalone function, returning it together with any
    /// locally interned diagnostic strings (indices are function-local and
    /// must be remapped by the caller).
    pub fn finish_standalone(self) -> Result<(Function, Vec<String>), String> {
        self.finish()
    }

    fn new(name: &str, params: u16) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            params,
            next_reg: params,
            blocks: vec![BlockInProgress::default()],
            cur: 0,
            strings: Vec::new(),
        }
    }

    /// The `i`-th parameter register.
    pub fn param(&self, i: u16) -> Reg {
        assert!(i < self.params, "{}: param {} out of range", self.name, i);
        Reg(i)
    }

    /// Allocate a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("register space exhausted");
        r
    }

    /// Create a new (empty, unterminated) block and return its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(BlockInProgress::default());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Make `b` the current block; subsequent instructions append to it.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(
            (b.0 as usize) < self.blocks.len(),
            "{}: switch_to unknown block {b:?}",
            self.name
        );
        self.cur = b.0 as usize;
    }

    /// The current block id.
    pub fn current(&self) -> BlockId {
        BlockId(self.cur as u32)
    }

    fn push(&mut self, i: Instr) {
        let name = &self.name;
        let cur = self.cur;
        let blk = &mut self.blocks[cur];
        assert!(
            blk.term.is_none(),
            "{name}: appending to terminated block b{cur}"
        );
        blk.instrs.push(i);
    }

    fn terminate(&mut self, t: Terminator) {
        let name = &self.name;
        let cur = self.cur;
        let blk = &mut self.blocks[cur];
        assert!(blk.term.is_none(), "{name}: block b{cur} terminated twice");
        blk.term = Some(t);
    }

    // ---- value computation ----

    /// `dst = value` into a fresh register.
    pub fn const_(&mut self, value: i64) -> Reg {
        let dst = self.reg();
        self.push(Instr::Const { dst, value });
        dst
    }

    /// Copy `src` into `dst`.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.push(Instr::Mov { dst, src });
    }

    /// Generic binary operation into a fresh register.
    pub fn bin(&mut self, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Instr::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Binary operation writing an existing register.
    pub fn bin_into(&mut self, dst: Reg, op: BinOp, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.push(Instr::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `a + b`.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Add, a, b)
    }
    /// `a - b`.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Sub, a, b)
    }
    /// `a * b`.
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }
    /// `a == b` (0/1).
    pub fn eq(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Eq, a, b)
    }
    /// `a != b` (0/1).
    pub fn ne(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Ne, a, b)
    }
    /// `a < b` (0/1).
    pub fn lt(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Lt, a, b)
    }
    /// `a >= b` (0/1).
    pub fn ge(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Ge, a, b)
    }
    /// Logical not.
    pub fn not(&mut self, a: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Instr::Un {
            op: UnOp::Not,
            dst,
            a: a.into(),
        });
        dst
    }

    /// Materialize `&global + disp` into a register.
    pub fn addr_of(&mut self, global: GlobalRef, disp: i64) -> Reg {
        let dst = self.reg();
        self.push(Instr::AddrOf {
            dst,
            global: global.id,
            disp,
        });
        dst
    }

    // ---- memory ----

    /// Plain load.
    pub fn load(&mut self, addr: AddrExpr) -> Reg {
        let dst = self.reg();
        self.push(Instr::Load {
            dst,
            addr,
            atomic: Atomicity::Plain,
        });
        dst
    }

    /// Atomic load with the given ordering.
    pub fn load_atomic(&mut self, addr: AddrExpr, order: MemOrder) -> Reg {
        let dst = self.reg();
        self.push(Instr::Load {
            dst,
            addr,
            atomic: Atomicity::Atomic(order),
        });
        dst
    }

    /// Plain store.
    pub fn store(&mut self, addr: AddrExpr, src: impl Into<Operand>) {
        self.push(Instr::Store {
            src: src.into(),
            addr,
            atomic: Atomicity::Plain,
        });
    }

    /// Atomic store with the given ordering.
    pub fn store_atomic(&mut self, addr: AddrExpr, src: impl Into<Operand>, order: MemOrder) {
        self.push(Instr::Store {
            src: src.into(),
            addr,
            atomic: Atomicity::Atomic(order),
        });
    }

    /// Compare-and-swap; returns the register receiving the old value.
    pub fn cas(
        &mut self,
        addr: AddrExpr,
        expected: impl Into<Operand>,
        new: impl Into<Operand>,
        order: MemOrder,
    ) -> Reg {
        let dst = self.reg();
        self.push(Instr::Cas {
            dst,
            addr,
            expected: expected.into(),
            new: new.into(),
            order,
        });
        dst
    }

    /// Atomic read-modify-write; returns the register receiving the old value.
    pub fn rmw(
        &mut self,
        op: RmwOp,
        addr: AddrExpr,
        src: impl Into<Operand>,
        order: MemOrder,
    ) -> Reg {
        let dst = self.reg();
        self.push(Instr::Rmw {
            op,
            dst,
            addr,
            src: src.into(),
            order,
        });
        dst
    }

    /// Memory fence.
    pub fn fence(&mut self, order: MemOrder) {
        self.push(Instr::Fence { order });
    }

    /// Heap allocation; returns the register holding the base address.
    pub fn alloc(&mut self, words: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Instr::Alloc {
            dst,
            words: words.into(),
        });
        dst
    }

    // ---- library synchronization ----

    /// `pthread_mutex_lock`-style blocking acquire.
    pub fn lock(&mut self, addr: AddrExpr) {
        self.push(Instr::MutexLock { addr });
    }
    /// Mutex release.
    pub fn unlock(&mut self, addr: AddrExpr) {
        self.push(Instr::MutexUnlock { addr });
    }
    /// Signal one condition-variable waiter.
    pub fn signal(&mut self, cv: AddrExpr) {
        self.push(Instr::CondSignal { cv });
    }
    /// Wake all condition-variable waiters.
    pub fn broadcast(&mut self, cv: AddrExpr) {
        self.push(Instr::CondBroadcast { cv });
    }
    /// Condition wait (releases `mutex`, sleeps, re-acquires).
    pub fn wait(&mut self, cv: AddrExpr, mutex: AddrExpr) {
        self.push(Instr::CondWait { cv, mutex });
    }
    /// Initialize a barrier for `count` parties.
    pub fn barrier_init(&mut self, addr: AddrExpr, count: impl Into<Operand>) {
        self.push(Instr::BarrierInit {
            addr,
            count: count.into(),
        });
    }
    /// Barrier wait.
    pub fn barrier_wait(&mut self, addr: AddrExpr) {
        self.push(Instr::BarrierWait { addr });
    }
    /// Initialize a counting semaphore.
    pub fn sem_init(&mut self, addr: AddrExpr, value: impl Into<Operand>) {
        self.push(Instr::SemInit {
            addr,
            value: value.into(),
        });
    }
    /// Semaphore P.
    pub fn sem_wait(&mut self, addr: AddrExpr) {
        self.push(Instr::SemWait { addr });
    }
    /// Semaphore V.
    pub fn sem_post(&mut self, addr: AddrExpr) {
        self.push(Instr::SemPost { addr });
    }

    // ---- threads & calls ----

    /// Spawn `func(arg)`; returns the register holding the new thread id.
    pub fn spawn(&mut self, func: FuncId, arg: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.push(Instr::Spawn {
            dst,
            func,
            arg: arg.into(),
        });
        dst
    }

    /// Join the thread whose id is in `tid`.
    pub fn join(&mut self, tid: impl Into<Operand>) {
        self.push(Instr::Join { tid: tid.into() });
    }

    /// Call with a result.
    pub fn call(&mut self, func: FuncId, args: &[Operand]) -> Reg {
        let dst = self.reg();
        self.push(Instr::Call {
            dst: Some(dst),
            func,
            args: args.to_vec(),
        });
        dst
    }

    /// Call discarding any result.
    pub fn call_void(&mut self, func: FuncId, args: &[Operand]) {
        self.push(Instr::Call {
            dst: None,
            func,
            args: args.to_vec(),
        });
    }

    // ---- misc ----

    /// Scheduling hint.
    pub fn yield_(&mut self) {
        self.push(Instr::Yield);
    }
    /// No-op (handy for padding blocks in CFG tests).
    pub fn nop(&mut self) {
        self.push(Instr::Nop);
    }
    /// Append `src` to the program's output log.
    pub fn output(&mut self, src: impl Into<Operand>) {
        self.push(Instr::Output { src: src.into() });
    }
    /// Trap if `cond == 0`, reporting `msg`.
    pub fn assert_(&mut self, cond: impl Into<Operand>, msg: &str) {
        let sid = StrId(self.strings.len() as u32);
        self.strings.push(msg.to_string());
        self.push(Instr::Assert {
            cond: cond.into(),
            msg: sid,
        });
    }

    // ---- terminators ----

    /// End the current block with an unconditional jump.
    pub fn jump(&mut self, to: BlockId) {
        self.terminate(Terminator::Jump(to));
    }

    /// End the current block with a two-way branch on `cond != 0`.
    pub fn branch(&mut self, cond: impl Into<Operand>, if_true: BlockId, if_false: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.into(),
            if_true,
            if_false,
        });
    }

    /// End the current block with a return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Terminator::Ret(value));
    }

    /// End the current block terminating the whole program.
    pub fn exit(&mut self) {
        self.terminate(Terminator::Exit);
    }

    fn finish(self) -> Result<(Function, Vec<String>), String> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, b) in self.blocks.into_iter().enumerate() {
            let term = b
                .term
                .ok_or_else(|| format!("function `{}`: block b{} not terminated", self.name, i))?;
            blocks.push(BasicBlock {
                instrs: b.instrs,
                term,
            });
        }
        Ok((
            Function {
                name: self.name,
                params: self.params,
                num_regs: self.next_reg,
                blocks,
            },
            self.strings,
        ))
    }
}

/// Builds a [`Module`].
pub struct ModuleBuilder {
    name: String,
    functions: Vec<Option<Function>>,
    fn_params: Vec<u16>,
    fn_names: HashMap<String, FuncId>,
    globals: Vec<GlobalDecl>,
    strings: Vec<String>,
    entry: Option<FuncId>,
}

impl ModuleBuilder {
    /// Start a new module.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            name: name.into(),
            functions: Vec::new(),
            fn_params: Vec::new(),
            fn_names: HashMap::new(),
            globals: Vec::new(),
            strings: Vec::new(),
            entry: None,
        }
    }

    /// Declare a zero-initialized global of `words` cells.
    pub fn global(&mut self, name: &str, words: u64) -> GlobalRef {
        self.global_init(name, words, vec![])
    }

    /// Declare a global with an explicit initializer (zero-extended).
    pub fn global_init(&mut self, name: &str, words: u64, init: Vec<i64>) -> GlobalRef {
        assert!(
            init.len() as u64 <= words,
            "global `{name}`: initializer longer than declared size"
        );
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(GlobalDecl {
            name: name.to_string(),
            words,
            init,
        });
        GlobalRef { id }
    }

    /// Forward-declare a function so it can be spawned/called before its
    /// body is defined.
    pub fn declare_function(&mut self, name: &str, params: u16) -> FuncId {
        assert!(
            !self.fn_names.contains_key(name),
            "function `{name}` declared twice"
        );
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(None);
        self.fn_params.push(params);
        self.fn_names.insert(name.to_string(), id);
        id
    }

    /// Provide the body for a previously declared function.
    pub fn define_function(&mut self, id: FuncId, build: impl FnOnce(&mut FunctionBuilder)) {
        let idx = id.0 as usize;
        assert!(
            self.functions[idx].is_none(),
            "function {id:?} defined twice"
        );
        let name = self
            .fn_names
            .iter()
            .find(|(_, v)| **v == id)
            .map(|(k, _)| k.clone())
            .expect("defining undeclared function");
        let mut fb = FunctionBuilder::new(&name, self.fn_params[idx]);
        build(&mut fb);
        let (mut func, local_strings) = fb.finish().unwrap_or_else(|e| panic!("{e}"));
        // Remap locally interned strings into the module table.
        let base = self.strings.len() as u32;
        self.strings.extend(local_strings);
        for block in &mut func.blocks {
            for instr in &mut block.instrs {
                if let Instr::Assert { msg, .. } = instr {
                    *msg = StrId(msg.0 + base);
                }
            }
        }
        self.functions[idx] = Some(func);
    }

    /// Declare and define a function in one step.
    pub fn function(
        &mut self,
        name: &str,
        params: u16,
        build: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let id = self.declare_function(name, params);
        self.define_function(id, build);
        id
    }

    /// Declare and define the entry function (the main thread's body).
    pub fn entry(&mut self, name: &str, build: impl FnOnce(&mut FunctionBuilder)) -> FuncId {
        let id = self.function(name, 0, build);
        self.set_entry(id);
        id
    }

    /// Mark an existing function as the entry point.
    pub fn set_entry(&mut self, id: FuncId) {
        assert!(self.entry.is_none(), "entry set twice");
        self.entry = Some(id);
    }

    /// Intern a diagnostic string.
    pub fn intern(&mut self, s: &str) -> StrId {
        let id = StrId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        id
    }

    /// Finalize, validate, and return the module.
    pub fn finish(self) -> Result<Module, ValidationError> {
        let m = self.finish_unchecked();
        validate(&m)?;
        Ok(m)
    }

    /// Finalize without validation (for negative tests).
    pub fn finish_unchecked(self) -> Module {
        let functions: Vec<Function> = self
            .functions
            .into_iter()
            .enumerate()
            .map(|(i, f)| f.unwrap_or_else(|| panic!("function f{i} declared but never defined")))
            .collect();
        Module {
            name: self.name,
            entry: self.entry.expect("no entry function set"),
            functions,
            globals: self.globals,
            strings: self.strings,
            spin: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straightline_main() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        mb.entry("main", |f| {
            let v = f.const_(41);
            let w = f.add(v, 1);
            f.store(g.at(0), w);
            f.output(w);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.function(m.entry).blocks.len(), 1);
        assert_eq!(m.function(m.entry).num_regs, 2);
    }

    #[test]
    fn forward_declared_spawn_target() {
        let mut mb = ModuleBuilder::new("t");
        let worker = mb.declare_function("worker", 1);
        mb.entry("main", |f| {
            let t = f.spawn(worker, 7);
            f.join(t);
            f.ret(None);
        });
        mb.define_function(worker, |f| {
            f.output(f.param(0));
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        assert_eq!(m.functions.len(), 2);
    }

    #[test]
    fn loop_with_blocks() {
        let mut mb = ModuleBuilder::new("t");
        let flag = mb.global("flag", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let exit = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, exit, head);
            f.switch_to(exit);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        assert_eq!(m.function(m.entry).blocks.len(), 3);
    }

    #[test]
    #[should_panic(expected = "terminated twice")]
    fn double_terminate_panics() {
        let mut mb = ModuleBuilder::new("t");
        mb.entry("main", |f| {
            f.ret(None);
            f.ret(None);
        });
    }

    #[test]
    #[should_panic(expected = "not terminated")]
    fn unterminated_block_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        mb.entry("main", |f| {
            f.nop();
            // no terminator
            let _ = f;
        });
    }

    #[test]
    fn assert_strings_are_remapped() {
        let mut mb = ModuleBuilder::new("t");
        let _ = mb.intern("pre-existing");
        mb.entry("main", |f| {
            let c = f.const_(1);
            f.assert_(c, "must hold");
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let Instr::Assert { msg, .. } = &m.function(m.entry).blocks[0].instrs[1] else {
            panic!("expected assert");
        };
        assert_eq!(m.string(*msg), "must hold");
    }
}
