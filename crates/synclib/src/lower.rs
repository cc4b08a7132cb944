//! The `nolib` lowering pass: replace library synchronization operations
//! with calls into the spin library.
//!
//! After lowering, a module contains only plain/atomic memory operations,
//! calls, and spawn/join — a detector sees the program the way a binary
//! tool without header knowledge would. Running `spinrace-spinfind` on the
//! lowered module then re-discovers the synchronization from the spin
//! loops alone, which is the paper's *universal race detector*.

use crate::primitives::{library_functions, LibStyle, SpinLib};
use spinrace_tir::{
    validate, AddrExpr, BinOp, Function, Instr, Module, Operand, Reg, ValidationError,
};
use std::fmt;

/// Lowering failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// A barrier object is statically too small (needs 3 words).
    BarrierTooSmall { global: String, words: u64 },
    /// The lowered module failed validation (internal error).
    Invalid(ValidationError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::BarrierTooSmall { global, words } => write!(
                f,
                "barrier global `{global}` has {words} words; spin barriers need 3 \
                 ([parties, count, generation])"
            ),
            LowerError::Invalid(e) => write!(f, "lowered module invalid: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower `m` to its spin-library form. The input is unchanged; the output
/// has every library sync instruction replaced by a call and the spin
/// library functions appended. Any previous spin table is dropped (the
/// caller re-runs the instrumentation phase on the result).
///
/// The library is built once per style per process, at offset 0
/// ([`library_functions`]), and spliced in here after `m`'s functions
/// with every call target shifted by `m.functions.len()`; the result
/// equals a library built at that offset. `Session::prepare` in
/// `spinrace-core` analyses each style's library once too, and splices
/// that analysis in the same way.
pub fn lower_to_spinlib_styled(m: &Module, style: LibStyle) -> Result<Module, LowerError> {
    let offset = m.functions.len();
    let lib = SpinLib::at_offset(offset);

    // Static sanity: barriers need 3 words.
    for func in &m.functions {
        for block in &func.blocks {
            for instr in &block.instrs {
                if let Instr::BarrierInit { addr, .. } | Instr::BarrierWait { addr } = instr {
                    if let AddrExpr::Global { global, disp } = addr {
                        let g = &m.globals[global.0 as usize];
                        if g.words.saturating_sub(*disp as u64) < 3 {
                            return Err(LowerError::BarrierTooSmall {
                                global: g.name.clone(),
                                words: g.words,
                            });
                        }
                    }
                }
            }
        }
    }

    let mut out = m.clone();
    out.name = format!("{}.nolib", m.name);
    out.spin = None;
    for func in &mut out.functions {
        let mut next_reg = func.num_regs;
        for block in &mut func.blocks {
            let mut instrs = Vec::with_capacity(block.instrs.len());
            for instr in block.instrs.drain(..) {
                lower_instr(instr, &lib, &mut instrs, &mut next_reg);
            }
            block.instrs = instrs;
        }
        func.num_regs = next_reg;
    }
    out.functions
        .extend(library_functions(style).iter().map(|f| shifted(f, offset)));

    validate(&out).map_err(LowerError::Invalid)?;
    Ok(out)
}

/// Ids of the spin library functions inside a lowered module (for
/// diagnostics and tests).
pub fn spinlib_ids(original: &Module) -> SpinLib {
    SpinLib::at_offset(original.functions.len())
}

/// A copy of library function `f` whose `Call`/`Spawn` targets are moved
/// up by `offset`.
fn shifted(f: &Function, offset: usize) -> Function {
    let mut f = f.clone();
    for instr in f.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
        if let Instr::Call { func, .. } | Instr::Spawn { func, .. } = instr {
            func.0 += offset as u32;
        }
    }
    f
}

fn lower_instr(instr: Instr, lib: &SpinLib, out: &mut Vec<Instr>, next_reg: &mut u16) {
    match instr {
        Instr::MutexLock { addr } => {
            let p = materialize(addr, out, next_reg);
            out.push(call(lib.mutex_lock, vec![p]));
        }
        Instr::MutexUnlock { addr } => {
            let p = materialize(addr, out, next_reg);
            out.push(call(lib.mutex_unlock, vec![p]));
        }
        Instr::CondSignal { cv } => {
            let c = materialize(cv, out, next_reg);
            out.push(call(lib.cond_signal, vec![c]));
        }
        Instr::CondBroadcast { cv } => {
            let c = materialize(cv, out, next_reg);
            out.push(call(lib.cond_broadcast, vec![c]));
        }
        Instr::CondWait { cv, mutex } => {
            let c = materialize(cv, out, next_reg);
            let mu = materialize(mutex, out, next_reg);
            out.push(call(lib.cond_wait, vec![c, mu]));
        }
        Instr::BarrierInit { addr, count } => {
            let b = materialize(addr, out, next_reg);
            out.push(call(lib.barrier_init, vec![b, count]));
        }
        Instr::BarrierWait { addr } => {
            let b = materialize(addr, out, next_reg);
            out.push(call(lib.barrier_wait, vec![b]));
        }
        Instr::SemInit { addr, value } => {
            let s = materialize(addr, out, next_reg);
            out.push(call(lib.sem_init, vec![s, value]));
        }
        Instr::SemWait { addr } => {
            let s = materialize(addr, out, next_reg);
            out.push(call(lib.sem_wait, vec![s]));
        }
        Instr::SemPost { addr } => {
            let s = materialize(addr, out, next_reg);
            out.push(call(lib.sem_post, vec![s]));
        }
        other => out.push(other),
    }
}

fn call(func: spinrace_tir::FuncId, args: Vec<Operand>) -> Instr {
    Instr::Call {
        dst: None,
        func,
        args,
    }
}

/// Turn an address expression into a value operand, appending the
/// necessary computation.
fn materialize(addr: AddrExpr, out: &mut Vec<Instr>, next_reg: &mut u16) -> Operand {
    let mut fresh = || {
        let r = Reg(*next_reg);
        *next_reg += 1;
        r
    };
    match addr {
        AddrExpr::Global { global, disp } => {
            let dst = fresh();
            out.push(Instr::AddrOf { dst, global, disp });
            Operand::Reg(dst)
        }
        AddrExpr::GlobalIndexed {
            global,
            index,
            scale,
            disp,
        } => {
            let base = fresh();
            out.push(Instr::AddrOf {
                dst: base,
                global,
                disp,
            });
            let scaled = fresh();
            out.push(Instr::Bin {
                op: BinOp::Mul,
                dst: scaled,
                a: Operand::Reg(index),
                b: Operand::Imm(scale),
            });
            let sum = fresh();
            out.push(Instr::Bin {
                op: BinOp::Add,
                dst: sum,
                a: Operand::Reg(base),
                b: Operand::Reg(scaled),
            });
            Operand::Reg(sum)
        }
        AddrExpr::Based { base, disp } => {
            if disp == 0 {
                Operand::Reg(base)
            } else {
                let sum = fresh();
                out.push(Instr::Bin {
                    op: BinOp::Add,
                    dst: sum,
                    a: Operand::Reg(base),
                    b: Operand::Imm(disp),
                });
                Operand::Reg(sum)
            }
        }
        AddrExpr::BasedIndexed {
            base,
            index,
            scale,
            disp,
        } => {
            let scaled = fresh();
            out.push(Instr::Bin {
                op: BinOp::Mul,
                dst: scaled,
                a: Operand::Reg(index),
                b: Operand::Imm(scale),
            });
            let sum = fresh();
            out.push(Instr::Bin {
                op: BinOp::Add,
                dst: sum,
                a: Operand::Reg(base),
                b: Operand::Reg(scaled),
            });
            if disp == 0 {
                Operand::Reg(sum)
            } else {
                let fin = fresh();
                out.push(Instr::Bin {
                    op: BinOp::Add,
                    dst: fin,
                    a: Operand::Reg(sum),
                    b: Operand::Imm(disp),
                });
                Operand::Reg(fin)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::ModuleBuilder;

    #[test]
    fn lowered_module_has_no_lib_sync() {
        let mut mb = ModuleBuilder::new("t");
        let mu = mb.global("mu", 1);
        let cv = mb.global("cv", 1);
        let bar = mb.global("bar", 3);
        let sem = mb.global("sem", 1);
        mb.entry("main", |f| {
            f.barrier_init(bar.at(0), 1);
            f.sem_init(sem.at(0), 1);
            f.lock(mu.at(0));
            f.signal(cv.at(0));
            f.unlock(mu.at(0));
            f.barrier_wait(bar.at(0));
            f.sem_wait(sem.at(0));
            f.sem_post(sem.at(0));
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
        for func in &low.functions {
            for block in &func.blocks {
                for i in &block.instrs {
                    assert!(!i.is_lib_sync(), "leftover lib sync {i:?} in {}", func.name);
                }
            }
        }
        assert_eq!(low.functions.len(), m.functions.len() + 10);
    }

    #[test]
    fn spliced_library_equals_one_built_at_its_offset() {
        for helpers in 0..40 {
            let mut mb = ModuleBuilder::new("t");
            for i in 0..helpers {
                mb.function(&format!("helper{i}"), 0, |f| f.ret(None));
            }
            mb.entry("main", |f| f.ret(None));
            let m = mb.finish().unwrap();
            let n = m.functions.len();
            for style in [LibStyle::Textbook, LibStyle::Obscure] {
                let low = lower_to_spinlib_styled(&m, style).unwrap();
                assert_eq!(
                    low.functions[n..],
                    SpinLib::at_offset(n).build_functions(style),
                    "{style:?} library at offset {n}"
                );
            }
        }
    }

    #[test]
    fn small_barrier_global_is_rejected() {
        let mut mb = ModuleBuilder::new("t");
        let bar = mb.global("bar", 1);
        mb.entry("main", |f| {
            f.barrier_init(bar.at(0), 1);
            f.barrier_wait(bar.at(0));
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        assert!(matches!(
            lower_to_spinlib_styled(&m, LibStyle::Textbook),
            Err(LowerError::BarrierTooSmall { .. })
        ));
    }

    #[test]
    fn non_sync_instructions_survive_untouched() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        mb.entry("main", |f| {
            let v = f.const_(1);
            f.store(g.at(0), v);
            f.output(v);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let low = lower_to_spinlib_styled(&m, LibStyle::Textbook).unwrap();
        assert_eq!(
            low.functions[0].blocks[0].instrs,
            m.functions[0].blocks[0].instrs
        );
    }
}
