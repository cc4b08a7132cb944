//! Per-function summaries for the interprocedural condition extension.

use spinrace_tir::{FuncId, Function, Instr, Module, Pc};

/// Summary of one function as seen by the spin-loop analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnSummary {
    /// True when the function (transitively) performs no side effects:
    /// no stores, atomics-with-write, sync ops, thread ops, allocation,
    /// output or traps. Pure functions may *load* freely — that is exactly
    /// what condition-evaluation helpers do.
    pub pure: bool,
    /// Total basic blocks, including those of transitively called
    /// functions — the contribution to a spin loop's effective weight.
    pub blocks: u32,
    /// All loads in the function and its transitive callees.
    pub loads: Vec<Pc>,
}

/// Compute summaries for every function in the module.
///
/// Requires an acyclic call graph (guaranteed by `spinrace_tir::validate`);
/// summaries are computed bottom-up with memoization.
pub fn summarize_functions(m: &Module) -> Vec<FnSummary> {
    summarize_with_tail(&m.functions, Vec::new())
}

/// Summaries of `functions` when those of its last `tail.len()` functions
/// are already known (`tail`, in order). The tail must call nothing before
/// it; only the functions before it are summarized.
pub(crate) fn summarize_with_tail(functions: &[Function], tail: Vec<FnSummary>) -> Vec<FnSummary> {
    let n = functions.len();
    let mut memo: Vec<Option<FnSummary>> = vec![None; n - tail.len()];
    memo.extend(tail.into_iter().map(Some));
    for f in 0..n {
        summarize(functions, FuncId(f as u32), &mut memo);
    }
    memo.into_iter().map(|s| s.expect("computed")).collect()
}

fn summarize(functions: &[Function], f: FuncId, memo: &mut Vec<Option<FnSummary>>) -> FnSummary {
    if let Some(s) = &memo[f.0 as usize] {
        return s.clone();
    }
    let func = &functions[f.0 as usize];
    let mut pure = true;
    let mut blocks = func.blocks.len() as u32;
    let mut loads: Vec<Pc> = Vec::new();
    for (b, block) in func.iter_blocks() {
        for (i, instr) in block.instrs.iter().enumerate() {
            match instr {
                Instr::Load { .. } => loads.push(Pc::new(f, b, i as u32)),
                Instr::Call { func: callee, .. } => {
                    let sub = summarize(functions, *callee, memo);
                    pure &= sub.pure;
                    blocks += sub.blocks;
                    loads.extend_from_slice(&sub.loads);
                }
                Instr::Fence { .. } | Instr::Yield | Instr::Nop => {}
                i if i.is_pure() => {}
                _ => pure = false,
            }
        }
    }
    loads.sort_unstable();
    loads.dedup();
    let s = FnSummary {
        pure,
        blocks,
        loads,
    };
    memo[f.0 as usize] = Some(s.clone());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{ModuleBuilder, Operand};

    #[test]
    fn pure_reader_is_pure() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        let reader = mb.function("reader", 0, |f| {
            let v = f.load(g.at(0));
            f.ret(Some(Operand::Reg(v)));
        });
        mb.entry("main", |f| {
            let v = f.call(reader, &[]);
            f.output(v);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let s = summarize_functions(&m);
        assert!(s[reader.0 as usize].pure);
        assert_eq!(s[reader.0 as usize].loads.len(), 1);
        assert!(!s[m.entry.0 as usize].pure, "main outputs");
    }

    #[test]
    fn writer_is_impure_and_poisons_callers() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        let writer = mb.function("writer", 0, |f| {
            f.store(g.at(0), 1);
            f.ret(None);
        });
        let wrapper = mb.function("wrapper", 0, |f| {
            f.call_void(writer, &[]);
            f.ret(None);
        });
        mb.entry("main", |f| {
            f.call_void(wrapper, &[]);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let s = summarize_functions(&m);
        assert!(!s[writer.0 as usize].pure);
        assert!(!s[wrapper.0 as usize].pure);
    }

    #[test]
    fn block_weight_accumulates_through_calls() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        // leaf has 3 blocks
        let leaf = mb.function("leaf", 0, |f| {
            let b1 = f.new_block();
            let b2 = f.new_block();
            let v = f.load(g.at(0));
            f.branch(v, b1, b2);
            f.switch_to(b1);
            f.ret(Some(Operand::Imm(1)));
            f.switch_to(b2);
            f.ret(Some(Operand::Imm(0)));
        });
        // mid has 1 own block + leaf's 3
        let mid = mb.function("mid", 0, |f| {
            let v = f.call(leaf, &[]);
            f.ret(Some(Operand::Reg(v)));
        });
        mb.entry("main", |f| {
            let v = f.call(mid, &[]);
            f.output(v);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let s = summarize_functions(&m);
        assert_eq!(s[leaf.0 as usize].blocks, 3);
        assert_eq!(s[mid.0 as usize].blocks, 4);
        assert!(s[mid.0 as usize].pure);
        assert_eq!(s[mid.0 as usize].loads.len(), 1);
    }

    #[test]
    fn sync_ops_are_impure() {
        let mut mb = ModuleBuilder::new("t");
        let mu = mb.global("mu", 1);
        let f1 = mb.function("locker", 0, |f| {
            f.lock(mu.at(0));
            f.unlock(mu.at(0));
            f.ret(None);
        });
        mb.entry("main", |f| {
            f.call_void(f1, &[]);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let s = summarize_functions(&m);
        assert!(!s[f1.0 as usize].pure);
    }
}
