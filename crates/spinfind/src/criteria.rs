//! The spin-loop classifier: applies the paper's criteria to every natural
//! loop and produces the instrumentation side table.

use crate::summary::{summarize_functions, FnSummary};
use spinrace_cfg::{
    backward_slice, find_candidate_loops, Cfg, Dominators, NaturalLoop, SliceInput,
};
use spinrace_tir::{FuncId, Instr, Module, Pc, SpinLoopId, SpinLoopInfo, SpinTable};
use std::collections::BTreeSet;

/// Tunable knobs of the detection (paper defaults in parentheses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpinCriteria {
    /// Maximum effective loop size in basic blocks, pure-callee blocks
    /// included (7). The paper's Table 2 sweeps {3, 6, 7, 8}.
    pub window: u32,
    /// Follow condition evaluation into pure callees (true). Disabling
    /// this models a purely intraprocedural binary analysis.
    pub interprocedural: bool,
}

impl Default for SpinCriteria {
    fn default() -> Self {
        SpinCriteria {
            window: 7,
            interprocedural: true,
        }
    }
}

impl SpinCriteria {
    /// Criteria with a specific window, other knobs default.
    pub fn with_window(window: u32) -> Self {
        SpinCriteria {
            window,
            ..Default::default()
        }
    }
}

/// Why a loop was not classified as a spinning read loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Effective size exceeds the window.
    TooLarge { weight: u32, window: u32 },
    /// No load feeds any exit condition (e.g. a plain counter loop).
    NoLoadInCondition,
    /// The loop itself changes its condition (CAS/RMW in the slice).
    ConditionChangedByLoop,
    /// The body performs work (store/sync/IO/...) — not a waiting loop.
    SideEffectingBody { at: Pc },
    /// The condition calls a function with side effects; a binary
    /// analyzer cannot treat such a call as condition evaluation. (This is
    /// the mechanism behind the paper's "function pointers for condition
    /// evaluation and obscure implementation" false-positive residue.)
    ImpureConditionCall { callee: FuncId },
    /// The loop has no exit edge and thus cannot be a synchronization.
    NoExit,
}

/// The classification of one natural loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Spinning read loop; the given loads are its condition loads.
    Accepted { cond_loads: Vec<Pc> },
    /// Not a spinning read loop.
    Rejected { reason: RejectReason },
}

/// One analyzed loop (accepted or not) — the analysis' explainable output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopVerdict {
    /// Function containing the loop.
    pub func: FuncId,
    /// The underlying natural loop.
    pub header: spinrace_tir::BlockId,
    /// Member blocks.
    pub blocks: BTreeSet<spinrace_tir::BlockId>,
    /// Own basic-block count.
    pub size: u32,
    /// Effective size including pure condition callees.
    pub weight: u32,
    /// Accept/reject with detail.
    pub decision: Decision,
}

/// Full result of analyzing a module.
#[derive(Clone, Debug)]
pub struct SpinAnalysis {
    /// Verdict for every natural loop in the module.
    pub verdicts: Vec<LoopVerdict>,
    /// The side table for accepted loops (what gets attached to the module).
    pub table: SpinTable,
}

impl SpinAnalysis {
    /// Number of accepted spinning read loops.
    pub fn accepted(&self) -> usize {
        self.table.loops.len()
    }
    /// Verdicts that were rejected, with reasons.
    pub fn rejected(&self) -> impl Iterator<Item = &LoopVerdict> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v.decision, Decision::Rejected { .. }))
    }
}

/// The spin-loop detector (instrumentation phase).
#[derive(Clone, Debug, Default)]
pub struct SpinFinder {
    /// Detection knobs.
    pub criteria: SpinCriteria,
}

impl SpinFinder {
    /// Detector with the given criteria.
    pub fn new(criteria: SpinCriteria) -> Self {
        SpinFinder { criteria }
    }

    /// Detector with a specific basic-block window.
    pub fn with_window(window: u32) -> Self {
        SpinFinder::new(SpinCriteria::with_window(window))
    }

    /// Analyze every natural loop of every function.
    pub fn analyze(&self, m: &Module) -> SpinAnalysis {
        let summaries = summarize_functions(m);
        let mut verdicts = Vec::new();
        let mut table = SpinTable {
            window: self.criteria.window,
            ..Default::default()
        };
        for (fi, func) in m.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let cfg = Cfg::build(func);
            let dom = Dominators::compute(&cfg);
            // Per header, the accepted candidate with the most blocks wins
            // (candidates are pre-sorted by (header, size) ascending, so a
            // later accepted candidate with the same header supersedes an
            // earlier one). The runtime needs a unique loop per header.
            let mut accepted_here: Vec<(spinrace_tir::BlockId, SpinLoopInfo)> = Vec::new();
            for l in find_candidate_loops(func, &cfg, &dom) {
                let verdict = self.classify(fid, func, &cfg, &l, &summaries);
                if let Decision::Accepted { cond_loads } = &verdict.decision {
                    let info = SpinLoopInfo {
                        id: SpinLoopId(0), // assigned below
                        func: fid,
                        header: l.header,
                        blocks: l.blocks.iter().copied().collect(),
                        cond_loads: cond_loads.clone(),
                        weight: verdict.weight,
                    };
                    match accepted_here.iter_mut().find(|(h, _)| *h == l.header) {
                        Some(slot) => slot.1 = info,
                        None => accepted_here.push((l.header, info)),
                    }
                }
                verdicts.push(verdict);
            }
            for (_, mut info) in accepted_here {
                let id = SpinLoopId(table.loops.len() as u32);
                info.id = id;
                for pc in &info.cond_loads {
                    // Innermost owner wins for shared loads (e.g. the same
                    // pure callee used by two spin loops); runtime
                    // attribution uses the active instance anyway.
                    table.tagged_loads.entry(*pc).or_insert(id);
                }
                table.loops.push(info);
            }
        }
        SpinAnalysis { verdicts, table }
    }

    /// Analyze and attach the resulting [`SpinTable`] to the module.
    /// Returns the analysis (verdicts included) for inspection.
    pub fn instrument(&self, m: &mut Module) -> SpinAnalysis {
        let analysis = self.analyze(m);
        m.spin = Some(analysis.table.clone());
        analysis
    }

    fn classify(
        &self,
        fid: FuncId,
        func: &spinrace_tir::Function,
        cfg: &Cfg,
        l: &NaturalLoop,
        summaries: &[FnSummary],
    ) -> LoopVerdict {
        let size = l.size();
        let mut verdict = LoopVerdict {
            func: fid,
            header: l.header,
            blocks: l.blocks.clone(),
            size,
            weight: size,
            decision: Decision::Rejected {
                reason: RejectReason::NoExit,
            },
        };

        let exiting = l.exiting_blocks();
        if exiting.is_empty() {
            return verdict;
        }

        // Slice every exit condition.
        let mut cond_loads: Vec<Pc> = Vec::new();
        let mut cond_instrs: BTreeSet<Pc> = BTreeSet::new();
        let mut cond_callees: BTreeSet<FuncId> = BTreeSet::new();
        let mut call_sites: BTreeSet<Pc> = BTreeSet::new();
        for b in exiting {
            let s = backward_slice(&SliceInput {
                func,
                func_id: fid,
                cfg,
                loop_blocks: &l.blocks,
                from_block: b,
            });
            if s.disqualified {
                verdict.decision = Decision::Rejected {
                    reason: RejectReason::ConditionChangedByLoop,
                };
                return verdict;
            }
            cond_loads.extend_from_slice(&s.loads);
            cond_instrs.extend(s.instrs.iter().copied());
            for (pc, callee) in &s.calls {
                call_sites.insert(*pc);
                cond_callees.insert(*callee);
            }
        }

        // Interprocedural extension: pure callees contribute weight+loads.
        let mut weight = size;
        for callee in &cond_callees {
            let sum = &summaries[callee.0 as usize];
            if !self.criteria.interprocedural || !sum.pure {
                verdict.decision = Decision::Rejected {
                    reason: RejectReason::ImpureConditionCall { callee: *callee },
                };
                return verdict;
            }
            weight += sum.blocks;
            cond_loads.extend_from_slice(&sum.loads);
        }
        verdict.weight = weight;

        // Criterion 2: the condition must involve a load.
        cond_loads.sort_unstable();
        cond_loads.dedup();
        if cond_loads.is_empty() {
            verdict.decision = Decision::Rejected {
                reason: RejectReason::NoLoadInCondition,
            };
            return verdict;
        }

        // Criterion 1: small loop.
        if weight > self.criteria.window {
            verdict.decision = Decision::Rejected {
                reason: RejectReason::TooLarge {
                    weight,
                    window: self.criteria.window,
                },
            };
            return verdict;
        }

        // Criteria 3 & 4: do-nothing body; no write to the condition.
        for &b in &l.blocks {
            let blk = func.block(b);
            for (i, instr) in blk.instrs.iter().enumerate() {
                let pc = Pc::new(fid, b, i as u32);
                match instr {
                    // Reads and waiting are fine.
                    Instr::Load { .. } | Instr::Yield | Instr::Nop | Instr::Fence { .. } => {}
                    i if i.is_pure() => {}
                    // Calls: only pure condition-slice calls are allowed.
                    Instr::Call { func: callee, .. } => {
                        let allowed = call_sites.contains(&pc)
                            && summaries[callee.0 as usize].pure
                            && self.criteria.interprocedural;
                        if !allowed {
                            verdict.decision = Decision::Rejected {
                                reason: RejectReason::SideEffectingBody { at: pc },
                            };
                            return verdict;
                        }
                    }
                    _ => {
                        verdict.decision = Decision::Rejected {
                            reason: RejectReason::SideEffectingBody { at: pc },
                        };
                        return verdict;
                    }
                }
            }
        }

        verdict.decision = Decision::Accepted { cond_loads };
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{MemOrder, ModuleBuilder, Operand};

    /// Canonical 2-block flag spin: while(!flag){}.
    fn flag_spin() -> Module {
        let mut mb = ModuleBuilder::new("flag");
        let flag = mb.global("flag", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, done, head);
            f.switch_to(done);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn flag_spin_is_accepted_and_tagged() {
        let mut m = flag_spin();
        let a = SpinFinder::default().instrument(&mut m);
        assert_eq!(a.accepted(), 1);
        let spin = m.spin.as_ref().unwrap();
        assert_eq!(spin.loops[0].cond_loads.len(), 1);
        assert_eq!(spin.tagged_loads.len(), 1);
        assert_eq!(spin.loops[0].weight, 1);
        spinrace_tir::validate(&m).expect("tagged module still valid");
    }

    #[test]
    fn counter_loop_is_rejected_no_load() {
        let mut mb = ModuleBuilder::new("cnt");
        mb.entry("main", |f| {
            let head = f.new_block();
            let body = f.new_block();
            let done = f.new_block();
            let i = f.const_(0);
            f.jump(head);
            f.switch_to(head);
            let c = f.lt(i, 100);
            f.branch(c, body, done);
            f.switch_to(body);
            let i2 = f.add(i, 1);
            f.mov(i, i2);
            f.jump(head);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 0);
        assert!(matches!(
            a.verdicts[0].decision,
            Decision::Rejected {
                reason: RejectReason::NoLoadInCondition
            }
        ));
    }

    #[test]
    fn worker_loop_with_store_is_rejected() {
        // while(!done) { data++ } — the body works, not a waiting loop.
        let mut mb = ModuleBuilder::new("w");
        let done_g = mb.global("done", 1);
        let data = mb.global("data", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let body = f.new_block();
            let out = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(done_g.at(0));
            f.branch(v, out, body);
            f.switch_to(body);
            let d = f.load(data.at(0));
            let d2 = f.add(d, 1);
            f.store(data.at(0), d2);
            f.jump(head);
            f.switch_to(out);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 0);
        assert!(matches!(
            a.verdicts[0].decision,
            Decision::Rejected {
                reason: RejectReason::SideEffectingBody { .. }
            }
        ));
    }

    #[test]
    fn tas_cas_loop_is_rejected() {
        let mut mb = ModuleBuilder::new("tas");
        let lock = mb.global("lock", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let old = f.cas(lock.at(0), 0, 1, MemOrder::AcqRel);
            f.branch(old, head, done);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 0);
        assert!(matches!(
            a.verdicts[0].decision,
            Decision::Rejected {
                reason: RejectReason::ConditionChangedByLoop
            }
        ));
    }

    /// Build a spin whose condition is evaluated by a chain of pure calls
    /// totalling `extra` callee blocks.
    fn spin_with_callee_blocks(extra: u32) -> Module {
        let mut mb = ModuleBuilder::new("deep");
        let flag = mb.global("flag", 1);
        // A pure condition function with `extra` blocks (chain of jumps).
        let check = mb.function("check", 0, |f| {
            let v = f.load(flag.at(0));
            let mut prev = f.current();
            for _ in 1..extra {
                let nb = f.new_block();
                f.switch_to(prev);
                f.jump(nb);
                prev = nb;
                f.switch_to(nb);
            }
            f.switch_to(prev);
            f.ret(Some(Operand::Reg(v)));
        });
        mb.entry("main", |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.call(check, &[]);
            f.branch(v, done, head);
            f.switch_to(done);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn window_sweep_reproduces_paper_shape() {
        // Loop body = 1 block; condition callee = 5 blocks → weight 6.
        let m = spin_with_callee_blocks(5);
        assert_eq!(SpinFinder::with_window(3).analyze(&m).accepted(), 0);
        assert_eq!(SpinFinder::with_window(6).analyze(&m).accepted(), 1);
        assert_eq!(SpinFinder::with_window(7).analyze(&m).accepted(), 1);
        assert_eq!(SpinFinder::with_window(8).analyze(&m).accepted(), 1);
        // weight 7 loop: found by spin(7) but not spin(6)
        let m7 = spin_with_callee_blocks(6);
        assert_eq!(SpinFinder::with_window(6).analyze(&m7).accepted(), 0);
        assert_eq!(SpinFinder::with_window(7).analyze(&m7).accepted(), 1);
    }

    #[test]
    fn callee_loads_become_condition_loads() {
        let m = spin_with_callee_blocks(2);
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 1);
        let info = &a.table.loops[0];
        assert_eq!(info.cond_loads.len(), 1);
        // The load lives in the callee, not in main.
        assert_ne!(info.cond_loads[0].func, m.entry);
        assert!(a.table.tagged_loads.contains_key(&info.cond_loads[0]));
    }

    #[test]
    fn impure_condition_call_is_rejected() {
        let mut mb = ModuleBuilder::new("imp");
        let flag = mb.global("flag", 1);
        let check = mb.function("check_and_log", 0, |f| {
            let v = f.load(flag.at(0));
            f.output(v); // side effect
            f.ret(Some(Operand::Reg(v)));
        });
        mb.entry("main", |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.call(check, &[]);
            f.branch(v, done, head);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 0);
        assert!(matches!(
            a.verdicts[0].decision,
            Decision::Rejected {
                reason: RejectReason::ImpureConditionCall { .. }
            }
        ));
    }

    #[test]
    fn barrier_style_counter_spin_is_accepted() {
        // The paper's own Barrier() example:
        // while (counter != NUMBER_THREADS) {}
        let mut mb = ModuleBuilder::new("bar");
        let counter = mb.global("counter", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let done = f.new_block();
            let n = f.const_(4);
            f.jump(head);
            f.switch_to(head);
            let v = f.load(counter.at(0));
            let c = f.ne(v, n);
            f.branch(c, head, done);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 1);
    }

    #[test]
    fn yield_and_fence_allowed_in_body() {
        let mut mb = ModuleBuilder::new("y");
        let flag = mb.global("flag", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            let body = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, done, body);
            f.switch_to(body);
            f.yield_();
            f.fence(MemOrder::SeqCst);
            f.jump(head);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        assert_eq!(SpinFinder::default().analyze(&m).accepted(), 1);
    }

    #[test]
    fn two_spin_loops_get_distinct_ids() {
        let mut mb = ModuleBuilder::new("two");
        let f1g = mb.global("f1", 1);
        let f2g = mb.global("f2", 1);
        mb.entry("main", |f| {
            let h1 = f.new_block();
            let mid = f.new_block();
            let h2 = f.new_block();
            let done = f.new_block();
            f.jump(h1);
            f.switch_to(h1);
            let v1 = f.load(f1g.at(0));
            f.branch(v1, mid, h1);
            f.switch_to(mid);
            f.jump(h2);
            f.switch_to(h2);
            let v2 = f.load(f2g.at(0));
            f.branch(v2, done, h2);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 2);
        assert_ne!(a.table.loops[0].id, a.table.loops[1].id);
        assert_eq!(a.table.tagged_loads.len(), 2);
    }
}
