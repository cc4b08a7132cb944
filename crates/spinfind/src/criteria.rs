//! The spin-loop classifier: applies the paper's criteria to every natural
//! loop and produces the instrumentation side table.

use crate::library::LibraryAnalysis;
use crate::summary::{summarize_functions, summarize_with_tail, FnSummary};
use spinrace_cfg::{
    backward_slice, find_candidate_loops, Cfg, Dominators, NaturalLoop, SliceInput,
};
use spinrace_tir::{FuncId, Function, Instr, Module, Pc, SpinLoopId, SpinLoopInfo, SpinTable};
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
    /// The analysis made of `verdicts`, in function order and, within a
    /// function, in candidate order; accepted loops are numbered in that
    /// order.
    fn from_verdicts(window: u32, verdicts: impl IntoIterator<Item = LoopVerdict>) -> Self {
        // Per header, the accepted candidate with the most blocks wins
        // (candidates are pre-sorted by (header, size) ascending, so a
        // later accepted candidate with the same header supersedes an
        // earlier one). The runtime needs a unique loop per header.
        let mut accepted: Vec<SpinLoopInfo> = Vec::new();
        let mut all = Vec::new();
        for verdict in verdicts {
            if let Decision::Accepted { cond_loads } = &verdict.decision {
                let info = SpinLoopInfo {
                    id: SpinLoopId(0), // numbered below
                    func: verdict.func,
                    header: verdict.header,
                    blocks: verdict.blocks.iter().copied().collect(),
                    cond_loads: cond_loads.clone(),
                    weight: verdict.weight,
                };
                match accepted
                    .iter_mut()
                    .find(|i| (i.func, i.header) == (verdict.func, verdict.header))
                {
                    Some(slot) => *slot = info,
                    None => accepted.push(info),
                }
            }
            all.push(verdict);
        }
        let mut table = SpinTable {
            window,
            ..Default::default()
        };
        for (i, info) in accepted.iter_mut().enumerate() {
            info.id = SpinLoopId(i as u32);
            for pc in &info.cond_loads {
                // A load shared by several loops (e.g. the same pure
                // callee used by two spin loops) belongs to the loop with
                // the lowest id; runtime attribution uses the active
                // instance anyway.
                table.tagged_loads.entry(*pc).or_insert(info.id);
            }
        }
        table.loops = accepted;
        SpinAnalysis {
            verdicts: all,
            table,
        }
    }

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
        let verdicts = self.classify_functions(&m.functions, &summaries);
        SpinAnalysis::from_verdicts(self.criteria.window, verdicts)
    }

    /// [`SpinFinder::analyze`] for a module that ends in the library `lib`
    /// analysed, with the same result. Only the functions before the
    /// library are classified (reading the library's summaries from
    /// `lib`); the library's window-free verdicts are projected to this
    /// finder's window and follow the user verdicts. Panics if `m` does
    /// not end in `lib`'s functions.
    pub fn analyze_with_library(&self, m: &Module, lib: &LibraryAnalysis) -> SpinAnalysis {
        if !self.criteria.interprocedural {
            // The library was analysed following pure callees.
            return self.analyze(m);
        }
        let offset = lib.offset_in(m);
        let summaries = summarize_with_tail(&m.functions, lib.summaries_at(offset));
        let user = self.classify_functions(&m.functions[..offset], &summaries);
        let library = lib.verdicts_at(offset, self.criteria.window);
        SpinAnalysis::from_verdicts(self.criteria.window, user.into_iter().chain(library))
    }

    /// Analyze and attach the resulting [`SpinTable`] to the module.
    /// Returns the analysis (verdicts included) for inspection.
    pub fn instrument(&self, m: &mut Module) -> SpinAnalysis {
        let analysis = self.analyze(m);
        m.spin = Some(analysis.table.clone());
        analysis
    }

    /// Verdicts for every candidate loop of `functions` (ids from 0), in
    /// function order and, within a function, in candidate order.
    pub(crate) fn classify_functions(
        &self,
        functions: &[Function],
        summaries: &[FnSummary],
    ) -> Vec<LoopVerdict> {
        let mut verdicts = Vec::new();
        for (fi, func) in functions.iter().enumerate() {
            let cfg = Cfg::build(func);
            let dom = Dominators::compute(&cfg);
            for l in find_candidate_loops(func, &cfg, &dom) {
                verdicts.push(self.classify(FuncId(fi as u32), func, &cfg, &l, summaries));
            }
        }
        verdicts
    }

    fn classify(
        &self,
        fid: FuncId,
        func: &Function,
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
    use spinrace_tir::{FunctionBuilder, MemOrder, ModuleBuilder, Operand};

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
    fn a_shared_condition_load_belongs_to_the_lowest_loop_id() {
        // Two waiters in different functions spin on the same pure reader.
        let mut mb = ModuleBuilder::new("shared");
        let flag = mb.global("flag", 1);
        let reader = mb.function("reader", 0, |f| {
            let v = f.load(flag.at(0));
            f.ret(Some(Operand::Reg(v)));
        });
        let spin_on_reader = |f: &mut FunctionBuilder| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.call(reader, &[]);
            f.branch(v, done, head);
            f.switch_to(done);
            f.ret(None);
        };
        let first = mb.function("first_waiter", 0, spin_on_reader);
        let second = mb.function("second_waiter", 0, spin_on_reader);
        mb.entry("main", |f| {
            f.call_void(second, &[]);
            f.call_void(first, &[]);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let a = SpinFinder::default().analyze(&m);
        assert_eq!(a.accepted(), 2);
        let (lo, hi) = (&a.table.loops[0], &a.table.loops[1]);
        assert_eq!((lo.func, hi.func), (first, second));
        assert_eq!(lo.cond_loads, hi.cond_loads);
        let load = lo.cond_loads[0];
        assert_eq!(load.func, reader);
        assert_eq!(a.table.tagged_loads[&load], lo.id);
        assert_eq!(a.table.tagged_loads.len(), 1);
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
