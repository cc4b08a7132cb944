//! A function library's analysis, done once and spliced into every module
//! the library is appended to.
//!
//! A library whose functions call only each other has summaries and loop
//! verdicts that do not depend on the module it is appended to, except for
//! the function ids, which move up by the module's own function count. The
//! window enters only through the size criterion, so one analysis with no
//! window bound serves every window.

use crate::criteria::{Decision, LoopVerdict, RejectReason, SpinFinder};
use crate::summary::{summarize_with_tail, FnSummary};
use spinrace_tir::{FuncId, Function, Module, Pc};

/// A library of functions analysed at offset 0 with no window bound.
/// Build it once and hand it to [`SpinFinder::analyze_with_library`] for
/// every module that ends in the library.
#[derive(Debug)]
pub struct LibraryAnalysis {
    names: Vec<String>,
    summaries: Vec<FnSummary>,
    /// Verdicts in function order, then candidate order.
    verdicts: Vec<LoopVerdict>,
}

impl LibraryAnalysis {
    /// Analyse `functions`, which call only each other, by id from 0.
    pub fn new(functions: &[Function]) -> LibraryAnalysis {
        let summaries = summarize_with_tail(functions, Vec::new());
        let verdicts = SpinFinder::with_window(u32::MAX).classify_functions(functions, &summaries);
        LibraryAnalysis {
            names: functions.iter().map(|f| f.name.clone()).collect(),
            summaries,
            verdicts,
        }
    }

    /// Where the library starts in `m`. Panics unless `m` ends in
    /// functions named as the library's are.
    pub(crate) fn offset_in(&self, m: &Module) -> usize {
        m.functions
            .len()
            .checked_sub(self.names.len())
            .filter(|&n| {
                m.functions[n..]
                    .iter()
                    .zip(&self.names)
                    .all(|(f, name)| f.name == *name)
            })
            .unwrap_or_else(|| {
                panic!(
                    "module `{}` does not end in the library {:?}",
                    m.name, self.names
                )
            })
    }

    /// The library's summaries with every load moved to `offset`.
    pub(crate) fn summaries_at(&self, offset: usize) -> Vec<FnSummary> {
        self.summaries
            .iter()
            .map(|s| FnSummary {
                pure: s.pure,
                blocks: s.blocks,
                loads: s.loads.iter().map(|&pc| shift(pc, offset as u32)).collect(),
            })
            .collect()
    }

    /// The library's verdicts as they read at `window`, with every id
    /// moved to `offset`.
    pub(crate) fn verdicts_at(
        &self,
        offset: usize,
        window: u32,
    ) -> impl Iterator<Item = LoopVerdict> + '_ {
        self.verdicts
            .iter()
            .map(move |v| project(v, offset as u32, window))
    }
}

/// Window-free library verdict `v` as it reads at `window`, with its
/// function ids moved up by `offset`. The size criterion is checked after
/// the condition is found to load and before the body is inspected, so a
/// loop it rejects at `window` is one that got as far as acceptance or a
/// side-effecting body without a bound.
fn project(v: &LoopVerdict, offset: u32, window: u32) -> LoopVerdict {
    let decision = match &v.decision {
        Decision::Accepted { .. }
        | Decision::Rejected {
            reason: RejectReason::SideEffectingBody { .. },
        } if v.weight > window => Decision::Rejected {
            reason: RejectReason::TooLarge {
                weight: v.weight,
                window,
            },
        },
        Decision::Accepted { cond_loads } => Decision::Accepted {
            cond_loads: cond_loads.iter().map(|&pc| shift(pc, offset)).collect(),
        },
        Decision::Rejected { reason } => Decision::Rejected {
            reason: match *reason {
                RejectReason::SideEffectingBody { at } => RejectReason::SideEffectingBody {
                    at: shift(at, offset),
                },
                RejectReason::ImpureConditionCall { callee } => RejectReason::ImpureConditionCall {
                    callee: FuncId(callee.0 + offset),
                },
                ref other => other.clone(),
            },
        },
    };
    LoopVerdict {
        func: FuncId(v.func.0 + offset),
        blocks: v.blocks.clone(),
        decision,
        ..*v
    }
}

fn shift(pc: Pc, offset: u32) -> Pc {
    Pc {
        func: FuncId(pc.func.0 + offset),
        ..pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::BlockId;

    fn verdict(weight: u32, decision: Decision) -> LoopVerdict {
        LoopVerdict {
            func: FuncId(1),
            header: BlockId(1),
            blocks: [BlockId(1)].into(),
            size: 1,
            weight,
            decision,
        }
    }

    fn rejected(reason: RejectReason) -> Decision {
        Decision::Rejected { reason }
    }

    #[test]
    fn the_window_rejects_only_loops_that_passed_the_load_check() {
        let pc = |f| Pc::new(FuncId(f), BlockId(1), 0);
        let accepted = |f| Decision::Accepted {
            cond_loads: vec![pc(f)],
        };
        let body = |f| rejected(RejectReason::SideEffectingBody { at: pc(f) });
        let too_large = rejected(RejectReason::TooLarge {
            weight: 5,
            window: 4,
        });
        for (free, moved) in [(accepted(2), accepted(12)), (body(1), body(11))] {
            let v = verdict(5, free);
            assert_eq!(project(&v, 10, 4).decision, too_large);
            let kept = project(&v, 10, 5);
            assert_eq!((kept.func, kept.decision), (FuncId(11), moved));
        }
        // Rejections made before the size check stand at any window.
        let impure = |f| rejected(RejectReason::ImpureConditionCall { callee: FuncId(f) });
        assert_eq!(project(&verdict(9, impure(3)), 10, 1).decision, impure(13));
        let no_load = rejected(RejectReason::NoLoadInCondition);
        assert_eq!(
            project(&verdict(9, no_load.clone()), 10, 1).decision,
            no_load
        );
    }
}
