//! Natural-loop detection from back edges.
//!
//! A back edge is an edge `n -> h` where `h` dominates `n`. The natural
//! loop of a back edge is `h` plus every block that can reach `n` without
//! passing through `h`. Back edges sharing a header are merged into one
//! loop — the classic construction, and what the paper's "find all loops"
//! step produces from binary control flow.

use crate::dom::Dominators;
use crate::graph::Cfg;
use spinrace_tir::{BlockId, Function};
use std::collections::BTreeSet;

/// One natural loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (single entry point).
    pub header: BlockId,
    /// All member blocks (header included), ascending.
    pub blocks: BTreeSet<BlockId>,
    /// The back edges `(latch, header)` that define the loop.
    pub back_edges: Vec<(BlockId, BlockId)>,
    /// Exit edges `(from_inside, to_outside)`.
    pub exits: Vec<(BlockId, BlockId)>,
}

impl NaturalLoop {
    /// Number of member blocks — the paper's loop-size metric before
    /// adding condition-callee weight.
    pub fn size(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Is `b` part of the loop?
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Blocks inside the loop whose terminator has a successor outside
    /// (the blocks whose branch conditions are loop *exit conditions*).
    pub fn exiting_blocks(&self) -> BTreeSet<BlockId> {
        self.exits.iter().map(|(from, _)| *from).collect()
    }
}

/// Find all natural loops of `func`, merging same-header back edges.
/// Loops are returned sorted by header id.
pub fn find_loops(func: &Function, cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for (b, _) in func.iter_blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for &s in cfg.succ(b) {
            if dom.dominates(s, b) {
                // back edge b -> s
                let header = s;
                match loops.iter_mut().find(|l| l.header == header) {
                    Some(l) => {
                        l.back_edges.push((b, header));
                        grow_loop(cfg, header, b, &mut l.blocks);
                    }
                    None => {
                        let mut blocks = BTreeSet::new();
                        blocks.insert(header);
                        grow_loop(cfg, header, b, &mut blocks);
                        loops.push(NaturalLoop {
                            header,
                            blocks,
                            back_edges: vec![(b, header)],
                            exits: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    // Compute exit edges.
    for l in &mut loops {
        for &b in &l.blocks {
            for &s in cfg.succ(b) {
                if !l.blocks.contains(&s) {
                    l.exits.push((b, s));
                }
            }
        }
        l.exits.sort_unstable();
        l.exits.dedup();
        l.back_edges.sort_unstable();
        l.back_edges.dedup();
    }
    loops.sort_by_key(|l| l.header);
    loops
}

/// Add to `blocks` every block that reaches `latch` without passing
/// through `header` (standard worklist walking predecessors).
fn grow_loop(cfg: &Cfg, header: BlockId, latch: BlockId, blocks: &mut BTreeSet<BlockId>) {
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if b == header || !blocks.insert(b) {
            continue;
        }
        for &p in cfg.pred(b) {
            if cfg.is_reachable(p) {
                work.push(p);
            }
        }
    }
}

/// Convenience: all loops of a function, building the CFG and dominators
/// internally.
pub fn loops_of(func: &Function) -> (Cfg, Dominators, Vec<NaturalLoop>) {
    let cfg = Cfg::build(func);
    let dom = Dominators::compute(&cfg);
    let loops = find_loops(func, &cfg, &dom);
    (cfg, dom, loops)
}

/// All *candidate* loops: one natural loop per back edge **plus** the
/// merged union per header, deduplicated by `(header, blocks)`.
///
/// The spin-loop analysis needs per-back-edge candidates because a pure
/// spinning read sub-loop can share its header with a larger retry loop
/// that is disqualified (the classic test-and-test-and-set lock: the inner
/// `while (*lock != 0)` self-loop is a spinning read loop, while the outer
/// CAS retry loop is not). Merging would hide the inner loop.
pub fn find_candidate_loops(func: &Function, cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut candidates: Vec<NaturalLoop> = Vec::new();
    // Per-back-edge loops.
    for (b, _) in func.iter_blocks() {
        if !cfg.is_reachable(b) {
            continue;
        }
        for &s in cfg.succ(b) {
            if dom.dominates(s, b) {
                let header = s;
                let mut blocks = BTreeSet::new();
                blocks.insert(header);
                grow_loop(cfg, header, b, &mut blocks);
                candidates.push(NaturalLoop {
                    header,
                    blocks,
                    back_edges: vec![(b, header)],
                    exits: Vec::new(),
                });
            }
        }
    }
    // Merged unions.
    candidates.extend(find_loops(func, cfg, dom));
    // Dedupe by (header, blocks); keep the first occurrence.
    let mut seen: Vec<(BlockId, BTreeSet<BlockId>)> = Vec::new();
    candidates.retain(|l| {
        let key = (l.header, l.blocks.clone());
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
    // (Re)compute exits for every candidate.
    for l in &mut candidates {
        l.exits.clear();
        for &b in &l.blocks {
            for &s in cfg.succ(b) {
                if !l.blocks.contains(&s) {
                    l.exits.push((b, s));
                }
            }
        }
        l.exits.sort_unstable();
        l.exits.dedup();
    }
    candidates.sort_by_key(|l| (l.header, l.blocks.len()));
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::ModuleBuilder;

    fn spin_module() -> spinrace_tir::Module {
        let mut mb = ModuleBuilder::new("l");
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
            f.jump(head);
            f.switch_to(done);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn two_block_spin_loop_detected() {
        let m = spin_module();
        let f = m.function(m.entry);
        let (_, _, loops) = loops_of(f);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.size(), 2);
        assert_eq!(l.back_edges, vec![(BlockId(2), BlockId(1))]);
        assert_eq!(l.exits, vec![(BlockId(1), BlockId(3))]);
        assert_eq!(l.exiting_blocks().len(), 1);
    }

    #[test]
    fn nested_loops_found_separately() {
        let mut mb = ModuleBuilder::new("n");
        let g = mb.global("g", 2);
        mb.entry("main", |f| {
            let outer = f.new_block();
            let inner = f.new_block();
            let after_inner = f.new_block();
            let done = f.new_block();
            f.jump(outer);
            f.switch_to(outer);
            let a = f.load(g.at(0));
            f.branch(a, done, inner);
            f.switch_to(inner);
            let b = f.load(g.at(1));
            f.branch(b, after_inner, inner);
            f.switch_to(after_inner);
            f.jump(outer);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let (_, _, loops) = loops_of(m.function(m.entry));
        assert_eq!(loops.len(), 2);
        // inner: {2}; outer: {1,2,3}
        let inner = loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        let outer = loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        assert_eq!(inner.size(), 1);
        assert_eq!(outer.size(), 3);
        assert!(outer.blocks.is_superset(&inner.blocks));
    }

    #[test]
    fn same_header_back_edges_merge() {
        // while with continue: two latches to the same header
        let mut mb = ModuleBuilder::new("m");
        let g = mb.global("g", 2);
        mb.entry("main", |f| {
            let head = f.new_block();
            let a = f.new_block();
            let b = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let c = f.load(g.at(0));
            f.branch(c, done, a);
            f.switch_to(a);
            let d = f.load(g.at(1));
            f.branch(d, head, b); // continue edge
            f.switch_to(b);
            f.jump(head); // normal latch
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let (_, _, loops) = loops_of(m.function(m.entry));
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].back_edges.len(), 2);
        assert_eq!(loops[0].size(), 3);
    }

    #[test]
    fn candidate_loops_expose_ttas_inner_spin() {
        // test: v=load; branch v!=0 ? test : try   (self back edge)
        // try:  old=cas;  branch old!=0 ? test : done  (back edge to test)
        let mut mb = ModuleBuilder::new("ttas");
        let lock = mb.global("lock", 1);
        mb.entry("main", |f| {
            let test = f.new_block();
            let try_b = f.new_block();
            let done = f.new_block();
            f.jump(test);
            f.switch_to(test);
            let v = f.load(lock.at(0));
            f.branch(v, test, try_b);
            f.switch_to(try_b);
            let old = f.cas(lock.at(0), 0, 1, spinrace_tir::MemOrder::AcqRel);
            f.branch(old, test, done);
            f.switch_to(done);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let func = m.function(m.entry);
        let cfg = Cfg::build(func);
        let dom = Dominators::compute(&cfg);
        // Merged view: one loop {test, try}.
        let merged = find_loops(func, &cfg, &dom);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].blocks.len(), 2);
        // Candidate view: the inner {test} self-loop appears too.
        let cands = find_candidate_loops(func, &cfg, &dom);
        assert_eq!(cands.len(), 2);
        let small = cands.iter().find(|l| l.blocks.len() == 1).unwrap();
        assert_eq!(small.header, BlockId(1));
        assert_eq!(small.exits, vec![(BlockId(1), BlockId(2))]);
        let big = cands.iter().find(|l| l.blocks.len() == 2).unwrap();
        assert_eq!(big.header, BlockId(1));
    }

    #[test]
    fn candidate_loops_dedupe_simple_loop() {
        let m = spin_module();
        let func = m.function(m.entry);
        let cfg = Cfg::build(func);
        let dom = Dominators::compute(&cfg);
        let cands = find_candidate_loops(func, &cfg, &dom);
        // single back edge → per-edge loop equals merged loop, deduped.
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut mb = ModuleBuilder::new("s");
        mb.entry("main", |f| {
            let b = f.new_block();
            f.jump(b);
            f.switch_to(b);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        let (_, _, loops) = loops_of(m.function(m.entry));
        assert!(loops.is_empty());
    }

    proptest::proptest! {
        /// Every member of a natural loop can reach a latch without leaving
        /// the loop, and the header dominates every member.
        #[test]
        fn loop_membership_invariants(seed in 0u64..300) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..9u32);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for i in 0..n - 1 {
                edges.push((i, i + 1));
            }
            for _ in 0..rng.gen_range(1..6) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                edges.push((a, b));
            }
            edges.sort_unstable();
            edges.dedup();
            let mut capped: Vec<(u32, u32)> = Vec::new();
            for e in edges {
                if capped.iter().filter(|(a, _)| *a == e.0).count() < 2 {
                    capped.push(e);
                }
            }
            // Build the module (same trick as dom tests).
            let mut mb = ModuleBuilder::new("p");
            let g = mb.global("g", 1);
            mb.entry("main", |f| {
                let blocks: Vec<_> = (1..n).map(|_| f.new_block()).collect();
                let block_of = |i: u32| if i == 0 { BlockId(0) } else { blocks[(i - 1) as usize] };
                for i in 0..n {
                    f.switch_to(block_of(i));
                    let succs: Vec<u32> =
                        capped.iter().filter(|(a, _)| *a == i).map(|(_, b)| *b).collect();
                    match succs.len() {
                        0 => f.ret(None),
                        1 => f.jump(block_of(succs[0])),
                        _ => {
                            let c = f.load(g.at(0));
                            f.branch(c, block_of(succs[0]), block_of(succs[1]));
                        }
                    }
                }
            });
            let m = mb.finish().unwrap();
            let func = m.function(m.entry);
            let cfg = Cfg::build(func);
            let dom = Dominators::compute(&cfg);
            let loops = find_loops(func, &cfg, &dom);
            for l in &loops {
                for &b in &l.blocks {
                    proptest::prop_assert!(dom.dominates(l.header, b),
                        "header {:?} must dominate member {:?}", l.header, b);
                }
                for &(latch, h) in &l.back_edges {
                    proptest::prop_assert_eq!(h, l.header);
                    proptest::prop_assert!(l.blocks.contains(&latch));
                }
                for &(from, to) in &l.exits {
                    proptest::prop_assert!(l.blocks.contains(&from) && !l.blocks.contains(&to));
                }
            }
        }
    }
}
