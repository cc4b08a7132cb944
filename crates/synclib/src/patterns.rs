//! Builder combinators for ad-hoc synchronization patterns.
//!
//! The test suites use these to plant the paper's patterns in workload
//! programs: plain flag waits, padded multi-block spin conditions (for the
//! window sweep of Table 2), and flag publication.

use spinrace_tir::{AddrExpr, FunctionBuilder, Operand};

/// Emit `while (mem[addr] == 0) {}` — the canonical 1-block spinning read
/// loop. Leaves the builder positioned after the loop.
pub fn spin_until_nonzero(f: &mut FunctionBuilder, addr: AddrExpr) {
    let head = f.new_block();
    let done = f.new_block();
    f.jump(head);
    f.switch_to(head);
    let v = f.load(addr);
    f.branch(v, done, head);
    f.switch_to(done);
}

/// Emit `while (mem[addr] < val) {}` — monotone-counter wait, the shape
/// used when one flag word is reused across rounds (value = round).
pub fn spin_until_ge(f: &mut FunctionBuilder, addr: AddrExpr, val: impl Into<Operand>) {
    let head = f.new_block();
    let done = f.new_block();
    let target = val.into();
    f.jump(head);
    f.switch_to(head);
    let v = f.load(addr);
    let hit = f.ge(v, target);
    f.branch(hit, done, head);
    f.switch_to(done);
}

/// Emit `while (mem[addr] != val) {}`.
pub fn spin_until_eq(f: &mut FunctionBuilder, addr: AddrExpr, val: impl Into<Operand>) {
    let head = f.new_block();
    let done = f.new_block();
    let target = val.into();
    f.jump(head);
    f.switch_to(head);
    let v = f.load(addr);
    let hit = f.eq(v, target);
    f.branch(hit, done, head);
    f.switch_to(done);
}

/// Emit a spinning read loop padded to exactly `blocks` basic blocks
/// (1 ≤ blocks): the condition block plus `blocks - 1` chained pure body
/// blocks. Used to probe the detection window (paper Table 2).
pub fn spin_until_nonzero_sized(f: &mut FunctionBuilder, addr: AddrExpr, blocks: u32) {
    assert!(blocks >= 1, "a loop needs at least one block");
    let head = f.new_block();
    let done = f.new_block();
    f.jump(head);
    f.switch_to(head);
    let v = f.load(addr);
    if blocks == 1 {
        f.branch(v, done, head);
    } else {
        let mut pads = Vec::with_capacity((blocks - 1) as usize);
        for _ in 0..blocks - 1 {
            pads.push(f.new_block());
        }
        f.branch(v, done, pads[0]);
        for (i, &p) in pads.iter().enumerate() {
            f.switch_to(p);
            f.nop();
            let next = if i + 1 < pads.len() {
                pads[i + 1]
            } else {
                head
            };
            f.jump(next);
        }
    }
    f.switch_to(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::ModuleBuilder;

    fn count_loop_blocks(blocks: u32) -> u32 {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        mb.entry("main", |f| {
            spin_until_nonzero_sized(f, g.at(0), blocks);
            f.ret(None);
        });
        let m = mb.finish().unwrap();
        // count via spinfind-free structural check: blocks minus entry+done
        (m.function(m.entry).blocks.len() - 2) as u32
    }

    #[test]
    fn sized_spin_produces_requested_block_count() {
        assert_eq!(count_loop_blocks(1), 1);
        assert_eq!(count_loop_blocks(3), 3);
        assert_eq!(count_loop_blocks(7), 7);
    }

    #[test]
    fn spin_until_eq_compares() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.global("g", 1);
        mb.entry("main", |f| {
            spin_until_eq(f, g.at(0), 4);
            f.ret(None);
        });
        assert!(mb.finish().is_ok());
    }
}
