//! Runtime tracking of spin-loop instances.
//!
//! The instrumentation phase marks loops statically; at run time the VM
//! must know, per thread and frame, which instances are live, reset their
//! read sets at each iteration (header re-entry) and report the final
//! iteration's reads on exit. This module precomputes the lookup tables,
//! does the block-transition bookkeeping, emits the resulting
//! [`Event::SpinEnter`] and [`Event::SpinExit`] events straight into the
//! run's sink, and counts them for the run summary.

use crate::events::{Event, EventSink, ThreadId};
use crate::machine::{ActiveSpin, Frame};
use spinrace_tir::{BlockId, FuncId, Module, Pc, SpinLoopId};
use std::collections::{HashMap, HashSet};

/// Precomputed spin-table lookups for one module, plus the run's spin
/// event counts.
#[derive(Clone, Debug, Default)]
pub struct SpinRuntime {
    /// `(func, header block)` → loop index.
    headers: HashMap<(FuncId, BlockId), usize>,
    /// Per loop index: member-block set.
    blocks: Vec<HashSet<BlockId>>,
    /// Per loop index: its public id.
    ids: Vec<SpinLoopId>,
    /// Tagged condition-load locations.
    tagged: HashSet<Pc>,
    /// `SpinEnter` events emitted.
    pub enters: u64,
    /// `SpinExit` events emitted.
    pub exits: u64,
}

impl SpinRuntime {
    /// Build from the module's spin table (empty runtime if none).
    pub fn new(m: &Module) -> SpinRuntime {
        let mut rt = SpinRuntime::default();
        if let Some(spin) = &m.spin {
            for (idx, info) in spin.loops.iter().enumerate() {
                rt.headers.insert((info.func, info.header), idx);
                rt.blocks.insert(idx, info.blocks.iter().copied().collect());
                rt.ids.insert(idx, info.id);
            }
            rt.tagged = spin.tagged_loads.keys().copied().collect();
        }
        rt
    }

    /// Is the load at `pc` a tagged spin-condition load?
    pub fn is_tagged(&self, pc: Pc) -> bool {
        self.tagged.contains(&pc)
    }

    /// Public id of loop `idx`.
    pub fn id(&self, idx: usize) -> SpinLoopId {
        self.ids[idx]
    }

    /// Update `frame`'s spin stack for `tid`'s transition to `block`:
    /// exit (innermost first) every instance whose loop does not contain
    /// the block, then enter the loop the block heads, unless this is its
    /// own back edge, which only starts a new iteration.
    pub fn on_block_entry(
        &mut self,
        tid: ThreadId,
        frame: &mut Frame,
        block: BlockId,
        sink: &mut dyn EventSink,
    ) {
        while let Some(top) = frame.spins.last() {
            if self.blocks[top.loop_idx].contains(&block) {
                break;
            }
            let top = frame.spins.pop().expect("checked non-empty");
            self.exit(tid, top, sink);
        }
        if let Some(&idx) = self.headers.get(&(frame.func, block)) {
            match frame.spins.last_mut() {
                Some(top) if top.loop_idx == idx => top.reads.clear(),
                _ => {
                    frame.spins.push(ActiveSpin {
                        loop_idx: idx,
                        reads: Vec::new(),
                    });
                    self.enters += 1;
                    sink.on_event(&Event::SpinEnter {
                        tid,
                        spin: self.ids[idx],
                    });
                }
            }
        }
    }

    /// Exit all live instances of a frame (frame pop / thread end).
    pub fn drain_frame(&mut self, tid: ThreadId, frame: &mut Frame, sink: &mut dyn EventSink) {
        while let Some(top) = frame.spins.pop() {
            self.exit(tid, top, sink);
        }
    }

    fn exit(&mut self, tid: ThreadId, spin: ActiveSpin, sink: &mut dyn EventSink) {
        self.exits += 1;
        sink.on_event(&Event::SpinExit {
            tid,
            spin: self.ids[spin.loop_idx],
            reads: spin.reads,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingSink;
    use spinrace_tir::{SpinLoopInfo, SpinTable};

    fn runtime_with_loop(func: FuncId, header: u32, blocks: &[u32]) -> SpinRuntime {
        let mut mb = spinrace_tir::ModuleBuilder::new("t");
        mb.entry("main", |f| f.ret(None));
        let mut m = mb.finish().unwrap();
        let mut table = SpinTable::default();
        table.loops.push(SpinLoopInfo {
            id: SpinLoopId(0),
            func,
            header: BlockId(header),
            blocks: blocks.iter().map(|b| BlockId(*b)).collect(),
            cond_loads: vec![],
            weight: blocks.len() as u32,
        });
        m.spin = Some(table);
        SpinRuntime::new(&m)
    }

    #[test]
    fn enter_iterate_exit() {
        let mut rt = runtime_with_loop(FuncId(0), 1, &[1, 2]);
        let mut frame = Frame::new(FuncId(0), 0, None);
        let mut sink = RecordingSink::default();

        // entry block 0: nothing
        rt.on_block_entry(3, &mut frame, BlockId(0), &mut sink);
        assert!(sink.events.is_empty());
        // into the header: enter
        rt.on_block_entry(3, &mut frame, BlockId(1), &mut sink);
        assert_eq!(
            sink.events,
            vec![Event::SpinEnter {
                tid: 3,
                spin: SpinLoopId(0)
            }]
        );
        // record a read, move to body, back to header: reads reset
        frame.spins[0]
            .reads
            .push((0x1000, Pc::new(FuncId(0), BlockId(1), 0)));
        rt.on_block_entry(3, &mut frame, BlockId(2), &mut sink);
        rt.on_block_entry(3, &mut frame, BlockId(1), &mut sink);
        assert_eq!(sink.events.len(), 1);
        assert!(frame.spins[0].reads.is_empty(), "iteration reset");
        // final iteration reads
        frame.spins[0]
            .reads
            .push((0x1001, Pc::new(FuncId(0), BlockId(1), 0)));
        // leave to block 3: exit with final reads
        rt.on_block_entry(3, &mut frame, BlockId(3), &mut sink);
        match &sink.events[1..] {
            [Event::SpinExit { tid, spin, reads }] => {
                assert_eq!((*tid, *spin), (3, SpinLoopId(0)));
                assert_eq!(reads.len(), 1);
                assert_eq!(reads[0].0, 0x1001);
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert!(frame.spins.is_empty());
        assert_eq!((rt.enters, rt.exits), (1, 1));
    }

    #[test]
    fn drain_on_frame_pop() {
        let mut rt = runtime_with_loop(FuncId(0), 1, &[1]);
        let mut frame = Frame::new(FuncId(0), 0, None);
        let mut sink = RecordingSink::default();
        rt.on_block_entry(0, &mut frame, BlockId(1), &mut sink);
        rt.drain_frame(0, &mut frame, &mut sink);
        assert_eq!(sink.events.len(), 2);
        assert!(matches!(sink.events[1], Event::SpinExit { .. }));
        assert_eq!((rt.enters, rt.exits), (1, 1));
    }

    #[test]
    fn untracked_function_is_noop() {
        let mut rt = runtime_with_loop(FuncId(5), 1, &[1]);
        let mut frame = Frame::new(FuncId(0), 0, None);
        let mut sink = RecordingSink::default();
        rt.on_block_entry(0, &mut frame, BlockId(1), &mut sink);
        assert!(sink.events.is_empty());
        assert!(frame.spins.is_empty());
    }
}
