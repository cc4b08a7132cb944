//! The event stream: what the VM tells a race detector.

use spinrace_tir::{MemOrder, Pc, SpinLoopId};

/// Dynamic thread identifier (0 = main thread).
pub type ThreadId = u32;

/// One observable action, in program-order per thread and in a globally
/// consistent total order across threads (the VM interleaves whole
/// instructions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// `parent` created `child`.
    Spawn {
        parent: ThreadId,
        child: ThreadId,
        pc: Pc,
    },
    /// `parent` observed `child`'s termination.
    Join {
        parent: ThreadId,
        child: ThreadId,
        pc: Pc,
    },
    /// A thread finished (root frame returned).
    ThreadEnd { tid: ThreadId },

    /// A load. `atomic` carries the ordering for atomic loads; `spin` is
    /// set when the load is a tagged spin-condition load executed inside
    /// an active spin-loop instance.
    Read {
        tid: ThreadId,
        addr: u64,
        value: i64,
        pc: Pc,
        /// Hash of the call chain (Helgrind-style stack context); used to
        /// distinguish report contexts arising from shared library code.
        stack: u64,
        atomic: Option<MemOrder>,
        spin: Option<SpinLoopId>,
    },
    /// A store.
    Write {
        tid: ThreadId,
        addr: u64,
        value: i64,
        pc: Pc,
        /// Call-chain hash (see [`Event::Read::stack`]).
        stack: u64,
        atomic: Option<MemOrder>,
    },
    /// A successful atomic read-modify-write (CAS or RMW).
    Update {
        tid: ThreadId,
        addr: u64,
        old: i64,
        new: i64,
        pc: Pc,
        /// Call-chain hash (see [`Event::Read::stack`]).
        stack: u64,
        order: MemOrder,
    },
    /// A memory fence.
    Fence {
        tid: ThreadId,
        order: MemOrder,
        pc: Pc,
    },

    /// Mutex acquired (library mode).
    MutexLock { tid: ThreadId, mutex: u64, pc: Pc },
    /// Mutex released (library mode).
    MutexUnlock { tid: ThreadId, mutex: u64, pc: Pc },
    /// Condition variable signalled (one waiter released if any).
    CondSignal { tid: ThreadId, cv: u64, pc: Pc },
    /// Condition variable broadcast.
    CondBroadcast { tid: ThreadId, cv: u64, pc: Pc },
    /// A `CondWait` returned (signal received *and* mutex re-acquired).
    CondWaitReturn {
        tid: ThreadId,
        cv: u64,
        mutex: u64,
        pc: Pc,
    },
    /// Thread arrived at a barrier (generation `gen`).
    BarrierEnter {
        tid: ThreadId,
        barrier: u64,
        gen: u64,
        pc: Pc,
    },
    /// Thread released from a barrier (generation `gen`).
    BarrierLeave {
        tid: ThreadId,
        barrier: u64,
        gen: u64,
        pc: Pc,
    },
    /// Semaphore V.
    SemPost { tid: ThreadId, sem: u64, pc: Pc },
    /// Semaphore P completed.
    SemAcquired { tid: ThreadId, sem: u64, pc: Pc },

    /// A thread entered an instrumented spinning read loop.
    SpinEnter { tid: ThreadId, spin: SpinLoopId },
    /// A thread left an instrumented spinning read loop. `reads` lists the
    /// `(address, load-pc)` pairs of the *final* iteration's condition
    /// loads — the reads whose observed values allowed the exit, i.e. the
    /// read side of the paper's write/read dependency.
    SpinExit {
        tid: ThreadId,
        spin: SpinLoopId,
        reads: Vec<(u64, Pc)>,
    },

    /// `Output` instruction (program result logging).
    Output { tid: ThreadId, value: i64 },
}

impl Event {
    /// The thread performing the event.
    pub fn tid(&self) -> ThreadId {
        match self {
            Event::Spawn { parent, .. } | Event::Join { parent, .. } => *parent,
            Event::ThreadEnd { tid }
            | Event::Read { tid, .. }
            | Event::Write { tid, .. }
            | Event::Update { tid, .. }
            | Event::Fence { tid, .. }
            | Event::MutexLock { tid, .. }
            | Event::MutexUnlock { tid, .. }
            | Event::CondSignal { tid, .. }
            | Event::CondBroadcast { tid, .. }
            | Event::CondWaitReturn { tid, .. }
            | Event::BarrierEnter { tid, .. }
            | Event::BarrierLeave { tid, .. }
            | Event::SemPost { tid, .. }
            | Event::SemAcquired { tid, .. }
            | Event::SpinEnter { tid, .. }
            | Event::SpinExit { tid, .. }
            | Event::Output { tid, .. } => *tid,
        }
    }

    /// True for plain (non-atomic, non-spin) data accesses — the events a
    /// race detector must check.
    pub fn is_plain_access(&self) -> bool {
        matches!(
            self,
            Event::Read {
                atomic: None,
                spin: None,
                ..
            } | Event::Write { atomic: None, .. }
        )
    }

    /// The single data address this event touches (`Read`/`Write`/
    /// `Update`), if any. Data accesses are the only events whose effect
    /// is confined to one memory word.
    pub fn data_addr(&self) -> Option<u64> {
        match self {
            Event::Read { addr, .. } | Event::Write { addr, .. } | Event::Update { addr, .. } => {
                Some(*addr)
            }
            _ => None,
        }
    }
}

/// Consumer of the VM's event stream.
///
/// Delivery contract: the interpreter synthesizes each [`Event`] once, on
/// its stack, and hands it to the sink **by reference, synchronously** —
/// there is no per-event queue or buffering copy between the VM and a
/// detector. Sinks that need to retain events must copy them explicitly
/// ([`RecordingSink`] is the canonical buffering sink); a detector reads
/// the fields it needs and keeps nothing, which is what makes the
/// replay-from-recording path equivalent to live runs.
///
/// A sink can also stop the run: [`crate::Vm::run`] polls
/// [`EventSink::halted`] once every 4096 steps and ends the run early
/// when it returns true (a detection whose watchdog or shadow budget
/// tripped has no use for the rest of the stream).
pub trait EventSink {
    /// Called for every event, in execution order.
    fn on_event(&mut self, ev: &Event);

    /// True once the sink wants no more events. Sampled, not checked per
    /// event: up to 4096 further steps' events may still arrive.
    fn halted(&self) -> bool {
        false
    }
}

/// Discards all events.
#[derive(Default)]
pub struct NullSink;
impl EventSink for NullSink {
    fn on_event(&mut self, _ev: &Event) {}
}

/// Records all events (tests and trace dumps).
#[derive(Default)]
pub struct RecordingSink {
    /// The recorded stream.
    pub events: Vec<Event>,
}
impl EventSink for RecordingSink {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

/// `&mut S` forwards to `S`, so borrowed sinks compose with the owned
/// combinators below without lifetime-bound wrapper types.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn on_event(&mut self, ev: &Event) {
        (**self).on_event(ev);
    }

    fn halted(&self) -> bool {
        (**self).halted()
    }
}

/// Tee: duplicates one stream into two sinks, first `a` then `b`. Owned
/// and generic — monomorphized call sites keep the per-event cost at two
/// direct calls, and either slot can hold `&mut` to an external sink (the
/// recorder-plus-detector path records a trace while detecting live).
/// Nest tees for wider fan-out.
pub struct Tee<A, B> {
    /// First receiver (e.g. a [`crate::TraceRecorder`]).
    pub a: A,
    /// Second receiver (e.g. a race detector).
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Tee into `a` then `b`.
    pub fn new(a: A, b: B) -> Tee<A, B> {
        Tee { a, b }
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    fn on_event(&mut self, ev: &Event) {
        self.a.on_event(ev);
        self.b.on_event(ev);
    }

    fn halted(&self) -> bool {
        self.a.halted() || self.b.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{BlockId, FuncId};

    #[test]
    fn plain_access_classification() {
        let pc = Pc::new(FuncId(0), BlockId(0), 0);
        let plain = Event::Read {
            tid: 1,
            addr: 0x1000,
            value: 0,
            pc,
            stack: 0,
            atomic: None,
            spin: None,
        };
        assert!(plain.is_plain_access());
        let spin = Event::Read {
            tid: 1,
            addr: 0x1000,
            value: 0,
            pc,
            stack: 0,
            atomic: None,
            spin: Some(SpinLoopId(0)),
        };
        assert!(!spin.is_plain_access());
        let atomic = Event::Write {
            tid: 1,
            addr: 0x1000,
            value: 0,
            pc,
            stack: 0,
            atomic: Some(MemOrder::Release),
        };
        assert!(!atomic.is_plain_access());
        // data_addr covers all access flavors, and nothing else.
        assert_eq!(plain.data_addr(), Some(0x1000));
        assert_eq!(atomic.data_addr(), Some(0x1000));
        let upd = Event::Update {
            tid: 1,
            addr: 0x2000,
            old: 0,
            new: 1,
            pc,
            stack: 0,
            order: MemOrder::SeqCst,
        };
        assert_eq!(upd.data_addr(), Some(0x2000));
        assert_eq!(Event::Output { tid: 0, value: 1 }.data_addr(), None);
        assert_eq!(
            Event::MutexLock {
                tid: 0,
                mutex: 0x3000,
                pc
            }
            .data_addr(),
            None,
            "sync-object addresses are not data addresses"
        );
    }

    #[test]
    fn tee_duplicates_in_order_and_borrows_compose() {
        let mut external = RecordingSink::default();
        let mut tee = Tee::new(RecordingSink::default(), &mut external);
        tee.on_event(&Event::Output { tid: 0, value: 1 });
        tee.on_event(&Event::Output { tid: 1, value: 2 });
        let owned = tee.a;
        assert_eq!(owned.events.len(), 2);
        assert_eq!(external.events, owned.events);
    }

    #[test]
    fn recording_sink_keeps_order() {
        let pc = Pc::new(FuncId(0), BlockId(0), 0);
        let mut sink = RecordingSink::default();
        sink.on_event(&Event::Output { tid: 0, value: 1 });
        sink.on_event(&Event::Fence {
            tid: 0,
            order: MemOrder::SeqCst,
            pc,
        });
        assert_eq!(sink.events.len(), 2);
        assert!(matches!(sink.events[0], Event::Output { .. }));
    }
}
