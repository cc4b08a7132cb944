//! Differential proptest: the epoch-fast-path [`AnyDetector`] and the
//! retained slow full-VC [`ReferenceDetector`] must produce **identical**
//! results on arbitrary event schedules — same racy contexts, same report
//! lists (locations, kinds, order), same promoted locations — under every
//! detector configuration. This is the semantic safety net for the paged
//! shadow memory, the adaptive read representation, and every early exit
//! in `on_plain_read`/`on_plain_write`.
//!
//! Since the trace redesign the differential also runs through the
//! [`Trace`] artifact instead of hand-fed streams: each schedule is
//! wrapped in a trace, the fast detector replays it directly, and the
//! reference replays an **encode → decode** round trip of the same trace
//! through the binary format — so one generator exercises the detector
//! equivalence *and* the column codecs of every event variant at once.
//!
//! The same checks also run on real recorded streams: three PARSEC
//! skeletons scaled 16×, under every tool of the paper lineup, in the
//! long-MSM integration mode with the 1000-context report cap.

use proptest::prelude::*;
use spinrace::core::{Session, Tool};
use spinrace::detector::{AnyDetector, DetectorConfig, MsmMode, ReferenceDetector};
use spinrace::suites::all_programs;
use spinrace::tir::{BlockId, FuncId, MemOrder, Pc, SpinLoopId};
use spinrace::tracefmt::{decode_trace, encode_trace, encode_trace_chunked};
use spinrace::vm::{Event, RunSummary, Trace, TraceHeader, VmConfig, TRACE_FORMAT_VERSION};

/// Threads used by generated schedules (0 is the implicit main thread).
const THREADS: u32 = 4;
/// Distinct data addresses.
const DATA_ADDRS: [u64; 8] = [
    0x1000, 0x1001, 0x1002, 0x1040, 0x2000, 0x2001, 0x5008, 0x9000,
];
/// Distinct sync-object addresses (mutexes/CVs/semaphores/barriers).
const SYNC_ADDRS: [u64; 4] = [0x7000, 0x7001, 0x7002, 0x7003];

fn pc(v: u64) -> Pc {
    Pc::new(
        FuncId((v % 3) as u32),
        BlockId((v % 5) as u32),
        (v % 7) as u32,
    )
}

/// Decode one raw `u64` into an event. The decoding is total: every raw
/// value maps to some event, so schedules cover promotions, suppressions,
/// racy and ordered interleavings, lockset churn, and sync-object reuse.
fn decode(raw: u64) -> Event {
    let tid = 1 + ((raw >> 8) % (THREADS as u64 - 1)) as u32; // workers 1..=3
    let any_tid = ((raw >> 8) % THREADS as u64) as u32;
    let addr = DATA_ADDRS[((raw >> 16) % DATA_ADDRS.len() as u64) as usize];
    let sync = SYNC_ADDRS[((raw >> 16) % SYNC_ADDRS.len() as u64) as usize];
    let stack = (raw >> 24) % 3;
    let site = pc(raw >> 32);
    match raw % 17 {
        0 | 1 => Event::Read {
            tid,
            addr,
            value: 0,
            pc: site,
            stack,
            atomic: None,
            spin: None,
        },
        2 | 3 => Event::Write {
            tid,
            addr,
            value: 1,
            pc: site,
            stack,
            atomic: None,
        },
        4 => Event::Read {
            tid,
            addr,
            value: 0,
            pc: site,
            stack,
            atomic: Some(MemOrder::Acquire),
            spin: None,
        },
        5 => Event::Write {
            tid,
            addr,
            value: 1,
            pc: site,
            stack,
            atomic: Some(MemOrder::Release),
        },
        6 => Event::Update {
            tid,
            addr,
            old: 0,
            new: 1,
            pc: site,
            stack,
            order: MemOrder::SeqCst,
        },
        7 => Event::Read {
            tid,
            addr,
            value: 0,
            pc: site,
            stack,
            atomic: None,
            spin: Some(SpinLoopId((raw % 2) as u32)),
        },
        8 => Event::SpinExit {
            tid,
            spin: SpinLoopId((raw % 2) as u32),
            reads: vec![(addr, site)],
        },
        9 => Event::MutexLock {
            tid,
            mutex: sync,
            pc: site,
        },
        10 => Event::MutexUnlock {
            tid,
            mutex: sync,
            pc: site,
        },
        11 => Event::CondSignal {
            tid,
            cv: sync,
            pc: site,
        },
        12 => Event::CondWaitReturn {
            tid,
            cv: sync,
            mutex: sync,
            pc: site,
        },
        13 => Event::SemPost {
            tid,
            sem: sync,
            pc: site,
        },
        14 => Event::SemAcquired {
            tid,
            sem: sync,
            pc: site,
        },
        15 => {
            if (raw >> 40).is_multiple_of(2) {
                Event::BarrierEnter {
                    tid,
                    barrier: sync,
                    gen: (raw >> 41) % 2,
                    pc: site,
                }
            } else {
                Event::BarrierLeave {
                    tid,
                    barrier: sync,
                    gen: (raw >> 41) % 2,
                    pc: site,
                }
            }
        }
        _ => Event::Join {
            parent: any_tid,
            child: tid,
            pc: site,
        },
    }
}

fn schedule(raw_ops: &[u64]) -> Vec<Event> {
    let mut evs: Vec<Event> = (1..THREADS)
        .map(|child| Event::Spawn {
            parent: 0,
            child,
            pc: pc(0),
        })
        .collect();
    evs.extend(raw_ops.iter().map(|&r| decode(r)));
    evs
}

fn configs() -> Vec<DetectorConfig> {
    vec![
        DetectorConfig::helgrind_lib(MsmMode::Short),
        DetectorConfig::helgrind_lib(MsmMode::Long),
        DetectorConfig::helgrind_lib_spin(MsmMode::Long),
        DetectorConfig::helgrind_nolib_spin(MsmMode::Short),
        DetectorConfig::drd(),
        // Tiny cap: saturation order must agree too.
        DetectorConfig::helgrind_lib(MsmMode::Short).with_cap(3),
    ]
}

/// Wrap a synthetic schedule in a trace artifact (there is no source
/// module; the header carries placeholder provenance).
fn trace_of(events: &[Event]) -> Trace {
    Trace {
        header: TraceHeader {
            version: TRACE_FORMAT_VERSION,
            module_name: "synthetic-schedule".into(),
            module_fingerprint: 0,
            tool_label: String::new(),
            vm: VmConfig::round_robin(),
            events: events.len() as u64,
        },
        summary: RunSummary::default(),
        events: events.to_vec(),
    }
}

/// The recorded trace and its encode→decode round trip through the
/// binary format (a small chunk target, so chunk boundaries fall inside
/// the schedule), which must be lossless for every generated event
/// variant.
fn roundtrip(events: &[Event]) -> Result<(Trace, Trace), TestCaseError> {
    let trace = trace_of(events);
    let parsed = decode_trace(&encode_trace_chunked(&trace, 7))
        .map_err(|e| TestCaseError(format!("trace failed to decode back: {e}")))?;
    prop_assert_eq!(&parsed, &trace, "binary round trip must be lossless");
    Ok((trace, parsed))
}

fn assert_equivalent(
    cfg: DetectorConfig,
    trace: &Trace,
    parsed: &Trace,
) -> Result<(), TestCaseError> {
    let mut fast = AnyDetector::new(cfg);
    trace.replay(&mut fast);
    let mut slow = ReferenceDetector::new(cfg);
    parsed.replay(&mut slow);
    prop_assert_eq!(fast.events_seen(), slow.events_seen());
    prop_assert_eq!(
        fast.racy_contexts(),
        slow.racy_contexts(),
        "contexts diverge under {:?}",
        cfg
    );
    prop_assert_eq!(
        fast.reports().reports(),
        slow.reports().reports(),
        "report lists diverge under {:?}",
        cfg
    );
    prop_assert_eq!(fast.reports().dropped(), slow.reports().dropped());
    prop_assert_eq!(
        fast.promoted_locations(),
        slow.promoted_locations(),
        "promotions diverge under {:?}",
        cfg
    );
    prop_assert_eq!(
        fast.metrics().shadow_bytes,
        slow.shadow_bytes(),
        "shadow accounting diverges under {:?}",
        cfg
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random mixed schedules: both detectors agree exactly, under every
    /// configuration — the fast detector fed from the recorded trace, the
    /// reference from its serialized round trip.
    #[test]
    fn epoch_detector_matches_reference(raw in proptest::collection::vec(0u64..u64::MAX, 0..160)) {
        let events = schedule(&raw);
        let (trace, parsed) = roundtrip(&events)?;
        for cfg in configs() {
            assert_equivalent(cfg, &trace, &parsed)?;
        }
    }

    /// Plain-access-only schedules stress the shadow hot paths hardest
    /// (every event lands in `on_plain_read`/`on_plain_write`).
    #[test]
    fn plain_access_storms_match(raw in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        let events = schedule(
            &raw.iter().map(|r| (r % 4) | (r & !0xffu64)).collect::<Vec<_>>(),
        );
        let (trace, parsed) = roundtrip(&events)?;
        for cfg in [
            DetectorConfig::helgrind_lib(MsmMode::Short),
            DetectorConfig::helgrind_lib(MsmMode::Long),
        ] {
            assert_equivalent(cfg, &trace, &parsed)?;
        }
    }
}

/// A handcrafted worst case for the adaptive read state: many concurrent
/// readers promote to `Shared`, a write collapses it, an exclusive reader
/// reclaims it — every transition must match the reference.
#[test]
fn read_state_transitions_match_reference() {
    let mut events = vec![
        Event::Spawn {
            parent: 0,
            child: 1,
            pc: pc(0),
        },
        Event::Spawn {
            parent: 0,
            child: 2,
            pc: pc(0),
        },
        Event::Spawn {
            parent: 0,
            child: 3,
            pc: pc(0),
        },
    ];
    // all three workers read the same word concurrently (promotes),
    for t in 1..=3u32 {
        events.push(Event::Read {
            tid: t,
            addr: 0x1000,
            value: 0,
            pc: pc(t as u64),
            stack: 0,
            atomic: None,
            spin: None,
        });
    }
    // thread 1 writes (racy vs readers 2,3; collapses the read set),
    events.push(Event::Write {
        tid: 1,
        addr: 0x1000,
        value: 1,
        pc: pc(9),
        stack: 0,
        atomic: None,
    });
    // then 1 re-reads its own write twice (exclusive fast path),
    for i in 0..2u64 {
        events.push(Event::Read {
            tid: 1,
            addr: 0x1000,
            value: 1,
            pc: pc(10 + i),
            stack: 0,
            atomic: None,
            spin: None,
        });
    }
    // and thread 2 writes again (racy write + racy-read candidates).
    events.push(Event::Write {
        tid: 2,
        addr: 0x1000,
        value: 2,
        pc: pc(20),
        stack: 0,
        atomic: None,
    });
    let trace = trace_of(&events);
    for cfg in configs() {
        let mut fast = AnyDetector::new(cfg);
        let mut slow = ReferenceDetector::new(cfg);
        trace.replay(&mut fast);
        trace.replay(&mut slow);
        assert_eq!(fast.racy_contexts(), slow.racy_contexts(), "{cfg:?}");
        assert_eq!(fast.reports().reports(), slow.reports().reports());
        assert!(fast.racy_contexts() > 0 || cfg.spin, "sanity: races exist");
    }
}

/// A plain read by `tid` of `addr` at site `at`.
fn plain_read(tid: u32, addr: u64, at: u64) -> Event {
    Event::Read {
        tid,
        addr,
        value: 0,
        pc: pc(at),
        stack: 0,
        atomic: None,
        spin: None,
    }
}

/// The shared-read fast path skips the prune when the reader joined
/// nothing since its own record went in. Two event shapes let a thread's
/// current epoch reach another clock without a tick: a join of a thread
/// that keeps running, and a spin promotion seeded with a writer's
/// epoch. Afterwards that thread's next shared read is covered by the
/// other reader's clock, which the fast path must notice.
#[test]
fn exposed_epochs_match_reference() {
    let (x, flag) = (0x1000, 0x1001);
    let spawns = (1..=3).map(|child| Event::Spawn {
        parent: 0,
        child,
        pc: pc(0),
    });
    // 1 joins 2 while 2 keeps running.
    let joined = [Event::Join {
        parent: 1,
        child: 2,
        pc: pc(9),
    }];
    // 2 writes the flag 1 spins on; the promotion seeds the flag's clock
    // with 2's epoch, which 1's spin exit acquires.
    let seeded = [
        Event::Write {
            tid: 2,
            addr: flag,
            value: 1,
            pc: pc(1),
            stack: 0,
            atomic: None,
        },
        Event::Read {
            tid: 1,
            addr: flag,
            value: 1,
            pc: pc(10),
            stack: 0,
            atomic: None,
            spin: Some(SpinLoopId(0)),
        },
        Event::SpinExit {
            tid: 1,
            spin: SpinLoopId(0),
            reads: vec![(flag, pc(10))],
        },
    ];
    // Shared reads of `x`, then a write by thread 0, ordered after none
    // of them: its report list names the surviving readers in order.
    let reads = [
        plain_read(3, x, 2),
        plain_read(1, x, 3),
        plain_read(2, x, 4),
        plain_read(1, x, 5),
        Event::Write {
            tid: 0,
            addr: x,
            value: 1,
            pc: pc(99),
            stack: 0,
            atomic: None,
        },
    ];
    for exposure in [&joined[..], &seeded[..]] {
        let events: Vec<Event> = spawns
            .clone()
            .chain(exposure.iter().cloned())
            .chain(reads.iter().cloned())
            .collect();
        let checked = roundtrip(&events).and_then(|(trace, parsed)| {
            configs()
                .into_iter()
                .try_for_each(|cfg| assert_equivalent(cfg, &trace, &parsed))
        });
        if let Err(e) = checked {
            panic!("{e}");
        }
    }
}

/// Recorded PARSEC streams, not just synthetic schedules: blackscholes
/// (no ad-hoc sync), vips (plain-flag spins) and dedup (atomics spins),
/// each scaled 16× and recorded once per paper tool. The fast detector
/// replays the recording and the reference its binary round trip, in
/// long-MSM mode with the 1000-context cap; at least one cell must
/// saturate the cap, so the order in which reports are kept and dropped
/// is compared on a real stream too.
#[test]
fn recorded_parsec_streams_match_reference() {
    let mut saturated = 0;
    for prog in all_programs()
        .into_iter()
        .filter(|p| matches!(p.name, "blackscholes" | "vips" | "dedup"))
    {
        let module = (prog.build)(prog.threads, prog.size * 16);
        for tool in Tool::paper_lineup() {
            let trace = Session::for_module(&module)
                .prepare(tool)
                .expect("prepare")
                .execute()
                .expect("vm run")
                .into_trace();
            let parsed = decode_trace(&encode_trace(&trace)).expect("decode recorded trace");
            assert_eq!(parsed, trace, "binary round trip must be lossless");
            let cfg = tool.detector_config(MsmMode::Long, 1000);
            if let Err(e) = assert_equivalent(cfg, &trace, &parsed) {
                panic!("{} under {}: {e}", prog.name, tool.label());
            }
            let mut fast = AnyDetector::new(cfg);
            trace.replay(&mut fast);
            saturated += usize::from(fast.reports().dropped() > 0);
        }
    }
    assert!(saturated > 0, "no recorded stream reached the report cap");
}
