//! Differential proptest for the trace pipeline: for random small modules
//! and every tool in the paper lineup, **record → serialize → parse →
//! replay** must produce exactly the result of the live run —
//! same racy contexts, same described report lists, same detector
//! metrics, promotions, and run summary. This is the end-to-end guarantee
//! behind "record once, replay everywhere": the serialized artifact
//! carries everything detection needs.
//!
//! The same guarantee is held for the **binary columnar encoding**: the
//! stream is also encoded with a deliberately tiny chunk target (so the
//! multi-chunk framing, per-chunk codec reset, and dictionary rebuild
//! all fire), decoded back to an identical trace, and replayed through
//! the chunked streaming reader — which must produce the live result
//! too. A separate case pins json → binary → json as a byte fixed
//! point.

use proptest::prelude::*;
use spinrace::core::{DetectRequest, ExecutedRun, Session, Tool};
use spinrace::tir::{Module, ModuleBuilder};
use spinrace::tracefmt::{decode_trace, encode_trace_chunked, ChunkedTraceReader};
use spinrace::vm::Trace;
use std::io::Cursor;

/// A small random workload: `threads` workers, each doing `iters` rounds
/// of (optionally lock-protected) shared-counter updates, with an
/// optional ad-hoc flag handoff guarding a data word and an optional
/// deliberately racy slot. Every combination is a valid program; the
/// knobs steer which detector features fire (locksets, spin promotion,
/// HB edges, report dedup).
fn build_module(threads: u32, iters: u8, lock: bool, flag: bool, racy: bool) -> Module {
    let mut mb = ModuleBuilder::new("rt-prop");
    let mu = mb.global("mu", 1);
    let shared = mb.global("shared", 1);
    let flag_g = mb.global("flag", 1);
    let data = mb.global("data", 1);
    let victim = mb.global("victim", 1);
    let w = mb.function("w", 1, |f| {
        for _ in 0..iters {
            if lock {
                f.lock(mu.at(0));
            }
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            if lock {
                f.unlock(mu.at(0));
            }
            if racy {
                let r = f.load(victim.at(0));
                let r2 = f.add(r, 1);
                f.store(victim.at(0), r2);
            }
        }
        f.ret(None);
    });
    let waiter = mb.function("waiter", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag_g.at(0));
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        f.output(d);
        f.ret(None);
    });
    mb.entry("main", |f| {
        let mut tids = Vec::new();
        if flag {
            tids.push(f.spawn(waiter, 0));
        }
        for i in 0..threads {
            tids.push(f.spawn(w, i as i64));
        }
        if flag {
            f.store(data.at(0), 7);
            f.store(flag_g.at(0), 1);
        }
        for t in tids {
            f.join(t);
        }
        f.ret(None);
    });
    mb.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recorded_replay_matches_live_run(
        threads in 1u32..4,
        iters in 1u8..4,
        lock in proptest::bool::ANY,
        flag in proptest::bool::ANY,
        racy in proptest::bool::ANY,
        seed in proptest::option::of(0u64..1000),
    ) {
        let m = build_module(threads, iters, lock, flag, racy);
        for tool in Tool::paper_lineup() {
            let mut session = Session::for_module(&m);
            if let Some(s) = seed {
                session = session.seed(s);
            }
            // Live path: prepare + detect in one pass, no recording.
            let live = session.prepare(tool).unwrap().detect_live().unwrap();

            // Trace path: record, serialize, parse, bind to a freshly
            // prepared module, replay.
            let run = session.prepare(tool).unwrap().execute().unwrap();
            let parsed = Trace::from_json(&run.trace().to_json())
                .map_err(|e| TestCaseError(format!("parse failed: {e}")))?;
            prop_assert_eq!(&parsed, run.trace());
            let rebound = ExecutedRun::from_trace(session.prepare(tool).unwrap(), parsed)
                .map_err(|e| TestCaseError(format!("rebind failed: {e}")))?;
            let replayed = rebound.run(&DetectRequest::own()).into_single();

            // Binary path: a 9-event chunk target forces multi-chunk
            // framing on all but the tiniest streams. The decoded trace
            // must be identical, and the chunked *streaming* replay must
            // reproduce the live outcome as well.
            let bytes = encode_trace_chunked(run.trace(), 9);
            let decoded = decode_trace(&bytes)
                .map_err(|e| TestCaseError(format!("binary decode failed: {e}")))?;
            prop_assert_eq!(&decoded, run.trace());
            let reader = ChunkedTraceReader::new(Cursor::new(bytes))
                .map_err(|e| TestCaseError(format!("binary open failed: {e}")))?;
            let (streamed, stats) = session
                .prepare(tool)
                .unwrap()
                .try_run_streamed(&DetectRequest::tool(tool).streamed(), reader)
                .map_err(|e| TestCaseError(format!("streamed replay failed: {e}")))?;
            let streamed = streamed.into_single();
            prop_assert_eq!(stats.events as usize, run.trace().events.len());
            let label = tool.label();
            prop_assert_eq!(streamed.contexts, live.contexts, "streamed contexts under {}", &label);
            prop_assert_eq!(
                streamed.reports.len(),
                live.reports.len(),
                "streamed report count under {}",
                &label
            );
            for (a, b) in streamed.reports.iter().zip(&live.reports) {
                prop_assert_eq!(&a.location, &b.location, "streamed location under {}", &label);
                prop_assert_eq!(&a.report, &b.report, "streamed report under {}", &label);
            }
            prop_assert_eq!(&streamed.metrics, &live.metrics, "streamed metrics under {}", &label);
            prop_assert_eq!(&streamed.summary, &live.summary, "streamed summary under {}", &label);

            let label = tool.label();
            prop_assert_eq!(replayed.contexts, live.contexts, "contexts under {}", &label);
            prop_assert_eq!(
                replayed.reports.len(),
                live.reports.len(),
                "report count under {}",
                &label
            );
            for (a, b) in replayed.reports.iter().zip(&live.reports) {
                prop_assert_eq!(&a.location, &b.location, "location under {}", &label);
                prop_assert_eq!(&a.report, &b.report, "report under {}", &label);
            }
            prop_assert_eq!(&replayed.metrics, &live.metrics, "metrics under {}", &label);
            prop_assert_eq!(
                replayed.promoted_locations,
                live.promoted_locations,
                "promotions under {}",
                &label
            );
            prop_assert_eq!(
                replayed.spin_loops_found,
                live.spin_loops_found,
                "spin loops under {}",
                &label
            );
            prop_assert_eq!(&replayed.summary, &live.summary, "summary under {}", &label);
            prop_assert_eq!(&replayed.tool_label, &label);
        }
    }

    /// json → binary → json is a byte fixed point: converting a trace
    /// into the columnar encoding and back must reproduce the original
    /// JSON document exactly (header, summary, and events all survive
    /// the column codecs bit-for-bit).
    #[test]
    fn json_binary_json_is_a_byte_fixed_point(
        threads in 1u32..4,
        iters in 1u8..4,
        lock in proptest::bool::ANY,
        flag in proptest::bool::ANY,
        racy in proptest::bool::ANY,
        chunk in 1usize..32,
    ) {
        let m = build_module(threads, iters, lock, flag, racy);
        let run = Session::for_module(&m)
            .prepare(Tool::HelgrindLibSpin { window: 7 })
            .unwrap()
            .execute()
            .unwrap();
        let json = run.trace().to_json();
        let reparsed = Trace::from_json(&json)
            .map_err(|e| TestCaseError(format!("parse failed: {e}")))?;
        let decoded = decode_trace(&encode_trace_chunked(&reparsed, chunk))
            .map_err(|e| TestCaseError(format!("binary decode failed: {e}")))?;
        prop_assert_eq!(decoded.to_json(), json);
    }
}
