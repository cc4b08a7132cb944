//! Differential proptest for the trace pipeline: for random small modules
//! and every tool in the paper lineup, **record → encode → decode →
//! replay** must produce exactly the result of the live run. The
//! outcome document (`spinrace::serve::outcome_json`: racy contexts,
//! described reports, detector metrics, promotions, spin loops and run
//! summary) of the live run, of the whole-trace replay of the decoded
//! trace, and of the chunked streaming replay must be byte-identical.
//! This is the end-to-end guarantee behind "record once, replay
//! everywhere": the encoded artifact carries everything detection needs.
//!
//! The stream is encoded with a deliberately tiny chunk target, so the
//! multi-chunk framing, per-chunk codec reset, and dictionary rebuild
//! all fire. A separate case pins decode → encode as a byte fixed point.
//!
//! Two ≥1M-event generated streams hold the encoding to a size ceiling,
//! after their recording run's detection passes the workload's oracle.

use proptest::prelude::*;
use spinrace::core::{AnalysisOutcome, DetectRequest, ExecutedRun, Session, Tool};
use spinrace::serve::outcome_json;
use spinrace::suites::judge_outcome;
use spinrace::tir::{Module, ModuleBuilder};
use spinrace::tracefmt::{decode_trace, encode_trace, encode_trace_chunked, ChunkedTraceReader};
use spinrace::workloads::{Family, WorkloadSpec};
use std::io::Cursor;

/// Ceiling for the binary trace size, in bytes per event. (Measured
/// sizes sit at 10.2 B/ev for the zipf stream and 10.0 for fanout; 11.5
/// catches a column codec silently degrading without flaking on
/// stream-shape variance.)
const MAX_BINARY_BYTES_PER_EVENT: f64 = 11.5;

/// The outcome document as `trace replay --json` writes it.
fn doc(out: &AnalysisOutcome) -> String {
    serde_json::to_string_pretty(&outcome_json(out)).expect("render outcome json")
}

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

            // Trace path: record, encode with a 9-event chunk target
            // (multi-chunk framing on all but the tiniest streams),
            // decode, bind to a freshly prepared module, replay whole.
            let run = session.prepare(tool).unwrap().execute().unwrap();
            let bytes = encode_trace_chunked(run.trace(), 9);
            let decoded = decode_trace(&bytes)
                .map_err(|e| TestCaseError(format!("binary decode failed: {e}")))?;
            prop_assert_eq!(&decoded, run.trace());
            let rebound = ExecutedRun::from_trace(session.prepare(tool).unwrap(), decoded)
                .map_err(|e| TestCaseError(format!("rebind failed: {e}")))?;
            let whole = rebound
                .try_run(&DetectRequest::own())
                .map_err(|e| TestCaseError(format!("whole-trace replay failed: {e}")))?
                .into_single();

            // Streamed path: the same bytes through the chunked reader.
            let reader = ChunkedTraceReader::new(Cursor::new(bytes))
                .map_err(|e| TestCaseError(format!("binary open failed: {e}")))?;
            let (streamed, stats) = session
                .prepare(tool)
                .unwrap()
                .try_run_streamed(&DetectRequest::tool(tool).streamed(), reader)
                .map_err(|e| TestCaseError(format!("streamed replay failed: {e}")))?;
            prop_assert_eq!(stats.events as usize, run.trace().events.len());

            let live_doc = doc(&live);
            let label = tool.label();
            prop_assert_eq!(&doc(&whole), &live_doc, "whole-trace replay under {}", &label);
            prop_assert_eq!(
                &doc(&streamed.into_single()),
                &live_doc,
                "streamed replay under {}",
                &label
            );
        }
    }

    /// decode → encode is a byte fixed point: re-encoding a decoded
    /// trace at the chunk target its header block records reproduces the
    /// file exactly (header, summary, and events all survive the column
    /// codecs bit-for-bit).
    #[test]
    fn binary_decode_encode_is_a_byte_fixed_point(
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
        let bytes = encode_trace_chunked(run.trace(), chunk);
        let reader = ChunkedTraceReader::new(&bytes[..])
            .map_err(|e| TestCaseError(format!("binary open failed: {e}")))?;
        let target = reader.chunk_target() as usize;
        let decoded = reader
            .read_all()
            .map_err(|e| TestCaseError(format!("binary decode failed: {e}")))?;
        prop_assert!(encode_trace_chunked(&decoded, target) == bytes, "re-encoding changed the bytes");
    }
}

/// Record a long generated stream under `lib+spin(7)`, hold the live
/// detection to the workload's ground truth, and hold the binary
/// encoding to [`MAX_BINARY_BYTES_PER_EVENT`].
fn check_long_stream(spec: WorkloadSpec) {
    let (wl, name) = (spec.build(), spec.name());
    let tool = Tool::HelgrindLibSpin { window: 7 };
    let (run, outcome) = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(tool)
        .expect("prepare workload")
        .execute_detecting()
        .expect("vm run");
    let verdict = judge_outcome(&wl.oracle, &outcome);
    assert!(verdict.pass(), "{name} violated its oracle: {verdict}");
    let events = run.trace().events.len();
    assert!(events >= 1_000_000, "{name} is only {events} events");
    let bytes_per_event = encode_trace(run.trace()).len() as f64 / events as f64;
    assert!(
        bytes_per_event <= MAX_BINARY_BYTES_PER_EVENT,
        "{name} encodes to {bytes_per_event:.2} bytes/event, above the ceiling of \
         {MAX_BINARY_BYTES_PER_EVENT}"
    );
}

#[test]
fn long_zipf_stream_meets_its_oracle_and_size_ceiling() {
    check_long_stream(
        WorkloadSpec::new(Family::Zipf)
            .threads(8)
            .addr_space(4096)
            .skew(3)
            .seed(1)
            .with_total_events(1_050_000),
    );
}

#[test]
fn long_fanout_stream_meets_its_oracle_and_size_ceiling() {
    check_long_stream(
        WorkloadSpec::new(Family::Fanout)
            .threads(32)
            .addr_space(8192)
            .seed(2)
            .with_total_events(1_050_000),
    );
}
