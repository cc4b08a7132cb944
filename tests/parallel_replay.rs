//! Replay with decoding running in parallel with detection: streamed
//! replay decodes the next chunk on a reader thread while the detectors
//! consume the current one. For random small modules, every tool in the
//! paper lineup and every chunk width, that replay must be
//! **bit-identical** to the sequential in-memory replay *and* to the live
//! run — same racy contexts, same described report lists (content and
//! order), same detector metrics, same promotion counts. The widths run
//! from one event per chunk to chunks longer than the replay loop's
//! 4096-event poll period, so the chunk seams land everywhere in the
//! detector state; none of it may move a byte of output. This is the
//! determinism guarantee the CI `replay-determinism` job re-checks end to
//! end through the `trace` CLI.

mod common;

use common::feature_mix;
use proptest::prelude::*;
use spinrace::core::{AnalysisOutcome, DetectRequest, ExecutedRun, Session, Tool};
use spinrace::detector::shadow::PAGE_CELLS;
use spinrace::tracefmt::{encode_trace_chunked, ChunkedTraceReader};
use spinrace::vm::{Event, SchedulerKind};
use spinrace::workloads::{Family, WorkloadSpec};

/// Chunk widths of the streamed encodings: one event, a ragged width, a
/// typical width, and one wider than the 4096-event poll period.
const WIDTHS: [usize; 4] = [1, 3, 64, 5000];

/// Replay `run`'s trace streamed from a `width`-event chunk encoding.
fn streamed_at(run: &ExecutedRun, req: &DetectRequest, width: usize) -> Vec<AnalysisOutcome> {
    let bytes = encode_trace_chunked(run.trace(), width);
    let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
    let (out, stats) = run.prepared().try_run_streamed(req, reader).unwrap();
    assert_eq!(stats.events, run.trace().events.len() as u64);
    out.into_vec()
}

/// Full outcome equality: contexts, described reports in order, metrics,
/// promotions, run summary and label.
fn assert_same(a: &AnalysisOutcome, b: &AnalysisOutcome, what: &str) {
    assert_eq!(a.tool_label, b.tool_label, "label, {what}");
    assert_eq!(a.contexts, b.contexts, "contexts, {what}");
    assert_eq!(a.reports.len(), b.reports.len(), "report count, {what}");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.location, y.location, "location, {what}");
        assert_eq!(x.report, y.report, "report, {what}");
    }
    assert_eq!(a.metrics, b.metrics, "metrics, {what}");
    assert_eq!(
        a.promoted_locations, b.promoted_locations,
        "promotions, {what}"
    );
    assert_eq!(a.summary, b.summary, "summary, {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn parallel_replay_equals_sequential_and_live(
        threads in 1u32..4,
        iters in 1u8..4,
        lock in proptest::bool::ANY,
        flag in proptest::bool::ANY,
        racy in proptest::bool::ANY,
        rmw in proptest::bool::ANY,
        seed in proptest::option::of(0u64..1000),
    ) {
        let m = feature_mix(threads, iters, lock, flag, racy, rmw);
        for tool in Tool::paper_lineup() {
            let mut session = Session::for_module(&m);
            if let Some(s) = seed {
                session = session.seed(s);
            }
            let prepared = session.prepare(tool).unwrap();
            let live = prepared
                .try_run(&DetectRequest::own())
                .unwrap()
                .into_single();
            let run = prepared.execute().unwrap();
            let sequential = run.run(&DetectRequest::own()).into_single();
            let label = tool.label();

            // Sequential replay ≡ live (the session API's guarantee).
            assert_same(&sequential, &live, &format!("live under {label}"));

            // Decode-ahead streamed replay ≡ sequential, at every width.
            for width in WIDTHS {
                let streamed = streamed_at(&run, &DetectRequest::own(), width);
                prop_assert_eq!(streamed.len(), 1);
                assert_same(&streamed[0], &sequential, &format!("{label} at width {width}"));
            }

            // The cross-tool request path too: lib and DRD share one
            // prepared module, so a lib recording can replay as DRD, alone
            // or fanned out beside lib on one pass.
            if tool == Tool::HelgrindLib {
                let tools = [Tool::HelgrindLib, Tool::Drd];
                let seq = run.run(&DetectRequest::tools(&tools)).into_vec();
                let solo_drd = run.run(&DetectRequest::tool(Tool::Drd)).into_single();
                assert_same(&seq[1], &solo_drd, "fanned-out DRD vs solo DRD");
                let streamed = streamed_at(&run, &DetectRequest::tools(&tools), 3);
                prop_assert_eq!(streamed.len(), 2);
                for (s, q) in streamed.iter().zip(&seq) {
                    assert_same(s, q, "streamed lib+DRD fan-out");
                }
            }
        }
    }
}

/// Replay a generated workload under one tool, live, whole and streamed
/// at every width (full outcome equality), returning the sequential
/// outcome and the recorded events for further assertions. One teed
/// execution provides both the live detection and the replayable trace.
fn workload_widths_equal_sequential(
    spec: WorkloadSpec,
    sched: SchedulerKind,
    tool: Tool,
) -> (AnalysisOutcome, Vec<Event>) {
    let wl = spec.build();
    let mut vm = spec.vm_config();
    vm.sched = sched;
    let (run, live) = Session::for_module(&wl.module)
        .vm_config(vm)
        .prepare(tool)
        .unwrap()
        .execute_detecting()
        .unwrap();
    let sequential = run.run(&DetectRequest::own()).into_single();
    assert_same(&sequential, &live, "sequential vs live");
    for width in WIDTHS {
        let streamed = streamed_at(&run, &DetectRequest::own(), width);
        assert_same(&streamed[0], &sequential, &format!("width {width}"));
    }
    let events = run.trace().events.clone();
    (sequential, events)
}

/// Plain-*read* counts per `ShadowTable` page, over the pages read at
/// least once. Reads only: the zipf family's skewed traffic is its
/// shared-table read stream (each worker's private accumulator writes sit
/// on one fixed page and would mask the distribution under test).
fn page_histogram(events: &[Event]) -> Vec<u64> {
    let mut hist = std::collections::BTreeMap::<u64, u64>::new();
    for ev in events {
        if matches!(ev, Event::Read { .. }) && ev.is_plain_access() {
            if let Some(addr) = ev.data_addr() {
                *hist.entry(addr / PAGE_CELLS as u64).or_default() += 1;
            }
        }
    }
    hist.into_values().collect()
}

/// The hottest page's share of `hist`, as a multiple of an even share.
fn hottest_page_excess(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    assert!(total > 0);
    let max = *hist.iter().max().unwrap();
    max as f64 * hist.len() as f64 / total as f64
}

/// A zipf-skewed stream piles its reads onto one page of the shadow
/// table — the hottest page carries far more than an even share — and
/// streamed replay still lands on the sequential bytes at every chunk
/// width: the table's internal layout is invisible in the output.
#[test]
fn zipf_skew_is_deterministic_across_widths_despite_page_imbalance() {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(4_000)
        .addr_space(4_096)
        .skew(3)
        .seed(11);
    let (out, events) = workload_widths_equal_sequential(
        spec,
        SchedulerKind::RoundRobin,
        Tool::HelgrindLibSpin { window: 7 },
    );
    assert_eq!(out.contexts, 0, "the zipf scaffolding is race-free");

    let hist = page_histogram(&events);
    assert!(
        hottest_page_excess(&hist) > 8.0,
        "expected a skewed page histogram, got {hist:?}"
    );

    // The same spec with skew 0 spreads far more evenly — the imbalance
    // above is the skew's doing, not an artifact of the address layout.
    let uniform = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(4_000)
        .addr_space(4_096)
        .skew(0)
        .seed(11);
    let trace =
        spinrace::vm::record_run(&uniform.build().module, uniform.vm_config(), "u").unwrap();
    let uhist = page_histogram(&trace.events);
    assert!(
        hottest_page_excess(&uhist) < 2.0,
        "uniform stream should be near-even, got {uhist:?}"
    );
}

/// Zipf streams at every skew level that concentrates traffic, clean and
/// with seeded races, under two VM schedules (round-robin and seeded
/// random) and two tools, each held to live ≡ whole ≡ streamed at every
/// width; the oracle's context count is the same under both schedules.
#[test]
fn zipf_skew_family_is_identical_across_schedules_tools_and_widths() {
    for skew in [2u32, 3, 4] {
        for races in [0u32, 2] {
            let spec = WorkloadSpec::new(Family::Zipf)
                .threads(4)
                .events_per_thread(1_500)
                .addr_space(4_096)
                .skew(skew)
                .races(races)
                .seed(40 + skew as u64);
            for sched in [
                SchedulerKind::RoundRobin,
                SchedulerKind::Random(skew as u64),
            ] {
                for tool in [Tool::HelgrindLibSpin { window: 7 }, Tool::Drd] {
                    let (out, _) = workload_widths_equal_sequential(spec, sched, tool);
                    assert_eq!(
                        out.contexts,
                        races as usize,
                        "skew {skew} races {races} {sched:?} under {}",
                        tool.label()
                    );
                }
            }
        }
    }
}

/// Wide-thread fan-out (≥32 threads): streamed replay at every chunk
/// width reproduces the sequential outcome, with the seeded-oracle
/// variant showing reports come out identically when 33 threads'
/// accesses interleave.
#[test]
fn wide_thread_workloads_replay_identically_at_every_width() {
    for (threads, races) in [(32u32, 0u32), (33, 3)] {
        let spec = WorkloadSpec::new(Family::Fanout)
            .threads(threads)
            .events_per_thread(150)
            .addr_space(2_048)
            .races(races)
            .seed(threads as u64);
        for tool in [Tool::HelgrindLibSpin { window: 7 }, Tool::Drd] {
            let (out, _) = workload_widths_equal_sequential(spec, SchedulerKind::RoundRobin, tool);
            assert_eq!(
                out.contexts,
                races as usize,
                "{threads} threads under {}",
                tool.label()
            );
        }
    }
}
