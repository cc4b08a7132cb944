//! Fault injection against the one detection loop: a consumer stalled
//! past the watchdog, a zero-length watchdog, an exhausted event budget
//! and an exhausted shadow budget must each come back as a structured
//! [`EngineError`] within a bound — never a hang — on live detection
//! (`PreparedModule::try_run`), whole-trace replay
//! (`ExecutedRun::try_run`) and streamed replay
//! (`PreparedModule::try_run_streamed`). All three paths drive the same
//! loop, so a limit must trip identically on them: same error, same
//! partial metrics. Limits that are set but never reached leave the
//! outcome byte-identical.

use spinrace::core::{
    AnalyzeError, Budget, BudgetResource, DetectRequest, EngineError, EngineOptions, ExecutedRun,
    Session, Tool,
};
use spinrace::detector::shadow::{ShadowCell, PAGE_CELLS};
use spinrace::detector::AnyDetector;
use spinrace::tracefmt::{encode_trace_chunked, ChunkedTraceReader};
use spinrace::vm::EventSink;
use spinrace::workloads::{Family, WorkloadSpec};
use std::time::{Duration, Instant};

/// No fault may take anywhere near this long to surface; hitting it
/// means a limit stopped being polled.
const BOUND: Duration = Duration::from_secs(20);

/// How long an injected stall holds the consumer: well past the short
/// watchdogs below, well inside [`BOUND`].
const STALL: Duration = Duration::from_millis(300);

/// Events per chunk of the injected streams.
const CHUNK: usize = 1000;

/// A recorded zipf run long enough to cross several periodic limit
/// polls (every 4096 events).
fn zipf_run() -> ExecutedRun {
    let spec = WorkloadSpec::new(Family::Zipf)
        .threads(4)
        .events_per_thread(4000)
        .seed(1);
    let wl = spec.build();
    Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap()
}

/// Detect live: run `run`'s prepared module again with the request's
/// detectors on the VM, and return the engine error, if any.
fn live(run: &ExecutedRun, req: &DetectRequest) -> Result<(), EngineError> {
    engine_error(run.prepared().try_run(req).map(|_| ()))
}

/// The engine error of a detection; any other failure is a test bug.
fn engine_error(res: Result<(), AnalyzeError>) -> Result<(), EngineError> {
    match res {
        Ok(()) => Ok(()),
        Err(AnalyzeError::Engine(e)) => Err(e),
        Err(other) => panic!("unexpected non-engine error: {other}"),
    }
}

/// Replay `run`'s trace as a chunk stream (small chunks, so limits can
/// trip mid-stream) and return the engine error, if any.
fn streamed(run: &ExecutedRun, req: &DetectRequest) -> Result<(), EngineError> {
    streamed_stalling(run, req, None)
}

/// [`streamed`], with the progress observer stalling for `stall` after
/// the first chunk — a slow consumer the reader thread cannot hide.
fn streamed_stalling(
    run: &ExecutedRun,
    req: &DetectRequest,
    stall: Option<Duration>,
) -> Result<(), EngineError> {
    let bytes = encode_trace_chunked(run.trace(), CHUNK);
    let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
    let observe = |p: spinrace::core::StreamProgress<'_>| {
        if let (Some(d), 1, 0) = (stall, p.chunk, p.target) {
            std::thread::sleep(d);
        }
    };
    engine_error(
        run.prepared()
            .try_run_streamed_observed(req, reader, observe)
            .map(|_| ()),
    )
}

/// The largest shadow footprint a full replay under `tool` reaches at
/// any event: a shadow budget of exactly this never trips.
fn peak_shadow_bytes(run: &ExecutedRun, tool: Tool) -> usize {
    let mut det = AnyDetector::new(run.prepared().config_for(tool));
    let mut peak = 0;
    for ev in &run.trace().events {
        det.on_event(ev);
        peak = peak.max(det.shadow_resident_bytes());
    }
    peak
}

#[test]
fn session_api_surfaces_engine_errors_and_budgets() {
    let run = zipf_run();
    let baseline = run.run(&DetectRequest::own()).into_single();

    // Explicit but unlimited options: identical outcome.
    let ok = run
        .try_run(&DetectRequest::tool(Tool::HelgrindLib).options(EngineOptions::default()))
        .unwrap()
        .into_single();
    assert_eq!(ok.contexts, baseline.contexts);
    assert_eq!(ok.metrics, baseline.metrics);

    // Event budget: partial metrics carried in the error.
    let budget_opts = EngineOptions::default().with_budget(Budget::default().with_max_events(500));
    let err = run
        .try_run(&DetectRequest::tool(Tool::HelgrindLib).options(budget_opts))
        .expect_err("event budget must trip");
    match err {
        EngineError::BudgetExhausted {
            resource: BudgetResource::Events,
            limit,
            used,
            partial,
        } => {
            assert_eq!(limit, 500);
            assert_eq!(used, run.trace().events.len() as u64);
            assert_eq!(partial.events_processed, 500);
        }
        other => panic!("expected an event-budget error, got {other}"),
    }
}

/// A consumer stalled past the watchdog trips it at the next poll, even
/// though nothing else is wrong with the stream: streamed replay, whose
/// observer stalls between chunks, stops with the watchdog error well
/// before the stream ends.
#[test]
fn delay_past_the_global_watchdog_errors_even_without_handoffs() {
    let run = zipf_run();
    let watchdog = Duration::from_millis(100);
    let expected = EngineError::Watchdog { limit_ms: 100 };
    let t0 = Instant::now();
    let req = DetectRequest::own().watchdog(watchdog);
    assert_eq!(streamed_stalling(&run, &req, Some(STALL)), Err(expected));
    assert!(t0.elapsed() < BOUND, "took {:?}", t0.elapsed());
}

/// Every injected fault × every path × one and two targets ends in the
/// matching structured error, within [`BOUND`].
#[test]
fn full_fault_matrix_always_errors_within_the_bound() {
    let run = zipf_run();
    let total = run.trace().events.len() as u64;
    let short = Duration::from_millis(100);
    // (label, limits, consumer stall)
    let faults = [
        (
            "zero watchdog",
            EngineOptions::default().with_watchdog(Duration::ZERO),
            None,
        ),
        (
            "stall past the watchdog",
            EngineOptions::default().with_watchdog(short),
            Some(STALL),
        ),
        (
            "event budget",
            EngineOptions::default().with_budget(Budget::default().with_max_events(total / 2)),
            None,
        ),
        (
            "shadow budget",
            EngineOptions::default().with_budget(Budget::default().with_max_shadow_bytes(1)),
            None,
        ),
    ];
    for (label, opts, stall) in faults {
        for tools in [&[Tool::HelgrindLib][..], &[Tool::HelgrindLib, Tool::Drd]] {
            let req = DetectRequest::tools(tools).options(opts);
            let t0 = Instant::now();
            let mut results = vec![("streamed", streamed_stalling(&run, &req, stall))];
            // The whole trace is one chunk and the VM feeds events one by
            // one: neither has a gap to stall in.
            if stall.is_none() {
                results.push(("whole", run.try_run(&req).map(|_| ())));
                results.push(("live", live(&run, &req)));
            }
            let elapsed = t0.elapsed();
            assert!(elapsed < BOUND, "{label}: took {elapsed:?}");
            for (path, res) in results {
                let err = res.expect_err("every fault must fail the replay");
                let expected_kind = match &err {
                    EngineError::Watchdog { .. } => opts.watchdog.is_some(),
                    EngineError::BudgetExhausted {
                        resource: BudgetResource::Events,
                        ..
                    } => opts.budget.max_events.is_some(),
                    EngineError::BudgetExhausted {
                        resource: BudgetResource::ShadowBytes,
                        ..
                    } => opts.budget.max_shadow_bytes.is_some(),
                };
                assert!(expected_kind, "{label} × {path}: unexpected {err}");
            }
        }
    }
}

/// Limits aimed at nothing — an event budget of exactly the trace
/// length, a shadow budget of exactly the peak footprint, a stall with
/// no watchdog set — are inert on every path: the same bytes as an
/// unlimited replay.
#[test]
fn fault_aimed_at_nothing_changes_nothing() {
    let run = zipf_run();
    let baseline = run.run(&DetectRequest::own()).into_single();
    let total = run.trace().events.len() as u64;
    let peak = peak_shadow_bytes(&run, Tool::HelgrindLib);
    for (opts, stall) in [
        (
            EngineOptions::default().with_budget(Budget::default().with_max_events(total)),
            None,
        ),
        (
            EngineOptions::default().with_budget(Budget::default().with_max_shadow_bytes(peak)),
            None,
        ),
        (EngineOptions::default(), Some(Duration::from_millis(20))),
    ] {
        let req = DetectRequest::own().options(opts);
        let whole = run.try_run(&req).expect("an inert limit").into_single();
        assert_eq!(whole.contexts, baseline.contexts);
        assert_eq!(whole.metrics, baseline.metrics);
        for (a, b) in whole.reports.iter().zip(&baseline.reports) {
            assert_eq!(a.report, b.report);
        }
        assert_eq!(streamed_stalling(&run, &req, stall), Ok(()), "{opts:?}");
    }
}

/// Generous limits never perturb the outcome, replayed or live.
#[test]
fn fault_free_runs_with_explicit_options_stay_byte_identical() {
    let run = zipf_run();
    let baseline = run.run(&DetectRequest::own()).into_single();
    let total = run.trace().events.len() as u64;
    let opts = EngineOptions::default()
        .with_watchdog(Duration::from_secs(600))
        .with_budget(
            Budget::default()
                .with_max_events(total)
                .with_max_shadow_bytes(1 << 40),
        );
    let req = DetectRequest::own().options(opts);
    let whole = run.try_run(&req).unwrap().into_single();
    let live = run.prepared().try_run(&req).unwrap().into_single();
    for out in [whole, live] {
        assert_eq!(out.reports.len(), baseline.reports.len());
        for (a, b) in out.reports.iter().zip(&baseline.reports) {
            assert_eq!(a.report, b.report);
        }
        assert_eq!(out.metrics, baseline.metrics);
        assert_eq!(&out.summary, run.summary());
    }
}

/// The same event budget and the same shadow budget trip live detection,
/// whole-trace and streamed replay with equal errors, partial metrics
/// included.
#[test]
fn whole_and_streamed_replay_trip_identical_budget_errors() {
    let run = zipf_run();
    let total = run.trace().events.len() as u64;
    // The shadow footprint a full replay ends with: one byte less trips
    // late in the stream (at a periodic poll or the final check).
    let mut det = AnyDetector::new(run.prepared().default_config());
    run.trace().replay(&mut det);
    let resident = det.shadow_resident_bytes();
    for budget in [
        Budget::default().with_max_events(0),
        Budget::default().with_max_events(2500),
        Budget::default().with_max_events(total / 2),
        Budget::default().with_max_events(total - 1),
        Budget::default().with_max_shadow_bytes(1),
        Budget::default().with_max_shadow_bytes(resident - 1),
    ] {
        for tools in [&[Tool::HelgrindLib][..], &[Tool::HelgrindLib, Tool::Drd]] {
            let req = DetectRequest::tools(tools).budget(budget);
            let whole = run
                .try_run(&req)
                .map(|_| ())
                .expect_err("the budget must trip");
            assert!(
                matches!(whole, EngineError::BudgetExhausted { .. }),
                "{whole}"
            );
            assert_eq!(live(&run, &req), Err(whole.clone()), "live {budget:?}");
            assert_eq!(streamed(&run, &req), Err(whole), "{budget:?}");
        }
    }
}

/// The resident estimate a shadow budget polls counts every page's slab
/// of cells: a budget below the slabs of the pages the run's plain
/// accesses touch trips on live detection, whole-trace and streamed
/// replay alike, with the same error.
#[test]
fn shadow_budget_below_the_page_slabs_trips_on_every_path() {
    let run = zipf_run();
    let pages: std::collections::BTreeSet<u64> = run
        .trace()
        .events
        .iter()
        .filter(|ev| ev.is_plain_access())
        .filter_map(|ev| ev.data_addr())
        .map(|addr| addr / PAGE_CELLS as u64)
        .collect();
    let slabs = pages.len() * PAGE_CELLS * std::mem::size_of::<ShadowCell>();
    let limit = slabs / 2;
    let req = DetectRequest::tool(Tool::HelgrindLib)
        .budget(Budget::default().with_max_shadow_bytes(limit));
    let whole = run.try_run(&req).map(|_| ());
    match &whole {
        Err(EngineError::BudgetExhausted {
            resource: BudgetResource::ShadowBytes,
            used,
            ..
        }) => assert!(*used > limit as u64, "{used} within {limit}"),
        other => panic!("a budget of {limit} under {slabs} slab bytes: {other:?}"),
    }
    assert_eq!(live(&run, &req), whole);
    assert_eq!(streamed(&run, &req), whole);
}

/// A zero-length watchdog trips on the first event of every path.
#[test]
fn zero_watchdog_trips_whole_and_streamed_replay() {
    let run = zipf_run();
    let req = DetectRequest::own().watchdog(Duration::ZERO);
    let expected = EngineError::Watchdog { limit_ms: 0 };
    assert_eq!(run.try_run(&req).map(|_| ()), Err(expected.clone()));
    assert_eq!(live(&run, &req), Err(expected.clone()));
    assert_eq!(streamed(&run, &req), Err(expected));
}
