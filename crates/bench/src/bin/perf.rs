//! `perf` — detector throughput and shadow-memory benchmark.
//!
//! Records each bench program once per tool through the session pipeline
//! (`Session::prepare → execute`, yielding a [`Trace`]) and replays the
//! stream through every tool's detector configuration, measuring:
//!
//! * **events/sec** of the production [`RaceDetector`] (epoch fast paths,
//!   paged shadow memory) over the raw event slice;
//! * **replay events/sec** of the same detector fed through the
//!   [`Trace::replay`] artifact path — pure detector throughput as the
//!   session API's detect fan-out exercises it, isolated from VM
//!   interpretation entirely;
//! * **events/sec** of the retained [`ReferenceDetector`] (slow full-VC
//!   baseline) — the speedup column is recomputed, never quoted;
//! * **shadow bytes** retained by each after a full replay (pages and
//!   cells never shrink, so the final figure is the peak);
//! * **long-stream workload rows** (`spinrace-workloads`): generated
//!   multi-million-event streams — zipf-skewed, wide-thread, ring — where
//!   per-replay pool constants vanish and events/sec measures steady-state
//!   cache behaviour. Each row's workload carries a ground-truth oracle,
//!   which the measured detection is asserted against (a perf run that
//!   miscounts contexts on known-truth input aborts). Since schema v6
//!   each row also carries **trace-format figures**: bytes/event of the
//!   binary encoding, columnar encode/decode throughput, and the peak
//!   resident chunk bytes of streamed replay — the quick smoke gates the
//!   size to [`MAX_BINARY_BYTES_PER_EVENT`], the decode floor, and the
//!   streaming peak to a four-chunk budget (the O(chunk) memory claim);
//! * **predictive long-stream series** (since schema v8): each workload
//!   row also records `sync_preserving` replay events/sec — the
//!   single-pass sync-preserving predictive detector over its own
//!   unmodified-module recording of the same spec, judged against the
//!   same ground truth — with its own conservative floor (the
//!   per-lock per-address release-clock maps make the pass
//!   fundamentally heavier than the epoch-fast-path HB detector);
//! * **serve throughput and tail latency** (since schema v7): whole
//!   analysis sessions — framed trace upload, streamed verdicts, done —
//!   against an in-process `spinrace-serve` instance under
//!   [`SERVE_CLIENTS`] concurrent clients, reporting traces/sec and
//!   p50/p99 end-to-end session latency.
//!
//! Schema v9 drops the parallel-replay series, the worker scaling curve
//! and their gates along with the sharded engine they measured. Schema
//! v10 drops the JSON trace sizes along with the JSON trace encoding and
//! gates the binary size at an absolute bytes/event ceiling.
//!
//! Results land in `BENCH_detector.json` at the repo root — the perf
//! trajectory the CI `perf-smoke` step guards.
//!
//! ```text
//! cargo run --release -p spinrace-bench --bin perf            # full run
//! cargo run --release -p spinrace-bench --bin perf -- --quick # CI smoke
//! cargo run --release -p spinrace-bench --bin perf -- serve --quick
//!                              # serve latency gates only (CI serve-smoke)
//! ```
//!
//! `--quick` measures a reduced matrix with shorter timing windows and
//! **fails** (exit 1) if any configuration drops more than 5× below
//! [`FLOOR_EVENTS_PER_SEC`]. The floor is deliberately far under current
//! numbers: it catches algorithmic regressions (an accidental clone or
//! hash-table slip on the hot path), not CI-machine noise.

use spinrace_bench::bench_tools;
use spinrace_core::{DetectRequest, Session, Tool};
use spinrace_detector::{AnyDetector, DetectorConfig, MsmMode, RaceDetector, ReferenceDetector};
use spinrace_tracefmt::{decode_trace, encode_trace, ChunkedTraceReader, DEFAULT_CHUNK_EVENTS};
use spinrace_vm::{Event, EventSink, Trace, TraceError};
use spinrace_workloads::{Family, WorkloadSpec};
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Checked-in floor for the production detector, in events/sec. The CI
/// smoke fails when measured throughput is more than 5× below this. Set
/// from a ~13 M ev/s release-mode measurement; /5 leaves room for slow
/// shared runners while still catching order-of-magnitude regressions.
const FLOOR_EVENTS_PER_SEC: f64 = 10_000_000.0;

/// Floor for the long-stream workload sequential-replay series, in
/// events/sec. Long streams run slower per event than the 10k-event
/// bench rows (the shadow working set outgrows cache — which is what the
/// rows exist to measure), so they get their own floor: set from a
/// ~16 M ev/s single-core release measurement on the 1M-event zipf
/// stream; /5 in the quick gate leaves room for slow shared runners.
const WORKLOAD_FLOOR_EVENTS_PER_SEC: f64 = 10_000_000.0;

/// Floor for the predictive (`sync_preserving`) long-stream replay
/// series, in events/sec. The sync-preserving pass has no epoch fast
/// path — every release updates per-lock per-address clock maps — so it
/// runs under the HB detector by design; release measurements on the
/// ≥1M-event long streams land between ~7 M (quick-mode windows) and
/// ~40 M ev/s, pinned conservatively at 2 M so only an algorithmic
/// collapse (an accidental clone or map rebuild per event) trips it;
/// /5 in the quick gate.
const PREDICT_FLOOR_EVENTS_PER_SEC: f64 = 2_000_000.0;

/// Floor for binary trace *decode* throughput (columnar chunks →
/// `Vec<Event>`), in events/sec — the replay-startup cost the chunked
/// format exists to keep negligible next to detection. Set from the
/// ≥30 M ev/s target the format was designed against; /5 in the quick
/// gate leaves room for slow shared runners.
const DECODE_FLOOR_EVENTS_PER_SEC: f64 = 30_000_000.0;

/// Concurrent clients of the `serve` latency bench: one per core the
/// ≥4-core gate assumes, uploading back-to-back against an in-process
/// `spinrace-serve` instance with the same number of session slots.
const SERVE_CLIENTS: usize = 4;

/// Floor for serve throughput, in whole trace uploads (request → framed
/// verdicts → done) per second across [`SERVE_CLIENTS`] concurrent
/// clients. Release-mode measurements sit well into the hundreds for
/// the ~100k-event bench stream; the floor only catches a server that
/// has stopped overlapping sessions or started copying uploads
/// wholesale.
const SERVE_FLOOR_TRACES_PER_SEC: f64 = 20.0;

/// Ceiling for the p99 end-to-end session latency of the serve bench,
/// in milliseconds. Generous on purpose: it flags a session slot being
/// starved (admission no longer overlaps uploads), not runner jitter.
const SERVE_P99_CEILING_MS: f64 = 1_000.0;

/// Ceiling for the binary trace size, in bytes per event: the quick
/// smoke fails if any long stream encodes to more. (Measured sizes sit
/// at 10.3 B/ev for zipf, 10.0 for fanout and 6.0 for ring; 11.5 catches
/// a column codec silently degrading without flaking on stream-shape
/// variance.)
const MAX_BINARY_BYTES_PER_EVENT: f64 = 11.5;

/// One (program, tool) measurement.
struct Row {
    program: &'static str,
    tool: String,
    events: usize,
    events_per_sec: f64,
    replay_events_per_sec: f64,
    ref_events_per_sec: f64,
    shadow_bytes: usize,
    ref_shadow_bytes: usize,
    contexts: usize,
}

/// One long-stream workload measurement (lib+spin, long MSM).
struct WorkloadRow {
    /// Spec-encoded name (`wl-zipf-t8-…`).
    spec: String,
    family: String,
    oracle: String,
    events: usize,
    replay_events_per_sec: f64,
    shadow_bytes: usize,
    contexts: usize,
    /// `sync_preserving` replay throughput over the same spec's
    /// unmodified-module recording (the v8 addition).
    predict_events_per_sec: f64,
    /// Contexts the predictive pass reported on that recording, judged
    /// against the workload's ground truth before being recorded.
    predict_contexts: usize,
    /// On-disk codec measurements for the same stream (the v6
    /// additions).
    codec: CodecRow,
}

/// Trace-format measurements for one long stream: encoded size,
/// columnar encode/decode throughput, and the peak resident
/// bytes of chunk-at-a-time streaming replay — the O(chunk) number the
/// chunked reader exists to deliver.
struct CodecRow {
    binary_bytes: usize,
    encode_events_per_sec: f64,
    decode_events_per_sec: f64,
    streaming_chunks: u32,
    streaming_peak_resident_bytes: usize,
}

/// Measure the trace encoding of an already-recorded stream: bytes on
/// the wire, encode/decode throughput of the columnar format, and a
/// streamed replay into a fresh detector to read the decode-ahead
/// pipeline's peak resident chunk memory.
fn measure_codec(trace: &Trace, cfg: DetectorConfig, min_secs: f64) -> CodecRow {
    let n = trace.events.len();
    let binary = encode_trace(trace);
    let encode_events_per_sec = timed_events_per_sec(n, min_secs, || {
        let bytes = encode_trace(trace);
        std::hint::black_box(&bytes);
    });
    let decode_events_per_sec = timed_events_per_sec(n, min_secs, || {
        let decoded = decode_trace(&binary).expect("decode recorded trace");
        std::hint::black_box(&decoded);
    });
    let mut det = RaceDetector::new(cfg);
    let reader = ChunkedTraceReader::new(Cursor::new(&binary[..])).expect("open recorded trace");
    let stats = reader
        .decode_ahead(|events| -> Result<(), TraceError> {
            for ev in events {
                det.on_event(ev);
            }
            Ok(())
        })
        .expect("stream recorded trace");
    assert_eq!(stats.events, n as u64, "streamed replay saw every event");
    CodecRow {
        binary_bytes: binary.len(),
        encode_events_per_sec,
        decode_events_per_sec,
        streaming_chunks: stats.chunks,
        streaming_peak_resident_bytes: stats.peak_resident_bytes,
    }
}

/// The generated long streams: ≥1M events each, sized so steady-state
/// cache behaviour — not per-replay constants — dominates. Quick mode
/// keeps two: the skewed zipf stream and the even-distribution fanout
/// stream.
fn long_stream_specs(quick: bool) -> Vec<WorkloadSpec> {
    let zipf = WorkloadSpec::new(Family::Zipf)
        .threads(8)
        .addr_space(4096)
        .skew(3)
        .seed(1);
    let fanout = WorkloadSpec::new(Family::Fanout)
        .threads(32)
        .addr_space(8192)
        .seed(2);
    if quick {
        vec![
            zipf.with_total_events(1_050_000),
            fanout.with_total_events(1_050_000),
        ]
    } else {
        vec![
            zipf.with_total_events(2_100_000),
            fanout.with_total_events(1_500_000),
            WorkloadSpec::new(Family::Ring)
                .threads(8)
                .addr_space(256)
                .seed(3)
                .with_total_events(1_050_000),
        ]
    }
}

/// Record and measure the long-stream workloads. Every row's detection
/// is held to the workload's own ground truth through the shared
/// `judge_outcome` adapter — a throughput number measured on a
/// miscounting detector would be worthless.
fn measure_workloads(quick: bool, min_secs: f64) -> Vec<WorkloadRow> {
    let tool = Tool::HelgrindLibSpin { window: 7 };
    let cfg = detector_config(tool);
    let mut rows = Vec::new();
    for spec in long_stream_specs(quick) {
        let wl = spec.build();
        let run = Session::for_module(&wl.module)
            .vm_config(spec.vm_config())
            .prepare(tool)
            .expect("prepare workload")
            .execute()
            .expect("vm run");
        let trace = run.trace();
        let replay_eps = measure_trace(trace, min_secs, || RaceDetector::new(cfg));
        // One more replay with locations resolved, judged against the
        // workload's ground truth (exact victim/thread-pair matching —
        // valid for race-free and any future seeded spec alike).
        let out = run.run(&DetectRequest::config(cfg)).into_single();
        let verdict = spinrace_suites::judge_outcome(&wl.oracle, &out);
        assert!(
            verdict.pass(),
            "workload {} violated its oracle under {}: {verdict}",
            spec.name(),
            tool.label(),
        );
        let codec = measure_codec(trace, cfg, min_secs);
        // The predictive pass measures over its own recording: the
        // sync-preserving tool analyzes the *unmodified* module (no
        // spin instrumentation), so the lib+spin trace above is not its
        // stream. One more deterministic execution, same spec, judged
        // against the same ground truth.
        let sp_tool = Tool::SyncPreserving;
        let sp_cfg = detector_config(sp_tool);
        let sp_run = Session::for_module(&wl.module)
            .vm_config(spec.vm_config())
            .prepare(sp_tool)
            .expect("prepare predictive workload")
            .execute()
            .expect("vm run");
        let predict_eps = measure_trace(sp_run.trace(), min_secs, || AnyDetector::new(sp_cfg));
        let sp_out = sp_run.run(&DetectRequest::config(sp_cfg)).into_single();
        let sp_verdict = spinrace_suites::judge_outcome(&wl.oracle, &sp_out);
        assert!(
            sp_verdict.pass(),
            "workload {} violated its oracle under {}: {sp_verdict}",
            spec.name(),
            sp_tool.label(),
        );
        println!(
            "{:>14} {:<24} {:>8} events  (trace replay {:>6.2} M ev/s)  shadow {} B [{}]",
            wl.spec.family.name(),
            spec.name(),
            trace.events.len(),
            replay_eps / 1e6,
            out.metrics.shadow_bytes,
            wl.oracle.describe(),
        );
        println!(
            "{:>14} {:<24} trace {:.2} B/ev; encode {:>6.2} M, decode {:>6.2} M ev/s; streamed {} chunk(s), peak {} KiB resident",
            "",
            "",
            codec.binary_bytes as f64 / trace.events.len().max(1) as f64,
            codec.encode_events_per_sec / 1e6,
            codec.decode_events_per_sec / 1e6,
            codec.streaming_chunks,
            codec.streaming_peak_resident_bytes / 1024,
        );
        println!(
            "{:>14} {:<24} sync_preserving {:>6.2} M ev/s over {} events ({} context(s)) [{}]",
            "",
            "",
            predict_eps / 1e6,
            sp_run.trace().events.len(),
            sp_out.contexts,
            wl.oracle.describe(),
        );
        rows.push(WorkloadRow {
            spec: spec.name(),
            family: wl.spec.family.name().to_string(),
            oracle: wl.oracle.describe(),
            events: trace.events.len(),
            replay_events_per_sec: replay_eps,
            shadow_bytes: out.metrics.shadow_bytes,
            contexts: out.contexts,
            predict_events_per_sec: predict_eps,
            predict_contexts: sp_out.contexts,
            codec,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.first().map(String::as_str) == Some("serve") {
        serve_only(quick);
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(default_out_path);
    // Timing window per measurement. Quick mode trades precision for CI
    // latency; the 5× floor margin absorbs the extra noise.
    let min_secs = if quick { 0.12 } else { 0.6 };
    // Scale the kernels up so per-replay constants (detector construction)
    // amortize away and events/sec measures the steady-state hot path.
    let programs = perf_programs(16);
    let programs: Vec<_> = if quick {
        programs.into_iter().filter(|(n, _)| *n == "vips").collect()
    } else {
        programs
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, module) in &programs {
        for (_, tool) in bench_tools() {
            let trace = record_trace(tool, module);
            let events = &trace.events;
            let cfg = detector_config(tool);

            let eps = measure(events, min_secs, || RaceDetector::new(cfg));
            let ref_eps = measure(events, min_secs, || ReferenceDetector::new(cfg));
            // Detector-only throughput through the Trace artifact itself
            // (`Trace::replay`) — the series the session API's fan-out
            // paths actually exercise.
            let replay_eps = measure_trace(&trace, min_secs, || RaceDetector::new(cfg));

            // One more replay of each to read retained state.
            let mut det = RaceDetector::new(cfg);
            replay(events, &mut det);
            let mut rdet = ReferenceDetector::new(cfg);
            replay(events, &mut rdet);
            assert_eq!(
                det.racy_contexts(),
                rdet.racy_contexts(),
                "fast and reference detectors disagree on {name}/{}",
                tool.label()
            );

            println!(
                "{name:>14} {:<24} {:>8} events  {:>7.2} M ev/s  (trace replay {:>6.2} M, ref {:>6.2} M ev/s, {:>4.1}x)  shadow {} B (ref {} B)",
                tool.label(),
                events.len(),
                eps / 1e6,
                replay_eps / 1e6,
                ref_eps / 1e6,
                eps / ref_eps,
                det.metrics().shadow_bytes,
                rdet.shadow_bytes(),
            );
            rows.push(Row {
                program: name,
                tool: tool.label(),
                events: events.len(),
                events_per_sec: eps,
                replay_events_per_sec: replay_eps,
                ref_events_per_sec: ref_eps,
                shadow_bytes: det.metrics().shadow_bytes,
                ref_shadow_bytes: rdet.shadow_bytes(),
                contexts: det.racy_contexts(),
            });
        }
    }

    // Long-stream workload rows (≥1M events each).
    let workload_rows = measure_workloads(quick, min_secs);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let min_eps = rows
        .iter()
        .map(|r| r.events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let replay_min_eps = rows
        .iter()
        .map(|r| r.replay_events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let workload_min_eps = workload_rows
        .iter()
        .map(|r| r.replay_events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let predict_min_eps = workload_rows
        .iter()
        .map(|r| r.predict_events_per_sec)
        .fold(f64::INFINITY, f64::min);
    let geomean_speedup = (rows
        .iter()
        .map(|r| (r.events_per_sec / r.ref_events_per_sec).ln())
        .sum::<f64>()
        / rows.len() as f64)
        .exp();
    println!(
        "min {:.2} M ev/s (trace replay min {:.2} M, long-stream min {:.2} M, sync_preserving \
         min {:.2} M), geomean speedup over reference {geomean_speedup:.2}x",
        min_eps / 1e6,
        replay_min_eps / 1e6,
        workload_min_eps / 1e6,
        predict_min_eps / 1e6,
    );

    let serve_row = measure_serve(quick);
    print_serve_row(&serve_row);

    write_json(
        &out_path,
        quick,
        &rows,
        &workload_rows,
        Summary {
            min_eps,
            replay_min_eps,
            workload_min_eps,
            predict_min_eps,
            geomean_speedup,
        },
        cores,
        &serve_row,
    );
    println!("wrote {out_path}");

    if quick && min_eps < FLOOR_EVENTS_PER_SEC / 5.0 {
        eprintln!(
            "PERF REGRESSION: min {min_eps:.0} ev/s is more than 5x below the checked-in floor \
             of {FLOOR_EVENTS_PER_SEC:.0} ev/s"
        );
        std::process::exit(1);
    }
    // The Trace-artifact path must stay as fast as the raw-slice path: it
    // is the same detector fed by the same borrowed events, so a gap here
    // means an accidental copy crept into `Trace::replay`.
    if quick && replay_min_eps < FLOOR_EVENTS_PER_SEC / 5.0 {
        eprintln!(
            "PERF REGRESSION: trace-replay min {replay_min_eps:.0} ev/s is more than 5x below \
             the checked-in floor of {FLOOR_EVENTS_PER_SEC:.0} ev/s"
        );
        std::process::exit(1);
    }
    // The long streams are where steady-state (cache-bound) throughput
    // lives; they get their own non-regressing floor so a hot-path slip
    // that only shows at scale can't hide behind the tiny bench rows.
    if quick && workload_min_eps < WORKLOAD_FLOOR_EVENTS_PER_SEC / 5.0 {
        eprintln!(
            "PERF REGRESSION: long-stream workload replay min {workload_min_eps:.0} ev/s is \
             more than 5x below the checked-in floor of {WORKLOAD_FLOOR_EVENTS_PER_SEC:.0} ev/s"
        );
        std::process::exit(1);
    }
    // The predictive pass has its own (much lower) floor: it is
    // sequential-only and clock-map heavy by design, so holding it to
    // the HB floor would punish the algorithm for existing, while no
    // floor at all would let a per-event map rebuild land silently.
    if quick && predict_min_eps < PREDICT_FLOOR_EVENTS_PER_SEC / 5.0 {
        eprintln!(
            "PERF REGRESSION: sync_preserving long-stream replay min {predict_min_eps:.0} ev/s \
             is more than 5x below the checked-in floor of {PREDICT_FLOOR_EVENTS_PER_SEC:.0} ev/s"
        );
        std::process::exit(1);
    }
    // Trace-format gates, on every long stream quick mode measures.
    // Encoding is deterministic (same stream → same bytes), so the size
    // gate takes no noise margin; the decode floor gets the same /5 the
    // other throughput floors use. The streaming-peak bound is the
    // O(chunk) claim made executable: the decode-ahead pipeline holds at
    // most the chunk being detected plus the chunk being decoded plus
    // one in the channel, so peak resident chunk memory must stay under
    // four chunks' worth regardless of stream length.
    for row in &workload_rows {
        let c = &row.codec;
        let bytes_per_event = c.binary_bytes as f64 / row.events.max(1) as f64;
        if quick && bytes_per_event > MAX_BINARY_BYTES_PER_EVENT {
            eprintln!(
                "PERF REGRESSION: binary trace of {} is {} bytes, {bytes_per_event:.2} \
                 bytes/event, above the ceiling of {MAX_BINARY_BYTES_PER_EVENT} bytes/event",
                row.spec, c.binary_bytes,
            );
            std::process::exit(1);
        }
        if quick && c.decode_events_per_sec < DECODE_FLOOR_EVENTS_PER_SEC / 5.0 {
            eprintln!(
                "PERF REGRESSION: binary trace decode of {} at {:.0} ev/s is more than 5x \
                 below the checked-in floor of {DECODE_FLOOR_EVENTS_PER_SEC:.0} ev/s",
                row.spec, c.decode_events_per_sec,
            );
            std::process::exit(1);
        }
        let chunk_budget = 4 * DEFAULT_CHUNK_EVENTS * std::mem::size_of::<Event>();
        if quick && c.streaming_peak_resident_bytes > chunk_budget {
            eprintln!(
                "PERF REGRESSION: streaming replay of {} held {} bytes of decoded chunks at \
                 peak, above the four-chunk budget of {} bytes — the reader is no longer \
                 O(chunk)",
                row.spec, c.streaming_peak_resident_bytes, chunk_budget,
            );
            std::process::exit(1);
        }
    }
}

/// `BENCH_detector.json` at the repo root, resolved relative to this
/// crate so the binary works from any working directory.
fn default_out_path() -> String {
    format!("{}/../../BENCH_detector.json", env!("CARGO_MANIFEST_DIR"))
}

/// The Criterion bench programs, scaled `scale`× for longer event streams.
fn perf_programs(scale: u32) -> Vec<(&'static str, spinrace_tir::Module)> {
    spinrace_suites::all_programs()
        .into_iter()
        .filter(|p| matches!(p.name, "blackscholes" | "vips" | "dedup"))
        .map(|p| (p.name, (p.build)(p.threads, p.size * scale)))
        .collect()
}

/// The detector configuration a tool runs (long MSM — integration mode,
/// as in the PARSEC experiments and the Criterion benches).
fn detector_config(tool: Tool) -> DetectorConfig {
    tool.detector_config(MsmMode::Long, 1000)
}

/// Record the event stream a tool's detector would see, through the
/// session pipeline: prepare (nolib lowering, spin instrumentation), then
/// one deterministic round-robin execution captured as a [`Trace`].
fn record_trace(tool: Tool, module: &spinrace_tir::Module) -> Trace {
    Session::for_module(module)
        .prepare(tool)
        .expect("prepare")
        .execute()
        .expect("vm run")
        .into_trace()
}

fn replay(events: &[Event], sink: &mut impl EventSink) {
    for e in events {
        sink.on_event(e);
    }
}

/// The shared timing loop: run `iter` once as warm-up (page in code and
/// allocator state), then repeat until `min_secs` elapsed; returns
/// events/sec over `events` events per iteration.
fn timed_events_per_sec(events: usize, min_secs: f64, mut iter: impl FnMut()) -> f64 {
    iter();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        iter();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return events as f64 * iters as f64 / elapsed;
        }
    }
}

/// Replay `events` into fresh `mk()` sinks until `min_secs` elapsed;
/// returns events/sec.
fn measure<S: EventSink>(events: &[Event], min_secs: f64, mut mk: impl FnMut() -> S) -> f64 {
    timed_events_per_sec(events.len(), min_secs, || {
        let mut d = mk();
        replay(events, &mut d);
    })
}

/// Same as [`measure`], but through [`Trace::replay`] — the artifact path
/// the session API's detect fan-out uses.
fn measure_trace<S: EventSink>(trace: &Trace, min_secs: f64, mut mk: impl FnMut() -> S) -> f64 {
    timed_events_per_sec(trace.events.len(), min_secs, || {
        let mut d = mk();
        trace.replay(&mut d);
    })
}

/// The summary block of the JSON document.
struct Summary {
    min_eps: f64,
    replay_min_eps: f64,
    workload_min_eps: f64,
    predict_min_eps: f64,
    geomean_speedup: f64,
}

/// The serve latency bench: throughput and tail latency of whole
/// analysis sessions (framed upload → streamed verdicts → done) against
/// an in-process server under [`SERVE_CLIENTS`] concurrent clients.
struct ServeRow {
    clients: usize,
    uploads: usize,
    events_per_upload: usize,
    traces_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Stand up a `spinrace-serve` instance on a loopback port, hammer it
/// with [`SERVE_CLIENTS`] clients uploading the same pre-encoded stream
/// back-to-back for a fixed window, and report traces/sec plus p50/p99
/// end-to-end session latency.
fn measure_serve(quick: bool) -> ServeRow {
    let spec = WorkloadSpec::new(Family::Ring)
        .threads(4)
        .addr_space(256)
        .seed(5)
        .with_total_events(if quick { 20_000 } else { 100_000 });
    let wl = spec.build();
    let tool: Tool = "lib+spin".parse().expect("bench tool label");
    let trace = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(tool)
        .expect("prepare serve workload")
        .execute()
        .expect("vm run")
        .into_trace();
    let events_per_upload = trace.events.len();
    let bytes = encode_trace(&trace);
    let params = serde_json::Value::Map(vec![(
        serde_json::Value::Str("tools".into()),
        serde_json::Value::Seq(vec![serde_json::Value::Str(tool.label())]),
    )]);

    let handle = spinrace_serve::serve(
        "127.0.0.1:0",
        spinrace_serve::ServeOptions {
            sessions: SERVE_CLIENTS,
            ..Default::default()
        },
    )
    .expect("bind serve bench server");
    let addr = handle.addr().to_string();
    let window = Duration::from_secs_f64(if quick { 1.0 } else { 3.0 });

    let start = Instant::now();
    let deadline = start + window;
    let latencies: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut lats = Vec::new();
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        let out = spinrace_serve::run_client(&addr, &params, &bytes)
                            .expect("serve bench client io");
                        assert!(
                            out.succeeded(),
                            "serve bench session failed: {:?}",
                            out.error
                        );
                        lats.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    lats
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("serve bench client"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    handle.shutdown();

    let mut sorted = latencies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)];
    ServeRow {
        clients: SERVE_CLIENTS,
        uploads: latencies.len(),
        events_per_upload,
        traces_per_sec: latencies.len() as f64 / elapsed,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// `perf serve [--quick]`: only the serve latency bench, with its gates
/// — the CI `serve-smoke` entry point. Nothing is written; the full
/// `perf` run records the same row into `BENCH_detector.json`.
fn serve_only(quick: bool) -> ! {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = measure_serve(quick);
    print_serve_row(&row);
    if quick && cores >= SERVE_CLIENTS {
        if row.traces_per_sec < SERVE_FLOOR_TRACES_PER_SEC {
            eprintln!(
                "PERF REGRESSION: serve sustained only {:.1} trace(s)/sec across \
                 {SERVE_CLIENTS} clients on {cores} cores; required ≥ \
                 {SERVE_FLOOR_TRACES_PER_SEC:.0}",
                row.traces_per_sec,
            );
            std::process::exit(1);
        }
        if row.p99_ms > SERVE_P99_CEILING_MS {
            eprintln!(
                "PERF REGRESSION: serve p99 session latency of {:.1} ms across \
                 {SERVE_CLIENTS} clients on {cores} cores is above the \
                 {SERVE_P99_CEILING_MS:.0} ms ceiling",
                row.p99_ms,
            );
            std::process::exit(1);
        }
    } else if quick {
        println!(
            "note: {cores} core(s) < {SERVE_CLIENTS} clients — the serve latency gates are \
             vacuous and were skipped"
        );
    }
    std::process::exit(0);
}

fn print_serve_row(row: &ServeRow) {
    println!(
        "serve: {} upload(s) of {} events across {} concurrent client(s) — {:.1} traces/sec, \
         p50 {:.1} ms, p99 {:.1} ms",
        row.uploads, row.events_per_upload, row.clients, row.traces_per_sec, row.p50_ms, row.p99_ms,
    );
}

fn write_json(
    path: &str,
    quick: bool,
    rows: &[Row],
    workload_rows: &[WorkloadRow],
    summary: Summary,
    cores: usize,
    serve: &ServeRow,
) {
    let results: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "program": r.program,
                "tool": r.tool.as_str(),
                "events": r.events as u64,
                "events_per_sec": r.events_per_sec,
                "replay_events_per_sec": r.replay_events_per_sec,
                "ref_events_per_sec": r.ref_events_per_sec,
                "speedup_vs_reference": r.events_per_sec / r.ref_events_per_sec,
                "shadow_bytes": r.shadow_bytes as u64,
                "ref_shadow_bytes": r.ref_shadow_bytes as u64,
                "contexts": r.contexts as u64,
            })
        })
        .collect();
    let workloads: Vec<serde_json::Value> = workload_rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "spec": r.spec.as_str(),
                "family": r.family.as_str(),
                "oracle": r.oracle.as_str(),
                "events": r.events as u64,
                "replay_events_per_sec": r.replay_events_per_sec,
                "shadow_bytes": r.shadow_bytes as u64,
                "contexts": r.contexts as u64,
                "predict_events_per_sec": r.predict_events_per_sec,
                "predict_contexts": r.predict_contexts as u64,
                "trace_binary_bytes": r.codec.binary_bytes as u64,
                "trace_bytes_per_event": r.codec.binary_bytes as f64 / r.events.max(1) as f64,
                "trace_encode_events_per_sec": r.codec.encode_events_per_sec,
                "trace_decode_events_per_sec": r.codec.decode_events_per_sec,
                "streaming_chunks": r.codec.streaming_chunks as u64,
                "streaming_peak_resident_bytes": r.codec.streaming_peak_resident_bytes as u64,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "schema": "spinrace-perf-v10",
        "quick": quick,
        "cores": cores as u64,
        "floor_events_per_sec": FLOOR_EVENTS_PER_SEC,
        "workload_floor_events_per_sec": WORKLOAD_FLOOR_EVENTS_PER_SEC,
        "predict_floor_events_per_sec": PREDICT_FLOOR_EVENTS_PER_SEC,
        "decode_floor_events_per_sec": DECODE_FLOOR_EVENTS_PER_SEC,
        "max_binary_bytes_per_event": MAX_BINARY_BYTES_PER_EVENT,
        "results": serde_json::Value::Seq(results),
        "workloads": serde_json::Value::Seq(workloads),
        "serve": {
            "clients": serve.clients as u64,
            "uploads": serve.uploads as u64,
            "events_per_upload": serve.events_per_upload as u64,
            "traces_per_sec": serve.traces_per_sec,
            "p50_ms": serve.p50_ms,
            "p99_ms": serve.p99_ms,
            "floor_traces_per_sec": SERVE_FLOOR_TRACES_PER_SEC,
            "p99_ceiling_ms": SERVE_P99_CEILING_MS,
        },
        "summary": {
            "min_events_per_sec": summary.min_eps,
            "replay_min_events_per_sec": summary.replay_min_eps,
            "workload_replay_min_events_per_sec": summary.workload_min_eps,
            "predict_replay_min_events_per_sec": summary.predict_min_eps,
            "geomean_speedup_vs_reference": summary.geomean_speedup,
        },
    });
    let text = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(path, text + "\n").expect("write BENCH_detector.json");
}
