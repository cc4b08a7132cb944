//! `perfbench` — the end-to-end benchmark of SpinRace.
//!
//! ```text
//! perfbench --workload <replay-ring|replay-zipf|serve-ring|tables> --seed N
//!           --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! One process runs one workload: set-up (repeated, median reported),
//! an untimed warm-up of the same ops, then a closed loop of ops for
//! `--seconds`. Every op's output is checked. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off. With `--trace 1` ops alternate between traced and
//! untraced, so both halves see the same host; the traced ops' spans
//! give the per-layer metrics, and the two halves' median op times give
//! the tracing overhead. Spans and per-layer figures are also written
//! to `.perfbench_out/<workload>-seed<N>.json`.
//! `--tiny` shrinks every stream for the smoke test.

mod calib;
mod procstat;
mod served;
mod stream;
mod tables;
mod tracer;

use procstat::Usage;
use served::{Served, SESSIONS};
use spinrace_core::Tool;
use spinrace_detector::MsmMode;
use spinrace_workloads::{Family, WorkloadSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};
use stream::Stream;
use tables::Tables;
use tracer::{median, percentile, Tracer};

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 7] = [
    ("events_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1`: (name, unit). A layer
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("tracefmt.decode_events_per_s", "1/s"),
    ("tracefmt.encode_events_per_s", "1/s"),
    ("tracefmt.bytes_per_event", "B"),
    ("tracefmt.chunks_per_op", "count"),
    ("detector.events_per_s", "1/s"),
    ("detector.shadow_bytes", "B"),
    ("detector.contexts", "count"),
    ("core.stream_ms", "ms"),
    ("core.peak_resident_bytes", "B"),
    ("core.stream_overlap", "ratio"),
    ("core.prepare_ms", "ms"),
    ("vm.execute_events_per_s", "1/s"),
    ("vm.runs_per_op", "count"),
    ("suites.rebind_ms", "ms"),
    ("serve.outcome_json_ms", "ms"),
    ("serve.hello_ms", "ms"),
    ("serve.first_verdict_ms", "ms"),
    ("serve.outcome_ms", "ms"),
    ("serve.done_ms", "ms"),
    ("serve.verdict_frames_per_session", "count"),
    ("report.t1_ms", "ms"),
    ("report.t2_ms", "ms"),
    ("proc.minor_faults_per_op", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
];

/// Set-up runs at least this often and for at least this long in one
/// process; `setup_s` is the median run.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// The untraced timed window is cut into this many equal sub-windows.
/// Each is scaled by its own host-speed samples, and rates are the
/// median over sub-windows, so a neighbour's burst that covers one or
/// two of them does not move the result.
const SUB_WINDOWS: usize = 5;
const WARMUP_S: f64 = 2.0;
const TINY_WARMUP_S: f64 = 0.2;
/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench_out";
/// Host speed (see [`calib`]) is sampled before the next op once this
/// much time has passed since the window's last sample.
const CALIB_EVERY: Duration = Duration::from_millis(250);
/// At most this many failure messages are printed.
const MAX_ERRORS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    ReplayRing,
    ReplayZipf,
    ServeRing,
    Tables,
}

impl Kind {
    const ALL: [(&'static str, Kind); 4] = [
        ("replay-ring", Kind::ReplayRing),
        ("replay-zipf", Kind::ReplayZipf),
        ("serve-ring", Kind::ServeRing),
        ("tables", Kind::Tables),
    ];

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.iter().find(|(n, _)| *n == s).map(|&(_, k)| k)
    }

    fn name(self) -> &'static str {
        Kind::ALL
            .iter()
            .find(|(_, k)| *k == self)
            .map(|(n, _)| *n)
            .expect("every kind is named")
    }

    /// The latency percentile `op_ms_tail` reports: the highest one with
    /// at least ten ops beyond it in a 20 s window.
    fn tail_percentile(self) -> f64 {
        match self {
            Kind::ServeRing => 0.99,
            Kind::Tables => 0.90,
            Kind::ReplayRing | Kind::ReplayZipf => 0.75,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let workload = get("--workload").ok_or("--workload is required")?;
        let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let seed = get("--seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "--seed takes a non-negative integer")?;
        let seconds: f64 = get("--seconds")
            .ok_or("--seconds is required")?
            .parse()
            .map_err(|_| "--seconds takes a number")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
        Ok(Args {
            kind,
            seed,
            seconds,
            trace,
            tiny: argv.iter().any(|a| a == "--tiny"),
        })
    }
}

/// A workload's inputs after set-up.
enum State {
    Replay(Stream),
    Serve(Served),
    Tables(Tables),
}

impl State {
    fn setup(args: &Args, t: &mut Tracer) -> Result<State, String> {
        let size = |full: u64, tiny: u64| if args.tiny { tiny } else { full };
        let lib_spin = Tool::HelgrindLibSpin { window: 7 };
        let ring = |threads: u32, events: u64| {
            WorkloadSpec::new(Family::Ring)
                .threads(threads)
                .addr_space(256)
                .seed(args.seed)
                .with_total_events(events)
        };
        Ok(match args.kind {
            Kind::ReplayRing => State::Replay(Stream::record(
                ring(8, size(4_200_000, 40_000)),
                lib_spin,
                MsmMode::Long,
                t,
            )?),
            Kind::ReplayZipf => {
                let spec = WorkloadSpec::new(Family::Zipf)
                    .threads(8)
                    .addr_space(4096)
                    .skew(3)
                    .seed(args.seed)
                    .with_total_events(size(4_200_000, 40_000));
                State::Replay(Stream::record(spec, lib_spin, MsmMode::Long, t)?)
            }
            Kind::ServeRing => State::Serve(Served::new(Stream::record(
                ring(4, size(100_000, 5_000)),
                lib_spin,
                MsmMode::Short,
                t,
            )?)?),
            Kind::Tables => State::Tables(Tables::setup(t)?),
        })
    }

    fn stream(&self) -> Option<&Stream> {
        match self {
            State::Replay(s) => Some(s),
            State::Serve(s) => Some(&s.upload.stream),
            State::Tables(_) => None,
        }
    }

    /// Run ops in a closed loop for `seconds`: one caller for the
    /// replay and tables workloads, [`SESSIONS`] concurrent clients for
    /// the served one. With `trace`, every other op is traced.
    fn window(&self, seconds: f64, trace: bool, epoch: Instant, ops: &AtomicU64) -> Window {
        let start_usage = Usage::now();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut t = Tracer::new(false, epoch);
        let gate = CalibGate::new(None);
        let loops = match self {
            State::Replay(s) => {
                vec![closed_loop(deadline, &gate, &mut t, ops, trace, |t| {
                    s.replay(t).map(|_| s.events)
                })]
            }
            State::Tables(tb) => vec![closed_loop(deadline, &gate, &mut t, ops, trace, |t| {
                tb.op(t)
            })],
            State::Serve(sv) => {
                let addr = sv.addr();
                let upload = &sv.upload;
                let clients: Vec<(Loop, Tracer)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..SESSIONS)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut t = Tracer::new(false, epoch);
                                let l = closed_loop(deadline, &gate, &mut t, ops, trace, |t| {
                                    upload.session(&addr, t)
                                });
                                (l, t)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("a client thread panicked"))
                        .collect()
                });
                sv.drain_events();
                clients
                    .into_iter()
                    .map(|(l, ct)| {
                        t.absorb(ct);
                        l
                    })
                    .collect()
            }
        };
        let end = loops.iter().map(|l| l.end).max().unwrap_or(start);
        let usage = Usage::now().since(start_usage);
        // Calibration pauses every caller: take it out of the window.
        let calib_s: f64 = loops.iter().flat_map(|l| &l.cal_ms).sum::<f64>() / 1e3;
        let mut w = Window {
            wall_s: (end - start).as_secs_f64() - calib_s,
            usage,
            tracer: t,
            ..Window::default()
        };
        for l in loops {
            w.lat_ms.extend(l.lat_ms);
            w.traced.extend(l.traced);
            w.cal_ms.extend(l.cal_ms);
            w.failed += l.failed;
            w.events += l.events;
            w.errors.extend(l.errors);
        }
        w
    }

    /// Layer probes for the traced run. Returns (attempted, failed)
    /// checks plus failure messages.
    fn probe(&self, t: &mut Tracer, ops: &AtomicU64) -> (u64, u64, Vec<String>) {
        let Some(s) = self.stream() else {
            return (0, 0, Vec::new());
        };
        t.set_on(true);
        let mut results: Vec<Result<(), String>> = Vec::new();
        // The server runs rebind, streaming and rendering out of reach of
        // client-side spans: time the same calls on the offline replay.
        if matches!(self, State::Serve(_)) {
            for _ in 0..50 {
                t.set_op(ops.fetch_add(1, Ordering::Relaxed));
                results.push(s.replay(t).map(drop));
            }
        }
        for _ in 0..3 {
            results.push(s.probe_decode(t));
        }
        for _ in 0..2 {
            results.push(s.probe_detect(t));
        }
        let errors: Vec<String> = results.iter().filter_map(|r| r.clone().err()).collect();
        (results.len() as u64, errors.len() as u64, errors)
    }
}

/// What one closed-loop caller measured.
struct Loop {
    lat_ms: Vec<f64>,
    /// Whether each op was traced.
    traced: Vec<bool>,
    /// Host-speed samples taken between ops.
    cal_ms: Vec<f64>,
    failed: u64,
    events: u64,
    errors: Vec<String>,
    end: Instant,
}

/// Keeps host-speed samples apart from ops: every op holds the gate
/// shared and a sample holds it exclusively, so no op of another caller,
/// and so no thread of the program, competes with the calibration kernel.
/// The gate holds the time of the window's last sample.
type CalibGate = RwLock<Option<Instant>>;

/// Run `op` back to back until `deadline` (at least once). Each op is
/// timed from its call to its checked result; failed ops count as
/// attempted and analyse no events. With `alternate`, odd ops are traced.
/// Host-speed samples are taken between ops, outside their timing, by
/// whichever caller first finds one due.
fn closed_loop(
    deadline: Instant,
    gate: &CalibGate,
    t: &mut Tracer,
    ops: &AtomicU64,
    alternate: bool,
    mut op: impl FnMut(&mut Tracer) -> Result<u64, String>,
) -> Loop {
    const POISONED: &str = "no caller panics while holding the calibration gate";
    let mut l = Loop {
        lat_ms: Vec::new(),
        traced: Vec::new(),
        cal_ms: Vec::new(),
        failed: 0,
        events: 0,
        errors: Vec::new(),
        end: Instant::now(),
    };
    let due = |last: &Option<Instant>| last.is_none_or(|at| at.elapsed() >= CALIB_EVERY);
    loop {
        if !l.lat_ms.is_empty() && Instant::now() >= deadline {
            break;
        }
        if due(&gate.read().expect(POISONED)) {
            let mut last = gate.write().expect(POISONED);
            // Another caller may have sampled while this one waited.
            if due(&last) {
                l.cal_ms.push(calib::sample_ms());
                *last = Some(Instant::now());
            }
        }
        let _in_flight = gate.read().expect(POISONED);
        let start = Instant::now();
        let traced = alternate && l.lat_ms.len() % 2 == 1;
        t.set_on(traced);
        t.set_op(ops.fetch_add(1, Ordering::Relaxed));
        let result = t.span("op", |t| op(t), |r| *r.as_ref().unwrap_or(&0));
        l.end = Instant::now();
        l.lat_ms.push((l.end - start).as_secs_f64() * 1e3);
        l.traced.push(traced);
        match result {
            Ok(events) => l.events += events,
            Err(e) => {
                l.failed += 1;
                if l.errors.len() < MAX_ERRORS {
                    l.errors.push(e);
                }
            }
        }
    }
    t.set_on(false);
    l
}

/// One timed window over all callers.
struct Window {
    lat_ms: Vec<f64>,
    traced: Vec<bool>,
    cal_ms: Vec<f64>,
    failed: u64,
    events: u64,
    wall_s: f64,
    usage: Usage,
    errors: Vec<String>,
    tracer: Tracer,
}

impl Default for Window {
    fn default() -> Window {
        Window {
            lat_ms: Vec::new(),
            traced: Vec::new(),
            cal_ms: Vec::new(),
            failed: 0,
            events: 0,
            wall_s: 0.0,
            usage: Usage::default(),
            errors: Vec::new(),
            tracer: Tracer::new(false, Instant::now()),
        }
    }
}

impl Window {
    fn ops(&self) -> f64 {
        self.lat_ms.len() as f64
    }

    /// Latencies of the traced (or untraced) ops.
    fn lat_where(&self, traced: bool) -> Vec<f64> {
        self.lat_ms
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&l, _)| l)
            .collect()
    }

    /// The host slowdown over this window: its median calibration
    /// sample over the reference time.
    fn slowdown(&self) -> f64 {
        median(&self.cal_ms) / calib::REF_MS
    }
}

/// The end-to-end metrics over the sub-windows of the timed window.
/// Each sub-window's timings are divided by its own slowdown (rates
/// multiplied by it); rates and CPU per op are the median over
/// sub-windows, latency percentiles are taken over the scaled latencies
/// of all ops. `setup_s` is already scaled.
fn end_to_end(
    subs: &[Window],
    tail: f64,
    peak_rss_mb: f64,
    setup_s: f64,
) -> BTreeMap<&'static str, f64> {
    let per_sub = |f: &dyn Fn(&Window) -> f64| median(&subs.iter().map(f).collect::<Vec<_>>());
    let lat_ms: Vec<f64> = subs
        .iter()
        .flat_map(|w| {
            let s = w.slowdown();
            w.lat_ms.iter().map(move |l| l / s)
        })
        .collect();
    BTreeMap::from([
        (
            "events_per_s",
            per_sub(&|w| w.events as f64 / w.wall_s * w.slowdown()),
        ),
        ("ops_per_s", per_sub(&|w| w.ops() / w.wall_s * w.slowdown())),
        ("op_ms_p50", percentile(&lat_ms, 0.50)),
        ("op_ms_tail", percentile(&lat_ms, tail)),
        (
            "cpu_ms_per_op",
            per_sub(&|w| w.usage.cpu_s * 1e3 / w.ops() / w.slowdown()),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ])
}

/// Per-layer figures from the set-up spans and the traced window (its
/// traced ops and the probes); the tracing overhead compares its traced
/// and untraced ops.
fn per_layer(state: &State, setup: &Tracer, traced: &Window) -> BTreeMap<&'static str, f64> {
    let t = &traced.tracer;
    let med = |name: &str| median(&t.durations(name));
    let stream_events = state.stream().map_or(0.0, |s| s.events as f64);
    let decode_rate = t.rate("probe.decode");
    let detect_rate = t.rate("probe.detect");
    let stream_ms = med("core.stream");
    let overlap = if stream_ms > 0.0 && decode_rate > 0.0 && detect_rate > 0.0 {
        (stream_events / decode_rate + stream_events / detect_rate) * 1e3 / stream_ms
    } else {
        0.0
    };
    let ops = traced.ops();
    BTreeMap::from([
        ("tracefmt.decode_events_per_s", decode_rate),
        (
            "tracefmt.encode_events_per_s",
            setup.rate("tracefmt.encode"),
        ),
        (
            "tracefmt.bytes_per_event",
            state
                .stream()
                .map_or(0.0, |s| s.bytes.len() as f64 / s.events as f64),
        ),
        ("tracefmt.chunks_per_op", t.gauge_median("tracefmt.chunks")),
        ("detector.events_per_s", detect_rate),
        (
            "detector.shadow_bytes",
            t.gauge_median("detector.shadow_bytes"),
        ),
        ("detector.contexts", t.gauge_median("detector.contexts")),
        ("core.stream_ms", stream_ms),
        (
            "core.peak_resident_bytes",
            t.gauge_median("core.peak_resident_bytes"),
        ),
        ("core.stream_overlap", overlap),
        ("core.prepare_ms", median(&setup.durations("core.prepare"))),
        ("vm.execute_events_per_s", setup.rate("core.execute")),
        ("vm.runs_per_op", t.gauge_median("vm.runs")),
        ("suites.rebind_ms", med("suites.rebind")),
        ("serve.outcome_json_ms", med("serve.outcome_json")),
        ("serve.hello_ms", t.gauge_median("serve.hello_ms")),
        (
            "serve.first_verdict_ms",
            t.gauge_median("serve.first_verdict_ms"),
        ),
        ("serve.outcome_ms", t.gauge_median("serve.outcome_ms")),
        ("serve.done_ms", t.gauge_median("serve.done_ms")),
        (
            "serve.verdict_frames_per_session",
            t.gauge_median("serve.verdict_frames"),
        ),
        ("report.t1_ms", med("report.t1")),
        ("report.t2_ms", med("report.t2")),
        (
            "proc.minor_faults_per_op",
            traced.usage.minor_faults as f64 / ops,
        ),
        (
            "proc.ctx_switches_per_op",
            traced.usage.ctx_switches as f64 / ops,
        ),
        ("proc.cpu_util", traced.usage.cpu_s / traced.wall_s),
        ("host.calib_ms", median(&traced.cal_ms)),
        (
            "trace.overhead_pct",
            (median(&traced.lat_where(true)) / median(&traced.lat_where(false)) - 1.0) * 100.0,
        ),
    ])
}

/// The result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let ops = AtomicU64::new(1);
    let name = args.kind.name();
    if args.kind == Kind::Tables {
        // One T1+T2 regeneration spawns a 2-worker detection pool for
        // each of its ~140 executions, about 700 thread hand-offs per
        // 100 ms op. Unpinned, ten runs read p50 from 97 to 169 ms at an
        // unchanged CPU time per op: the hand-offs wait whenever a
        // neighbour holds the other vCPU. On one CPU the harness takes
        // its sequential path (the same tables, bit for bit).
        procstat::pin_to_current_cpu()?;
    }

    let mut setup = Tracer::new(args.trace, epoch);
    let mut setup_s = Vec::new();
    let mut cal_ms = Vec::new();
    let mut state = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        // Free the previous set-up's inputs before building the next.
        drop(state.take());
        cal_ms.push(calib::sample_ms());
        let t0 = Instant::now();
        state = Some(State::setup(args, &mut setup)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up ran");
    if let State::Serve(sv) = &mut state {
        sv.start()?;
    }

    let warm_s = if args.tiny { TINY_WARMUP_S } else { WARMUP_S };
    let warm = state.window(warm_s, false, epoch, &ops);
    procstat::reset_peak_rss()?;

    let (windows, probe, metrics) = if !args.trace {
        let sub_s = args.seconds / SUB_WINDOWS as f64;
        let subs: Vec<Window> = (0..SUB_WINDOWS)
            .map(|_| state.window(sub_s, false, epoch, &ops))
            .collect();
        cal_ms.extend(&warm.cal_ms);
        cal_ms.extend(subs.iter().flat_map(|w| &w.cal_ms));
        // Set-up runs are too short to sample the host inside them: they
        // are scaled by the run's median slowdown.
        let slowdown = median(&cal_ms) / calib::REF_MS;
        let (events, wall_s) = subs
            .iter()
            .fold((0, 0.0), |(e, s), w| (e + w.events, s + w.wall_s));
        let slowdowns: Vec<String> = subs
            .iter()
            .map(|w| format!("{:.3} @ {:.2} ops/s", w.slowdown(), w.ops() / w.wall_s))
            .collect();
        eprintln!(
            "{name}: host slowdown {slowdown:.4} over the run (median of {} calibration \
             samples), per sub-window (slowdown @ unscaled rate) [{}]; unscaled {:.0} \
             events/s, set-up {:.4} s",
            cal_ms.len(),
            slowdowns.join(", "),
            events as f64 / wall_s,
            median(&setup_s)
        );
        let e2e = end_to_end(
            &subs,
            args.kind.tail_percentile(),
            procstat::peak_rss_mb()?,
            median(&setup_s) / slowdown,
        );
        let metrics = END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, e2e[n]))
            .collect::<Vec<_>>();
        let mut windows = vec![warm];
        windows.extend(subs);
        (windows, (0, 0, Vec::new()), metrics)
    } else {
        let mut traced = state.window(args.seconds, true, epoch, &ops);
        let probe = state.probe(&mut traced.tracer, &ops);
        let layers = per_layer(&state, &setup, &traced);
        write_trace_file(args, &setup, &traced, &layers)?;
        let metrics = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, layers[n]))
            .collect::<Vec<_>>();
        (vec![warm, traced], probe, metrics)
    };

    // The first window is the warm-up.
    let timed_ops: f64 = windows[1..].iter().map(Window::ops).sum();
    let timed_s: f64 = windows[1..].iter().map(|w| w.wall_s).sum();
    eprintln!(
        "{name} seed {}: {timed_ops} ops in {timed_s:.3} s timed window, {:.1} beyond the tail \
         percentile p{}, set-up median of {} runs {:.4} s",
        args.seed,
        timed_ops * (1.0 - args.kind.tail_percentile()),
        args.kind.tail_percentile() * 100.0,
        setup_s.len(),
        median(&setup_s)
    );
    let mut attempted = probe.0;
    let mut failed = probe.1;
    let mut errors = probe.2;
    for w in &windows {
        attempted += w.lat_ms.len() as u64;
        failed += w.failed;
        errors.extend(w.errors.iter().cloned());
    }
    for e in errors.iter().take(MAX_ERRORS) {
        eprintln!("FAILED op: {e}");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Write spans, self times, per-layer figures and the tracing overhead
/// of a traced run to `.perfbench_out/<workload>-seed<N>.json`.
fn write_trace_file(
    args: &Args,
    setup: &Tracer,
    traced: &Window,
    layers: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let num_map = |m: &BTreeMap<&str, f64>| {
        let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    };
    let mut spans = setup.clone();
    spans.absorb(traced.tracer.clone());
    let overhead = BTreeMap::from([
        ("untraced_op_ms_p50", median(&traced.lat_where(false))),
        ("traced_op_ms_p50", median(&traced.lat_where(true))),
        ("overhead_pct", layers["trace.overhead_pct"]),
    ]);
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"seconds\": {},\n\"tracing_overhead\": {},\n\
         \"per_layer\": {},\n\"self_ms\": {},\n\"spans\": {}\n}}\n",
        args.kind.name(),
        args.seed,
        args.seconds,
        num_map(&overhead),
        num_map(layers),
        num_map(&spans.self_ms_by_name()),
        spans.spans_json()
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "traced run: {} spans written to {}; tracing overhead {:+.2}% on the median op",
        spans.spans.len(),
        path.display(),
        layers["trace.overhead_pct"]
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <replay-ring|replay-zipf|serve-ring|tables> \
                 --seed N --seconds S --trace 0|1 [--tiny]"
            );
            exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    if let Some((name, _, v)) = out.metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        eprintln!("error: metric {name} is not finite ({v})");
        exit(1);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
