//! `trace` — record, replay, and inspect serialized event traces.
//!
//! The trace artifact decouples execution from detection: record a
//! workload once, then replay the stream under any detector configuration
//! (identical results to a live run, without re-interpreting the
//! program).
//!
//! ```text
//! trace record --program <name> [--tool <TOOL>] [--seed N] [--out FILE]
//!              [--json FILE]
//! trace gen --family <ring|spinflag|barrier|zipf|fanout|straddle|publish> [--threads N]
//!           [--events TOTAL] [--addr-space N] [--skew K] [--races N]
//!           [--seed N] [--tool <TOOL>] [--out FILE] [--json FILE]
//! trace replay FILE [--tool <TOOL>] [--long-msm] [--cap N] [--json FILE]
//!              [--watchdog MS] [--max-events N] [--max-shadow-bytes N]
//! trace inspect FILE [--events N]
//! trace stats FILE
//! trace serve [--addr HOST:PORT] [--sessions N] [--max-events N]
//!             [--max-shadow-bytes N] [--watchdog MS] [--read-timeout MS]
//!             [--write-timeout MS] [--stdin]
//! trace client FILE --addr HOST:PORT [--tool <TOOL>] [--long-msm] [--cap N]
//!              [--max-events N] [--max-shadow-bytes N] [--watchdog MS]
//!              [--json FILE]
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, tripped limit,
//! oracle violation), `2` usage or malformed input (bad flags,
//! undecodable trace file, a header no module rebinds to). Each
//! subcommand checks its arguments before it does anything: a flag it
//! does not take, a value flag with nothing after it, or a stray
//! argument is refused with exit 2 and the subcommand's usage line.
//!
//! **Trace files.** Traces are stored in the binary columnar format of
//! `spinrace-tracefmt` (`.sptrace`, magic `SPINRTRC`); a file without
//! the magic, a JSON document included, is refused as malformed input.
//! `replay` streams the file through the detector a slice of a chunk at
//! a time (decode one slice ahead; peak memory O(slice), detection
//! starts before the file is fully read), and the printed rate is end to end (decode plus
//! detection). `inspect --events N` prints the header block and the
//! first `N` events in a readable form; `stats` summarizes the whole
//! stream without materializing it.
//!
//! `replay --watchdog` bounds the whole replay, and
//! `--max-events`/`--max-shadow-bytes` set resource budgets (`0`
//! disables each). A tripped limit is a one-line structured error and
//! exit code 1 — never a hang or an abort.
//!
//! `gen` records a trace of a *generated* workload
//! (`spinrace-workloads`): a parameterized program with computable
//! ground truth, sized by `--events` (a total-stream target, so
//! `--events 1000000` yields a genuinely long stream for the
//! replay-determinism jobs). The module name encodes the full spec, so
//! `replay` can rebuild generated modules from the trace header alone —
//! and `gen` exits non-zero if the live detection violates the
//! workload's own oracle.
//!
//! `<TOOL>` accepts the table labels (`Helgrind+ lib+spin(7)`) and the
//! short forms `lib`, `lib+spin[(W)]`, `nolib+spin[(W)]`, `drd`,
//! `sync-preserving`. `record` prepares a PARSEC program at its own
//! thread count, size and nolib library style, and tees a trace recorder
//! with the tool's own detector, so the recording run also prints its
//! racy contexts. `replay` looks up the one module the header names
//! (`spinrace_suites::prepared_for_replay`), checks its fingerprint, and
//! replays the decoded stream into a fresh detector — bit-identical to
//! the live run. A header that names no known program, or whose
//! fingerprint no preparation reproduces, is refused with exit 2 and the
//! message `trace serve` sends in its `unknown-module` error frame.
//!
//! `--json FILE` writes the detection outcome (contexts, promoted
//! locations, described reports, detector metrics, run summary) in a
//! stable schema shared by `record` (live detection) and `replay`: the CI
//! `replay-determinism` job byte-compares the streamed replay against
//! the live run.
//!
//! `serve` runs the `spinrace-serve` analysis server (TCP, or one
//! session over stdin/stdout with `--stdin`); `client` uploads a trace
//! file to a running server and prints the streamed verdicts — its
//! `--json` output is byte-identical to `replay --json` of the same
//! file, which the CI `serve-smoke` job checks.

use spinrace_core::{
    AnalysisOutcome, AnalyzeError, Budget, DetectRequest, EngineOptions, ExecutedRun, Session, Tool,
};
use spinrace_detector::MsmMode;
use spinrace_serve::outcome_json;
use spinrace_suites::{all_programs, prepared_for_replay, unbound_message};
use spinrace_tracefmt::ChunkedTraceReader;
use spinrace_vm::{Event, Trace, TraceError, TraceHeader};
use spinrace_workloads::{Family, WorkloadSpec};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::process::exit;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        eprintln!(
            "usage: trace <record|gen|replay|inspect|stats|serve|client> ...  \
             (see --help in source)"
        );
        exit(2);
    };
    let rest = &args[1..];
    if let Err(e) = cmd.check(rest) {
        eprintln!("error: {e}");
        eprintln!("{}", cmd.usage);
        exit(2);
    }
    exit((cmd.run)(rest));
}

/// One subcommand: its handler, the arguments it takes, and its usage
/// line.
struct Command {
    name: &'static str,
    run: fn(&[String]) -> i32,
    /// Takes a leading FILE argument.
    file: bool,
    /// Flags followed by a value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    usage: &'static str,
}

const RECORD: Command = Command {
    name: "record",
    run: record,
    file: false,
    values: &["--program", "--tool", "--seed", "--out", "--json"],
    switches: &[],
    usage: "usage: trace record --program <name> [--tool T] [--seed N] [--out FILE] [--json FILE]",
};

const GEN: Command = Command {
    name: "gen",
    run: gen,
    file: false,
    values: &[
        "--family",
        "--threads",
        "--events",
        "--addr-space",
        "--skew",
        "--races",
        "--seed",
        "--tool",
        "--out",
        "--json",
    ],
    switches: &[],
    usage: "usage: trace gen --family <ring|spinflag|barrier|zipf|fanout|straddle|publish> \
            [--threads N] [--events TOTAL] [--addr-space N] [--skew K] [--races N] [--seed N] \
            [--tool T] [--out FILE] [--json FILE]",
};

const REPLAY: Command = Command {
    name: "replay",
    run: replay,
    file: true,
    values: &[
        "--tool",
        "--cap",
        "--json",
        "--watchdog",
        "--max-events",
        "--max-shadow-bytes",
    ],
    switches: &["--long-msm"],
    usage: "usage: trace replay FILE [--tool T] [--long-msm] [--cap N] [--json FILE] \
            [--watchdog MS] [--max-events N] [--max-shadow-bytes N]",
};

const INSPECT: Command = Command {
    name: "inspect",
    run: inspect,
    file: true,
    values: &["--events"],
    switches: &[],
    usage: "usage: trace inspect FILE [--events N]",
};

const STATS: Command = Command {
    name: "stats",
    run: stats,
    file: true,
    values: &[],
    switches: &[],
    usage: "usage: trace stats FILE",
};

const SERVE: Command = Command {
    name: "serve",
    run: serve_cmd,
    file: false,
    values: &[
        "--addr",
        "--sessions",
        "--max-events",
        "--max-shadow-bytes",
        "--watchdog",
        "--read-timeout",
        "--write-timeout",
    ],
    switches: &["--stdin"],
    usage: "usage: trace serve [--addr HOST:PORT] [--sessions N] [--max-events N] \
            [--max-shadow-bytes N] [--watchdog MS] [--read-timeout MS] [--write-timeout MS] \
            [--stdin]",
};

const CLIENT: Command = Command {
    name: "client",
    run: client_cmd,
    file: true,
    values: &[
        "--addr",
        "--tool",
        "--cap",
        "--max-events",
        "--max-shadow-bytes",
        "--watchdog",
        "--json",
    ],
    switches: &["--long-msm"],
    usage: "usage: trace client FILE --addr HOST:PORT [--tool T] [--long-msm] [--cap N] \
            [--max-events N] [--max-shadow-bytes N] [--watchdog MS] [--json FILE]",
};

const COMMANDS: [Command; 7] = [RECORD, GEN, REPLAY, INSPECT, STATS, SERVE, CLIENT];

impl Command {
    /// Refuse a flag this subcommand does not take, a value flag given
    /// last with no value, and any argument that is neither a flag, a
    /// flag's value, nor the leading FILE.
    fn check(&self, args: &[String]) -> Result<(), String> {
        let mut i = usize::from(self.file && args.first().is_some_and(|a| !a.starts_with("--")));
        while i < args.len() {
            let a = args[i].as_str();
            if self.values.contains(&a) {
                if i + 1 == args.len() {
                    return Err(format!("{a} expects a value (trace {})", self.name));
                }
                i += 2;
            } else if self.switches.contains(&a) {
                i += 1;
            } else if a.starts_with('-') {
                return Err(format!("unknown option {a} for trace {}", self.name));
            } else {
                return Err(format!("unexpected argument {a:?} for trace {}", self.name));
            }
        }
        Ok(())
    }
}

/// `--flag value` lookup.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `--flag N` numeric lookup with a friendly parse error (no panics on
/// typos), falling back to `default` when the flag is absent.
fn num_opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match opt(args, flag) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number, got {s:?}");
            exit(2);
        }),
    }
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_tool(s: &str) -> Tool {
    match s.parse::<Tool>() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            exit(2);
        }
    }
}

/// The tool a replay runs under: `--tool`, else the label the header
/// recorded. `None` (after saying why) when there is neither.
fn replay_tool(args: &[String], header: &TraceHeader) -> Option<Tool> {
    match opt(args, "--tool") {
        Some(s) => Some(parse_tool(&s)),
        None if header.tool_label.is_empty() => {
            eprintln!("error: trace has no recorded tool label; pass --tool");
            None
        }
        None => Some(parse_tool(&header.tool_label)),
    }
}

/// Open a binary trace as a streaming chunk reader (header validated),
/// exiting with code 2 on failure.
fn open_stream(path: &str) -> ChunkedTraceReader<BufReader<std::fs::File>> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(2);
    });
    match ChunkedTraceReader::new(BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            exit(2);
        }
    }
}

/// Write `trace` to `path`, reporting the file size. Returns the
/// exit-code contribution (`1` on I/O failure).
#[must_use]
fn write_trace(path: &str, trace: &Trace) -> i32 {
    if let Err(e) = spinrace_tracefmt::write_trace_file(std::path::Path::new(path), trace) {
        eprintln!("error: {e}");
        return 1;
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {path} ({bytes} bytes, {:.2} bytes/event)",
        bytes as f64 / (trace.events.len() as f64).max(1.0)
    );
    0
}

/// Write the outcome JSON when `--json FILE` was given. Returns the
/// exit code contribution: `0` on success (or no `--json`), `1` when
/// rendering or writing failed.
#[must_use]
fn maybe_write_json(args: &[String], out: &AnalysisOutcome) -> i32 {
    if let Some(path) = opt(args, "--json") {
        let text = match serde_json::to_string_pretty(&outcome_json(out)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot render outcome json: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    0
}

fn record(args: &[String]) -> i32 {
    let Some(name) = opt(args, "--program") else {
        eprintln!("{}", RECORD.usage);
        return 2;
    };
    let tool = parse_tool(&opt(args, "--tool").unwrap_or_else(|| "lib+spin".into()));
    let programs = all_programs();
    let Some(prog) = programs.iter().find(|p| p.name == name) else {
        eprintln!(
            "error: unknown program {name:?}; available: {}",
            programs
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return 2;
    };
    let module = prog.module();
    let mut session = Session::for_module(&module).nolib_style(prog.nolib_style);
    if opt(args, "--seed").is_some() {
        session = session.seed(num_opt(args, "--seed", 0));
    }
    let (run, outcome) = match record_detecting(&session, tool, &format!("recorded {name}")) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!(
        "live detection on the recording run: {} racy context(s), {} promoted location(s)",
        outcome.contexts, outcome.promoted_locations
    );
    write_outputs(args, run.trace(), &outcome, format!("{name}.trace.sptrace"))
}

/// `gen`: record a generated workload with computable ground truth.
fn gen(args: &[String]) -> i32 {
    let Some(family_s) = opt(args, "--family") else {
        eprintln!("{}", GEN.usage);
        return 2;
    };
    let family: Family = match family_s.parse() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut spec = WorkloadSpec::new(family)
        .threads(num_opt(
            args,
            "--threads",
            WorkloadSpec::new(family).threads,
        ))
        .addr_space(num_opt(
            args,
            "--addr-space",
            WorkloadSpec::new(family).addr_space,
        ))
        .skew(num_opt(args, "--skew", WorkloadSpec::new(family).skew))
        .races(num_opt(args, "--races", 0))
        .seed(num_opt(args, "--seed", 1));
    // `--events` is a total-stream target, split across the workers the
    // family actually spawns.
    let total: u64 = num_opt(args, "--events", spec.total_events_hint());
    spec = spec.with_total_events(total);
    let tool = parse_tool(&opt(args, "--tool").unwrap_or_else(|| "lib+spin".into()));

    let wl = spec.build();
    let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
    let what = format!("generated {}", spec.name());
    let (run, outcome) = match record_detecting(&session, tool, &what) {
        Ok(r) => r,
        Err(code) => return code,
    };
    println!("oracle: {}", wl.oracle.describe());
    let default_out = format!("{}.trace.sptrace", spec.name());
    let code = write_outputs(args, run.trace(), &outcome, default_out);
    if code != 0 {
        return code;
    }

    // The workload knows its ground truth — hold the recording run's own
    // detection to it.
    let verdict = spinrace_suites::judge_outcome(&wl.oracle, &outcome);
    if verdict.pass() {
        println!(
            "live detection matches the oracle ({} racy context(s))",
            outcome.contexts
        );
        0
    } else {
        eprintln!(
            "ORACLE VIOLATION: live detection under {} disagrees with ground truth: {verdict}",
            outcome.tool_label
        );
        1
    }
}

/// Prepare `session` for `tool` and execute it once, two consumers on
/// one stream: the trace recorder and the tool's own detector. Prints
/// `what` with the recording's size and fingerprint; `Err` is the exit
/// code.
fn record_detecting(
    session: &Session<'_>,
    tool: Tool,
    what: &str,
) -> Result<(ExecutedRun, AnalysisOutcome), i32> {
    let prepared = session.prepare(tool).map_err(|e| {
        eprintln!("error: prepare failed: {e}");
        1
    })?;
    let (run, outcome) = prepared.execute_detecting().map_err(|e| {
        eprintln!("error: execution failed: {e}");
        1
    })?;
    let trace = run.trace();
    println!(
        "{what} under {}: {} events, {} steps, fingerprint {:#018x}",
        trace.header.tool_label,
        trace.events.len(),
        trace.summary.steps,
        trace.header.module_fingerprint,
    );
    Ok((run, outcome))
}

/// Write `trace` to `--out` (else `default_out`), then the outcome to
/// `--json` when given. Returns the exit code.
#[must_use]
fn write_outputs(
    args: &[String],
    trace: &Trace,
    outcome: &AnalysisOutcome,
    default_out: String,
) -> i32 {
    match write_trace(&opt(args, "--out").unwrap_or(default_out), trace) {
        0 => maybe_write_json(args, outcome),
        code => code,
    }
}

/// The `--watchdog`, `--max-events` and `--max-shadow-bytes` limits of
/// `replay` and `serve`. `0` disables each limit (and is each one's
/// default).
fn engine_limits(args: &[String]) -> EngineOptions {
    let watchdog_ms: u64 = num_opt(args, "--watchdog", 0);
    let max_events: u64 = num_opt(args, "--max-events", 0);
    let max_shadow: u64 = num_opt(args, "--max-shadow-bytes", 0);
    EngineOptions {
        watchdog: (watchdog_ms > 0).then(|| Duration::from_millis(watchdog_ms)),
        budget: Budget {
            max_events: (max_events > 0).then_some(max_events),
            max_shadow_bytes: (max_shadow > 0).then_some(max_shadow as usize),
        },
    }
}

/// Streaming replay of a trace file: the chunk reader decodes one chunk
/// ahead of the detector, so the stream is never materialized.
fn replay(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{}", REPLAY.usage);
        return 2;
    };
    let msm = if has(args, "--long-msm") {
        MsmMode::Long
    } else {
        MsmMode::Short
    };
    let cap: usize = num_opt(args, "--cap", 1000);
    let opts = engine_limits(args);

    let reader = open_stream(path);
    let Some(tool) = replay_tool(args, reader.header()) else {
        return 2;
    };
    // Rebind the one module the header names, so reports resolve to
    // source locations; a header no preparation reproduces binds nothing.
    let Some(prepared) = prepared_for_replay(reader.header(), tool, msm, cap) else {
        eprintln!("error: {path}: {}", unbound_message(reader.header()));
        return 2;
    };
    let t0 = Instant::now();
    let req = DetectRequest::tool(tool).options(opts);
    let (out, stats) = match prepared.try_run_streamed(&req, reader) {
        Ok((o, stats)) => (o.into_single(), stats),
        Err(AnalyzeError::Trace(e)) => {
            eprintln!("error: {path}: {e}");
            return 2;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "replayed {} events under {} [streamed {} chunk(s), peak {} KiB resident]: {} racy \
         context(s), {} promoted location(s) ({:.2} M ev/s, decode+detect)",
        stats.events,
        out.tool_label,
        stats.chunks,
        stats.peak_resident_bytes / 1024,
        out.contexts,
        out.promoted_locations,
        stats.events as f64 / secs.max(1e-9) / 1e6,
    );
    print_reports(&out);
    maybe_write_json(args, &out)
}

/// Print up to ten described reports of an outcome.
fn print_reports(out: &AnalysisOutcome) {
    for r in out.reports.iter().take(10) {
        println!(
            "  {:?} race on {} (t{} vs t{})",
            r.report.kind, r.location, r.report.prior.tid, r.report.current.tid
        );
    }
    if out.reports.len() > 10 {
        println!("  … {} more", out.reports.len() - 10);
    }
}

fn print_header(h: &TraceHeader, summary: &spinrace_vm::RunSummary) {
    println!("version:     {}", h.version);
    println!("module:      {}", h.module_name);
    println!("fingerprint: {:#018x}", h.module_fingerprint);
    println!(
        "tool:        {}",
        if h.tool_label.is_empty() {
            "-"
        } else {
            &h.tool_label
        }
    );
    println!("scheduler:   {:?}", h.vm.sched);
    println!("events:      {}", h.events);
    println!(
        "summary:     {} steps, {} threads, {} spin enter(s), {} spin exit(s), {} memory words",
        summary.steps,
        summary.threads_created,
        summary.spin_enters,
        summary.spin_exits,
        summary.memory_words,
    );
}

fn inspect(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{}", INSPECT.usage);
        return 2;
    };
    let n: usize = num_opt(args, "--events", 10);
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    // Streamed: the header block and the first chunk(s) are all that is
    // read — inspecting a multi-gigabyte trace is cheap.
    let mut reader = open_stream(path);
    println!(
        "format:      binary ({} chunk(s) of ≤{} events, {file_bytes} bytes)",
        reader.chunk_count(),
        reader.chunk_target()
    );
    print_header(reader.header(), reader.summary());
    let total = reader.header().events as usize;
    println!("first {} event(s):", n.min(total));
    let mut shown = 0usize;
    while shown < n {
        match reader.next_chunk() {
            Ok(Some(chunk)) => {
                for ev in chunk.iter().take(n - shown) {
                    println!("  {ev:?}");
                }
                shown += chunk.len().min(n - shown);
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        }
    }
    0
}

/// Streaming accumulator for `stats`: everything the report needs, fed
/// chunk-by-chunk so a trace is never materialized.
#[derive(Default)]
struct StatsAcc {
    kinds: BTreeMap<&'static str, u64>,
    per_thread: BTreeMap<u32, u64>,
    plain: u64,
    total: u64,
    addrs: std::collections::BTreeSet<u64>,
}

impl StatsAcc {
    fn add_chunk(&mut self, events: &[Event]) {
        for ev in events {
            *self.kinds.entry(kind_of(ev)).or_default() += 1;
            *self.per_thread.entry(ev.tid()).or_default() += 1;
            if ev.is_plain_access() {
                self.plain += 1;
            }
            if let Some(addr) = ev.data_addr() {
                self.addrs.insert(addr);
            }
        }
        self.total += events.len() as u64;
    }

    fn print(&self, file_bytes: u64) {
        println!(
            "{} events, {} distinct data addresses",
            self.total,
            self.addrs.len()
        );
        println!(
            "file size: {file_bytes} bytes ({:.2} bytes/event)",
            file_bytes as f64 / (self.total as f64).max(1.0)
        );
        println!(
            "plain (race-checked) accesses: {} ({:.1}%)",
            self.plain,
            100.0 * self.plain as f64 / self.total.max(1) as f64
        );
        println!("by kind:");
        for (k, c) in &self.kinds {
            println!("  {k:<16} {c:>10}");
        }
        println!("by thread:");
        for (t, c) in &self.per_thread {
            println!("  t{t:<15} {c:>10}");
        }
    }
}

fn stats(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{}", STATS.usage);
        return 2;
    };
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut acc = StatsAcc::default();
    let summed = open_stream(path).decode_ahead(|chunk| -> Result<(), TraceError> {
        acc.add_chunk(chunk);
        Ok(())
    });
    if let Err(e) = summed {
        eprintln!("error: {path}: {e}");
        return 2;
    }
    acc.print(file_bytes);
    0
}

/// `serve`: run the analysis server. TCP by default (`--addr`, default
/// `127.0.0.1:0`; the bound address is printed first so scripts can
/// parse it), or exactly one session over stdin/stdout with `--stdin`.
fn serve_cmd(args: &[String]) -> i32 {
    let zero_is_none = |n: u64| (n > 0).then_some(n);
    let opts = spinrace_serve::ServeOptions {
        sessions: num_opt(args, "--sessions", 4),
        limits: engine_limits(args),
        // `0` disables either socket timeout.
        read_timeout_ms: zero_is_none(num_opt(args, "--read-timeout", 60_000)),
        write_timeout_ms: zero_is_none(num_opt(args, "--write-timeout", 60_000)),
    };
    if has(args, "--stdin") {
        return match spinrace_serve::serve_stdin(opts) {
            Ok((outcomes, events)) => {
                eprintln!("session done: {outcomes} outcome(s), {events} event(s)");
                0
            }
            Err(code) => {
                eprintln!("error: session failed ({code})");
                1
            }
        };
    }
    let addr = opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let handle = match spinrace_serve::serve(&addr, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    println!("listening on {}", handle.addr());
    for event in handle.events() {
        match event {
            spinrace_serve::SessionEvent::Started { peer } => println!("session {peer}: started"),
            spinrace_serve::SessionEvent::Finished {
                peer,
                outcomes,
                events,
            } => println!("session {peer}: done ({outcomes} outcome(s), {events} event(s))"),
            spinrace_serve::SessionEvent::Failed { peer, code } => {
                println!("session {peer}: failed ({code})")
            }
        }
    }
    0
}

/// `client`: upload a trace file to a running server and print the
/// streamed verdicts. `--json FILE` writes the server's outcome
/// document — byte-identical to `replay --json` of the same file.
fn client_cmd(args: &[String]) -> i32 {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{}", CLIENT.usage);
        return 2;
    };
    let Some(addr) = opt(args, "--addr") else {
        eprintln!("error: --addr HOST:PORT is required");
        return 2;
    };
    // The file is uploaded as is: the wire format is the trace encoding.
    let header = open_stream(path).header().clone();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let Some(tool) = replay_tool(args, &header) else {
        return 2;
    };
    // A limit of `0` is no limit: sent as `null`, which the server reads
    // as an absent field.
    let limit = |flag| Some(num_opt::<u64>(args, flag, 0)).filter(|&n| n > 0);
    let params = serde_json::json!({
        "tools": [tool.label()],
        "cap": num_opt::<u64>(args, "--cap", 1000),
        "long_msm": has(args, "--long-msm"),
        "max_events": limit("--max-events"),
        "max_shadow_bytes": limit("--max-shadow-bytes"),
        "watchdog_ms": limit("--watchdog"),
    });
    let outcome = match spinrace_serve::run_client(&addr, &params, &bytes) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {addr}: {e}");
            return 1;
        }
    };
    if let Some(err) = &outcome.error {
        eprintln!(
            "error: server rejected session: {} ({})",
            err.message, err.code
        );
        if let Some((events, contexts, shadow)) = err.partial {
            eprintln!(
                "partial metrics: {events} event(s) processed, {contexts} racy context(s), \
                 {shadow} shadow byte(s)"
            );
        }
        return 1;
    }
    for (tool_label, payload) in &outcome.outcomes {
        let doc: serde_json::Value = match serde_json::from_str(payload) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: undecodable outcome frame: {}", e.0);
                return 1;
            }
        };
        println!(
            "server replayed under {}: {} racy context(s), {} promoted location(s) \
             ({} verdict frame(s) streamed)",
            tool_label,
            doc["contexts"].as_u64().unwrap_or(0),
            doc["promoted_locations"].as_u64().unwrap_or(0),
            outcome.verdicts,
        );
    }
    if outcome.done.is_none() {
        eprintln!("error: connection closed before the session's done frame");
        return 1;
    }
    if let Some(json_path) = opt(args, "--json") {
        let Some((_, payload)) = outcome.outcomes.first() else {
            eprintln!("error: no outcome frame to write");
            return 1;
        };
        if let Err(e) = std::fs::write(&json_path, payload) {
            eprintln!("error: cannot write {json_path}: {e}");
            return 1;
        }
        println!("wrote {json_path}");
    }
    0
}

fn kind_of(ev: &Event) -> &'static str {
    match ev {
        Event::Spawn { .. } => "Spawn",
        Event::Join { .. } => "Join",
        Event::ThreadEnd { .. } => "ThreadEnd",
        Event::Read { .. } => "Read",
        Event::Write { .. } => "Write",
        Event::Update { .. } => "Update",
        Event::Fence { .. } => "Fence",
        Event::MutexLock { .. } => "MutexLock",
        Event::MutexUnlock { .. } => "MutexUnlock",
        Event::CondSignal { .. } => "CondSignal",
        Event::CondBroadcast { .. } => "CondBroadcast",
        Event::CondWaitReturn { .. } => "CondWaitReturn",
        Event::BarrierEnter { .. } => "BarrierEnter",
        Event::BarrierLeave { .. } => "BarrierLeave",
        Event::SemPost { .. } => "SemPost",
        Event::SemAcquired { .. } => "SemAcquired",
        Event::SpinEnter { .. } => "SpinEnter",
        Event::SpinExit { .. } => "SpinExit",
        Event::Output { .. } => "Output",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn check(cmd: &Command, args: &[&str]) -> Result<(), String> {
        cmd.check(&strings(args))
    }

    #[test]
    fn known_flags_and_values_pass() {
        assert_eq!(
            check(&RECORD, &["--program", "ferret", "--seed", "3"]),
            Ok(())
        );
        assert_eq!(
            check(&RECORD, &[]),
            Ok(()),
            "a missing --program is the handler's"
        );
        assert_eq!(
            check(
                &REPLAY,
                &["t.sptrace", "--long-msm", "--cap", "5", "--json", "o.json"]
            ),
            Ok(())
        );
        assert_eq!(check(&SERVE, &["--stdin", "--sessions", "2"]), Ok(()));
        assert_eq!(check(&STATS, &["t.sptrace"]), Ok(()));
    }

    #[test]
    fn unknown_options_are_refused() {
        assert_eq!(
            check(&RECORD, &["--program", "ferret", "--scale", "2"]),
            Err("unknown option --scale for trace record".into())
        );
        assert_eq!(
            check(&REPLAY, &["t.sptrace", "--bogus"]),
            Err("unknown option --bogus for trace replay".into())
        );
        // A flag of another subcommand is unknown here.
        assert!(check(&INSPECT, &["t.sptrace", "--long-msm"]).is_err());
        // So is a value no handler knows: a usage error too, before any run.
        assert_eq!(record(&strings(&["--program", "nosuch"])), 2);
    }

    #[test]
    fn a_trailing_value_flag_is_refused() {
        assert_eq!(
            check(&GEN, &["--family", "zipf", "--seed"]),
            Err("--seed expects a value (trace gen)".into())
        );
        assert!(check(&REPLAY, &["t.sptrace", "--cap"]).is_err());
    }

    #[test]
    fn stray_arguments_are_refused() {
        assert!(check(&STATS, &["a.sptrace", "b.sptrace"]).is_err());
        assert!(check(&RECORD, &["ferret"]).is_err(), "record takes no FILE");
        assert!(check(&GEN, &["--family", "zipf", "4"]).is_err());
    }

    /// A short recorded zipf trace, its header passed through `edit`,
    /// written to a fresh temporary file whose path is returned.
    fn zipf_file(name: &str, edit: fn(&mut TraceHeader)) -> String {
        let spec = WorkloadSpec::new(Family::Zipf)
            .threads(2)
            .with_total_events(2000);
        let mut trace = Session::for_module(&spec.build().module)
            .vm_config(spec.vm_config())
            .prepare(Tool::HelgrindLib)
            .unwrap()
            .execute()
            .unwrap()
            .into_trace();
        edit(&mut trace.header);
        let path = std::env::temp_dir().join(format!(
            "spinrace-trace-cli-{}-{name}.sptrace",
            std::process::id()
        ));
        spinrace_tracefmt::write_trace_file(&path, &trace).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn replay_refuses_a_header_no_module_rebinds_to() {
        let bound = zipf_file("bound", |_| {});
        let json = format!("{bound}.json");
        assert_eq!(replay(&strings(&[&bound])), 0);
        assert_eq!(replay(&strings(&[&bound, "--json", &json])), 0);
        assert!(std::fs::metadata(&json).is_ok());
        for path in [
            zipf_file("implausible", |h| h.module_name = "wl-zipf-t0".into()),
            zipf_file("drifted", |h| h.module_fingerprint ^= 1),
        ] {
            let json = format!("{path}.json");
            assert_eq!(replay(&strings(&[&path])), 2, "{path}");
            assert_eq!(replay(&strings(&[&path, "--json", &json])), 2, "{path}");
            assert!(std::fs::metadata(&json).is_err(), "wrote {json}");
            std::fs::remove_file(path).unwrap();
        }
        std::fs::remove_file(json).unwrap();
        std::fs::remove_file(bound).unwrap();
    }

    #[test]
    fn every_declared_flag_is_in_its_usage_line() {
        for cmd in &COMMANDS {
            assert!(cmd
                .usage
                .starts_with(&format!("usage: trace {} ", cmd.name)));
            for flag in cmd.values.iter().chain(cmd.switches) {
                assert!(
                    cmd.usage.contains(flag),
                    "{flag} missing from {}",
                    cmd.usage
                );
            }
        }
    }
}
