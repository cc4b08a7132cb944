//! # spinrace-serve — detection as a service
//!
//! A long-lived analysis server that accepts framed binary trace
//! uploads (the `spinrace-tracefmt` chunk encoding) over TCP or stdin,
//! multiplexes concurrent sessions across a bounded worker pool, and
//! streams verdicts back incrementally as chunks decode — `O(chunk)`
//! resident memory per client.
//!
//! ## Protocol
//!
//! A session is one upload. The client sends a request frame — the
//! magic `SPRQ`, a `u32` little-endian length, and a JSON body naming
//! the detectors and limits (see [`DetectParams`]) — followed
//! immediately by the binary trace stream, then half-closes its write
//! side. The server responds with tagged frames, each a one-byte tag
//! plus `u32` little-endian length plus payload:
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | `H` | hello | `{"protocol":1,"server":...}` |
//! | `V` | verdict | incremental per-chunk progress, one frame per tool |
//! | `O` | outcome | a `spinrace-detection-v1` document, byte-identical to `trace replay --json` |
//! | `E` | error | `{"code","message"[,"partial"]}` — structured [`EngineError`]/[`TraceError`] mapping |
//! | `D` | done | session summary |
//!
//! Every session ends with exactly one `D` or `E` frame. Budgets in the
//! request are clamped under the server-wide ceilings in
//! [`ServeOptions`]; a session that exceeds its event budget gets an
//! `E` frame with `code = "budget-exhausted"` carrying partial metrics,
//! and one that runs past its watchdog gets `code = "watchdog"`. A
//! client that stalls past the server's read timeout gets
//! `code = "timeout"`.
//!
//! The server's request type *is* the library API: each session is
//! compiled into a [`spinrace_core::DetectRequest`] and executed
//! through [`spinrace_core::PreparedModule::try_run_streamed_observed`]
//! as the upload's chunks decode.
//!
//! [`EngineError`]: spinrace_core::EngineError
//! [`TraceError`]: spinrace_vm::TraceError

mod client;
mod server;
mod wire;

pub use client::{collect_frames, run_client, ClientOutcome};
pub use server::{handle_session, serve, ServeOptions, ServerHandle, SessionEvent};
pub use wire::{
    engine_error_code, read_frame, read_request, trace_error_code, wire_error, write_frame,
    write_request, DetectParams, FrameKind, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
    REQUEST_MAGIC,
};

use spinrace_core::AnalysisOutcome;

/// Serve one session over stdin/stdout (the `trace serve --stdin`
/// transport): same framing as TCP, one session, then exit.
pub fn serve_stdin(opts: ServeOptions) -> Result<(usize, u64), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut output = std::io::BufWriter::new(stdout.lock());
    handle_session(stdin, &mut output, opts)
}

/// The stable detection-outcome schema shared by the `trace` CLI
/// (`record --json` / `replay --json`) and the server's `O` frames: if
/// two runs report identical results, their JSON is byte-identical.
pub fn outcome_json(out: &AnalysisOutcome) -> serde_json::Value {
    let reports: Vec<serde_json::Value> = out
        .reports
        .iter()
        .map(|r| {
            serde_json::json!({
                "location": r.location.as_str(),
                "report": r.report,
            })
        })
        .collect();
    serde_json::json!({
        "schema": "spinrace-detection-v1",
        "module": out.module_name.as_str(),
        "tool": out.tool_label.as_str(),
        "contexts": out.contexts as u64,
        "promoted_locations": out.promoted_locations as u64,
        "spin_loops_found": out.spin_loops_found as u64,
        "reports": serde_json::Value::Seq(reports),
        "metrics": out.metrics,
        "summary": out.summary,
    })
}
