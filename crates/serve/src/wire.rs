//! The wire protocol: framed request/response messages around a raw
//! binary trace upload.
//!
//! A session is one connection. The client sends one **request frame**
//! (magic `SPRQ`, a little-endian `u32` length, and a JSON body), then
//! the raw `spinrace-tracefmt` byte stream (magic `SPINRTRC`, chunked),
//! then half-closes its write side — the trace decoder's own
//! end-of-stream validation doubles as the upload terminator. The
//! server answers with a sequence of **response frames**, each a one-
//! byte kind tag, a little-endian `u32` payload length, and the
//! payload:
//!
//! | kind | payload |
//! |------|---------|
//! | `H`  | hello JSON: `{"protocol":1,"server":…}` |
//! | `V`  | incremental verdict JSON (one per decoded chunk per tool) |
//! | `O`  | final detection outcome: the `spinrace-detection-v1` document, byte-identical to `trace replay --json` |
//! | `E`  | error JSON: `{"code":…,"message":…}` plus `partial` metrics on budget trips |
//! | `D`  | done JSON: `{"outcomes":N,"events":…}` |
//!
//! A session ends with exactly one `D` or one `E` frame.

use spinrace_core::{AnalyzeError, EngineError, EngineOptions};
use spinrace_vm::TraceError;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Magic prefix of a request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"SPRQ";

/// Protocol revision spoken by this crate.
pub const PROTOCOL_VERSION: u64 = 1;

/// Largest accepted frame payload. Request bodies are tiny JSON; the
/// cap keeps a corrupt length from driving an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Response frame kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Session accepted; protocol/server info.
    Hello,
    /// Incremental verdict (one per decoded chunk per tool).
    Verdict,
    /// Final per-tool detection outcome document.
    Outcome,
    /// Structured error; terminates the session.
    Error,
    /// Successful completion; terminates the session.
    Done,
}

impl FrameKind {
    /// The wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            FrameKind::Hello => b'H',
            FrameKind::Verdict => b'V',
            FrameKind::Outcome => b'O',
            FrameKind::Error => b'E',
            FrameKind::Done => b'D',
        }
    }

    /// Parse a wire tag byte.
    pub fn from_tag(tag: u8) -> Option<FrameKind> {
        Some(match tag {
            b'H' => FrameKind::Hello,
            b'V' => FrameKind::Verdict,
            b'O' => FrameKind::Outcome,
            b'E' => FrameKind::Error,
            b'D' => FrameKind::Done,
            _ => return None,
        })
    }
}

/// Write one response frame.
pub fn write_frame(w: &mut dyn Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[kind.tag()])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one response frame: `(kind, payload)`, or `None` on a clean
/// end-of-stream before any byte of a frame.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    match r.read(&mut tag) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let kind = FrameKind::from_tag(tag[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown frame tag"))?;
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, payload)))
}

/// Write the client's request frame (magic + length + JSON body).
pub fn write_request(w: &mut dyn Write, body: &serde_json::Value) -> io::Result<()> {
    let text =
        serde_json::to_string(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
    w.write_all(&REQUEST_MAGIC)?;
    w.write_all(&(text.len() as u32).to_le_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read and parse the request frame off the head of a session stream.
pub fn read_request(r: &mut dyn Read) -> Result<serde_json::Value, String> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| format!("cannot read request magic: {e}"))?;
    if magic != REQUEST_MAGIC {
        return Err("bad request magic (expected SPRQ)".into());
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)
        .map_err(|e| format!("cannot read request length: {e}"))?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err("request body exceeds MAX_FRAME_LEN".into());
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| format!("cannot read request body: {e}"))?;
    let text = std::str::from_utf8(&body).map_err(|_| "request body is not UTF-8".to_string())?;
    serde_json::from_str::<serde_json::Value>(text)
        .map_err(|e| format!("bad request JSON: {}", e.0))
}

/// The parsed request body: which detectors to run and under which
/// per-session limits. Parsed leniently — unknown fields (including the
/// retired `workers` and `schedule`) are ignored, absent fields default.
#[derive(Clone, Debug)]
pub struct DetectParams {
    /// Tool labels to fan detection out over (short forms accepted).
    pub tools: Vec<String>,
    /// Client-requested limits, from the `watchdog_ms`, `max_events`
    /// and `max_shadow_bytes` fields (an absent one leaves the server's
    /// ceiling).
    pub limits: EngineOptions,
    /// Run detectors in long-MSM mode.
    pub long_msm: bool,
    /// Racy-context cap (default 1000, matching the session default).
    pub cap: usize,
}

impl Default for DetectParams {
    fn default() -> DetectParams {
        DetectParams {
            tools: Vec::new(),
            limits: EngineOptions::default(),
            long_msm: false,
            cap: 1000,
        }
    }
}

impl DetectParams {
    /// Parse a request body. Errors name the offending field.
    pub fn from_value(v: &serde_json::Value) -> Result<DetectParams, String> {
        let mut p = DetectParams::default();
        match v["tools"].as_array() {
            Some(tools) => {
                for t in tools {
                    match t.as_str() {
                        Some(s) => p.tools.push(s.to_string()),
                        None => return Err("tools entries must be strings".into()),
                    }
                }
            }
            None if v["tools"].is_null() => {}
            None => return Err("tools must be an array of strings".into()),
        }
        if p.tools.is_empty() {
            return Err("tools must name at least one detector".into());
        }
        if !v["max_events"].is_null() {
            p.limits.budget.max_events = Some(
                v["max_events"]
                    .as_u64()
                    .ok_or("max_events must be a non-negative integer")?,
            );
        }
        if !v["max_shadow_bytes"].is_null() {
            p.limits.budget.max_shadow_bytes = Some(
                v["max_shadow_bytes"]
                    .as_u64()
                    .ok_or("max_shadow_bytes must be a non-negative integer")?
                    as usize,
            );
        }
        if !v["watchdog_ms"].is_null() {
            p.limits.watchdog = Some(Duration::from_millis(
                v["watchdog_ms"]
                    .as_u64()
                    .ok_or("watchdog_ms must be a non-negative integer")?,
            ));
        }
        if !v["long_msm"].is_null() {
            p.long_msm = v["long_msm"]
                .as_bool()
                .ok_or("long_msm must be a boolean")?;
        }
        if !v["cap"].is_null() {
            p.cap = v["cap"]
                .as_u64()
                .ok_or("cap must be a non-negative integer")? as usize;
        }
        Ok(p)
    }
}

/// A structured protocol error: the payload of an `E` frame.
#[derive(Clone, Debug)]
pub struct WireError {
    /// Stable machine-readable code (see [`trace_error_code`] and
    /// [`engine_error_code`]).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Partial metrics, present on budget trips.
    pub partial: Option<(u64, u64, u64)>,
}

impl WireError {
    /// A `bad-request` error.
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError {
            code: "bad-request".into(),
            message: message.into(),
            partial: None,
        }
    }

    /// Render the `E` frame payload.
    pub fn to_json(&self) -> serde_json::Value {
        let mut doc = serde_json::json!({
            "code": self.code.as_str(),
            "message": self.message.as_str(),
        });
        if let Some((events, contexts, shadow)) = self.partial {
            if let serde_json::Value::Map(entries) = &mut doc {
                entries.push((
                    serde_json::Value::Str("partial".into()),
                    serde_json::json!({
                        "events_processed": events,
                        "contexts": contexts,
                        "shadow_bytes": shadow,
                    }),
                ));
            }
        }
        doc
    }

    /// Parse an `E` frame payload.
    pub fn from_json(v: &serde_json::Value) -> WireError {
        let partial = if v["partial"].is_null() {
            None
        } else {
            Some((
                v["partial"]["events_processed"].as_u64().unwrap_or(0),
                v["partial"]["contexts"].as_u64().unwrap_or(0),
                v["partial"]["shadow_bytes"].as_u64().unwrap_or(0),
            ))
        };
        WireError {
            code: v["code"].as_str().unwrap_or("internal").to_string(),
            message: v["message"].as_str().unwrap_or("").to_string(),
            partial,
        }
    }
}

/// The stable error code for a trace decode failure.
pub fn trace_error_code(e: &TraceError) -> &'static str {
    match e {
        TraceError::Magic => "magic",
        TraceError::Version { .. } => "version",
        TraceError::Checksum { .. } => "checksum",
        TraceError::ChunkCount { .. } => "chunk-count",
        TraceError::EventCount { .. } => "event-count",
        TraceError::Corrupt(_) => "corrupt",
        TraceError::Json(_) => "json",
        TraceError::Io(_) => "io",
    }
}

/// The stable error code for a replay failure.
pub fn engine_error_code(e: &EngineError) -> &'static str {
    match e {
        EngineError::Watchdog { .. } => "watchdog",
        EngineError::BudgetExhausted { .. } => "budget-exhausted",
    }
}

/// Map an analysis failure to its wire error, carrying partial metrics
/// on budget trips.
pub fn wire_error(e: &AnalyzeError) -> WireError {
    let code = match e {
        AnalyzeError::Trace(t) => trace_error_code(t),
        AnalyzeError::TraceMismatch { .. } => "mismatch",
        AnalyzeError::Engine(eng) => engine_error_code(eng),
        AnalyzeError::Lower(_) | AnalyzeError::Vm(_) => "internal",
    };
    let partial = match e {
        AnalyzeError::Engine(EngineError::BudgetExhausted { partial, .. }) => Some((
            partial.events_processed,
            partial.contexts as u64,
            partial.shadow_bytes as u64,
        )),
        _ => None,
    };
    WireError {
        code: code.to_string(),
        message: e.to_string(),
        partial,
    }
}
