//! The analysis server: a bounded worker pool multiplexing concurrent
//! upload sessions, each replayed as a chunk stream.
//!
//! Architecture (the command/event-queue idiom): an **acceptor** thread
//! pushes accepted connections onto a command queue; `sessions` worker
//! threads pop connections and run one [`handle_session`] each to
//! completion; every worker reports [`SessionEvent`]s back on an event
//! channel the embedding CLI drains for logging. Worker threads never
//! die with a session — a failed upload produces an `E` frame and the
//! worker loops back to the queue, so a mid-upload disconnect frees its
//! slot for the next client.

use crate::outcome_json;
use crate::wire::{
    read_request, wire_error, write_frame, DetectParams, FrameKind, WireError, PROTOCOL_VERSION,
};
use spinrace_core::{AnalyzeError, DetectRequest, EngineOptions, Tool};
use spinrace_detector::MsmMode;
use spinrace_tracefmt::ChunkedTraceReader;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-side session limits and pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Concurrent session slots (worker threads popping the accept
    /// queue).
    pub sessions: usize,
    /// Server-wide ceilings per session (watchdog, event and
    /// shadow-byte budgets; unlimited by default). A client's requested
    /// limits are clamped under these.
    pub limits: EngineOptions,
    /// Socket read timeout per session in milliseconds (`None` = no
    /// timeout). A client that stalls mid-upload fails its session with
    /// the stable `timeout` wire code instead of pinning a slot
    /// forever.
    pub read_timeout_ms: Option<u64>,
    /// Socket write timeout per session in milliseconds (`None` = no
    /// timeout) — the response-side counterpart of `read_timeout_ms`.
    pub write_timeout_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            sessions: 4,
            limits: EngineOptions::default(),
            read_timeout_ms: Some(60_000),
            write_timeout_ms: Some(60_000),
        }
    }
}

/// Lifecycle notifications a running server emits, one per session
/// transition, for the embedding CLI's log line.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A connection was popped off the queue by a worker.
    Started {
        /// Peer address (best effort).
        peer: String,
    },
    /// A session completed and sent its `D` frame.
    Finished {
        /// Peer address.
        peer: String,
        /// Outcome documents sent.
        outcomes: usize,
        /// Events replayed.
        events: u64,
    },
    /// A session failed and sent (or tried to send) an `E` frame.
    Failed {
        /// Peer address.
        peer: String,
        /// The structured error code.
        code: String,
    },
}

/// A running server: join handles plus the shutdown switch.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    events: Receiver<SessionEvent>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` request).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The session lifecycle event stream.
    pub fn events(&self) -> &Receiver<SessionEvent> {
        &self.events
    }

    /// Stop accepting, drain in-flight sessions, and join every thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and start the acceptor + session worker pool.
pub fn serve(addr: &str, opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let (event_tx, event_rx) = channel::<SessionEvent>();

    let mut threads = Vec::new();
    {
        let shutdown = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // A closed queue means the pool is gone; stop.
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // Dropping conn_tx closes the queue and drains the workers.
        }));
    }
    for _ in 0..opts.sessions.max(1) {
        let conn_rx = Arc::clone(&conn_rx);
        let event_tx = event_tx.clone();
        threads.push(std::thread::spawn(move || loop {
            let conn = {
                let guard = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
                guard.recv()
            };
            let Ok(stream) = conn else { return };
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into());
            let _ = event_tx.send(SessionEvent::Started {
                peer: clone_peer(&peer),
            });
            let result = run_tcp_session(stream, opts);
            let _ = event_tx.send(match result {
                Ok((outcomes, events)) => SessionEvent::Finished {
                    peer,
                    outcomes,
                    events,
                },
                Err(code) => SessionEvent::Failed { peer, code },
            });
        }));
    }

    Ok(ServerHandle {
        addr: local,
        shutdown,
        threads,
        events: event_rx,
    })
}

fn clone_peer(peer: &str) -> String {
    peer.to_string()
}

/// Run one accepted connection: split it into read/write halves and
/// hand off to the transport-agnostic session handler.
fn run_tcp_session(stream: TcpStream, opts: ServeOptions) -> Result<(usize, u64), String> {
    // An idle or wedged client must not pin a session slot forever.
    let to_duration = |ms: Option<u64>| ms.filter(|&ms| ms > 0).map(Duration::from_millis);
    let _ = stream.set_read_timeout(to_duration(opts.read_timeout_ms));
    let _ = stream.set_write_timeout(to_duration(opts.write_timeout_ms));
    // Buffered: the trace reader pulls each column-length varint a byte
    // at a time. A socket timeout still surfaces as a read error, so the
    // session's `TimeoutFlagged` wrapper sees it.
    let input =
        BufReader::with_capacity(INPUT_BUFFER, stream.try_clone().map_err(|e| e.to_string())?);
    let mut output = BufWriter::new(stream);
    let result = handle_session(input, &mut output, opts);
    if result.is_err() {
        // A failed session may stop reading mid-upload, and closing a
        // socket with unread bytes sends a reset that can destroy the
        // error frame before the client reads it. Half-close, then drain
        // what the client still sends, bounded in bytes and time, so the
        // close is orderly.
        if let Ok(stream) = output.into_inner() {
            let _ = stream.shutdown(Shutdown::Write);
            let _ = stream.set_read_timeout(Some(DRAIN_TIME));
            let deadline = Instant::now() + DRAIN_TIME;
            let mut buf = [0u8; 8192];
            let mut left = DRAIN_BYTES;
            while left > 0 && Instant::now() < deadline {
                match (&stream).read(&mut buf) {
                    Ok(n) if n > 0 => left = left.saturating_sub(n),
                    _ => break,
                }
            }
        }
    }
    result
}

/// Read buffer of a TCP session's input.
const INPUT_BUFFER: usize = 64 << 10;

/// Most bytes, and longest time, a failed session drains from its client
/// before closing the connection.
const DRAIN_BYTES: usize = 16 << 20;
const DRAIN_TIME: Duration = Duration::from_secs(1);

/// Serve exactly one session over arbitrary transport: read the request
/// frame and the trace stream from `input`, write response frames to
/// `output`. Returns `(outcome count, events replayed)` on success and
/// the structured error code on failure (after the `E` frame has been
/// sent on a best-effort basis — the peer may already be gone).
///
/// This is the stdin/stdout entry point as well as the per-connection
/// body of the TCP pool.
pub fn handle_session<R: Read + Send, W: Write>(
    input: R,
    output: &mut W,
    opts: ServeOptions,
) -> Result<(usize, u64), String> {
    let mut input = TimeoutFlagged {
        inner: input,
        timed_out: false,
    };
    let fail = |output: &mut W, err: WireError| -> Result<(usize, u64), String> {
        let payload = serde_json::to_string(&err.to_json()).unwrap_or_default();
        let _ = write_frame(output, FrameKind::Error, payload.as_bytes());
        Err(err.code)
    };

    let body = match read_request(&mut input) {
        Ok(v) => v,
        Err(msg) => {
            let err = timeout_override(input.timed_out, WireError::bad_request(msg));
            return fail(output, err);
        }
    };
    let params = match DetectParams::from_value(&body) {
        Ok(p) => p,
        Err(msg) => return fail(output, WireError::bad_request(msg)),
    };
    let mut tools: Vec<Tool> = Vec::new();
    for label in &params.tools {
        match label.parse::<Tool>() {
            Ok(t) => tools.push(t),
            Err(_) => {
                return fail(
                    output,
                    WireError::bad_request(format!("unknown tool {label:?}")),
                )
            }
        }
    }

    match session_body(&mut input, output, opts, &params, &tools) {
        Ok(done) => Ok(done),
        Err(err) => {
            let err = timeout_override(input.timed_out, err);
            fail(output, err)
        }
    }
}

/// The session input stream, remembering whether any read failed with a
/// socket timeout. The `io::ErrorKind` is erased long before a stalled
/// upload surfaces as a session error (a timeout during the trace magic
/// read even reports as `TraceError::Magic`), so the transport records
/// the fact at the source and the session maps the final error to the
/// stable `timeout` wire code.
struct TimeoutFlagged<R> {
    inner: R,
    timed_out: bool,
}

impl<R: Read> Read for TimeoutFlagged<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let result = self.inner.read(buf);
        if let Err(e) = &result {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                self.timed_out = true;
            }
        }
        result
    }
}

/// Rewrite a session error as the stable `timeout` code when the input
/// stream recorded a socket timeout: once a read has timed out the
/// session is unrecoverable, and whatever shape the failure took
/// downstream, the cause the client must see is the stall.
fn timeout_override(timed_out: bool, err: WireError) -> WireError {
    if !timed_out {
        return err;
    }
    WireError {
        code: "timeout".into(),
        message: format!("session read timed out ({})", err.message),
        partial: err.partial,
    }
}

/// The request-to-verdicts body: replay the upload as a chunk stream,
/// sending a verdict frame per decoded chunk per tool. Every failure
/// maps to one structured [`WireError`].
fn session_body<R: Read + Send, W: Write>(
    input: &mut R,
    output: &mut W,
    opts: ServeOptions,
    params: &DetectParams,
    tools: &[Tool],
) -> Result<(usize, u64), WireError> {
    let send =
        |output: &mut W, kind: FrameKind, doc: &serde_json::Value| -> Result<(), WireError> {
            let payload = serde_json::to_string(doc).map_err(|e| WireError {
                code: "internal".into(),
                message: e.0,
                partial: None,
            })?;
            write_frame(output, kind, payload.as_bytes()).map_err(|e| WireError {
                code: "io".into(),
                message: e.to_string(),
                partial: None,
            })
        };

    let hello = serde_json::json!({
        "protocol": PROTOCOL_VERSION,
        "server": "spinrace-serve",
    });
    send(output, FrameKind::Hello, &hello)?;

    // The trace bytes follow the request frame directly: decode them
    // off the stream.
    let reader =
        ChunkedTraceReader::new(&mut *input).map_err(|e| wire_error(&AnalyzeError::Trace(e)))?;

    let msm = if params.long_msm {
        MsmMode::Long
    } else {
        MsmMode::Short
    };
    let Some(prepared) =
        spinrace_suites::prepared_for_replay(reader.header(), tools[0], msm, params.cap)
    else {
        return Err(WireError {
            code: "unknown-module".into(),
            message: spinrace_suites::unbound_message(reader.header()),
            partial: None,
        });
    };

    // Client limits clamp under the server-wide ceilings.
    let req = DetectRequest::tools(tools).options(params.limits.within(opts.limits));

    // Verdicts flow as chunks decode, before the upload has finished.
    let mut frame_err: Option<io::Error> = None;
    let result = prepared.try_run_streamed_observed(&req, reader, |p| {
        if frame_err.is_some() {
            return;
        }
        let verdict = serde_json::json!({
            "tool": p.tool_label,
            "chunk": p.chunk as u64,
            "events": p.events,
            "contexts": p.contexts as u64,
            "new_reports": p.new_reports as u64,
        });
        let payload = serde_json::to_string(&verdict).unwrap_or_default();
        if let Err(e) = write_frame(output, FrameKind::Verdict, payload.as_bytes()) {
            frame_err = Some(e);
        }
    });
    let (out, stats) = result.map_err(|e| wire_error(&e))?;
    if let Some(e) = frame_err {
        return Err(WireError {
            code: "io".into(),
            message: e.to_string(),
            partial: None,
        });
    }
    let outcomes = out.into_vec();
    for o in &outcomes {
        send_outcome(output, o)?;
    }
    let done = serde_json::json!({
        "outcomes": outcomes.len() as u64,
        "events": stats.events,
        "chunks": stats.chunks as u64,
        "peak_resident_bytes": stats.peak_resident_bytes as u64,
    });
    send(output, FrameKind::Done, &done)?;
    Ok((outcomes.len(), stats.events))
}

/// Send one `O` frame. The payload is the `spinrace-detection-v1`
/// document rendered exactly as `trace replay --json` writes it
/// (pretty-printed plus a trailing newline), so clients can byte-
/// compare against offline replays.
fn send_outcome<W: Write>(
    output: &mut W,
    out: &spinrace_core::AnalysisOutcome,
) -> Result<(), WireError> {
    let text = serde_json::to_string_pretty(&outcome_json(out)).map_err(|e| WireError {
        code: "internal".into(),
        message: e.0,
        partial: None,
    })? + "\n";
    write_frame(output, FrameKind::Outcome, text.as_bytes()).map_err(|e| WireError {
        code: "io".into(),
        message: e.to_string(),
        partial: None,
    })
}
