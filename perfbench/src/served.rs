//! The served-session workload: closed-loop clients uploading one
//! recorded trace to an in-process `spinrace-serve` on loopback.

use crate::stream::Stream;
use crate::tracer::Tracer;
use serde_json::Value;
use spinrace_serve::{read_frame, serve, write_request, FrameKind, ServeOptions, ServerHandle};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

/// Session slots of the server, and closed-loop clients driving it.
pub const SESSIONS: usize = 2;

/// The server plus what its clients upload.
pub struct Served {
    pub upload: Upload,
    server: Option<ServerHandle>,
}

/// One client's upload and the outcome it must get back.
pub struct Upload {
    pub stream: Stream,
    /// The offline replay's outcome document: every served `O` frame
    /// must equal it byte for byte.
    expected: String,
    request: Value,
}

impl Served {
    /// Wrap a recorded stream; its offline outcome is rendered now.
    pub fn new(stream: Stream) -> Result<Served, String> {
        let expected = stream.replay(&mut Tracer::new(false, Instant::now()))?;
        let request = serde_json::json!({ "tools": [stream.tool.label()] });
        Ok(Served {
            upload: Upload {
                stream,
                expected,
                request,
            },
            server: None,
        })
    }

    pub fn start(&mut self) -> Result<(), String> {
        let opts = ServeOptions {
            sessions: SESSIONS,
            ..ServeOptions::default()
        };
        let handle = serve("127.0.0.1:0", opts).map_err(|e| format!("serve: {e}"))?;
        self.server = Some(handle);
        Ok(())
    }

    pub fn addr(&self) -> String {
        self.server
            .as_ref()
            .map(|s| s.addr().to_string())
            .expect("server started before any session")
    }

    /// Drop the server's lifecycle log, which grows by two entries per
    /// session.
    pub fn drain_events(&self) {
        if let Some(s) = &self.server {
            s.events().try_iter().for_each(drop);
        }
    }
}

impl Upload {
    /// One session: connect, upload the request and the trace, and read
    /// frames until `D`. Fails on an `E` frame, an early close, or an
    /// outcome document that differs from the offline one.
    pub fn session(&self, addr: &str, t: &mut Tracer) -> Result<u64, String> {
        let t0 = Instant::now();
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let mut conn = t
            .call("serve.connect", |_| TcpStream::connect(addr))
            .map_err(|e| format!("connect: {e}"))?;
        let input = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
        t.call("serve.write_request", |_| {
            write_request(&mut conn, &self.request)
        })
        .map_err(|e| format!("request: {e}"))?;
        let bytes = &self.stream.bytes;
        t.span(
            "serve.upload",
            |_| {
                conn.write_all(bytes)
                    .and_then(|()| conn.flush())
                    .and_then(|()| conn.shutdown(Shutdown::Write))
            },
            |_| bytes.len() as u64,
        )
        .map_err(|e| format!("upload: {e}"))?;

        let mut input = BufReader::new(input);
        let mut verdicts = 0u32;
        let mut outcomes = 0u32;
        loop {
            let frame = t
                .call("serve.read_frame", |_| read_frame(&mut input))
                .map_err(|e| format!("read frame: {e}"))?;
            let Some((kind, payload)) = frame else {
                return Err("connection closed before the D frame".into());
            };
            match kind {
                FrameKind::Hello => t.gauge("serve.hello_ms", ms(t0)),
                FrameKind::Verdict => {
                    if verdicts == 0 {
                        t.gauge("serve.first_verdict_ms", ms(t0));
                    }
                    verdicts += 1;
                }
                FrameKind::Outcome => {
                    t.gauge("serve.outcome_ms", ms(t0));
                    outcomes += 1;
                    if payload != self.expected.as_bytes() {
                        return Err("served outcome differs from the offline replay".into());
                    }
                }
                FrameKind::Error => {
                    return Err(format!("E frame: {}", String::from_utf8_lossy(&payload)))
                }
                FrameKind::Done => {
                    t.gauge("serve.done_ms", ms(t0));
                    t.gauge("serve.verdict_frames", f64::from(verdicts));
                    break;
                }
            }
        }
        if outcomes != 1 {
            return Err(format!("session sent {outcomes} outcome frames, not 1"));
        }
        Ok(self.stream.events)
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
