//! End-to-end protocol coverage for the `spinrace-serve` analysis
//! server: concurrent sessions must reproduce offline detection
//! byte-for-byte, corrupt uploads must come back as structured error
//! frames (reusing the `mutate` byte-surgery helpers), budget trips
//! and watchdog trips must come back as structured errors, a mid-upload
//! disconnect must free its session slot, and sessions must emit
//! verdicts before the upload has finished.

use spinrace::core::{Budget, DetectRequest, EngineOptions, ExecutedRun, Session, Tool};
use spinrace::serve::{
    collect_frames, handle_session, outcome_json, read_frame, run_client, serve, write_request,
    FrameKind, ServeOptions,
};
use spinrace::tracefmt::encode_trace_chunked;
use spinrace::vm::Trace;
use spinrace::workloads::{Family, WorkloadSpec};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

mod mutate;
use mutate::{base_binary, forged_spawn, header_counts_offsets, patched_header, recorded};

/// Request body naming one tool, with optional extra fields.
fn params(tool: Tool, extra: &[(&str, serde_json::Value)]) -> serde_json::Value {
    let mut entries = vec![(
        serde_json::Value::Str("tools".into()),
        serde_json::Value::Seq(vec![serde_json::Value::Str(tool.label())]),
    )];
    for (k, v) in extra {
        entries.push((serde_json::Value::Str((*k).into()), v.clone()));
    }
    serde_json::Value::Map(entries)
}

/// The offline rendering of one tool's detection over a recorded trace —
/// the exact bytes `trace replay --json` writes and the server's `O`
/// frame must reproduce.
fn offline_payload(trace: &Trace, tool: Tool) -> String {
    let prepared = mutate::recorded().0;
    let run = ExecutedRun::from_trace(prepared, trace.clone()).unwrap();
    let out = run.run(&DetectRequest::tool(tool)).into_single();
    serde_json::to_string_pretty(&outcome_json(&out)).unwrap() + "\n"
}

#[test]
fn concurrent_sessions_match_offline_detection_byte_for_byte() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let expected_lib = offline_payload(&trace, Tool::HelgrindLib);
    let expected_drd = offline_payload(&trace, Tool::Drd);

    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    // Six concurrent sessions across two tools — more clients than the
    // default four slots, so the queue must multiplex.
    let cases: Vec<(Tool, &str)> = [
        (Tool::HelgrindLib, &expected_lib),
        (Tool::Drd, &expected_drd),
    ]
    .iter()
    .flat_map(|&(tool, expected)| std::iter::repeat_n((tool, expected.as_str()), 3))
    .collect();
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (tool, expected) in &cases {
            let (addr, bytes) = (&addr, &bytes);
            workers.push(s.spawn(move || {
                let body = params(*tool, &[]);
                let out = run_client(addr, &body, bytes).expect("client io");
                assert!(out.succeeded(), "session failed: {:?}", out.error);
                assert_eq!(out.outcomes.len(), 1);
                let (label, payload) = &out.outcomes[0];
                assert_eq!(label, &tool.label());
                assert_eq!(
                    payload,
                    *expected,
                    "server outcome diverged from offline replay for {}",
                    tool.label(),
                );
                assert!(out.verdicts > 0, "session sent no incremental verdicts");
            }));
        }
        for w in workers {
            w.join().unwrap();
        }
    });
    handle.shutdown();
}

/// A request still carrying the retired `workers` field is served like
/// any other: streamed, with verdicts, and an outcome document
/// byte-identical to the offline replay.
#[test]
fn requests_with_a_workers_field_are_served_streamed() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let expected = offline_payload(&trace, Tool::HelgrindLib);
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let body = params(Tool::HelgrindLib, &[("workers", serde_json::Value::U64(2))]);
    let out = run_client(&handle.addr().to_string(), &body, &bytes).unwrap();
    assert!(out.succeeded(), "session failed: {:?}", out.error);
    assert!(out.verdicts > 0, "a streamed session sends verdicts");
    assert_eq!(out.outcomes.len(), 1);
    assert_eq!(out.outcomes[0].1, expected);
    handle.shutdown();
}

#[test]
fn corrupt_uploads_get_structured_error_frames() {
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();
    let body = params(Tool::HelgrindLib, &[]);
    let bytes = base_binary();

    // Wrong trace magic.
    let mut wrong_magic = bytes.to_vec();
    wrong_magic[0] ^= 0xff;
    let out = run_client(&addr, &body, &wrong_magic).unwrap();
    let err = out.error.expect("wrong magic must fail the session");
    assert_eq!(err.code, "magic");
    assert!(out.outcomes.is_empty() && out.done.is_none());

    // Truncated mid-stream: the reader sees fewer chunks than the
    // header promised (or a cut inside the header itself).
    let out = run_client(&addr, &body, &bytes[..bytes.len() / 2]).unwrap();
    let err = out.error.expect("truncated upload must fail the session");
    assert!(
        matches!(err.code.as_str(), "chunk-count" | "corrupt" | "io"),
        "unexpected code {:?}",
        err.code
    );

    // A flipped byte in the last chunk's column data: checksum failure.
    let (counts_pos, _) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    assert!(total_chunks > 1);
    let mut flipped = bytes.to_vec();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    let out = run_client(&addr, &body, &flipped).unwrap();
    let err = out.error.expect("corrupted chunk must fail the session");
    assert!(
        matches!(err.code.as_str(), "checksum" | "chunk-count"),
        "unexpected code {:?}",
        err.code
    );

    // A spawn forging a thread id near u32::MAX: refused as corrupt by
    // the reader, before any detector sizes per-thread state by it.
    let out = run_client(&addr, &body, &forged_spawn(u32::MAX - 1)).unwrap();
    let err = out.error.expect("a forged thread id must fail the session");
    assert_eq!(err.code, "corrupt");
    assert!(out.outcomes.is_empty() && out.done.is_none());

    // A request frame that is not the protocol at all.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // Best-effort half-close: the server may have already rejected the
    // bad magic and closed the connection.
    let _ = raw.shutdown(Shutdown::Write);
    let (kind, payload) = read_frame(&mut raw).unwrap().expect("an error frame");
    assert_eq!(kind, FrameKind::Error);
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(doc["code"].as_str(), Some("bad-request"));

    // An unknown tool label in an otherwise well-formed request.
    let bad_tool = serde_json::json!({"tools": ["definitely-not-a-detector"]});
    let out = run_client(&addr, &bad_tool, bytes).unwrap();
    assert_eq!(out.error.expect("unknown tool").code, "bad-request");

    handle.shutdown();
}

#[test]
fn budget_exhaustion_reports_partial_metrics() {
    let (_, trace) = recorded();
    let total = trace.events.len() as u64;
    let limit = total / 2;
    let bytes = encode_trace_chunked(&trace, 16);
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();

    // The event budget trips with the exact partial count.
    let body = params(
        Tool::HelgrindLib,
        &[("max_events", serde_json::Value::U64(limit))],
    );
    let out = run_client(&addr, &body, &bytes).unwrap();
    let err = out.error.expect("budget must trip");
    assert_eq!(err.code, "budget-exhausted");
    let (events_processed, _contexts, _shadow) =
        err.partial.expect("budget errors carry partial metrics");
    assert_eq!(events_processed, limit);
    assert!(out.done.is_none());
    handle.shutdown();
}

/// The server's ceilings clamp a client's limits, each of the three on
/// its own: a client asking for more than the ceiling trips at the
/// ceiling, and a client asking for less keeps its own limit.
#[test]
fn server_ceilings_clamp_every_client_limit() {
    let (_, trace) = recorded();
    let total = trace.events.len() as u64;
    let bytes = encode_trace_chunked(&trace, 16);
    let ceiling = |field: &str, n: u64| {
        let budget = Budget::default();
        match field {
            "max_events" => EngineOptions::default().with_budget(budget.with_max_events(n)),
            "max_shadow_bytes" => {
                EngineOptions::default().with_budget(budget.with_max_shadow_bytes(n as usize))
            }
            _ => EngineOptions::default().with_watchdog(Duration::from_millis(n)),
        }
    };
    // (wire field, a limit this session trips, one it stays under, the
    // error code)
    let cases = [
        ("max_events", total / 2, total * 10, "budget-exhausted"),
        ("max_shadow_bytes", 1, 1 << 40, "budget-exhausted"),
        ("watchdog_ms", 0, 3_600_000, "watchdog"),
    ];
    for (field, tight, loose, code) in cases {
        // The tripped limit, as the error message names it.
        let tripped = match code {
            "watchdog" => format!("the {tight} ms watchdog"),
            _ => format!("> {tight})"),
        };
        for (server, client) in [(tight, loose), (loose, tight)] {
            let mut session: Vec<u8> = Vec::new();
            let body = params(
                Tool::HelgrindLib,
                &[(field, serde_json::Value::U64(client))],
            );
            write_request(&mut session, &body).unwrap();
            session.extend_from_slice(&bytes);
            let opts = ServeOptions {
                limits: ceiling(field, server),
                ..ServeOptions::default()
            };
            let mut out = Vec::new();
            let got = handle_session(&session[..], &mut out, opts)
                .expect_err("the tighter limit must trip");
            let case = format!("{field}: server {server}, client {client}");
            assert_eq!(got, code, "{case}");
            let err = collect_frames(&out[..]).unwrap().error.expect("an E frame");
            assert!(err.message.contains(&tripped), "{case}: {}", err.message);
        }
    }
}

/// The predictive tool over the wire: a `tool=sync-preserving` upload
/// produces an outcome document byte-identical to the offline replay of
/// the same trace.
#[test]
fn sync_preserving_sessions_are_byte_stable() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    let expected = offline_payload(&trace, Tool::SyncPreserving);

    // The server must also parse the short label form off the wire.
    let body = serde_json::json!({"tools": ["sync-preserving"]});
    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr().to_string();
    let out = run_client(&addr, &body, &bytes).unwrap();
    assert!(out.succeeded(), "session failed: {:?}", out.error);
    assert_eq!(out.outcomes.len(), 1);
    let (label, payload) = &out.outcomes[0];
    assert_eq!(label, &Tool::SyncPreserving.label());
    assert_eq!(
        payload, &expected,
        "server outcome diverged from offline sequential replay"
    );
    assert!(out.verdicts > 0, "streamed session sent no verdicts");
    handle.shutdown();
}

/// A zero-length watchdog ends the session in an `E` frame with the
/// stable `watchdog` code, before any outcome document.
#[test]
fn zero_watchdog_sessions_end_in_a_watchdog_error() {
    let (_, trace) = recorded();
    let mut session: Vec<u8> = Vec::new();
    write_request(
        &mut session,
        &params(
            Tool::HelgrindLib,
            &[("watchdog_ms", serde_json::Value::U64(0))],
        ),
    )
    .unwrap();
    session.extend_from_slice(&encode_trace_chunked(&trace, 16));
    let mut out = Vec::new();
    let code = handle_session(&session[..], &mut out, ServeOptions::default())
        .expect_err("a zero watchdog must fail the session");
    assert_eq!(code, "watchdog");
    let frames = collect_frames(&out[..]).unwrap();
    assert_eq!(frames.error.expect("an E frame").code, "watchdog");
    assert!(frames.outcomes.is_empty() && frames.done.is_none());
}

/// A header the server cannot bind to a module ends the session in an
/// `E` frame `unknown-module`: once with a drifted fingerprint (the
/// program rebuilds, but not to the recorded module), once naming no
/// known program at all.
#[test]
fn unbindable_headers_end_in_an_unknown_module_error() {
    let (prepared, _) = recorded();
    let fp = prepared.fingerprint();
    let name = &prepared.module().name;
    for bytes in [
        patched_header(
            &format!("\"module_fingerprint\":{fp}"),
            &format!("\"module_fingerprint\":{}", fp ^ 1),
        ),
        patched_header(
            &format!("\"module_name\":\"{name}\""),
            "\"module_name\":\"no-such-program\"",
        ),
    ] {
        let mut session: Vec<u8> = Vec::new();
        write_request(&mut session, &params(Tool::HelgrindLib, &[])).unwrap();
        session.extend_from_slice(&bytes);
        let mut out = Vec::new();
        let code = handle_session(&session[..], &mut out, ServeOptions::default())
            .expect_err("an unbindable header must fail the session");
        assert_eq!(code, "unknown-module");
        let frames = collect_frames(&out[..]).unwrap();
        assert_eq!(frames.error.expect("an E frame").code, "unknown-module");
        assert!(frames.outcomes.is_empty() && frames.done.is_none());
    }
}

/// A client that stalls past the server's read timeout fails its
/// session with the stable `timeout` wire code — whether it stalls
/// before the request frame or mid-upload — instead of pinning the
/// session slot forever or surfacing a shape-dependent decode error.
#[test]
fn stalled_uploads_fail_with_the_timeout_code() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            read_timeout_ms: Some(150),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    let expect_error_code = |reader: &mut TcpStream, expected: &str| loop {
        let (kind, payload) = read_frame(reader)
            .unwrap()
            .expect("an error frame before end-of-stream");
        match kind {
            FrameKind::Error => {
                let doc: serde_json::Value =
                    serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
                assert_eq!(doc["code"].as_str(), Some(expected), "{:?}", doc);
                return;
            }
            FrameKind::Hello | FrameKind::Verdict => continue,
            other => panic!("unexpected frame {other:?} while waiting for the error"),
        }
    };

    // Stall after the request frame: the trace-magic read times out.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    write_request(&mut stream, &params(Tool::HelgrindLib, &[])).unwrap();
    expect_error_code(&mut reader, "timeout");

    // Stall before even the request frame.
    let idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = idle.try_clone().unwrap();
    expect_error_code(&mut reader, "timeout");

    handle.shutdown();
}

#[test]
fn mid_upload_disconnect_frees_the_session_slot() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, 16);
    // One slot total: if the abandoned session wedged its worker, the
    // follow-up client would hang past its read timeout.
    let handle = serve(
        "127.0.0.1:0",
        ServeOptions {
            sessions: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = handle.addr().to_string();

    {
        let mut dying = TcpStream::connect(&addr).unwrap();
        write_request(&mut dying, &params(Tool::HelgrindLib, &[])).unwrap();
        dying.write_all(&bytes[..bytes.len() / 2]).unwrap();
        // Dropped here without the write-side shutdown handshake: the
        // server's reader hits EOF mid-chunk and must error out, not
        // wait forever.
    }

    let out =
        run_client(&addr, &params(Tool::HelgrindLib, &[]), &bytes).expect("follow-up client io");
    assert!(
        out.succeeded(),
        "slot not freed after disconnect: {:?}",
        out.error
    );
    handle.shutdown();
}

#[test]
fn streamed_sessions_emit_verdicts_before_end_of_upload() {
    // A long seeded stream over many small chunks, so half the bytes is
    // still dozens of whole chunks.
    let spec = WorkloadSpec::new(Family::Ring)
        .threads(4)
        .addr_space(256)
        .seed(9)
        .with_total_events(40_000);
    let wl = spec.build();
    let trace = Session::for_module(&wl.module)
        .vm_config(spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap()
        .execute()
        .unwrap()
        .into_trace();
    let bytes = encode_trace_chunked(&trace, 512);

    let handle = serve("127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();

    write_request(&mut stream, &params(Tool::HelgrindLib, &[])).unwrap();
    stream.write_all(&bytes[..bytes.len() / 2]).unwrap();
    stream.flush().unwrap();

    // With only half the upload written (and our write side still
    // open), the hello and the first incremental verdict must already
    // flow back: detection is overlapped with the upload.
    let (kind, _) = read_frame(&mut reader).unwrap().expect("hello frame");
    assert_eq!(kind, FrameKind::Hello);
    let (kind, payload) = read_frame(&mut reader).unwrap().expect("verdict frame");
    assert_eq!(
        kind,
        FrameKind::Verdict,
        "first verdict must arrive before end-of-upload"
    );
    let doc: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(doc["events"].as_u64().unwrap() > 0);

    // Finish the upload; the session must complete normally.
    stream.write_all(&bytes[bytes.len() / 2..]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut saw_done = false;
    while let Some((kind, _)) = read_frame(&mut reader).unwrap() {
        match kind {
            FrameKind::Done => {
                saw_done = true;
                break;
            }
            FrameKind::Error => panic!("session failed after staged upload"),
            _ => {}
        }
    }
    assert!(saw_done, "session must end with a done frame");
    handle.shutdown();
}
