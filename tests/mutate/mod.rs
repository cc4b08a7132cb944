//! Shared trace-mutation helpers for the negative-path suites
//! (`trace_negative.rs`, `serve_protocol.rs`): one recorded run plus a
//! cached encoding of it, and the byte-surgery utilities the corruption
//! cases are built from. Each test crate compiles this
//! module independently and uses a different subset.
#![allow(dead_code)]

use spinrace::core::{PreparedModule, Session, Tool};
use spinrace::tracefmt::varint::put_uvarint;
use spinrace::tracefmt::{checksum, encode_trace_chunked, MAGIC};
use spinrace::vm::{Event, Trace};
use spinrace::workloads::{Family, WorkloadSpec};
use std::sync::OnceLock;

/// A small recorded run to mutate (ring family: has sync events of every
/// semaphore flavour in the stream, so the event array is non-trivial).
pub fn recorded() -> (PreparedModule, Trace) {
    let spec = WorkloadSpec::new(Family::Ring).events_per_thread(12);
    let wl = spec.build();
    let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
    let prepared = session.prepare(Tool::HelgrindLib).unwrap();
    let run = prepared.clone().execute().unwrap();
    (prepared, run.into_trace())
}

/// One binary-encoded trace, built once, chunked small enough that the
/// recorded ring stream spans several chunks — the mutation cases need
/// real chunk boundaries, not a single-chunk degenerate file.
pub fn base_binary() -> &'static [u8] {
    static BIN: OnceLock<Vec<u8>> = OnceLock::new();
    BIN.get_or_init(|| encode_trace_chunked(&recorded().1, 16))
}

/// The base trace with its first `Spawn`'s child id replaced by `child`,
/// encoded like [`base_binary`]: every checksum valid, the id forged.
pub fn forged_spawn(child: u32) -> Vec<u8> {
    let mut trace = recorded().1;
    let spawn = trace.events.iter_mut().find_map(|ev| match ev {
        Event::Spawn { child, .. } => Some(child),
        _ => None,
    });
    *spawn.expect("the ring run spawns workers") = child;
    encode_trace_chunked(&trace, 16)
}

/// Read one LEB128 varint out of a test buffer (trusted input — the
/// tests walk files they just encoded).
pub fn leb(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Byte offset of the header block's `chunk_count`/`chunk_target` pair,
/// and of the header checksum right after it.
pub fn header_counts_offsets(bytes: &[u8]) -> (usize, usize) {
    let mut pos = header_span(bytes).end;
    let summary_len = leb(bytes, &mut pos);
    pos += summary_len as usize;
    (pos, pos + 8)
}

/// Byte range of the embedded header JSON inside a binary trace.
fn header_span(bytes: &[u8]) -> std::ops::Range<usize> {
    let mut pos = MAGIC.len() + 4; // magic + binary version
    let header_len = leb(bytes, &mut pos) as usize;
    pos..pos + header_len
}

/// The embedded header JSON of a binary trace.
pub fn header_json(bytes: &[u8]) -> &[u8] {
    &bytes[header_span(bytes)]
}

/// `bytes` with its embedded header JSON replaced by `header`, the block
/// length and the header checksum re-fixed — so the decoder gets past
/// framing and checksum and has to judge the JSON itself.
pub fn with_header_json(bytes: &[u8], header: &[u8]) -> Vec<u8> {
    let span = header_span(bytes);
    let (_, checksum_pos) = header_counts_offsets(bytes);
    let mut out = bytes[..MAGIC.len() + 4].to_vec();
    put_uvarint(&mut out, header.len() as u64);
    out.extend_from_slice(header);
    out.extend_from_slice(&bytes[span.end..checksum_pos]);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&bytes[checksum_pos + 8..]);
    out
}

/// [`with_header_json`] with one textual substitution applied to the
/// base trace's header (which must occur in it).
pub fn patched_header(from: &str, to: &str) -> Vec<u8> {
    let header = std::str::from_utf8(header_json(base_binary())).unwrap();
    assert!(header.contains(from), "{from:?} not in header {header}");
    with_header_json(base_binary(), header.replacen(from, to, 1).as_bytes())
}
