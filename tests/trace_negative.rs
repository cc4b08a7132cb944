//! Negative-path coverage for the trace decode pipeline: every way a
//! trace file can be wrong must surface as the *right* typed error —
//! never a panic, and never a misleading downstream parse failure.
//!
//! The first group mutates the JSON header block embedded in a binary
//! trace, with the block length and header checksum re-fixed, so the
//! decoder has to judge the JSON itself; the second damages the binary
//! framing, columns and checksums.

use spinrace::core::{AnalyzeError, ExecutedRun, Session, Tool};
use spinrace::tracefmt::{
    checksum, decode_trace, encode_trace_chunked, ChunkedTraceReader, BINARY_FORMAT_VERSION, MAGIC,
};
use spinrace::vm::trace::{TraceError, TRACE_FORMAT_VERSION};
use spinrace::vm::Event;
use spinrace::workloads::{Family, WorkloadSpec};

mod mutate;
use mutate::{
    base_binary, forged_spawn, header_counts_offsets, header_json, leb, patched_header, recorded,
    with_header_json,
};

#[test]
fn garbage_and_truncated_documents_are_json_errors() {
    for text in [
        "",
        "{not json",
        "[]",
        "42",
        "\"a trace, honest\"",
        "{\"header\": 7}",
        "{}",
        "null",
    ] {
        match decode_trace(&with_header_json(base_binary(), text.as_bytes())) {
            Err(TraceError::Json(_)) => {}
            other => panic!("{text:?}: expected a Json error, got {other:?}"),
        }
    }
    // A structurally valid header document cut off mid-way.
    let header = header_json(base_binary());
    let cut = &header[..header.len() / 2];
    assert!(matches!(
        decode_trace(&with_header_json(base_binary(), cut)),
        Err(TraceError::Json(_))
    ));
}

#[test]
fn corrupt_header_fields_are_json_errors_not_panics() {
    let (_, trace) = recorded();
    // Header field holding the wrong type.
    let bad = patched_header(
        &format!("\"module_name\":\"{}\"", trace.header.module_name),
        "\"module_name\":[1,2]",
    );
    assert!(matches!(decode_trace(&bad), Err(TraceError::Json(_))));
    // Header entirely replaced by a null.
    let gutted = with_header_json(base_binary(), b"null");
    assert!(matches!(decode_trace(&gutted), Err(TraceError::Json(_))));
}

#[test]
fn version_mismatch_is_reported_before_event_decoding() {
    // A future trace version whose *chunks* would also fail to decode:
    // the version check runs when the header block is opened, so the
    // user sees "version 99" instead of a confusing chunk error.
    let mut bytes = patched_header(
        &format!("\"version\":{TRACE_FORMAT_VERSION}"),
        "\"version\":99",
    );
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    for result in [
        ChunkedTraceReader::new(&bytes[..]).map(|_| ()),
        decode_trace(&bytes).map(|_| ()),
    ] {
        match result {
            Err(TraceError::Version {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, TRACE_FORMAT_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
    }
}

#[test]
fn a_trace_header_version_1_is_refused() {
    // Version 1 headers hold the fingerprint of the module's textual
    // rendering, which no current preparation reproduces: the file must
    // be refused as a version error, not surface later as a confusing
    // fingerprint mismatch at rebind.
    let bytes = patched_header(
        &format!("\"version\":{TRACE_FORMAT_VERSION}"),
        "\"version\":1",
    );
    for result in [
        ChunkedTraceReader::new(&bytes[..]).map(|_| ()),
        decode_trace(&bytes).map(|_| ()),
    ] {
        assert!(
            matches!(
                result,
                Err(TraceError::Version {
                    found: 1,
                    supported: 2
                })
            ),
            "expected a version-1 refusal, got {result:?}"
        );
    }
}

#[test]
fn thread_ids_must_be_spawned_before_use() {
    // Detectors size per-thread clocks by the largest id they see, so a
    // forged id must be refused by the reader. A spawn has to create the
    // next fresh id, as the VM does...
    for child in [2, u32::MAX - 1] {
        match decode_trace(&forged_spawn(child)) {
            Err(TraceError::Corrupt(m)) => {
                assert_eq!(
                    m,
                    format!("spawn of thread {child}, expected the fresh id 1")
                );
            }
            other => panic!("spawn of {child}: expected a corrupt error, got {other:?}"),
        }
    }
    // ...and no other event may name a thread that was never spawned.
    let mut trace = recorded().1;
    let write = trace.events.iter_mut().find_map(|ev| match ev {
        Event::Write { tid, .. } => Some(tid),
        _ => None,
    });
    *write.unwrap() = 1000;
    match decode_trace(&encode_trace_chunked(&trace, 16)) {
        Err(TraceError::Corrupt(m)) => assert_eq!(m, "thread 1000 was never spawned"),
        other => panic!("expected a corrupt error, got {other:?}"),
    }
}

/// The base trace's header block, claiming `events` events.
fn claiming_events(events: u64) -> Vec<u8> {
    let n = recorded().1.events.len();
    patched_header(&format!("\"events\":{n}"), &format!("\"events\":{events}"))
}

#[test]
fn event_count_mismatch_is_detected_in_both_directions() {
    let n = recorded().1.events.len() as u64;

    // Header claims more events than the stream holds (truncation).
    match decode_trace(&claiming_events(n + 3)) {
        Err(TraceError::EventCount { header, actual }) => {
            assert_eq!((header, actual), (n + 3, n));
        }
        other => panic!("expected an event-count error, got {other:?}"),
    }

    // Header claims fewer (a stream that grew past its header).
    match decode_trace(&claiming_events(n - 1)) {
        Err(TraceError::EventCount { header, actual }) => {
            assert_eq!((header, actual), (n - 1, n));
        }
        other => panic!("expected an event-count error, got {other:?}"),
    }
}

#[test]
fn fingerprint_mismatch_rejects_rebinding_with_both_prints() {
    let (prepared, trace) = recorded();
    let fp = prepared.fingerprint();
    assert_eq!(trace.header.module_fingerprint, fp);

    // The same family one seed over: same shape, different module.
    let other_spec = WorkloadSpec::new(Family::Ring)
        .events_per_thread(12)
        .seed(2);
    let other = Session::for_module(&other_spec.build().module)
        .vm_config(other_spec.vm_config())
        .prepare(Tool::HelgrindLib)
        .unwrap();
    assert_ne!(other.fingerprint(), fp);

    match ExecutedRun::from_trace(other, trace.clone()) {
        Err(AnalyzeError::TraceMismatch {
            trace_fingerprint,
            module_fingerprint,
        }) => {
            assert_eq!(trace_fingerprint, fp);
            assert_ne!(module_fingerprint, fp);
        }
        other => panic!("expected a TraceMismatch, got {other:?}"),
    }

    // The matching preparation still binds.
    assert!(ExecutedRun::from_trace(prepared, trace).is_ok());
}

#[test]
fn errors_render_actionable_messages() {
    let v = patched_header(
        &format!("\"version\":{TRACE_FORMAT_VERSION}"),
        "\"version\":3",
    );
    let msg = decode_trace(&v).unwrap_err().to_string();
    assert!(msg.contains("version 3"), "{msg}");
    let n = recorded().1.events.len() as u64;
    let msg = decode_trace(&claiming_events(n + 1))
        .unwrap_err()
        .to_string();
    assert!(msg.contains("truncated"), "{msg}");
    let msg = decode_trace(&base_binary()[..base_binary().len() - 4])
        .unwrap_err()
        .to_string();
    assert!(msg.contains("truncated"), "{msg}");
    let msg = decode_trace(b"{\"header\":{}}").unwrap_err().to_string();
    assert!(msg.contains("not a trace file"), "{msg}");
}

// ---- randomized mutations of the embedded header JSON ----

use proptest::prelude::*;
use std::panic::catch_unwind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The header block is a single JSON object, so every strict prefix
    /// is malformed — and must come back as a typed error, never a
    /// panic.
    #[test]
    fn truncation_is_always_rejected_without_panicking(pos in 0usize..1 << 16) {
        let header = header_json(base_binary());
        let cut = pos % header.len();
        let bytes = with_header_json(base_binary(), &header[..cut]);
        let rejected = catch_unwind(move || decode_trace(&bytes).is_err())
            .expect("truncated header decode panicked");
        prop_assert!(rejected, "header truncation at byte {cut} decoded successfully");
    }

    /// Splicing a random run of bytes out of the header block must never
    /// panic the load path. (It nearly always breaks parsing; the rare
    /// splice that leaves a valid header — digits removed from inside a
    /// number, say — may legitimately decode, which is fine.)
    #[test]
    fn byte_splices_never_panic(pos in 0usize..1 << 16, len in 1usize..64) {
        let mut header = header_json(base_binary()).to_vec();
        let pos = pos % header.len();
        let len = len.min(header.len() - pos);
        header.drain(pos..pos + len);
        let bytes = with_header_json(base_binary(), &header);
        let outcome = catch_unwind(move || {
            let _ = decode_trace(&bytes);
        });
        prop_assert!(outcome.is_ok(), "spliced header decode panicked");
    }

    /// Flipping any header byte to any other value must never panic the
    /// load path — whether the flip lands in structure (parse error), a
    /// string (usually fine), or breaks UTF-8 (rejected before parsing).
    #[test]
    fn byte_flips_never_panic(pos in 0usize..1 << 16, flip in 1u8..=255) {
        let mut header = header_json(base_binary()).to_vec();
        let pos = pos % header.len();
        header[pos] ^= flip;
        let bytes = with_header_json(base_binary(), &header);
        let outcome = catch_unwind(move || {
            let _ = decode_trace(&bytes);
        });
        prop_assert!(outcome.is_ok(), "byte-flipped header decode panicked");
    }
}

// ---- binary (columnar) format negative paths ----

#[test]
fn bad_magic_is_a_magic_error() {
    // A corrupted magic byte, and inputs that are not binary traces — a
    // JSON trace document among them.
    let mut bytes = base_binary().to_vec();
    bytes[0] ^= 0xff;
    assert!(matches!(decode_trace(&bytes), Err(TraceError::Magic)));
    for garbage in [
        &b""[..],
        b"SPINRTRX",
        b"\x00\x01\x02\x03",
        br#"{"header":{"version":1},"summary":{},"events":[]}"#,
    ] {
        assert!(matches!(decode_trace(garbage), Err(TraceError::Magic)));
    }
}

#[test]
fn binary_version_bump_is_a_version_error_before_checksum() {
    // A future binary version must be reported as such even though the
    // patched bytes also break the header checksum: version is checked
    // first, so the user sees "version 99", not "checksum mismatch".
    let mut bytes = base_binary().to_vec();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
    match decode_trace(&bytes) {
        Err(TraceError::Version { found, supported }) => {
            assert_eq!((found, supported), (99, BINARY_FORMAT_VERSION));
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn a_version_1_file_is_refused_with_the_supported_version() {
    // The v1 container checksummed with FNV-1a; this build reads only
    // CRC-64 framing, and says so instead of reporting a bad checksum.
    let bytes = base_binary();
    let (_, checksum_pos) = header_counts_offsets(bytes);
    let mut v1 = bytes.to_vec();
    v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
    let sum = checksum(&v1[..checksum_pos]);
    v1[checksum_pos..checksum_pos + 8].copy_from_slice(&sum.to_le_bytes());
    match decode_trace(&v1) {
        Err(TraceError::Version { found, supported }) => {
            assert_eq!((found, supported), (1, 2));
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// Bit-at-a-time CRC-64/XZ, the reference the table-driven
/// [`checksum`] must agree with.
fn crc64_xz_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn checksum_is_crc64_xz() {
    // The catalogue check value of CRC-64/XZ.
    assert_eq!(checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(checksum(b""), 0);
    // Every length around the eight-byte stride, every alignment of
    // the tail, agrees with the bitwise definition.
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    for len in 0..data.len() {
        assert_eq!(
            checksum(&data[..len]),
            crc64_xz_bitwise(&data[..len]),
            "len {len}"
        );
    }
}

/// Chunk index and byte range of every column block in a binary trace.
fn column_blocks(bytes: &[u8]) -> Vec<(u32, std::ops::Range<usize>)> {
    let (counts_pos, checksum_pos) = header_counts_offsets(bytes);
    let chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    let mut pos = checksum_pos + 8;
    let mut blocks = Vec::new();
    for chunk in 0..chunks {
        pos += 4; // event count
        let columns = leb(bytes, &mut pos);
        for _ in 0..columns {
            let len = leb(bytes, &mut pos) as usize;
            blocks.push((chunk, pos..pos + len));
            pos += len;
        }
        pos += 8; // chunk checksum
    }
    assert_eq!(pos, bytes.len(), "walked past the framing");
    blocks
}

#[test]
fn every_single_bit_flip_in_column_data_fails_that_chunks_checksum() {
    let (_, trace) = recorded();
    let bytes = encode_trace_chunked(&trace, trace.events.len().div_ceil(3));
    let blocks = column_blocks(&bytes);
    assert!(
        blocks.iter().any(|(chunk, _)| *chunk >= 2),
        "needs 3 chunks"
    );
    let mut flips = 0;
    for (chunk, range) in blocks {
        for pos in range {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                match decode_trace(&bad) {
                    Err(TraceError::Checksum { chunk: c }) => assert_eq!(c, chunk),
                    other => panic!("bit {bit} of byte {pos}: got {other:?}"),
                }
                flips += 1;
            }
        }
    }
    assert!(flips > 1000, "only {flips} flips");
}

#[test]
fn truncated_chunk_is_reported_as_the_chunk_shortfall() {
    let bytes = base_binary();
    let (counts_pos, checksum_pos) = header_counts_offsets(bytes);
    let header_block_end = checksum_pos + 8;
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    assert!(total_chunks > 1, "the base stream must span several chunks");
    // Cutting into the final chunk's checksum loses exactly one chunk.
    match decode_trace(&bytes[..bytes.len() - 4]) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks, total_chunks - 1));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
    // Cutting just past the header block loses every chunk.
    match decode_trace(&bytes[..header_block_end]) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks, 0));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
}

#[test]
fn corrupted_column_data_fails_the_chunk_checksum() {
    // The final byte of the file is the last chunk's checksum; a byte a
    // little before it sits inside that chunk's column data. Both flips
    // must localize to a checksum failure on that chunk.
    let bytes = base_binary();
    let (counts_pos, _) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    for tamper in [bytes.len() - 1, bytes.len() - 12] {
        let mut bad = bytes.to_vec();
        bad[tamper] ^= 0x01;
        match decode_trace(&bad) {
            Err(TraceError::Checksum { chunk }) => assert_eq!(chunk, total_chunks - 1),
            // A flip landing in a column-length varint can instead run
            // the reader off the end of the stream — also structured.
            Err(TraceError::ChunkCount { .. }) => {}
            other => panic!("expected a checksum error, got {other:?}"),
        }
    }
}

#[test]
fn header_chunk_count_mismatch_is_detected() {
    // Claim one more chunk than the stream holds, with the header
    // checksum re-fixed so only the count lies.
    let bytes = base_binary();
    let (counts_pos, checksum_pos) = header_counts_offsets(bytes);
    let total_chunks = u32::from_le_bytes(bytes[counts_pos..][..4].try_into().unwrap());
    let mut bad = bytes.to_vec();
    bad[counts_pos..counts_pos + 4].copy_from_slice(&(total_chunks + 1).to_le_bytes());
    let sum = checksum(&bad[..checksum_pos]);
    bad[checksum_pos..checksum_pos + 8].copy_from_slice(&sum.to_le_bytes());
    match decode_trace(&bad) {
        Err(TraceError::ChunkCount { header, actual }) => {
            assert_eq!((header, actual), (total_chunks + 1, total_chunks));
        }
        other => panic!("expected a chunk-count error, got {other:?}"),
    }
    // The un-fixed version of the same patch is caught by the checksum.
    let mut unfixed = bytes.to_vec();
    unfixed[counts_pos..counts_pos + 4].copy_from_slice(&(total_chunks + 1).to_le_bytes());
    assert!(matches!(
        decode_trace(&unfixed),
        Err(TraceError::Corrupt(_))
    ));
}

#[test]
fn binary_event_count_mismatch_and_trailing_bytes_are_detected() {
    let (_, trace) = recorded();
    let n = trace.events.len() as u64;
    let mut lying = trace.clone();
    lying.header.events += 3;
    match decode_trace(&encode_trace_chunked(&lying, 64)) {
        Err(TraceError::EventCount { header, actual }) => {
            assert_eq!((header, actual), (n + 3, n));
        }
        other => panic!("expected an event-count error, got {other:?}"),
    }
    let mut padded = encode_trace_chunked(&trace, 64);
    padded.push(0);
    assert!(matches!(decode_trace(&padded), Err(TraceError::Corrupt(_))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every strict prefix of a binary trace is missing at least its
    /// final checksum byte, so every one must come back as a typed
    /// error — never a panic, never a silent partial decode.
    #[test]
    fn binary_truncation_is_always_rejected_without_panicking(pos in 0usize..1 << 16) {
        let bytes = base_binary();
        let cut = pos % bytes.len();
        let rejected = catch_unwind(move || decode_trace(&bytes[..cut]).is_err())
            .expect("truncated binary decode panicked");
        prop_assert!(rejected, "binary truncation at byte {cut} decoded successfully");
    }

    /// Splicing a random run of bytes out of the file must never panic
    /// the load path. (The checksums make a successful decode of a
    /// spliced file astronomically unlikely, but the property under
    /// test is no-panic, matching the header splice case.)
    #[test]
    fn binary_byte_splices_never_panic(pos in 0usize..1 << 16, len in 1usize..64) {
        let bytes = base_binary();
        let pos = pos % bytes.len();
        let len = len.min(bytes.len() - pos);
        let mut mutated = bytes.to_vec();
        mutated.drain(pos..pos + len);
        let outcome = catch_unwind(move || {
            let _ = decode_trace(&mutated);
        });
        prop_assert!(outcome.is_ok(), "spliced binary decode panicked");
    }

    /// Flipping any byte to any other value must never panic the load
    /// path — whether it lands in the magic, a length varint, column
    /// data, or a checksum.
    #[test]
    fn binary_byte_flips_never_panic(pos in 0usize..1 << 16, flip in 1u8..=255) {
        let bytes = base_binary();
        let pos = pos % bytes.len();
        let mut mutated = bytes.to_vec();
        mutated[pos] ^= flip;
        let outcome = catch_unwind(move || {
            let _ = decode_trace(&mutated);
        });
        prop_assert!(outcome.is_ok(), "byte-flipped binary decode panicked");
    }
}
