//! `spinrace-tracefmt` — the on-disk trace encoding.
//!
//! A recorded [`Trace`] is stored in one format: a compact, versioned,
//! chunked columnar binary encoding (`.sptrace`) built for the
//! record-once / replay-everywhere pipeline:
//!
//! ```text
//! +-----------------------------------------------------------------+
//! | magic "SPINRTRC" | binary version = 2 (u32 LE)                  |
//! | header JSON  (varint len + bytes)   <- TraceHeader, verbatim    |
//! | summary JSON (varint len + bytes)   <- RunSummary, verbatim     |
//! | chunk count (u32 LE) | chunk target (u32 LE) | CRC-64 (u64 LE)  |
//! +-----------------------------------------------------------------+
//! | chunk 0: event count (u32 LE) | column count (varint)           |
//! |          column 0 .. 14: varint length + block bytes            |
//! |          CRC-64/XZ checksum over the framed chunk (u64 LE)      |
//! +-----------------------------------------------------------------+
//! | chunk 1 ... chunk N-1   (same framing, fresh codec state each)  |
//! +-----------------------------------------------------------------+
//! ```
//!
//! Design choices, and why:
//!
//! * **Columnar (struct-of-arrays)**: like fields compress together.
//!   Thread ids, addresses and barrier generations are near-monotone
//!   streams → zigzag delta + LEB128 varint makes most entries one
//!   byte. Program counters and call-chain hashes repeat heavily → a
//!   per-chunk dictionary plus varint indices.
//! * **Fixed-target-size chunks** (default 64k events): every chunk
//!   carries its own column lengths and a CRC-64/XZ checksum and resets
//!   all codec state, so chunks decode independently. That enables the
//!   streaming reader (decode one chunk ahead of the detector, O(chunk)
//!   peak memory) and localizes corruption detection to a single chunk.
//! * **CRC-64/XZ checksums** ([`checksum`], since binary version 2;
//!   version 1 used FNV-1a and is refused with [`TraceError::Version`]):
//!   every burst error of up to 64 bits is guaranteed to be caught, and
//!   the slicing-by-8 table form runs about twice as fast as the
//!   byte-serial FNV-1a it replaced.
//! * **Header/summary embedded as JSON**: tiny compared to the stream,
//!   self-describing, and versioned through the serde encodings of
//!   [`spinrace_vm::TraceHeader`] and [`spinrace_vm::RunSummary`]. A
//!   damaged block surfaces as [`TraceError::Json`].
//!
//! [`encode_trace`] / [`decode_trace`] convert to and from the in-memory
//! [`Trace`]; [`ChunkedTraceReader`] streams chunks from any
//! [`std::io::Read`], and [`ChunkedTraceReader::decode_ahead`] is the one
//! decode-ahead pipeline every streamed replay runs on. Input that does
//! not start with [`MAGIC`] — a JSON document included — is refused
//! with [`TraceError::Magic`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod reader;
pub mod varint;

pub use reader::{ChunkedTraceReader, StreamStats};

use spinrace_vm::{Trace, TraceError};
use std::path::Path;

/// First eight bytes of every binary trace file.
pub const MAGIC: [u8; 8] = *b"SPINRTRC";

/// Version of the binary container (framing + column codecs). Bumped
/// independently of the logical trace version embedded in the header.
pub const BINARY_FORMAT_VERSION: u32 = 2;

/// Default target events per chunk. 64k events keeps a decoded chunk in
/// the few-megabyte range — small enough for O(chunk) streaming, large
/// enough that per-chunk dictionaries and framing amortize to noise.
pub const DEFAULT_CHUNK_EVENTS: usize = 65_536;

/// Reflected CRC-64/XZ (ECMA-182) polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables for [`checksum`]: `CRC64_TABLE[0]` is the plain
/// byte-at-a-time table, and `CRC64_TABLE[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups.
static CRC64_TABLE: [[u64; 256]; 8] = crc64_table();

const fn crc64_table() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-64/XZ of `bytes`, the checksum of the header block and of every
/// chunk. Not cryptographic — it guards against truncation and bit rot,
/// not adversaries — but every burst error of up to 64 bits is
/// guaranteed to change it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLE;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc ^= u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        crc = t[7][crc as u8 as usize]
            ^ t[6][(crc >> 8) as u8 as usize]
            ^ t[5][(crc >> 16) as u8 as usize]
            ^ t[4][(crc >> 24) as u8 as usize]
            ^ t[3][(crc >> 32) as u8 as usize]
            ^ t[2][(crc >> 40) as u8 as usize]
            ^ t[1][(crc >> 48) as u8 as usize]
            ^ t[0][(crc >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
    }
    !crc
}

/// Encode `trace` with the default chunk target.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    encode_trace_chunked(trace, DEFAULT_CHUNK_EVENTS)
}

/// Encode `trace` with an explicit target of `chunk_events` events per
/// chunk (clamped to at least one).
pub fn encode_trace_chunked(trace: &Trace, chunk_events: usize) -> Vec<u8> {
    let chunk_events = chunk_events.max(1);
    let header_json = serde_json::to_string(&trace.header).expect("header serialization");
    let summary_json = serde_json::to_string(&trace.summary).expect("summary serialization");
    let chunk_count = trace.events.len().div_ceil(chunk_events) as u32;

    let mut out = Vec::with_capacity(header_json.len() + summary_json.len() + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BINARY_FORMAT_VERSION.to_le_bytes());
    varint::put_uvarint(&mut out, header_json.len() as u64);
    out.extend_from_slice(header_json.as_bytes());
    varint::put_uvarint(&mut out, summary_json.len() as u64);
    out.extend_from_slice(summary_json.as_bytes());
    out.extend_from_slice(&chunk_count.to_le_bytes());
    out.extend_from_slice(&(chunk_events.min(u32::MAX as usize) as u32).to_le_bytes());
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());

    for chunk in trace.events.chunks(chunk_events) {
        chunk::encode_chunk(chunk, &mut out);
    }
    out
}

/// Decode a complete binary trace from memory.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceError> {
    ChunkedTraceReader::new(bytes)?.read_all()
}

/// Write `trace` to `path` in the binary encoding.
pub fn write_trace_file(path: &Path, trace: &Trace) -> Result<(), TraceError> {
    std::fs::write(path, encode_trace(trace))
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_tir::{Module, ModuleBuilder};
    use spinrace_vm::{record_run, VmConfig};

    pub(crate) fn handoff() -> Module {
        let mut mb = ModuleBuilder::new("tracefmt-test");
        let flag = mb.global("flag", 1);
        let data = mb.global("data", 1);
        let waiter = mb.function("waiter", 1, |f| {
            let head = f.new_block();
            let done = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let v = f.load(flag.at(0));
            f.branch(v, done, head);
            f.switch_to(done);
            let d = f.load(data.at(0));
            f.output(d);
            f.ret(None);
        });
        mb.entry("main", |f| {
            let t = f.spawn(waiter, 0);
            f.store(data.at(0), 42);
            f.store(flag.at(0), 1);
            f.join(t);
            f.ret(None);
        });
        mb.finish().unwrap()
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::random(11), "rt").unwrap();
        let bytes = encode_trace(&trace);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn tiny_chunks_round_trip_and_reset_state() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "chunks").unwrap();
        // Chunk size 3 forces many boundaries; delta/dictionary state
        // must reset at each or decoded values drift.
        let bytes = encode_trace_chunked(&trace, 3);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, trace);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        assert_eq!(
            reader.chunk_count() as usize,
            trace.events.len().div_ceil(3)
        );
    }

    #[test]
    fn streaming_replay_matches_in_memory_replay() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::random(3), "stream").unwrap();
        let bytes = encode_trace_chunked(&trace, 4);
        let mut events = Vec::new();
        let stats = ChunkedTraceReader::new(&bytes[..])
            .unwrap()
            .decode_ahead(|chunk| -> Result<(), TraceError> {
                events.extend_from_slice(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(events, trace.events);
        assert_eq!(stats.events, trace.events.len() as u64);
        assert_eq!(stats.chunks, trace.events.len().div_ceil(4) as u32);
        assert!(stats.peak_resident_bytes > 0);
    }

    #[test]
    fn corruption_is_detected_and_localized() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "corrupt").unwrap();
        let good = encode_trace_chunked(&trace, 4);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_trace(&bad), Err(TraceError::Magic)));

        // Unsupported binary version.
        let mut bad = good.clone();
        bad[8] = 0xee;
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::Version { found: 0xee, .. })
        ));

        // Flip a byte in the last chunk: the checksum catches it — or,
        // if the flip lands in a column-length varint, the reader runs
        // off the end of the stream first and reports truncation. Either
        // way, a structured error.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 12] ^= 0x55;
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::Checksum { .. })
                | Err(TraceError::Corrupt(_))
                | Err(TraceError::ChunkCount { .. })
        ));

        // Truncate mid-stream: chunk count shortfall.
        let truncated = &good[..good.len() - 20];
        assert!(matches!(
            decode_trace(truncated),
            Err(TraceError::ChunkCount { .. })
        ));
    }
}
