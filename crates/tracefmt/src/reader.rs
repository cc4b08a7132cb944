//! Chunked streaming reader: decode one chunk ahead of the consumer.
//!
//! [`ChunkedTraceReader`] wraps any [`io::Read`] source, parses and
//! validates the header block eagerly (magic, binary version, embedded
//! trace header, checksum), then hands out decoded chunks one at a time.
//! [`ChunkedTraceReader::decode_ahead`] feeds a consumer directly from
//! the stream with a decode-ahead thread: while the consumer handles
//! chunk *k*, chunk *k+1* is being read and decoded, so replay starts
//! before the file has been fully read and peak memory stays bounded by
//! a couple of chunks — O(chunk), not O(trace).

use crate::chunk::{decode_chunk_columns, NUM_COLUMNS};
use crate::{fnv1a, BINARY_FORMAT_VERSION, MAGIC};
use spinrace_vm::{Event, RunSummary, Trace, TraceError, TraceHeader, TRACE_FORMAT_VERSION};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;

/// Largest accepted embedded-JSON block (header or summary). Real
/// headers are a few hundred bytes; the cap keeps a corrupt length from
/// driving an unbounded read.
const MAX_JSON_BLOCK: u64 = 1 << 20;
/// Largest accepted per-chunk event count.
const MAX_CHUNK_EVENTS: u32 = 1 << 24;
/// Largest accepted single column block.
const MAX_COLUMN_BYTES: u64 = 1 << 31;

/// Statistics of one streamed replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events delivered to the consumer.
    pub events: u64,
    /// Chunks decoded.
    pub chunks: u32,
    /// High-water mark of decoded-but-not-yet-consumed event memory
    /// (bytes), across the decode-ahead pipeline. With chunked streaming
    /// this is O(chunk); a whole-trace decode would make it O(trace).
    pub peak_resident_bytes: usize,
}

/// Approximate heap footprint of a decoded chunk — what the streaming
/// pipeline holds resident per in-flight chunk.
fn chunk_mem(events: &[Event]) -> usize {
    let mut bytes = std::mem::size_of_val(events);
    for ev in events {
        if let Event::SpinExit { reads, .. } = ev {
            bytes += reads.len() * std::mem::size_of::<(u64, spinrace_tir::Pc)>();
        }
    }
    bytes
}

/// Streaming decoder for the binary trace format over any byte source.
pub struct ChunkedTraceReader<R: io::Read> {
    src: R,
    header: TraceHeader,
    summary: RunSummary,
    chunk_count: u32,
    chunk_target: u32,
    chunks_read: u32,
    events_read: u64,
    /// Set once the stream has been fully drained and finalized.
    done: bool,
}

/// Read one LEB128 varint from a byte stream, mirroring the slice-based
/// decoder's bounds checks. `raw` accumulates the consumed bytes for
/// checksumming.
fn stream_uvarint<R: io::Read>(src: &mut R, raw: &mut Vec<u8>) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        src.read_exact(&mut b).map_err(map_eof_truncated)?;
        raw.push(b[0]);
        if shift == 63 && b[0] > 1 {
            return Err(TraceError::Corrupt("overlong varint".into()));
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            // Mirror the slice decoder's canonicality check: a zero
            // final byte after a continuation is a longer-than-needed
            // encoding the writer never emits.
            if b[0] == 0 && shift > 0 {
                return Err(TraceError::Corrupt("non-canonical varint".into()));
            }
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt("overlong varint".into()));
        }
    }
}

fn map_eof_truncated(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Corrupt("unexpected end of stream".into())
    } else {
        TraceError::Io(e.to_string())
    }
}

/// Read exactly `len` bytes into a fresh buffer without trusting `len`
/// for preallocation: a corrupt length never reserves more memory than
/// the stream actually delivers.
fn read_block<R: io::Read>(src: &mut R, len: u64) -> Result<Vec<u8>, TraceError> {
    let mut buf = Vec::new();
    let mut limited = <&mut R as io::Read>::take(&mut *src, len);
    let copied = io::copy(&mut limited, &mut buf).map_err(|e| TraceError::Io(e.to_string()))?;
    if copied != len {
        return Err(TraceError::Corrupt("unexpected end of stream".into()));
    }
    Ok(buf)
}

impl<R: io::Read> ChunkedTraceReader<R> {
    /// Open a binary trace stream: parse and validate the header block.
    ///
    /// Validation order is magic → binary version → embedded header
    /// (trace version) → checksum, so the caller always gets the most
    /// specific error the damaged prefix allows.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut raw: Vec<u8> = Vec::with_capacity(256);

        let mut magic = [0u8; 8];
        src.read_exact(&mut magic).map_err(|_| TraceError::Magic)?;
        if magic != MAGIC {
            return Err(TraceError::Magic);
        }
        raw.extend_from_slice(&magic);

        let mut ver = [0u8; 4];
        src.read_exact(&mut ver).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&ver);
        let found = u32::from_le_bytes(ver);
        if found != BINARY_FORMAT_VERSION {
            return Err(TraceError::Version {
                found,
                supported: BINARY_FORMAT_VERSION,
            });
        }

        let header_len = stream_uvarint(&mut src, &mut raw)?;
        if header_len > MAX_JSON_BLOCK {
            return Err(TraceError::Corrupt(
                "implausible header block length".into(),
            ));
        }
        let header_json = read_block(&mut src, header_len)?;
        raw.extend_from_slice(&header_json);

        let summary_len = stream_uvarint(&mut src, &mut raw)?;
        if summary_len > MAX_JSON_BLOCK {
            return Err(TraceError::Corrupt(
                "implausible summary block length".into(),
            ));
        }
        let summary_json = read_block(&mut src, summary_len)?;
        raw.extend_from_slice(&summary_json);

        let mut counts = [0u8; 8];
        src.read_exact(&mut counts).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&counts);
        let chunk_count = u32::from_le_bytes(counts[..4].try_into().unwrap());
        let chunk_target = u32::from_le_bytes(counts[4..].try_into().unwrap());

        let mut sum = [0u8; 8];
        src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != fnv1a(&raw) {
            return Err(TraceError::Corrupt("header block checksum mismatch".into()));
        }

        let header_text = std::str::from_utf8(&header_json)
            .map_err(|_| TraceError::Corrupt("header block is not UTF-8".into()))?;
        let header: TraceHeader =
            serde_json::from_str(header_text).map_err(|e| TraceError::Json(e.0))?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceError::Version {
                found: header.version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        let summary_text = std::str::from_utf8(&summary_json)
            .map_err(|_| TraceError::Corrupt("summary block is not UTF-8".into()))?;
        let summary: RunSummary =
            serde_json::from_str(summary_text).map_err(|e| TraceError::Json(e.0))?;

        Ok(ChunkedTraceReader {
            src,
            header,
            summary,
            chunk_count,
            chunk_target,
            chunks_read: 0,
            events_read: 0,
            done: false,
        })
    }

    /// The embedded trace header (validated at open).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The embedded run summary.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// Chunk count the header block claims.
    pub fn chunk_count(&self) -> u32 {
        self.chunk_count
    }

    /// Target events per chunk used at encode time.
    pub fn chunk_target(&self) -> u32 {
        self.chunk_target
    }

    fn truncated(&self) -> TraceError {
        TraceError::ChunkCount {
            header: self.chunk_count,
            actual: self.chunks_read,
        }
    }

    /// Decode the next chunk, or `Ok(None)` once the stream is complete
    /// and validated (event total, no trailing bytes).
    pub fn next_chunk(&mut self) -> Result<Option<Vec<Event>>, TraceError> {
        if self.done {
            return Ok(None);
        }
        if self.chunks_read == self.chunk_count {
            // Finalize: the event total must match the header, and the
            // stream must end exactly here.
            if self.events_read != self.header.events {
                return Err(TraceError::EventCount {
                    header: self.header.events,
                    actual: self.events_read,
                });
            }
            let mut b = [0u8; 1];
            match self.src.read(&mut b) {
                Ok(0) => {}
                Ok(_) => {
                    return Err(TraceError::Corrupt(
                        "trailing bytes after final chunk".into(),
                    ))
                }
                Err(e) => return Err(TraceError::Io(e.to_string())),
            }
            self.done = true;
            return Ok(None);
        }

        // A chunk interrupted by EOF — anywhere inside it — is stream
        // truncation, reported as the chunk-count shortfall.
        self.read_chunk().map(Some).map_err(|e| {
            if matches!(&e, TraceError::Corrupt(m) if m == "unexpected end of stream") {
                self.truncated()
            } else {
                e
            }
        })
    }

    fn read_chunk(&mut self) -> Result<Vec<Event>, TraceError> {
        let mut raw: Vec<u8> = Vec::with_capacity(4096);

        let mut nb = [0u8; 4];
        self.src.read_exact(&mut nb).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&nb);
        let n = u32::from_le_bytes(nb);
        if n > MAX_CHUNK_EVENTS {
            return Err(TraceError::Corrupt(format!(
                "implausible chunk event count {n}"
            )));
        }

        let ncols = stream_uvarint(&mut self.src, &mut raw)?;
        if ncols != NUM_COLUMNS as u64 {
            return Err(TraceError::Corrupt(format!(
                "chunk declares {ncols} columns, format has {}",
                NUM_COLUMNS
            )));
        }

        // Column blocks: (offset, len) into `raw`, resolved to slices
        // after the checksum passes.
        let mut spans: [(usize, usize); NUM_COLUMNS] = [(0, 0); NUM_COLUMNS];
        for span in &mut spans {
            let len = stream_uvarint(&mut self.src, &mut raw)?;
            if len > MAX_COLUMN_BYTES {
                return Err(TraceError::Corrupt("implausible column length".into()));
            }
            let block = read_block(&mut self.src, len)?;
            *span = (raw.len(), block.len());
            raw.extend_from_slice(&block);
        }

        let mut sum = [0u8; 8];
        self.src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != fnv1a(&raw) {
            return Err(TraceError::Checksum {
                chunk: self.chunks_read,
            });
        }

        let cols: [&[u8]; NUM_COLUMNS] =
            std::array::from_fn(|i| &raw[spans[i].0..spans[i].0 + spans[i].1]);
        let mut events = Vec::new();
        decode_chunk_columns(n as usize, &cols, &mut events)?;

        self.chunks_read += 1;
        self.events_read += events.len() as u64;
        Ok(events)
    }

    /// Decode the entire stream into an in-memory [`Trace`].
    ///
    /// This is the non-streaming path (whole-trace loading); for
    /// bounded-memory replay use [`Self::decode_ahead`].
    pub fn read_all(mut self) -> Result<Trace, TraceError> {
        let mut events: Vec<Event> = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            events.extend(chunk);
        }
        Ok(Trace {
            header: self.header,
            summary: self.summary,
            events,
        })
    }

    /// Drive `consume` over the stream with one chunk of decode-ahead —
    /// the one streaming pipeline every streamed replay runs on.
    ///
    /// A scoped worker thread reads and decodes chunks; the caller's
    /// thread hands each decoded chunk to `consume`. The bounded channel
    /// (capacity 1) means at most two decoded chunks are resident at
    /// once — one being consumed, one decoded ahead — so peak memory is
    /// O(chunk) regardless of trace length. The first error, from the
    /// decoder or from `consume`, ends the stream: the receiver closes
    /// and the decoder stops. The returned [`StreamStats`] count the
    /// consumed chunks and report the observed high-water mark.
    pub fn decode_ahead<E, F>(mut self, mut consume: F) -> Result<StreamStats, E>
    where
        R: Send,
        E: From<TraceError>,
        F: FnMut(&[Event]) -> Result<(), E>,
    {
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (tx, rx) = sync_channel::<Result<Vec<Event>, TraceError>>(1);

        let mut stats = std::thread::scope(|scope| -> Result<StreamStats, E> {
            let (resident, peak) = (&resident, &peak);
            let reader = &mut self;
            scope.spawn(move || loop {
                match reader.next_chunk() {
                    Ok(Some(chunk)) => {
                        let mem = chunk_mem(&chunk);
                        let now = resident.fetch_add(mem, Ordering::Relaxed) + mem;
                        peak.fetch_max(now, Ordering::Relaxed);
                        // A closed receiver means the consumer bailed on
                        // an earlier error; just stop decoding.
                        if tx.send(Ok(chunk)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => return,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            });

            let mut stats = StreamStats::default();
            for msg in rx {
                let chunk = msg?;
                let consumed = consume(&chunk);
                resident.fetch_sub(chunk_mem(&chunk), Ordering::Relaxed);
                consumed?;
                stats.events += chunk.len() as u64;
                stats.chunks += 1;
            }
            Ok(stats)
        })?;
        stats.peak_resident_bytes = peak.load(Ordering::Relaxed);
        Ok(stats)
    }
}
