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
use crate::varint::get_uvarint;
use crate::{checksum, BINARY_FORMAT_VERSION, MAGIC};
use spinrace_tir::Pc;
use spinrace_vm::{Event, RunSummary, Trace, TraceError, TraceHeader, TRACE_FORMAT_VERSION};
use std::io::{self, Read};
use std::ops::Range;
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

/// Approximate heap footprint of a decoded chunk of `events` events
/// whose `SpinExit`s carry `spin_reads` reads in all — what the streaming
/// pipeline holds resident per in-flight chunk.
fn resident_bytes(events: usize, spin_reads: usize) -> usize {
    events * std::mem::size_of::<Event>() + spin_reads * std::mem::size_of::<(u64, Pc)>()
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
    /// Threads spawned so far, thread 0 included: the ids later events
    /// may name.
    threads: u32,
    /// Framing buffer of the chunk being read, kept across chunks so a
    /// steady stream reads into memory it already owns.
    raw: Vec<u8>,
    /// Set once the stream has been fully drained and finalized.
    done: bool,
}

/// Read one LEB128 varint from a byte stream onto the end of `raw`
/// (which accumulates the consumed bytes for checksumming) and decode it
/// with the slice decoder's rules. At most 10 bytes are read: a tenth
/// byte that does not end the varint is overlong.
fn stream_uvarint<R: io::Read>(src: &mut R, raw: &mut Vec<u8>) -> Result<u64, TraceError> {
    let start = raw.len();
    loop {
        let mut b = [0u8; 1];
        src.read_exact(&mut b).map_err(map_eof_truncated)?;
        raw.push(b[0]);
        if b[0] & 0x80 == 0 || raw.len() - start == 10 {
            break;
        }
    }
    let mut pos = start;
    get_uvarint(raw, &mut pos)
}

fn map_eof_truncated(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Corrupt("unexpected end of stream".into())
    } else {
        TraceError::Io(e.to_string())
    }
}

/// Append exactly `len` bytes of `src` to `buf` without trusting `len`
/// for preallocation: a corrupt length never reserves more memory than
/// the stream actually delivers. Returns the range the block occupies.
fn read_block<R: io::Read>(
    src: &mut R,
    len: u64,
    buf: &mut Vec<u8>,
) -> Result<Range<usize>, TraceError> {
    let start = buf.len();
    let copied = io::Read::take(&mut *src, len)
        .read_to_end(buf)
        .map_err(|e| TraceError::Io(e.to_string()))?;
    if copied as u64 != len {
        return Err(TraceError::Corrupt("unexpected end of stream".into()));
    }
    Ok(start..buf.len())
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
        let header_json = read_block(&mut src, header_len, &mut raw)?;

        let summary_len = stream_uvarint(&mut src, &mut raw)?;
        if summary_len > MAX_JSON_BLOCK {
            return Err(TraceError::Corrupt(
                "implausible summary block length".into(),
            ));
        }
        let summary_json = read_block(&mut src, summary_len, &mut raw)?;

        let mut counts = [0u8; 8];
        src.read_exact(&mut counts).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&counts);
        let chunk_count = u32::from_le_bytes(counts[..4].try_into().unwrap());
        let chunk_target = u32::from_le_bytes(counts[4..].try_into().unwrap());

        let mut sum = [0u8; 8];
        src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != checksum(&raw) {
            return Err(TraceError::Corrupt("header block checksum mismatch".into()));
        }

        let header_text = std::str::from_utf8(&raw[header_json])
            .map_err(|_| TraceError::Corrupt("header block is not UTF-8".into()))?;
        let header: TraceHeader =
            serde_json::from_str(header_text).map_err(|e| TraceError::Json(e.0))?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceError::Version {
                found: header.version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        let summary_text = std::str::from_utf8(&raw[summary_json])
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
            threads: 1,
            raw,
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
        let mut events = Vec::new();
        Ok(self.next_chunk_into(&mut events)?.map(|_| events))
    }

    /// Decode the next chunk onto the end of `out`, leaving what `out`
    /// already holds in place, and return its [`resident_bytes`].
    /// Returns `Ok(None)` once the stream is complete and validated; on
    /// error `out` is left as it was.
    fn next_chunk_into(&mut self, out: &mut Vec<Event>) -> Result<Option<usize>, TraceError> {
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

        let before = out.len();
        match self.read_chunk(out) {
            Ok(spin_reads) => {
                let events = out.len() - before;
                self.chunks_read += 1;
                self.events_read += events as u64;
                Ok(Some(resident_bytes(events, spin_reads)))
            }
            Err(e) => {
                out.truncate(before);
                // A chunk interrupted by EOF — anywhere inside it — is
                // stream truncation, reported as the chunk-count
                // shortfall.
                if matches!(&e, TraceError::Corrupt(m) if m == "unexpected end of stream") {
                    Err(self.truncated())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Read, checksum and decode one chunk onto the end of `out`,
    /// returning its spin-read count.
    fn read_chunk(&mut self, out: &mut Vec<Event>) -> Result<usize, TraceError> {
        let raw = &mut self.raw;
        raw.clear();

        let mut nb = [0u8; 4];
        self.src.read_exact(&mut nb).map_err(map_eof_truncated)?;
        raw.extend_from_slice(&nb);
        let n = u32::from_le_bytes(nb);
        if n > MAX_CHUNK_EVENTS {
            return Err(TraceError::Corrupt(format!(
                "implausible chunk event count {n}"
            )));
        }

        let ncols = stream_uvarint(&mut self.src, raw)?;
        if ncols != NUM_COLUMNS as u64 {
            return Err(TraceError::Corrupt(format!(
                "chunk declares {ncols} columns, format has {}",
                NUM_COLUMNS
            )));
        }

        // Column blocks land in `raw` behind their length varints;
        // their ranges resolve to slices after the checksum passes.
        let mut spans: [Range<usize>; NUM_COLUMNS] = Default::default();
        for span in &mut spans {
            let len = stream_uvarint(&mut self.src, raw)?;
            if len > MAX_COLUMN_BYTES {
                return Err(TraceError::Corrupt("implausible column length".into()));
            }
            *span = read_block(&mut self.src, len, raw)?;
        }

        let mut sum = [0u8; 8];
        self.src.read_exact(&mut sum).map_err(map_eof_truncated)?;
        if u64::from_le_bytes(sum) != checksum(raw) {
            return Err(TraceError::Checksum {
                chunk: self.chunks_read,
            });
        }

        let cols: [&[u8]; NUM_COLUMNS] = std::array::from_fn(|i| &raw[spans[i].clone()]);
        decode_chunk_columns(n as usize, &cols, out, &mut self.threads)
    }

    /// Decode the entire stream into an in-memory [`Trace`], each chunk
    /// straight onto the end of the trace's event vector.
    ///
    /// This is the non-streaming path (whole-trace loading); for
    /// bounded-memory replay use [`Self::decode_ahead`].
    pub fn read_all(mut self) -> Result<Trace, TraceError> {
        let mut events: Vec<Event> = Vec::new();
        while self.next_chunk_into(&mut events)?.is_some() {}
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
    /// thread hands each decoded chunk to `consume`. The decoder owns
    /// two event buffers: it decodes into one while the caller consumes
    /// the other, and each consumed buffer goes back to it on a second
    /// channel. So at most two decoded chunks are resident at once — one
    /// being consumed, one decoded ahead — peak memory is O(chunk)
    /// regardless of trace length, and no chunk allocates its event
    /// vector afresh. The first error, from the decoder or from
    /// `consume`, ends the stream: the channels close and the decoder
    /// stops. The returned [`StreamStats`] count the consumed chunks and
    /// report the observed high-water mark.
    pub fn decode_ahead<E, F>(mut self, mut consume: F) -> Result<StreamStats, E>
    where
        R: Send,
        E: From<TraceError>,
        F: FnMut(&[Event]) -> Result<(), E>,
    {
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Each decoded chunk travels with its resident bytes.
        let (tx, rx) = sync_channel::<Result<(Vec<Event>, usize), TraceError>>(1);
        // The decoder's two buffers start out here; room for both, so
        // returning one never blocks.
        let (recycle_tx, recycle_rx) = sync_channel::<Vec<Event>>(2);
        for _ in 0..2 {
            recycle_tx
                .send(Vec::new())
                .expect("the channel holds both buffers");
        }

        let mut stats = std::thread::scope(|scope| -> Result<StreamStats, E> {
            let (resident, peak) = (&resident, &peak);
            let reader = &mut self;
            scope.spawn(move || {
                // A consumed buffer comes back cleared. A closed channel
                // means the consumer bailed on an error.
                while let Ok(mut chunk) = recycle_rx.recv() {
                    match reader.next_chunk_into(&mut chunk) {
                        Ok(Some(mem)) => {
                            let now = resident.fetch_add(mem, Ordering::Relaxed) + mem;
                            peak.fetch_max(now, Ordering::Relaxed);
                            // A closed receiver means the consumer bailed on
                            // an earlier error; just stop decoding.
                            if tx.send(Ok((chunk, mem))).is_err() {
                                return;
                            }
                        }
                        Ok(None) => return,
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            });

            // Owned here, so an early return closes the channel and a
            // decoder waiting for a buffer stops.
            let recycle_tx = recycle_tx;
            let mut stats = StreamStats::default();
            for msg in rx {
                let (mut chunk, mem) = msg?;
                let consumed = consume(&chunk);
                resident.fetch_sub(mem, Ordering::Relaxed);
                consumed?;
                stats.events += chunk.len() as u64;
                stats.chunks += 1;
                chunk.clear();
                // Fails only once the decoder has finished.
                let _ = recycle_tx.send(chunk);
            }
            Ok(stats)
        })?;
        stats.peak_resident_bytes = peak.load(Ordering::Relaxed);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_trace_chunked;
    use spinrace_tir::{BlockId, FuncId, SpinLoopId};
    use spinrace_vm::{record_run, VmConfig};
    use std::time::Duration;

    /// The decoder's [`resident_bytes`] recomputed by a walk over the
    /// decoded events.
    fn chunk_mem(events: &[Event]) -> usize {
        let mut bytes = std::mem::size_of_val(events);
        for ev in events {
            if let Event::SpinExit { reads, .. } = ev {
                bytes += reads.len() * std::mem::size_of::<(u64, Pc)>();
            }
        }
        bytes
    }

    /// A recorded run with a `SpinExit` after every event, its read list
    /// cycling through lengths 0..=4, so chunks differ in heap footprint.
    fn spin_heavy() -> Trace {
        let mut trace = record_run(&crate::tests::handoff(), VmConfig::random(5), "spin").unwrap();
        let mut events = Vec::new();
        for (i, ev) in trace.events.drain(..).enumerate() {
            events.push(ev);
            let reads = (0..i % 5)
                .map(|k| {
                    (
                        0x100 + 8 * k as u64,
                        Pc::new(FuncId(1), BlockId(k as u32), 2),
                    )
                })
                .collect();
            events.push(Event::SpinExit {
                tid: 1,
                spin: SpinLoopId(i as u32 % 3),
                reads,
            });
        }
        trace.header.events = events.len() as u64;
        trace.events = events;
        trace
    }

    /// A byte source that counts what the decoder has pulled from it.
    struct Counting<'a> {
        bytes: &'a [u8],
        read: &'a AtomicUsize,
    }

    impl io::Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(buf)?;
            self.read.fetch_add(n, Ordering::Relaxed);
            Ok(n)
        }
    }

    #[test]
    fn next_chunk_into_a_reused_buffer_matches_next_chunk() {
        let trace = spin_heavy();
        for target in [1, 2, 3, 7] {
            let bytes = encode_trace_chunked(&trace, target);
            let mut fresh = ChunkedTraceReader::new(&bytes[..]).unwrap();
            let mut reused = ChunkedTraceReader::new(&bytes[..]).unwrap();
            // The buffer starts out, and stays, holding a stale chunk.
            let mut buf = trace.events[..3].to_vec();
            let mut decoded = Vec::new();
            loop {
                let stale = buf.clone();
                let more = reused.next_chunk_into(&mut buf).unwrap();
                assert_eq!(buf[..stale.len()], stale[..], "stale events were touched");
                match fresh.next_chunk().unwrap() {
                    Some(chunk) => {
                        assert_eq!(more, Some(chunk_mem(&chunk)));
                        assert_eq!(buf[stale.len()..], chunk[..], "target {target}");
                        decoded.extend_from_slice(&chunk);
                    }
                    None => {
                        assert_eq!(more, None);
                        assert_eq!(buf.len(), stale.len());
                        break;
                    }
                }
                buf.drain(..stale.len());
            }
            assert_eq!(decoded, trace.events);
        }
    }

    #[test]
    fn decode_ahead_keeps_at_most_two_decoded_chunks_resident() {
        let trace = spin_heavy();
        let bytes = encode_trace_chunked(&trace, 4);
        let mems: Vec<usize> = {
            let mut reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            std::iter::from_fn(|| reader.next_chunk().unwrap())
                .map(|chunk| chunk_mem(&chunk))
                .collect()
        };
        assert!(mems.len() >= 4, "needs several chunks");
        // A slow consumer lets the decoder run as far ahead as its two
        // buffers allow: one chunk being consumed, one decoded ahead. The
        // decoder's accounting happens before it waits, with nothing a
        // consumer can wait on, so the consumer sleeps (4-event chunks
        // decode in microseconds).
        let expected_peak = mems.windows(2).map(|w| w.iter().sum()).max().unwrap();
        let mut seen = Vec::new();
        let stats = ChunkedTraceReader::new(&bytes[..])
            .unwrap()
            .decode_ahead(|chunk| -> Result<(), TraceError> {
                std::thread::sleep(Duration::from_millis(25));
                seen.extend_from_slice(chunk);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, trace.events);
        assert_eq!(
            stats,
            StreamStats {
                events: trace.events.len() as u64,
                chunks: mems.len() as u32,
                peak_resident_bytes: expected_peak,
            }
        );
    }

    #[test]
    fn a_consumer_error_stops_the_decoder() {
        let trace = spin_heavy();
        let bytes = encode_trace_chunked(&trace, 1);
        let total = bytes.len();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // A stuck decoder would hang `decode_ahead`; the watchdog turns
        // that into a failure.
        std::thread::spawn(move || {
            let read = AtomicUsize::new(0);
            let src = Counting {
                bytes: &bytes,
                read: &read,
            };
            let mut calls = 0;
            let result =
                ChunkedTraceReader::new(src)
                    .unwrap()
                    .decode_ahead(|_| -> Result<(), TraceError> {
                        calls += 1;
                        if calls == 2 {
                            // Give the decoder time to use up both buffers and
                            // wait for one to come back.
                            std::thread::sleep(Duration::from_millis(50));
                            return Err(TraceError::Corrupt("consumer gave up".into()));
                        }
                        Ok(())
                    });
            let _ = done_tx.send((result, calls, read.load(Ordering::Relaxed)));
        });
        let (result, calls, pulled) = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("decode_ahead did not return after the consumer failed");
        assert!(matches!(result, Err(TraceError::Corrupt(m)) if m == "consumer gave up"));
        assert_eq!(calls, 2);
        // The decoder stopped a few chunks in instead of draining the
        // stream.
        assert!(pulled < total / 2, "decoder read {pulled} of {total} bytes");
    }
}
