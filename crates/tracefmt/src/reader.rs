//! Chunked streaming reader: decode one slice ahead of the consumer.
//!
//! [`ChunkedTraceReader`] wraps any [`io::Read`] source, parses and
//! validates the header block eagerly (magic, binary version, embedded
//! trace header, checksum), then hands out decoded chunks one at a time.
//! Reading a chunk is two steps: its frame is read and checksummed
//! whole, then a resumable [`ChunkDecoder`] decodes its events. Whole
//! chunks ([`ChunkedTraceReader::next_chunk`], [`ChunkedTraceReader::read_all`])
//! run the decoder to the chunk's end in one call.
//! [`ChunkedTraceReader::decode_ahead`] feeds a consumer directly from
//! the stream with a decode-ahead thread that hands out slices of at
//! most 16,384 events: while the consumer handles slice *k*, slice *k+1*
//! is being decoded (and the next chunk read and checksummed), so replay
//! starts before the file has been fully read and peak memory stays
//! bounded by two slices — O(slice), not O(chunk) or O(trace).

use crate::chunk::{ChunkDecoder, NUM_COLUMNS};
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
/// Most events [`ChunkedTraceReader::decode_ahead`] hands its consumer
/// at once: a slice of a chunk, so the pipeline's two in-flight buffers
/// stay well below two 64k-event chunks.
const SLICE_EVENTS: usize = 16_384;

/// Statistics of one streamed replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events delivered to the consumer.
    pub events: u64,
    /// Chunks decoded and consumed (a chunk counts once, however many
    /// slices it was handed out in).
    pub chunks: u32,
    /// High-water mark of decoded-but-not-yet-consumed event memory
    /// (bytes), across the decode-ahead pipeline: at most two slices'
    /// worth, the one being consumed and the one decoded ahead, so
    /// O(slice) whatever the chunk size; a whole-trace decode would make
    /// it O(trace).
    pub peak_resident_bytes: usize,
}

/// Approximate heap footprint of `events` decoded events whose
/// `SpinExit`s carry `spin_reads` reads in all — what the streaming
/// pipeline holds resident per in-flight slice.
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
        let Some(frame) = self.next_frame()? else {
            return Ok(None);
        };
        let before = out.len();
        let cols = frame.columns(&self.raw);
        let decoded = ChunkDecoder::new(frame.events, &cols).and_then(|mut dec| {
            let spin_reads = dec.decode(frame.events, out, &mut self.threads)?;
            dec.finish()?;
            Ok(spin_reads)
        });
        match decoded {
            Ok(spin_reads) => {
                self.chunk_done(frame.events);
                Ok(Some(resident_bytes(frame.events, spin_reads)))
            }
            Err(e) => {
                out.truncate(before);
                Err(e)
            }
        }
    }

    /// Count a fully decoded and validated chunk of `events` events.
    fn chunk_done(&mut self, events: usize) {
        self.chunks_read += 1;
        self.events_read += events as u64;
    }

    /// Read and checksum the next chunk's frame into `self.raw`, or
    /// `Ok(None)` once the stream is complete and validated (event total,
    /// no trailing bytes). Nothing of the chunk is decoded yet.
    fn next_frame(&mut self) -> Result<Option<Frame>, TraceError> {
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
        match self.read_frame() {
            Ok(frame) => Ok(Some(frame)),
            // A chunk interrupted by EOF — anywhere inside it — is stream
            // truncation, reported as the chunk-count shortfall.
            Err(TraceError::Corrupt(m)) if m == "unexpected end of stream" => Err(self.truncated()),
            Err(e) => Err(e),
        }
    }

    /// Read one chunk's framing into `self.raw` and verify its checksum.
    fn read_frame(&mut self) -> Result<Frame, TraceError> {
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
        Ok(Frame {
            events: n as usize,
            spans,
        })
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

    /// Drive `consume` over the stream in slices of at most 16,384
    /// events, decoded ahead on a worker thread — the one streaming
    /// pipeline every streamed replay runs on.
    ///
    /// A scoped worker thread reads each chunk, verifies its checksum,
    /// and only then decodes it slice by slice with a resumable
    /// [`ChunkDecoder`]; the caller's thread hands each slice to
    /// `consume`, in stream order. [`DecodedSlice::ends_chunk`] marks the
    /// last slice of each chunk, which goes out only after the chunk's
    /// trailing-bytes checks have passed. A chunk smaller than a slice is
    /// one slice. The decoder owns two slice buffers, both allocated at
    /// full size on its own thread before its first slice: it decodes
    /// into one while the caller consumes the other, and each consumed
    /// buffer goes back to it on a second channel. So at most two
    /// decoded slices are resident at once — peak memory is O(slice)
    /// regardless of trace and chunk length — and no slice allocates its
    /// event vector afresh.
    ///
    /// The first error, from the decoder or from `consume`, ends the
    /// stream: the channels close and the decoder stops. Errors come in
    /// stream order. A chunk whose checksum fails hands out no slice, so
    /// its checksum error wins over any error `consume` would have
    /// raised on its events. A structural fault inside a chunk that
    /// passed its checksum (a forged or re-checksummed file) surfaces
    /// when the decoder reaches it, after the chunk's earlier slices have
    /// been consumed: a limit in `consume` that trips on one of those
    /// slices (an event budget, a watchdog) wins, and the fault is never
    /// reported. Otherwise the fault is the same [`TraceError`]
    /// [`Self::read_all`] gives on the same bytes. The returned
    /// [`StreamStats`] count the consumed events and chunks and report
    /// the observed high-water mark.
    pub fn decode_ahead<E, F>(mut self, mut consume: F) -> Result<StreamStats, E>
    where
        R: Send,
        E: From<TraceError>,
        F: FnMut(&DecodedSlice) -> Result<(), E>,
    {
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (tx, rx) = sync_channel::<Result<DecodedSlice, TraceError>>(1);
        // Consumed buffers go back to the decoder here; room for both, so
        // returning one never blocks.
        let (recycle_tx, recycle_rx) = sync_channel::<Vec<Event>>(2);
        let capacity = SLICE_EVENTS.min(self.header.events.try_into().unwrap_or(usize::MAX));

        let mut stats = std::thread::scope(|scope| -> Result<StreamStats, E> {
            let (resident, peak) = (&resident, &peak);
            let reader = &mut self;
            scope.spawn(move || {
                // Both buffers are allocated at full size before the first
                // slice, on the thread that fills them.
                let mut fresh = vec![Vec::with_capacity(capacity), Vec::with_capacity(capacity)];
                let buffers = || fresh.pop().or_else(|| recycle_rx.recv().ok());
                // A send or a buffer wait fails only once the consumer has
                // bailed on an error; then just stop decoding.
                let handed = reader.decode_slices(buffers, |events, spin_reads, ends_chunk| {
                    let mem = resident_bytes(events.len(), spin_reads);
                    let now = resident.fetch_add(mem, Ordering::Relaxed) + mem;
                    peak.fetch_max(now, Ordering::Relaxed);
                    tx.send(Ok(DecodedSlice {
                        events,
                        mem,
                        ends_chunk,
                    }))
                    .is_ok()
                });
                if let Err(e) = handed {
                    let _ = tx.send(Err(e));
                }
            });

            // Owned here, so an early return closes the channel and a
            // decoder waiting for a buffer stops.
            let recycle_tx = recycle_tx;
            let mut stats = StreamStats::default();
            for msg in rx {
                let slice = msg?;
                let consumed = consume(&slice);
                resident.fetch_sub(slice.mem, Ordering::Relaxed);
                consumed?;
                stats.events += slice.events.len() as u64;
                stats.chunks += u32::from(slice.ends_chunk);
                let mut events = slice.events;
                events.clear();
                // Fails only once the decoder has finished.
                let _ = recycle_tx.send(events);
            }
            Ok(stats)
        })?;
        stats.peak_resident_bytes = peak.load(Ordering::Relaxed);
        Ok(stats)
    }

    /// The decoder thread's half of [`Self::decode_ahead`]: frame and
    /// checksum each chunk, then decode it in slices of at most
    /// [`SLICE_EVENTS`] into empty buffers taken from `buffers`, and pass
    /// each filled buffer to `hand` with its spin-read count and whether
    /// it ends the chunk. Stops early, with `Ok`, when `buffers` has none
    /// left or `hand` returns `false`.
    fn decode_slices<B, H>(&mut self, mut buffers: B, mut hand: H) -> Result<(), TraceError>
    where
        B: FnMut() -> Option<Vec<Event>>,
        H: FnMut(Vec<Event>, usize, bool) -> bool,
    {
        while let Some(frame) = self.next_frame()? {
            let cols = frame.columns(&self.raw);
            let mut dec = ChunkDecoder::new(frame.events, &cols)?;
            loop {
                let Some(mut events) = buffers() else {
                    return Ok(());
                };
                let spin_reads = dec.decode(SLICE_EVENTS, &mut events, &mut self.threads)?;
                let ends_chunk = dec.remaining() == 0;
                if ends_chunk {
                    dec.finish()?;
                }
                if !hand(events, spin_reads, ends_chunk) {
                    return Ok(());
                }
                if ends_chunk {
                    break;
                }
            }
            self.chunk_done(frame.events);
        }
        Ok(())
    }
}

/// One chunk's frame, read into the reader's framing buffer and
/// checksummed.
struct Frame {
    /// The framed event count.
    events: usize,
    /// Where each column block sits in the framing buffer.
    spans: [Range<usize>; NUM_COLUMNS],
}

impl Frame {
    /// The column blocks, resolved against the framing buffer `raw`.
    fn columns<'r>(&self, raw: &'r [u8]) -> [&'r [u8]; NUM_COLUMNS] {
        std::array::from_fn(|i| &raw[self.spans[i].clone()])
    }
}

/// Consecutive decoded events of one chunk, as
/// [`ChunkedTraceReader::decode_ahead`] hands them to its consumer.
/// Dereferences to the events.
#[derive(Debug)]
pub struct DecodedSlice {
    events: Vec<Event>,
    /// Its [`resident_bytes`].
    mem: usize,
    ends_chunk: bool,
}

impl DecodedSlice {
    /// Whether this is the last slice of its chunk.
    pub fn ends_chunk(&self) -> bool {
        self.ends_chunk
    }
}

impl std::ops::Deref for DecodedSlice {
    type Target = [Event];

    fn deref(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_trace_chunked;
    use crate::MAGIC;
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

    /// A trace of `n` events of thread 0 alone: writes and reads over a
    /// few words, and a `SpinExit` carrying 0..=4 reads every seventh
    /// event, so slices differ in heap footprint.
    fn long_trace(n: usize) -> Trace {
        let mut trace = spin_heavy();
        let pc = |i: usize| Pc::new(FuncId(0), BlockId(i as u32 % 3), 1);
        trace.events = (0..n)
            .map(|i| match i % 7 {
                0 => Event::SpinExit {
                    tid: 0,
                    spin: SpinLoopId(1),
                    reads: (0..i % 5).map(|k| (8 * k as u64, pc(k))).collect(),
                },
                1 | 2 => Event::Read {
                    tid: 0,
                    addr: 8 * (i % 64) as u64,
                    value: i as i64,
                    pc: pc(i),
                    stack: i as u64 % 5,
                    atomic: None,
                    spin: None,
                },
                _ => Event::Write {
                    tid: 0,
                    addr: 8 * (i % 64) as u64,
                    value: -(i as i64),
                    pc: pc(i),
                    stack: i as u64 % 5,
                    atomic: None,
                },
            })
            .collect();
        trace.header.events = n as u64;
        trace
    }

    /// Every chunk frame of an encoded trace: the frame's byte range
    /// (checksum included) and its column blocks' ranges.
    fn chunk_frames(bytes: &[u8]) -> Vec<(Range<usize>, Vec<Range<usize>>)> {
        let mut pos = MAGIC.len() + 4;
        for _ in 0..2 {
            let len = get_uvarint(bytes, &mut pos).unwrap() as usize;
            pos += len;
        }
        let chunks = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 16;
        let mut frames = Vec::new();
        for _ in 0..chunks {
            let start = pos;
            pos += 4;
            let ncols = get_uvarint(bytes, &mut pos).unwrap();
            let mut cols = Vec::new();
            for _ in 0..ncols {
                let len = get_uvarint(bytes, &mut pos).unwrap() as usize;
                cols.push(pos..pos + len);
                pos += len;
            }
            pos += 8;
            frames.push((start..pos, cols));
        }
        assert_eq!(pos, bytes.len(), "walked past the framing");
        frames
    }

    /// Drive `decode_ahead` over `bytes`, returning the result and every
    /// event the consumer was handed.
    fn consume_all(bytes: &[u8]) -> (Result<StreamStats, TraceError>, Vec<Event>) {
        let mut seen = Vec::new();
        let result = ChunkedTraceReader::new(bytes).unwrap().decode_ahead(
            |slice| -> Result<(), TraceError> {
                seen.extend_from_slice(slice);
                Ok(())
            },
        );
        (result, seen)
    }

    #[test]
    fn decode_ahead_hands_out_chunks_in_slices() {
        let chunk = 3 * SLICE_EVENTS + 100;
        let trace = long_trace(2 * chunk + 5000);
        let bytes = encode_trace_chunked(&trace, chunk);
        let whole_chunk_mem = {
            let mut reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            chunk_mem(&reader.next_chunk().unwrap().unwrap())
        };
        let mut seen = Vec::new();
        let mut slices = Vec::new();
        let stats = ChunkedTraceReader::new(&bytes[..])
            .unwrap()
            .decode_ahead(|slice| -> Result<(), TraceError> {
                // A slow consumer lets the decoder fill its second buffer.
                std::thread::sleep(Duration::from_millis(5));
                slices.push((slice.len(), slice.ends_chunk(), chunk_mem(slice)));
                seen.extend_from_slice(slice);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, trace.events, "every event, in order");
        // Each chunk is cut into full slices and a remainder, and only its
        // last slice ends it.
        let expected: Vec<(usize, bool)> = trace
            .events
            .chunks(chunk)
            .flat_map(|c| {
                let k = c.len().div_ceil(SLICE_EVENTS);
                (0..k).map(move |i| ((c.len() - i * SLICE_EVENTS).min(SLICE_EVENTS), i + 1 == k))
            })
            .collect();
        let got: Vec<(usize, bool)> = slices.iter().map(|&(len, end, _)| (len, end)).collect();
        assert_eq!(got, expected);
        assert_eq!(stats.events, trace.events.len() as u64);
        assert_eq!(stats.chunks, 3, "chunks are counted, not slices");
        // At most two slices are resident, well under one whole chunk.
        let two_slices = slices.windows(2).map(|w| w[0].2 + w[1].2).max().unwrap();
        assert!(stats.peak_resident_bytes <= two_slices, "{stats:?}");
        assert!(stats.peak_resident_bytes >= slices.iter().map(|s| s.2).max().unwrap());
        assert!(two_slices < whole_chunk_mem);
    }

    #[test]
    fn a_chunk_failing_its_checksum_hands_out_no_slice() {
        let chunk = 2 * SLICE_EVENTS + 100;
        let trace = long_trace(3 * chunk);
        let mut bytes = encode_trace_chunked(&trace, chunk);
        // A flipped kind byte in chunk 1's second slice.
        let kinds = chunk_frames(&bytes)[1].1[0].clone();
        bytes[kinds.start + SLICE_EVENTS + 10] ^= 0x04;
        let (result, seen) = consume_all(&bytes);
        assert_eq!(result, Err(TraceError::Checksum { chunk: 1 }));
        assert_eq!(seen, trace.events[..chunk], "only chunk 0 was handed out");
    }

    #[test]
    fn a_structural_fault_behind_a_valid_checksum_fails_like_read_all() {
        let chunk = 2 * SLICE_EVENTS + 100;
        let fault_at = chunk + SLICE_EVENTS + 10;
        // An unknown event tag, the chunk re-checksummed after the damage.
        let trace = long_trace(3 * chunk);
        let mut bad_tag = encode_trace_chunked(&trace, chunk);
        let (frame, cols) = chunk_frames(&bad_tag)[1].clone();
        bad_tag[cols[0].start + SLICE_EVENTS + 10] = 0x1f;
        let sum = checksum(&bad_tag[frame.start..frame.end - 8]);
        bad_tag[frame.end - 8..frame.end].copy_from_slice(&sum.to_le_bytes());
        // A thread that was never spawned, encoded with a valid checksum.
        let mut forged = trace.clone();
        if let Event::Write { tid, .. } | Event::Read { tid, .. } = &mut forged.events[fault_at] {
            *tid = 1000;
        }
        let bad_tid = encode_trace_chunked(&forged, chunk);

        for (bytes, message) in [
            (
                bad_tag,
                format!("unknown event tag 31 at chunk offset {}", SLICE_EVENTS + 10),
            ),
            (bad_tid, "thread 1000 was never spawned".to_string()),
        ] {
            let expected = Err(TraceError::Corrupt(message));
            let whole = ChunkedTraceReader::new(&bytes[..]).unwrap().read_all();
            assert_eq!(whole.map(|_| ()), expected);
            // The chunk's slices before the fault were consumed; the one
            // holding it was not.
            let (result, seen) = consume_all(&bytes);
            assert_eq!(result.map(|_| ()), expected);
            assert_eq!(seen, trace.events[..chunk + SLICE_EVENTS]);
            // A consumer error on an earlier slice of that chunk wins.
            let mut slices = 0;
            let result = ChunkedTraceReader::new(&bytes[..]).unwrap().decode_ahead(
                |_| -> Result<(), TraceError> {
                    slices += 1;
                    match slices {
                        4 => Err(TraceError::Corrupt("consumer limit".into())),
                        _ => Ok(()),
                    }
                },
            );
            assert_eq!(result, Err(TraceError::Corrupt("consumer limit".into())));
        }
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
