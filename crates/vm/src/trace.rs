//! Record-once / replay-everywhere: the recorded [`Trace`] artifact.
//!
//! A trace is the VM's full event stream for one deterministic run of one
//! prepared module, together with a versioned header (module fingerprint,
//! VM configuration, producer label) and the run's [`RunSummary`]. Given
//! the same prepared module and VM configuration the VM is bit-identical,
//! so a trace replayed into a detector is equivalent to attaching that
//! detector live — which is what lets one execution fan out to many
//! detector configurations (window sweeps, ablations, fast-vs-reference
//! differentials) without re-interpreting the program.
//!
//! * [`TraceRecorder`] is an [`EventSink`] that buffers the stream and
//!   seals it into a [`Trace`] with [`TraceRecorder::finish`]. Tee it with
//!   a detector to record and detect in one run.
//! * [`record_run`] is the one-call convenience: execute and record.
//!
//! The on-disk encoding is the binary columnar format of
//! `spinrace-tracefmt`, which embeds [`TraceHeader`] and [`RunSummary`]
//! as JSON and validates the format version and the header/stream
//! event-count agreement while decoding.

use crate::error::VmError;
use crate::events::{Event, EventSink};
use crate::exec::{run_module, RunSummary, VmConfig};
use crate::sched::SchedulerKind;
use serde::{Deserialize, Serialize};
use spinrace_tir::Module;
use std::fmt;

/// Current trace encoding version. Bump on any change to [`TraceHeader`]
/// (or its serde encoding), to [`Event`], or to what
/// [`Module::fingerprint`] hashes. Version 2: the fingerprint hashes the
/// IR structurally instead of its textual rendering.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Versioned metadata describing how a trace was produced.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Encoding version ([`TRACE_FORMAT_VERSION`] at record time).
    pub version: u32,
    /// Name of the *prepared* module that was executed.
    pub module_name: String,
    /// [`Module::fingerprint`] of the prepared module: a structural hash
    /// of its IR and spin table (window excluded; an empty table counts
    /// as none) since version 2. Replaying under a detector only makes
    /// sense against the same prepared program; the fingerprint is also
    /// the sharing key for trace caches (tools whose preparation produced
    /// the same module share one trace).
    pub module_fingerprint: u64,
    /// Producer label, e.g. a tool label like `Helgrind+ lib+spin(7)`.
    /// Free-form; empty when recorded straight from the VM.
    pub tool_label: String,
    /// The VM configuration of the run (scheduler + seed included).
    pub vm: VmConfig,
    /// Number of events in the stream (validated when parsing).
    pub events: u64,
}

impl TraceHeader {
    /// The scheduler seed, for seeded-random runs.
    pub fn seed(&self) -> Option<u64> {
        match self.vm.sched {
            SchedulerKind::Random(seed) => Some(seed),
            SchedulerKind::RoundRobin => None,
        }
    }
}

/// A recorded execution: header, run statistics, and the event stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Provenance and validation metadata.
    pub header: TraceHeader,
    /// Statistics of the recorded run.
    pub summary: RunSummary,
    /// The full event stream, in execution order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Feed the stream to `sink` exactly as the live run did: every event
    /// by reference, in execution order.
    pub fn replay(&self, sink: &mut dyn EventSink) {
        for ev in &self.events {
            sink.on_event(ev);
        }
    }
}

/// Trace decoding failures of the binary format of `spinrace-tracefmt`,
/// shared by whole-trace decoding, streamed replay and the analysis
/// server, so every load path surfaces the same structured errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The embedded header or summary block is not a valid JSON document
    /// of the expected shape (a wrong-typed or missing field, a `null`
    /// block, a cut-off document).
    Json(String),
    /// The trace was recorded with an unsupported format version.
    Version {
        /// Version in the parsed header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The header's event count disagrees with the stream (truncation).
    EventCount {
        /// Count claimed by the header.
        header: u64,
        /// Events actually present.
        actual: u64,
    },
    /// The input does not start with the binary trace magic — wrong
    /// file (a JSON document included), or the first bytes were
    /// destroyed.
    Magic,
    /// A binary chunk's stored checksum disagrees with its contents:
    /// corruption localized to one chunk, detected before any of its
    /// events are handed to a detector.
    Checksum {
        /// Zero-based index of the corrupt chunk.
        chunk: u32,
    },
    /// The binary stream holds a different number of chunks than its
    /// header block claims (truncated mid-stream, or trailing garbage).
    ChunkCount {
        /// Chunk count claimed by the header block.
        header: u32,
        /// Chunks actually present before the stream ended or broke.
        actual: u32,
    },
    /// Structural corruption inside an otherwise-framed binary block
    /// (bad column lengths, out-of-range dictionary index, overlong
    /// varint, …).
    Corrupt(String),
    /// An I/O failure while streaming the trace from its source.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(m) => write!(f, "malformed trace: {m}"),
            TraceError::Version { found, supported } => {
                write!(f, "trace format version {found} (supported: {supported})")
            }
            TraceError::EventCount { header, actual } => {
                write!(
                    f,
                    "trace truncated: header says {header} events, found {actual}"
                )
            }
            TraceError::Magic => write!(f, "not a trace file: bad magic bytes"),
            TraceError::Checksum { chunk } => {
                write!(f, "trace chunk {chunk} is corrupt (checksum mismatch)")
            }
            TraceError::ChunkCount { header, actual } => {
                write!(
                    f,
                    "trace truncated: header says {header} chunk(s), found {actual}"
                )
            }
            TraceError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            TraceError::Io(m) => write!(f, "trace read failed: {m}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// An [`EventSink`] that buffers the stream for a [`Trace`]. Use directly
/// (teed with a detector) or through [`record_run`].
pub struct TraceRecorder {
    module_name: String,
    module_fingerprint: u64,
    tool_label: String,
    vm: VmConfig,
    events: Vec<Event>,
}

impl TraceRecorder {
    /// Recorder for one run of (prepared) `m` under `vm`. `fingerprint`
    /// is `m.fingerprint()`, which the caller has already computed.
    pub fn new(m: &Module, fingerprint: u64, vm: VmConfig) -> TraceRecorder {
        debug_assert_eq!(fingerprint, m.fingerprint(), "stale fingerprint");
        TraceRecorder {
            module_name: m.name.clone(),
            module_fingerprint: fingerprint,
            tool_label: String::new(),
            vm,
            events: Vec::new(),
        }
    }

    /// Tag the trace with a producer label (e.g. a tool label).
    pub fn labeled(mut self, label: impl Into<String>) -> TraceRecorder {
        self.tool_label = label.into();
        self
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True before the first event.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Seal the recording into a [`Trace`].
    pub fn finish(self, summary: RunSummary) -> Trace {
        Trace {
            header: TraceHeader {
                version: TRACE_FORMAT_VERSION,
                module_name: self.module_name,
                module_fingerprint: self.module_fingerprint,
                tool_label: self.tool_label,
                vm: self.vm,
                events: self.events.len() as u64,
            },
            summary,
            events: self.events,
        }
    }
}

impl EventSink for TraceRecorder {
    fn on_event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

/// Execute `m` under `vm` and record the run as a labeled [`Trace`].
pub fn record_run(m: &Module, vm: VmConfig, label: impl Into<String>) -> Result<Trace, VmError> {
    let mut rec = TraceRecorder::new(m, m.fingerprint(), vm).labeled(label);
    let summary = run_module(m, vm, &mut rec)?;
    Ok(rec.finish(summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingSink;
    use spinrace_tir::ModuleBuilder;

    fn handoff() -> Module {
        let mut mb = ModuleBuilder::new("trace-test");
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
    fn record_replay_reproduces_the_stream() {
        let m = handoff();
        let trace = record_run(&m, VmConfig::round_robin(), "test").unwrap();
        assert_eq!(trace.header.module_fingerprint, m.fingerprint());
        assert_eq!(trace.header.events as usize, trace.events.len());
        let mut sink = RecordingSink::default();
        trace.replay(&mut sink);
        assert_eq!(sink.events, trace.events);
    }
}
