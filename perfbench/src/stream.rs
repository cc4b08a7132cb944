//! Recorded, encoded workload streams and the offline replay op.

use crate::tracer::Tracer;
use spinrace_core::{DetectRequest, Session, Tool};
use spinrace_detector::{AnyDetector, MsmMode};
use spinrace_serve::outcome_json;
use spinrace_suites::{judge_outcome, prepared_for_replay};
use spinrace_tracefmt::{encode_trace, ChunkedTraceReader};
use spinrace_vm::EventSink;
use spinrace_workloads::{Oracle, WorkloadSpec};

/// Racy-context cap, as `trace replay` uses it.
const CAP: usize = 1000;

/// One generated workload, recorded and encoded to binary bytes.
pub struct Stream {
    pub oracle: Oracle,
    pub tool: Tool,
    pub msm: MsmMode,
    pub bytes: Vec<u8>,
    pub events: u64,
}

impl Stream {
    /// Generate the workload module, record one run under `tool` and
    /// encode it. The decoded trace is dropped before returning.
    pub fn record(
        spec: WorkloadSpec,
        tool: Tool,
        msm: MsmMode,
        t: &mut Tracer,
    ) -> Result<Stream, String> {
        let wl = t.call("workloads.build", |_| spec.build());
        let prepared = t
            .call("core.prepare", |_| {
                Session::for_module(&wl.module)
                    .vm_config(spec.vm_config())
                    .msm(msm)
                    .prepare(tool)
            })
            .map_err(|e| format!("prepare {}: {e}", spec.name()))?;
        let run = t
            .span(
                "core.execute",
                |_| prepared.execute(),
                |r| r.as_ref().map_or(0, |r| r.trace().events.len() as u64),
            )
            .map_err(|e| format!("record {}: {e}", spec.name()))?;
        let events = run.trace().events.len() as u64;
        let bytes = t.span("tracefmt.encode", |_| encode_trace(run.trace()), |_| events);
        Ok(Stream {
            oracle: wl.oracle,
            tool,
            msm,
            bytes,
            events,
        })
    }

    /// One full offline replay, as `trace replay --json` performs it:
    /// open the stream, rebind it to its module, run the streamed
    /// pipeline, render the outcome document and judge it against the
    /// oracle. Returns the rendered document.
    pub fn replay(&self, t: &mut Tracer) -> Result<String, String> {
        let reader = t
            .call("tracefmt.open", |_| {
                ChunkedTraceReader::new(&self.bytes[..])
            })
            .map_err(|e| format!("open: {e}"))?;
        let prepared = t
            .call("suites.rebind", |_| {
                prepared_for_replay(reader.header(), self.tool, self.msm, CAP)
            })
            .ok_or("rebind: the trace header names no rebuildable module")?;
        let req = DetectRequest::tool(self.tool).streamed();
        let (out, stats) = t
            .span(
                "core.stream",
                |_| prepared.try_run_streamed(&req, reader),
                |r| r.as_ref().map_or(0, |(_, s)| s.events),
            )
            .map_err(|e| format!("replay: {e}"))?;
        t.gauge("tracefmt.chunks", f64::from(stats.chunks));
        t.gauge("core.peak_resident_bytes", stats.peak_resident_bytes as f64);
        if stats.events != self.events {
            return Err(format!(
                "replay analysed {} of {} events",
                stats.events, self.events
            ));
        }
        let out = out.into_single();
        let doc = t
            .call("serve.outcome_json", |_| {
                serde_json::to_string_pretty(&outcome_json(&out))
            })
            .map_err(|e| format!("outcome json: {}", e.0))?
            + "\n";
        let verdict = t.call("suites.judge", |_| judge_outcome(&self.oracle, &out));
        if !verdict.pass() {
            return Err(format!("oracle violation: {verdict}"));
        }
        Ok(doc)
    }

    /// Single-thread decode: drain `next_chunk` over the bytes.
    pub fn probe_decode(&self, t: &mut Tracer) -> Result<(), String> {
        let decoded = t.span(
            "probe.decode",
            |_| -> Result<u64, String> {
                let mut reader =
                    ChunkedTraceReader::new(&self.bytes[..]).map_err(|e| e.to_string())?;
                let mut n = 0u64;
                while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
                    n += chunk.len() as u64;
                }
                Ok(n)
            },
            |r| *r.as_ref().unwrap_or(&0),
        )?;
        if decoded != self.events {
            return Err(format!("decoded {decoded} of {} events", self.events));
        }
        Ok(())
    }

    /// Detection alone: a fresh detector fed the decoded event slice.
    /// Its racy contexts must match the oracle.
    pub fn probe_detect(&self, t: &mut Tracer) -> Result<(), String> {
        let trace = ChunkedTraceReader::new(&self.bytes[..])
            .and_then(|r| r.read_all())
            .map_err(|e| format!("decode: {e}"))?;
        let det = t.span(
            "probe.detect",
            |_| {
                let mut det = AnyDetector::new(self.tool.detector_config(self.msm, CAP));
                for ev in &trace.events {
                    det.on_event(ev);
                }
                det
            },
            |_| trace.events.len() as u64,
        );
        t.gauge("detector.shadow_bytes", det.shadow_resident_bytes() as f64);
        t.gauge("detector.contexts", det.racy_contexts() as f64);
        let expected = self.oracle.expected_for(self.tool.is_predictive()).len();
        if det.racy_contexts() != expected {
            return Err(format!(
                "detector found {} racy contexts, the oracle expects {expected}",
                det.racy_contexts()
            ));
        }
        Ok(())
    }
}
