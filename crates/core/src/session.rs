//! The staged session API: **prepare once, then detect live, or execute
//! once and detect many**.
//!
//! [`Session`] holds the run configuration (MSM flavour, VM config,
//! context cap, nolib library style) and stages the pipeline explicitly:
//!
//! 1. [`Session::prepare`] applies a tool's static phases (nolib lowering,
//!    spin instrumentation) and yields a [`PreparedModule`];
//! 2. [`PreparedModule::try_run`] executes a [`DetectRequest`] **live**:
//!    the VM runs once and hands its events straight to the request's
//!    detectors, with nothing recorded;
//! 3. or [`PreparedModule::execute`] interprets the prepared module once
//!    and records the event stream as a replayable [`Trace`] inside an
//!    [`ExecutedRun`], and [`ExecutedRun::run`] executes any number of
//!    requests against it — each replay is equivalent to the live run
//!    (the VM hands events to sinks by reference, synchronously, and
//!    detectors are deterministic).
//!
//! [`PreparedModule::try_run_streamed`] executes the same request
//! against a binary trace stream without materializing it. All three
//! ways run a request through the one detection loop in
//! [`crate::limits`], with the same targets, labels, watchdog and
//! budgets.
//!
//! Because the VM is deterministic, two tools whose preparation produced
//! the same module (same [`Module::fingerprint`]) see the same stream —
//! e.g. `Helgrind+ lib` and `DRD` (neither rewrites the module), or two
//! spin windows that accepted the same loops. Harnesses exploit this by
//! running one multi-target request per distinct fingerprint.

use crate::limits::{EngineError, ReplayLoop};
use crate::request::{DetectOutcome, DetectRequest, DetectTarget};
use crate::{AnalysisOutcome, AnalyzeError, DescribedReport, Tool};
use spinrace_detector::{AnyDetector, DetectorConfig, MsmMode};
use spinrace_spinfind::{LibraryAnalysis, SpinFinder};
use spinrace_synclib::{library_functions, lower_to_spinlib_styled, LibStyle};
use spinrace_tir::Module;
use spinrace_tracefmt::{ChunkedTraceReader, StreamStats};
use spinrace_vm::{
    run_module, EventSink, NullSink, RunSummary, Tee, Trace, TraceRecorder, VmConfig,
};
use std::io;
use std::sync::OnceLock;

/// A configured analysis session over one source module.
#[derive(Clone, Copy, Debug)]
pub struct Session<'m> {
    module: &'m Module,
    msm: MsmMode,
    vm: VmConfig,
    context_cap: usize,
    nolib_style: LibStyle,
}

impl<'m> Session<'m> {
    /// Session with the defaults: short MSM, round-robin scheduling,
    /// cap 1000, textbook nolib primitives.
    pub fn for_module(module: &'m Module) -> Session<'m> {
        Session {
            module,
            msm: MsmMode::Short,
            vm: VmConfig::round_robin(),
            context_cap: 1000,
            nolib_style: LibStyle::Textbook,
        }
    }

    /// Select the memory state machine flavour (hybrid tools).
    pub fn msm(mut self, msm: MsmMode) -> Self {
        self.msm = msm;
        self
    }

    /// Switch to the long-running MSM (integration-test mode).
    pub fn long_msm(self) -> Self {
        self.msm(MsmMode::Long)
    }

    /// Use a seeded random scheduler.
    pub fn seed(mut self, seed: u64) -> Self {
        self.vm = VmConfig::random(seed);
        self
    }

    /// Override the VM configuration wholesale.
    pub fn vm_config(mut self, vm: VmConfig) -> Self {
        self.vm = vm;
        self
    }

    /// Override the racy-context cap.
    pub fn cap(mut self, cap: usize) -> Self {
        self.context_cap = cap;
        self
    }

    /// Library flavour used when lowering for `nolib` tools.
    pub fn nolib_style(mut self, style: LibStyle) -> Self {
        self.nolib_style = style;
        self
    }

    /// Run `tool`'s static phases: lower the module for `nolib` tools,
    /// instrument spin loops for `+spin` tools.
    ///
    /// A `nolib` preparation does not rebuild or re-analyse the spin
    /// library: each [`LibStyle`]'s library is built and analysed once per
    /// process, with no window bound, and both results are spliced into
    /// the lowered module (ids shifted past its own functions, verdicts
    /// projected to the tool's window). The prepared module equals a
    /// from-scratch lowering and analysis.
    pub fn prepare(&self, tool: Tool) -> Result<PreparedModule, AnalyzeError> {
        let (module, spin_loops_found) = match tool {
            Tool::HelgrindNolibSpin { window } => {
                let mut module = lower_to_spinlib_styled(self.module, self.nolib_style)?;
                let analysis = SpinFinder::with_window(window)
                    .analyze_with_library(&module, spin_library(self.nolib_style));
                let found = analysis.accepted();
                module.spin = Some(analysis.table);
                (module, found)
            }
            Tool::HelgrindLibSpin { window } => {
                let mut module = self.module.clone();
                let found = SpinFinder::with_window(window)
                    .instrument(&mut module)
                    .accepted();
                (module, found)
            }
            _ => (self.module.clone(), 0),
        };
        let fingerprint = module.fingerprint();
        Ok(PreparedModule {
            original_name: self.module.name.clone(),
            tool,
            module,
            fingerprint,
            spin_loops_found,
            msm: self.msm,
            vm: self.vm,
            context_cap: self.context_cap,
        })
    }
}

/// The spin library of `style`, analysed once per process with no window
/// bound: one entry per style, whatever windows preparations ask for.
fn spin_library(style: LibStyle) -> &'static LibraryAnalysis {
    static TEXTBOOK: OnceLock<LibraryAnalysis> = OnceLock::new();
    static OBSCURE: OnceLock<LibraryAnalysis> = OnceLock::new();
    let cell = match style {
        LibStyle::Textbook => &TEXTBOOK,
        LibStyle::Obscure => &OBSCURE,
    };
    cell.get_or_init(|| LibraryAnalysis::new(library_functions(style)))
}

/// A module after a tool's static phases, ready to execute. Carries the
/// session knobs so detection configurations can be derived later.
#[derive(Clone, Debug)]
pub struct PreparedModule {
    original_name: String,
    tool: Tool,
    module: Module,
    fingerprint: u64,
    spin_loops_found: usize,
    msm: MsmMode,
    vm: VmConfig,
    context_cap: usize,
}

impl PreparedModule {
    /// The prepared (lowered/instrumented) module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The tool whose phases produced this module.
    pub fn tool(&self) -> Tool {
        self.tool
    }

    /// Spinning read loops accepted by the instrumentation phase.
    pub fn spin_loops_found(&self) -> usize {
        self.spin_loops_found
    }

    /// Structural fingerprint of the prepared module (computed once at
    /// prepare time) — the sharing key for trace caches: prepared modules
    /// with equal fingerprints produce identical event streams under the
    /// same VM configuration.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The VM configuration the session selected.
    pub fn vm_config(&self) -> VmConfig {
        self.vm
    }

    /// Detector configuration for `tool` under this session's MSM flavour
    /// and context cap.
    pub fn config_for(&self, tool: Tool) -> DetectorConfig {
        tool.detector_config(self.msm, self.context_cap)
    }

    /// Detector configuration for this module's own tool.
    pub fn default_config(&self) -> DetectorConfig {
        self.config_for(self.tool)
    }

    /// Interpret the module once, recording the full event stream.
    pub fn execute(self) -> Result<ExecutedRun, AnalyzeError> {
        let mut rec =
            TraceRecorder::new(&self.module, self.fingerprint, self.vm).labeled(self.tool.label());
        let summary = run_module(&self.module, self.vm, &mut rec)?;
        Ok(ExecutedRun {
            trace: rec.finish(summary),
            prepared: self,
        })
    }

    /// Execute a [`DetectRequest`] **live**: interpret the module once
    /// with the request's detection loop as the VM's sink, so no event is
    /// recorded. Targets, labels, watchdog and budgets behave exactly as
    /// on [`ExecutedRun::try_run`] over a recording of the same run, and a
    /// tripped watchdog or shadow budget stops the VM (see
    /// [`crate::limits`]).
    ///
    /// Fails with [`AnalyzeError::Vm`] when the program itself fails, and
    /// with [`AnalyzeError::Engine`] on a tripped limit.
    pub fn try_run(&self, req: &DetectRequest) -> Result<DetectOutcome, AnalyzeError> {
        Ok(self.run_live(req, &mut NullSink)?.0)
    }

    /// Interpret the module once with its own tool detecting live **and**
    /// a trace recorder teed in front of the detection loop: one run
    /// yields both the outcome and a replayable [`Trace`] for further
    /// fan-out.
    pub fn execute_detecting(self) -> Result<(ExecutedRun, AnalysisOutcome), AnalyzeError> {
        let mut rec =
            TraceRecorder::new(&self.module, self.fingerprint, self.vm).labeled(self.tool.label());
        let (outcome, summary) = self.run_live(&DetectRequest::own(), &mut rec)?;
        Ok((
            ExecutedRun {
                trace: rec.finish(summary),
                prepared: self,
            },
            outcome.into_single(),
        ))
    }

    /// One VM run feeding `tap`, then the request's detection loop.
    fn run_live<S: EventSink>(
        &self,
        req: &DetectRequest,
        tap: &mut S,
    ) -> Result<(DetectOutcome, RunSummary), AnalyzeError> {
        // A live stream's length is known only once the VM stops.
        let (labels, mut replay) = self.start_replay(req, u64::MAX);
        let summary = run_module(&self.module, self.vm, &mut Tee::new(tap, &mut replay))?;
        let outcome = self.finish_replay(labels, replay, &summary)?;
        Ok((outcome, summary))
    }

    /// Resolve a request's targets against this prepared module into
    /// their tool labels, in request order, and a replay loop over one
    /// detector per target for a `total`-event stream.
    fn start_replay(&self, req: &DetectRequest, total: u64) -> (Vec<String>, ReplayLoop) {
        let (labels, cfgs): (Vec<String>, Vec<DetectorConfig>) = req
            .targets()
            .iter()
            .map(|t| match *t {
                DetectTarget::Own => (self.tool.label(), self.default_config()),
                DetectTarget::Tool(tool) => (tool.label(), self.config_for(tool)),
                DetectTarget::Config(cfg) => (self.tool.label(), cfg),
            })
            .unzip();
        (labels, ReplayLoop::new(cfgs, req.engine_options(), total))
    }

    /// End a replay and assemble one outcome per target.
    fn finish_replay(
        &self,
        labels: Vec<String>,
        replay: ReplayLoop,
        summary: &RunSummary,
    ) -> Result<DetectOutcome, EngineError> {
        let outcomes = labels
            .into_iter()
            .zip(replay.finish()?)
            .map(|(label, det)| self.assemble(label, det, summary.clone()))
            .collect();
        Ok(DetectOutcome { outcomes })
    }

    /// Execute a [`DetectRequest`] against a binary trace **stream**
    /// without materializing the event vector: the reader decodes one
    /// chunk ahead of the detectors, so peak memory is O(chunk) rather
    /// than O(trace) and detection starts before the stream has been
    /// fully read. The request's targets fan out on one pass and its
    /// watchdog and budgets are enforced exactly as
    /// [`ExecutedRun::try_run`] enforces them.
    ///
    /// Fails with [`AnalyzeError::TraceMismatch`] when the stream's
    /// fingerprint does not match this prepared module, with
    /// [`AnalyzeError::Trace`] on any decode error (corruption is
    /// detected per chunk, possibly mid-replay), and with
    /// [`AnalyzeError::Engine`] on a tripped watchdog or budget
    /// (event-budget trips replay exactly the affordable prefix and
    /// carry faithful [`PartialMetrics`](crate::PartialMetrics)).
    pub fn try_run_streamed<R: io::Read + Send>(
        &self,
        req: &DetectRequest,
        reader: ChunkedTraceReader<R>,
    ) -> Result<(DetectOutcome, StreamStats), AnalyzeError> {
        self.try_run_streamed_observed(req, reader, |_| {})
    }

    /// [`Self::try_run_streamed`] with a per-chunk progress observer:
    /// after each decoded chunk has been fed to every target, `observe`
    /// is called once per target with the running totals and the number
    /// of reports that chunk newly produced — the hook a streaming server
    /// uses to push incremental verdicts before end-of-upload.
    pub fn try_run_streamed_observed<R, F>(
        &self,
        req: &DetectRequest,
        reader: ChunkedTraceReader<R>,
        mut observe: F,
    ) -> Result<(DetectOutcome, StreamStats), AnalyzeError>
    where
        R: io::Read + Send,
        F: FnMut(StreamProgress<'_>),
    {
        if reader.header().module_fingerprint != self.fingerprint {
            return Err(AnalyzeError::TraceMismatch {
                trace_fingerprint: reader.header().module_fingerprint,
                module_fingerprint: self.fingerprint,
            });
        }
        let summary = reader.summary().clone();
        let (labels, mut replay) = self.start_replay(req, reader.header().events);
        let mut seen: Vec<usize> = vec![0; labels.len()];
        let mut chunk = 0u32;
        let stats = reader.decode_ahead(|events| -> Result<(), AnalyzeError> {
            replay.feed(events)?;
            chunk += 1;
            for (idx, det) in replay.detectors().iter().enumerate() {
                let reports = det.reports().reports().len();
                let new_reports = reports - seen[idx];
                seen[idx] = reports;
                observe(StreamProgress {
                    target: idx,
                    tool_label: &labels[idx],
                    chunk,
                    events: replay.events(),
                    contexts: det.racy_contexts(),
                    new_reports,
                });
            }
            Ok(())
        })?;
        Ok((self.finish_replay(labels, replay, &summary)?, stats))
    }

    /// Build the user-facing outcome from a finished detector.
    fn assemble(
        &self,
        tool_label: String,
        det: AnyDetector,
        summary: RunSummary,
    ) -> AnalysisOutcome {
        let reports: Vec<DescribedReport> = det
            .reports()
            .reports()
            .iter()
            .map(|r| DescribedReport {
                location: self.module.describe_addr(r.addr),
                report: r.clone(),
            })
            .collect();
        AnalysisOutcome {
            module_name: self.original_name.clone(),
            tool_label,
            contexts: det.racy_contexts(),
            reports,
            metrics: det.metrics(),
            promoted_locations: det.promoted_locations(),
            spin_loops_found: self.spin_loops_found,
            summary,
        }
    }
}

/// One per-target, per-chunk progress report from
/// [`PreparedModule::try_run_streamed_observed`]. Borrowed views into
/// the running detection — copy out what must outlive the callback.
#[derive(Debug)]
pub struct StreamProgress<'a> {
    /// Index of the target within the request's fan-out.
    pub target: usize,
    /// The target's tool label.
    pub tool_label: &'a str,
    /// Chunks consumed so far (this report fires after chunk `chunk`).
    pub chunk: u32,
    /// Events fed to every detector so far.
    pub events: u64,
    /// Racy contexts this target has recorded so far.
    pub contexts: usize,
    /// Number of reports this chunk newly produced for this target.
    pub new_reports: usize,
}

/// One recorded execution of a prepared module: the trace plus everything
/// needed to interpret detector replays against it.
#[derive(Clone, Debug)]
pub struct ExecutedRun {
    prepared: PreparedModule,
    trace: Trace,
}

impl ExecutedRun {
    /// Rebuild an executed run from a parsed [`Trace`] and the prepared
    /// module it was recorded from. Fails when the trace's fingerprint
    /// does not match `prepared` — replaying a stream against a different
    /// program would silently misattribute every address and pc.
    pub fn from_trace(prepared: PreparedModule, trace: Trace) -> Result<ExecutedRun, AnalyzeError> {
        if trace.header.module_fingerprint != prepared.fingerprint() {
            return Err(AnalyzeError::TraceMismatch {
                trace_fingerprint: trace.header.module_fingerprint,
                module_fingerprint: prepared.fingerprint(),
            });
        }
        Ok(ExecutedRun { prepared, trace })
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Take the trace (e.g. to serialize it).
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The prepared module this run executed.
    pub fn prepared(&self) -> &PreparedModule {
        &self.prepared
    }

    /// Statistics of the recorded run.
    pub fn summary(&self) -> &RunSummary {
        &self.trace.summary
    }

    /// Execute a [`DetectRequest`] against the recorded trace: the whole
    /// event vector is fed as one chunk to the replay loop, every target
    /// on one event-major pass, under the request's watchdog and budgets.
    /// Outcomes come back in target order and are identical to those of
    /// [`PreparedModule::try_run_streamed`] over an encoding of the same
    /// trace.
    ///
    /// Fails with a structured [`EngineError`] on a watchdog trip or an
    /// exhausted budget; without limits neither can happen and
    /// [`ExecutedRun::run`] is the convenient form.
    pub fn try_run(&self, req: &DetectRequest) -> Result<DetectOutcome, EngineError> {
        let events = &self.trace.events;
        let (labels, mut replay) = self.prepared.start_replay(req, events.len() as u64);
        replay.feed(events)?;
        self.prepared
            .finish_replay(labels, replay, &self.trace.summary)
    }

    /// [`Self::try_run`], unwrapped: panics when a limit the request set
    /// trips (a request without limits never fails).
    pub fn run(&self, req: &DetectRequest) -> DetectOutcome {
        self.try_run(req)
            .unwrap_or_else(|e| panic!("replay failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::{Budget, BudgetResource};
    use crate::tests::{flag_handoff, racy};
    use spinrace_tir::ModuleBuilder;

    /// `m` prepared for `tool` under the default session, and recorded.
    fn recorded(m: &Module, tool: Tool) -> ExecutedRun {
        Session::for_module(m)
            .prepare(tool)
            .unwrap()
            .execute()
            .unwrap()
    }

    /// The tentpole equivalence: one recorded trace replayed under a
    /// detector configuration yields byte-identical report lists and
    /// contexts to the live run, for every paper tool.
    #[test]
    fn replay_equals_live_for_every_tool() {
        let m = racy();
        for tool in Tool::paper_lineup() {
            let run = recorded(&m, tool);
            let live = run.prepared().try_run(&DetectRequest::own());
            let live = live.unwrap().into_single();
            let replayed = run.run(&DetectRequest::own()).into_single();
            assert_eq!(replayed.contexts, live.contexts, "{}", tool.label());
            assert_eq!(replayed.reports.len(), live.reports.len());
            for (a, b) in replayed.reports.iter().zip(&live.reports) {
                assert_eq!(a.location, b.location);
                assert_eq!(a.report, b.report);
            }
            assert_eq!(replayed.metrics, live.metrics);
            assert_eq!(replayed.promoted_locations, live.promoted_locations);
            assert_eq!(replayed.summary, live.summary);
        }
    }

    #[test]
    fn lib_and_drd_share_one_prepared_module() {
        let m = racy();
        let session = Session::for_module(&m);
        let lib = session.prepare(Tool::HelgrindLib).unwrap();
        let drd = session.prepare(Tool::Drd).unwrap();
        assert_eq!(lib.fingerprint(), drd.fingerprint());
        let run = lib.execute().unwrap();
        let as_drd = run.run(&DetectRequest::tool(Tool::Drd)).into_single();
        let live_drd = drd.try_run(&DetectRequest::own()).unwrap().into_single();
        assert_eq!(as_drd.contexts, live_drd.contexts);
        assert_eq!(as_drd.tool_label, "DRD");
    }

    #[test]
    fn detect_many_fans_out_configurations() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        let short = run.prepared().config_for(Tool::HelgrindLib);
        let capped = short.with_cap(1);
        let outs = run
            .run(&DetectRequest::configs(&[short, capped]))
            .into_vec();
        assert_eq!(outs.len(), 2);
        assert!(outs[0].contexts >= outs[1].contexts);
        assert_eq!(outs[1].contexts, 1, "cap 1 clamps the context count");
    }

    #[test]
    fn tool_fanout_matches_individual_detections() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        // Lib and DRD share the unmodified module's fingerprint, so both
        // may replay this recording.
        let tools = [Tool::HelgrindLib, Tool::Drd];
        let fanned = run.run(&DetectRequest::tools(&tools)).into_vec();
        assert_eq!(fanned.len(), tools.len());
        for (tool, out) in tools.iter().zip(&fanned) {
            let solo = run.run(&DetectRequest::tool(*tool)).into_single();
            assert_eq!(out.tool_label, solo.tool_label);
            assert_eq!(out.contexts, solo.contexts);
            assert_eq!(out.reports.len(), solo.reports.len());
            assert_eq!(out.metrics, solo.metrics);
        }
    }

    /// The compatibility spellings — `run` (an unwrapped `try_run`) and
    /// `DetectRequest::streamed` (an identity) — land on the same request
    /// and the same outcome as the plain forms, on both replay paths.
    #[test]
    fn legacy_wrappers_delegate_to_requests() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        let via_request = run.try_run(&DetectRequest::own()).unwrap().into_single();
        let legacy = run.run(&DetectRequest::own()).into_single();
        assert_eq!(legacy.contexts, via_request.contexts);
        assert_eq!(legacy.reports.len(), via_request.reports.len());
        assert_eq!(legacy.metrics, via_request.metrics);

        let plain =
            DetectRequest::tool(Tool::Drd).budget(Budget::default().with_max_events(1 << 20));
        let marked = plain.clone().streamed();
        assert_eq!(marked.engine_options(), plain.engine_options());
        assert_eq!(marked.targets().len(), plain.targets().len());
        assert!(matches!(marked.targets(), [DetectTarget::Tool(Tool::Drd)]));

        let whole = run.run(&plain).into_single();
        let bytes = spinrace_tracefmt::encode_trace_chunked(run.trace(), 8);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        let (streamed, _) = run.prepared().try_run_streamed(&marked, reader).unwrap();
        let streamed = streamed.into_single();
        assert_eq!(streamed.tool_label, whole.tool_label);
        assert_eq!(streamed.contexts, whole.contexts);
        assert_eq!(streamed.metrics, whole.metrics);
    }

    #[test]
    fn execute_detecting_tees_recorder_and_detector() {
        let m = racy();
        let prepared = Session::for_module(&m)
            .prepare(Tool::HelgrindLibSpin { window: 7 })
            .unwrap();
        let (run, live) = prepared.execute_detecting().unwrap();
        assert!(!live.is_clean());
        let replayed = run.run(&DetectRequest::own()).into_single();
        assert_eq!(replayed.contexts, live.contexts);
        assert_eq!(replayed.reports.len(), live.reports.len());
    }

    /// A live run whose watchdog or shadow budget trips stops the VM: a
    /// program that never ends comes back with the limit's error, not
    /// with the VM's step limit.
    #[test]
    fn tripped_live_limits_halt_the_vm() {
        let mut mb = ModuleBuilder::new("endless");
        let g = mb.global("g", 1);
        mb.entry("main", |f| {
            let head = f.new_block();
            f.jump(head);
            f.switch_to(head);
            f.store(g.at(0), 1);
            f.jump(head);
        });
        let m = mb.finish().unwrap();
        let vm = VmConfig {
            max_steps: 100_000,
            ..VmConfig::round_robin()
        };
        let prepared = Session::for_module(&m)
            .vm_config(vm)
            .prepare(Tool::HelgrindLib)
            .unwrap();
        assert!(matches!(
            prepared.try_run(&DetectRequest::own()),
            Err(AnalyzeError::Vm(_))
        ));
        let watchdog = DetectRequest::own().watchdog(std::time::Duration::ZERO);
        assert!(matches!(
            prepared.try_run(&watchdog),
            Err(AnalyzeError::Engine(EngineError::Watchdog { limit_ms: 0 }))
        ));
        let shadow = DetectRequest::own().budget(Budget::default().with_max_shadow_bytes(1));
        assert!(matches!(
            prepared.try_run(&shadow),
            Err(AnalyzeError::Engine(EngineError::BudgetExhausted {
                resource: BudgetResource::ShadowBytes,
                ..
            }))
        ));
    }

    /// Streaming replay of the binary encoding produces the same outcome
    /// as the in-memory replay, with O(chunk) resident memory.
    #[test]
    fn streamed_detection_matches_in_memory_detection() {
        let m = racy();
        for tool in [Tool::HelgrindLib, Tool::HelgrindLibSpin { window: 7 }] {
            let run = recorded(&m, tool);
            let expected = run.run(&DetectRequest::own()).into_single();
            // Tiny chunks force many boundaries through the pipeline.
            let bytes = spinrace_tracefmt::encode_trace_chunked(run.trace(), 8);
            let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
            let (streamed, stats) = run
                .prepared()
                .try_run_streamed(&DetectRequest::own(), reader)
                .unwrap();
            let streamed = streamed.into_single();
            assert_eq!(streamed.contexts, expected.contexts, "{}", tool.label());
            assert_eq!(streamed.reports.len(), expected.reports.len());
            for (a, b) in streamed.reports.iter().zip(&expected.reports) {
                assert_eq!(a.location, b.location);
                assert_eq!(a.report, b.report);
            }
            assert_eq!(streamed.metrics, expected.metrics);
            assert_eq!(streamed.summary, expected.summary);
            assert_eq!(stats.events, run.trace().events.len() as u64);
        }
    }

    #[test]
    fn streamed_detection_rejects_foreign_streams() {
        // The spin tool instruments the waiter loop, so its prepared
        // module differs from the plain one.
        let m = flag_handoff();
        let run = recorded(&m, Tool::HelgrindLibSpin { window: 7 });
        let plain = Session::for_module(&m).prepare(Tool::HelgrindLib).unwrap();
        assert_ne!(plain.fingerprint(), run.prepared().fingerprint());
        let bytes = spinrace_tracefmt::encode_trace(run.trace());
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            plain.try_run_streamed(&DetectRequest::own(), reader),
            Err(AnalyzeError::TraceMismatch { .. })
        ));
    }

    #[test]
    fn from_trace_rejects_foreign_traces() {
        // The spin tool instruments the waiter loop, so its prepared
        // module differs from the uninstrumented one and the trace must
        // be refused.
        let m = flag_handoff();
        let session = Session::for_module(&m);
        let run = recorded(&m, Tool::HelgrindLib);
        let other = session
            .prepare(Tool::HelgrindLibSpin { window: 7 })
            .unwrap();
        assert_ne!(other.fingerprint(), run.prepared().fingerprint());
        let err = ExecutedRun::from_trace(other, run.into_trace());
        assert!(matches!(err, Err(AnalyzeError::TraceMismatch { .. })));

        // And the matching prepared module is accepted.
        let lib = session.prepare(Tool::HelgrindLib).unwrap();
        let run2 = recorded(&m, Tool::HelgrindLib);
        assert!(ExecutedRun::from_trace(lib, run2.into_trace()).is_ok());
    }

    /// A mixed-target request fans out own tool, foreign tool, and an
    /// explicit configuration on one pass, in target order.
    #[test]
    fn mixed_target_requests_fan_out_in_order() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        let capped = run.prepared().default_config().with_cap(1);
        let req = DetectRequest::own()
            .and_target(DetectTarget::Tool(Tool::Drd))
            .and_target(DetectTarget::Config(capped));
        let outs = run.run(&req).into_vec();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].tool_label, Tool::HelgrindLib.label());
        assert_eq!(outs[1].tool_label, Tool::Drd.label());
        assert_eq!(outs[2].tool_label, Tool::HelgrindLib.label());
        assert_eq!(outs[2].contexts, 1, "capped target honors its config");
        let solo_drd = run.run(&DetectRequest::tool(Tool::Drd)).into_single();
        assert_eq!(outs[1].contexts, solo_drd.contexts);
        assert_eq!(outs[1].metrics, solo_drd.metrics);
    }

    /// The streamed observer fires once per chunk per target, with
    /// verdict deltas that sum to the final report list — incremental
    /// verdicts are available before end-of-stream.
    #[test]
    fn streamed_observer_reports_incremental_progress() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        let bytes = spinrace_tracefmt::encode_trace_chunked(run.trace(), 8);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        let chunks = reader.chunk_count();
        let tools = [Tool::HelgrindLib, Tool::Drd];
        let mut calls = 0u32;
        let mut deltas = vec![0usize; tools.len()];
        let (out, stats) = run
            .prepared()
            .try_run_streamed_observed(&DetectRequest::tools(&tools), reader, |p| {
                calls += 1;
                deltas[p.target] += p.new_reports;
                assert_eq!(p.tool_label, tools[p.target].label());
                assert!(p.chunk >= 1 && p.chunk <= chunks);
            })
            .unwrap();
        let outs = out.into_vec();
        assert_eq!(calls, chunks * tools.len() as u32);
        assert_eq!(stats.chunks, chunks);
        for (delta, out) in deltas.iter().zip(&outs) {
            assert_eq!(*delta, out.reports.len(), "deltas sum to the verdict");
        }
        let offline = run.run(&DetectRequest::tools(&tools)).into_vec();
        for (streamed, expected) in outs.iter().zip(&offline) {
            assert_eq!(streamed.contexts, expected.contexts);
            assert_eq!(streamed.metrics, expected.metrics);
        }
    }

    /// An event budget on a streamed request replays exactly the
    /// affordable prefix and surfaces `BudgetExhausted` with faithful
    /// partial metrics, mirroring the engine's sequential contract.
    #[test]
    fn streamed_budget_trips_with_partial_metrics() {
        let run = recorded(&racy(), Tool::HelgrindLib);
        let total = run.trace().events.len() as u64;
        let limit = total / 2;
        let bytes = spinrace_tracefmt::encode_trace_chunked(run.trace(), 8);
        let reader = ChunkedTraceReader::new(&bytes[..]).unwrap();
        let req = DetectRequest::own().budget(Budget::default().with_max_events(limit));
        let err = run
            .prepared()
            .try_run_streamed(&req, reader)
            .expect_err("budget must trip");
        match err {
            AnalyzeError::Engine(EngineError::BudgetExhausted {
                resource: BudgetResource::Events,
                limit: l,
                used,
                partial,
            }) => {
                assert_eq!(l, limit);
                assert_eq!(used, total);
                assert_eq!(partial.events_processed, limit);
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}
