//! The detection request: **one** entry point over every detection, live,
//! recorded or streamed.
//!
//! A [`DetectRequest`] names *what* to detect (its targets: the run's own
//! tool, other tools sharing the prepared module, or explicit detector
//! configurations) and under which [`EngineOptions`] (watchdog and
//! budgets). It runs three ways: live, by [`PreparedModule::try_run`] on
//! the running VM; recorded, by [`ExecutedRun::run`] /
//! [`ExecutedRun::try_run`] against a recorded trace; and streamed, by
//! [`PreparedModule::try_run_streamed`] against a binary chunk stream —
//! the same request type a detection server decodes straight off the
//! wire. Every way feeds every target through the one detection loop, in
//! one in-order pass over the events.
//!
//! ```
//! use spinrace_core::{Budget, DetectRequest, Session, Tool};
//! use spinrace_tir::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new("racy");
//! let g = mb.global("g", 1);
//! let w = mb.function("w", 1, |f| {
//!     let v = f.load(g.at(0));
//!     let v2 = f.add(v, 1);
//!     f.store(g.at(0), v2);
//!     f.ret(None);
//! });
//! mb.entry("main", |f| {
//!     let t1 = f.spawn(w, 0);
//!     let t2 = f.spawn(w, 1);
//!     f.join(t1);
//!     f.join(t2);
//!     f.ret(None);
//! });
//! let m = mb.finish().unwrap();
//!
//! let run = Session::for_module(&m)
//!     .prepare(Tool::HelgrindLib)
//!     .unwrap()
//!     .execute()
//!     .unwrap();
//!
//! // Replay under the run's own tool…
//! let out = run.run(&DetectRequest::own()).into_single();
//! assert!(out.has_race_on("g"));
//!
//! // …and fanned out over two tools sharing the recording, on one pass.
//! let outs = run
//!     .run(&DetectRequest::tools(&[Tool::HelgrindLib, Tool::Drd]))
//!     .into_vec();
//! assert_eq!(outs.len(), 2);
//! assert_eq!(outs[0].contexts, out.contexts);
//!
//! // An event budget stops the replay with partial metrics, and stops a
//! // live run the same way.
//! let capped = DetectRequest::own().budget(Budget::default().with_max_events(3));
//! assert!(run.try_run(&capped).is_err());
//! assert!(run.prepared().try_run(&capped).is_err());
//! ```
//!
//! [`PreparedModule::try_run`]: crate::PreparedModule::try_run
//! [`ExecutedRun::run`]: crate::ExecutedRun::run
//! [`ExecutedRun::try_run`]: crate::ExecutedRun::try_run
//! [`PreparedModule::try_run_streamed`]: crate::PreparedModule::try_run_streamed

use crate::limits::{Budget, EngineOptions};
use crate::{AnalysisOutcome, Tool};
use spinrace_detector::DetectorConfig;
use std::time::Duration;

/// One detection target: which detector configuration (and label) a
/// request resolves against the prepared module it runs on.
#[derive(Clone, Copy, Debug)]
pub enum DetectTarget {
    /// The run's own tool, under the session's MSM flavour and cap.
    Own,
    /// Another tool's configuration and label. Only valid when that
    /// tool's preparation of the same source module yields the same
    /// fingerprint (the trace-sharing contract harnesses check).
    Tool(Tool),
    /// An explicit detector configuration, labelled with the run's own
    /// tool.
    Config(DetectorConfig),
}

/// A detection request — see the [module docs](self) for examples.
#[derive(Clone, Debug)]
pub struct DetectRequest {
    targets: Vec<DetectTarget>,
    options: EngineOptions,
}

impl Default for DetectRequest {
    /// [`DetectRequest::own`]: the run's own tool, without limits.
    fn default() -> DetectRequest {
        DetectRequest::own()
    }
}

impl DetectRequest {
    fn with_targets(targets: Vec<DetectTarget>) -> DetectRequest {
        DetectRequest {
            targets,
            options: EngineOptions::default(),
        }
    }

    /// Detect under the run's own tool.
    pub fn own() -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Own])
    }

    /// Detect under another tool's configuration and label (the
    /// fingerprint-sharing contract applies).
    pub fn tool(tool: Tool) -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Tool(tool)])
    }

    /// Fan out over several tools on one request.
    pub fn tools(tools: &[Tool]) -> DetectRequest {
        DetectRequest::with_targets(tools.iter().map(|&t| DetectTarget::Tool(t)).collect())
    }

    /// Detect under an explicit configuration, labelled with the run's
    /// own tool.
    pub fn config(cfg: DetectorConfig) -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Config(cfg)])
    }

    /// Fan out over several explicit configurations.
    pub fn configs(cfgs: &[DetectorConfig]) -> DetectRequest {
        DetectRequest::with_targets(cfgs.iter().map(|&c| DetectTarget::Config(c)).collect())
    }

    /// Append one more target to the fan-out.
    pub fn and_target(mut self, target: DetectTarget) -> DetectRequest {
        self.targets.push(target);
        self
    }

    /// Identity: every request replays through the same in-order loop,
    /// whether fed a recorded trace or a chunk stream. Kept for source
    /// compatibility with callers that marked streamed requests.
    pub fn streamed(self) -> DetectRequest {
        self
    }

    /// Set resource budgets (event and shadow-byte ceilings).
    pub fn budget(mut self, budget: Budget) -> DetectRequest {
        self.options.budget = budget;
        self
    }

    /// Bound the whole detection by a wall-clock watchdog.
    pub fn watchdog(mut self, limit: Duration) -> DetectRequest {
        self.options.watchdog = Some(limit);
        self
    }

    /// Replace the engine options wholesale (watchdog and budgets at
    /// once).
    pub fn options(mut self, options: EngineOptions) -> DetectRequest {
        self.options = options;
        self
    }

    /// The request's targets, in fan-out order.
    pub fn targets(&self) -> &[DetectTarget] {
        &self.targets
    }

    /// The limits the replay runs under.
    pub fn engine_options(&self) -> EngineOptions {
        self.options
    }
}

/// The result of one [`DetectRequest`]: one [`AnalysisOutcome`] per
/// target, in request order.
#[derive(Clone, Debug)]
pub struct DetectOutcome {
    /// Per-target outcomes, ordered as the request's targets.
    pub outcomes: Vec<AnalysisOutcome>,
}

impl DetectOutcome {
    /// The single outcome of a one-target request.
    ///
    /// # Panics
    /// When the request had zero or several targets.
    pub fn into_single(self) -> AnalysisOutcome {
        assert_eq!(
            self.outcomes.len(),
            1,
            "into_single on a {}-target outcome",
            self.outcomes.len()
        );
        self.outcomes.into_iter().next().unwrap()
    }

    /// All outcomes, consuming the result.
    pub fn into_vec(self) -> Vec<AnalysisOutcome> {
        self.outcomes
    }

    /// Number of per-target outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the request had no targets.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterate the per-target outcomes.
    pub fn iter(&self) -> std::slice::Iter<'_, AnalysisOutcome> {
        self.outcomes.iter()
    }
}

impl IntoIterator for DetectOutcome {
    type Item = AnalysisOutcome;
    type IntoIter = std::vec::IntoIter<AnalysisOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}
