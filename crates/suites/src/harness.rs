//! Classification harness: runs tools over the suites and aggregates the
//! numbers behind every table of the paper.
//!
//! Tables detect **live**, one VM run per fingerprint group: for each
//! case (and, for PARSEC, each seed) every tool's module is prepared,
//! the prepared modules are grouped by fingerprint, and each distinct
//! module runs once with its group's tools fanned out on **one**
//! multi-target [`spinrace_core::DetectRequest`] through
//! [`spinrace_core::PreparedModule::try_run`]: the VM feeds every
//! member's detector directly, and nothing is recorded. `Helgrind+ lib`
//! and `DRD` always share one run (neither rewrites the module), and
//! window-sweep lineups share whenever two windows accept the same loops.
//! A recording would be replayed only once, so none is made: live
//! detection equals the replay of a recording of the same run.

use crate::drt::DrtCase;
use crate::parsec::ParsecProgram;
use spinrace_core::{AnalysisOutcome, DetectRequest, PreparedModule, Session, Tool};

/// The report cap used for drt runs. Small enough that a determined
/// false-positive flood can drown a late real race (the paper's removed
/// false negative); large enough that ordinary cases are unaffected.
pub const DRT_CAP: usize = 25;

/// One case × tool result.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Case id.
    pub case_id: u32,
    /// Case name.
    pub case_name: String,
    /// Tool label.
    pub tool: String,
    /// Racy context count.
    pub contexts: usize,
    /// For racy cases: was the expected race reported?
    pub detected: bool,
    /// For race-free cases: was anything reported?
    pub false_alarm: bool,
    /// Pipeline error, if any (counts as a failed case).
    pub error: Option<String>,
}

/// Per-tool aggregate over the whole suite — one row of the paper's
/// Table 1 / Table 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrtRow {
    /// Tool label.
    pub tool: String,
    /// Race-free cases with ≥1 report.
    pub false_alarms: usize,
    /// Racy cases where the expected race went unreported.
    pub missed_races: usize,
    /// `false_alarms + missed_races`.
    pub failed: usize,
    /// `120 - failed`.
    pub correct: usize,
}

/// The whole drt table plus per-case detail.
#[derive(Clone, Debug)]
pub struct DrtTable {
    /// One row per tool, in input order.
    pub rows: Vec<DrtRow>,
    /// Every individual outcome (for drill-down).
    pub outcomes: Vec<CaseOutcome>,
    /// VM runs actually performed: the number of *distinct prepared
    /// modules*, at most (and typically well under) `tools × cases`.
    pub vm_runs: usize,
}

impl DrtTable {
    /// Row for a given tool label.
    pub fn row(&self, label: &str) -> Option<&DrtRow> {
        self.rows.iter().find(|r| r.tool == label)
    }
}

/// Classify one outcome against its case's ground truth.
pub fn classify(case: &DrtCase, out: &AnalysisOutcome) -> (bool, bool) {
    if case.racy {
        let detected = case
            .race_location
            .map(|loc| out.has_race_on(loc))
            .unwrap_or(false);
        (detected, false)
    } else {
        (false, !out.is_clean())
    }
}

/// Run a whole tool lineup over one session: prepare every tool, group
/// the prepared modules by fingerprint (first-seen order), and run each
/// distinct module once with its group's detections live on that run.
/// Returns per-tool outcomes in lineup order plus the number of VM runs
/// performed; a prepare/run failure surfaces as that tool's (or that
/// whole group's) `Err`. (Shared with the generated-workloads table in
/// [`crate::workloads`].)
pub(crate) fn lineup_outcomes(
    session: &Session<'_>,
    tools: &[Tool],
) -> (Vec<Result<AnalysisOutcome, String>>, usize) {
    let mut results: Vec<Option<Result<AnalysisOutcome, String>>> =
        (0..tools.len()).map(|_| None).collect();
    // Distinct prepared modules, each with the lineup indices sharing it.
    let mut groups: Vec<(PreparedModule, Vec<usize>)> = Vec::new();
    for (ti, &tool) in tools.iter().enumerate() {
        match session.prepare(tool) {
            Ok(p) => {
                if let Some((_, members)) = groups
                    .iter_mut()
                    .find(|(g, _)| g.fingerprint() == p.fingerprint())
                {
                    members.push(ti);
                } else {
                    groups.push((p, vec![ti]));
                }
            }
            Err(e) => results[ti] = Some(Err(e.to_string())),
        }
    }
    let vm_runs = groups.len();
    for (prepared, members) in groups {
        let member_tools: Vec<Tool> = members.iter().map(|&ti| tools[ti]).collect();
        match prepared.try_run(&DetectRequest::tools(&member_tools)) {
            Ok(outs) => {
                for (ti, out) in members.into_iter().zip(outs) {
                    results[ti] = Some(Ok(out));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for ti in members {
                    results[ti] = Some(Err(msg.clone()));
                }
            }
        }
    }
    let outcomes = results
        .into_iter()
        .map(|r| r.expect("every tool prepared or grouped"))
        .collect();
    (outcomes, vm_runs)
}

/// Run the full drt suite for each tool (round-robin schedule, short MSM,
/// drt report cap). This regenerates the paper's Table 1 (with the
/// standard lineup) and Table 2 (with a window sweep lineup).
pub fn run_drt(tools: &[Tool]) -> DrtTable {
    run_drt_with(tools, &crate::drt::all_cases())
}

/// Same, over a provided case list (useful for category slices in tests).
///
/// Each case's module runs once per *distinct prepared module* across
/// the lineup, with every sharing tool's detector fed live by that run
/// (see the module docs).
pub fn run_drt_with(tools: &[Tool], cases: &[DrtCase]) -> DrtTable {
    // Aggregates and per-case detail, indexed by tool; flattened to the
    // historical tool-major order at the end.
    let mut agg = vec![(0usize, 0usize); tools.len()];
    let mut detail: Vec<Vec<CaseOutcome>> = vec![Vec::with_capacity(cases.len()); tools.len()];
    let mut vm_runs = 0;
    for case in cases {
        let session = Session::for_module(&case.module).cap(DRT_CAP);
        let (outs, runs) = lineup_outcomes(&session, tools);
        vm_runs += runs;
        for (ti, (&tool, result)) in tools.iter().zip(outs).enumerate() {
            match result {
                Ok(out) => {
                    let (detected, fa) = classify(case, &out);
                    if case.racy && !detected {
                        agg[ti].1 += 1;
                    }
                    if fa {
                        agg[ti].0 += 1;
                    }
                    detail[ti].push(CaseOutcome {
                        case_id: case.id,
                        case_name: case.name.clone(),
                        tool: tool.label(),
                        contexts: out.contexts,
                        detected,
                        false_alarm: fa,
                        error: None,
                    });
                }
                Err(e) => {
                    // A pipeline failure counts against the tool's
                    // correct column like a miss/false alarm would.
                    if case.racy {
                        agg[ti].1 += 1;
                    } else {
                        agg[ti].0 += 1;
                    }
                    detail[ti].push(CaseOutcome {
                        case_id: case.id,
                        case_name: case.name.clone(),
                        tool: tool.label(),
                        contexts: 0,
                        detected: false,
                        false_alarm: !case.racy,
                        error: Some(e),
                    });
                }
            }
        }
    }
    let rows = tools
        .iter()
        .zip(&agg)
        .map(|(&tool, &(false_alarms, missed))| {
            let failed = false_alarms + missed;
            DrtRow {
                tool: tool.label(),
                false_alarms,
                missed_races: missed,
                failed,
                correct: cases.len() - failed,
            }
        })
        .collect();
    DrtTable {
        rows,
        outcomes: detail.into_iter().flatten().collect(),
        vm_runs,
    }
}

/// One PARSEC table cell: racy contexts averaged over the seeds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParsecCell {
    /// Mean distinct racy contexts across seeds (capped at 1000 per run).
    pub mean_contexts: f64,
    /// Minimum across seeds.
    pub min: usize,
    /// Maximum across seeds.
    pub max: usize,
}

/// The PARSEC racy-context table: `cells[program][tool]`.
#[derive(Clone, Debug)]
pub struct ParsecTable {
    /// Program names, row order.
    pub programs: Vec<String>,
    /// Tool labels, column order.
    pub tools: Vec<String>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<ParsecCell>>,
    /// VM executions performed (distinct prepared modules × seeds), at
    /// most `programs × tools × seeds`.
    pub vm_runs: usize,
}

impl ParsecTable {
    /// Cell by program and tool label.
    pub fn cell(&self, program: &str, tool: &str) -> Option<ParsecCell> {
        let r = self.programs.iter().position(|p| p == program)?;
        let c = self.tools.iter().position(|t| t == tool)?;
        Some(self.cells[r][c])
    }
}

/// Run the PARSEC suite: long MSM (integration mode), cap 1000, averaging
/// over `seeds` random schedules — fractional averages exactly as in the
/// paper's tables. `nolib` runs use each program's library-internals
/// flavour (obscure for the programs whose real libraries defeated the
/// patterns).
pub fn run_parsec(programs: &[ParsecProgram], tools: &[Tool], seeds: &[u64]) -> ParsecTable {
    let mut cells = Vec::with_capacity(programs.len());
    let mut vm_runs = 0;
    for prog in programs {
        let module = prog.module();
        // counts[tool][seed]; filled seed-major so each seed's distinct
        // prepared modules run once and fan out across the lineup.
        let mut counts = vec![Vec::with_capacity(seeds.len()); tools.len()];
        for &seed in seeds {
            let session = Session::for_module(&module)
                .long_msm()
                .seed(seed)
                .nolib_style(prog.nolib_style);
            let (outs, runs) = lineup_outcomes(&session, tools);
            vm_runs += runs;
            for (ti, result) in outs.into_iter().enumerate() {
                let contexts = match result {
                    Ok(out) => out.contexts,
                    // A failed run counts as saturation (a real tool would
                    // report "analysis incomplete").
                    Err(_) => 1000,
                };
                counts[ti].push(contexts);
            }
        }
        let row = counts
            .iter()
            .map(|c| ParsecCell {
                mean_contexts: c.iter().sum::<usize>() as f64 / c.len() as f64,
                min: c.iter().copied().min().unwrap_or(0),
                max: c.iter().copied().max().unwrap_or(0),
            })
            .collect();
        cells.push(row);
    }
    ParsecTable {
        programs: programs.iter().map(|p| p.name.to_string()).collect(),
        tools: tools.iter().map(|t| t.label()).collect(),
        cells,
        vm_runs,
    }
}
