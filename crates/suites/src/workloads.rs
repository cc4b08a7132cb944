//! The generated-workloads table — the suite where ground truth is
//! *computed*, not recorded.
//!
//! T1/T2 and the PARSEC tables pin tools against numbers measured once
//! and checked in; a regression there says "the numbers moved", not "the
//! numbers are wrong". This table runs the `spinrace-workloads`
//! generator families (both the race-free and the seeded variants of
//! each) through the tool lineup and classifies every outcome against
//! the workload's own [`Oracle`]: a failing
//! row is a *soundness* bug (a
//! missed injected race) or a *completeness* bug (a report on a
//! correct-by-construction program) — no recorded baseline involved.
//!
//! Like the other suites, detection is live: one VM run per distinct
//! prepared module, grouped by fingerprint, feeding every tool that
//! shares the module on that one run.

use crate::harness::lineup_outcomes;
use spinrace_core::{AnalysisOutcome, Session, Tool};
use spinrace_workloads::{Family, Oracle, OracleVerdict, WorkloadSpec};

/// Judge one analysis outcome against a workload oracle: every described
/// report becomes one `(location, prior tid, current tid)` observation,
/// judged against the ground truth the producing tool's class owes
/// (reorder-only injections are invisible to witnessed-interleaving
/// tools — see [`Oracle::expected_for`]). The single adapter between
/// `AnalysisOutcome` and `Oracle::verdict_for` — shared by this table,
/// the oracle test suite, and `trace gen`, so the mapping can never
/// silently diverge between checkers.
pub fn judge_outcome(oracle: &Oracle, out: &AnalysisOutcome) -> OracleVerdict {
    let predictive = out
        .tool_label
        .parse::<Tool>()
        .map(|t| t.is_predictive())
        .unwrap_or(false);
    oracle.verdict_for(
        predictive,
        out.reports.iter().map(|r| {
            (
                r.location.as_str(),
                r.report.prior.tid,
                r.report.current.tid,
            )
        }),
    )
}

/// The standard spec list: for every family, one race-free and one
/// seeded variant (distinct seeds, modest sizes — the point here is
/// oracle coverage, not stream length; the long streams live in
/// `tests/trace_roundtrip.rs`, CI and perfbench).
pub fn standard_specs() -> Vec<WorkloadSpec> {
    let mut specs = Vec::new();
    for (i, fam) in Family::all().into_iter().enumerate() {
        let base = WorkloadSpec::new(fam)
            .events_per_thread(48)
            .seed(100 + i as u64);
        specs.push(base);
        specs.push(base.races(2).seed(200 + i as u64));
    }
    // One genuinely wide case: the fan-out family at 32 threads.
    specs.push(
        WorkloadSpec::new(Family::Fanout)
            .threads(32)
            .events_per_thread(24)
            .races(3)
            .seed(300),
    );
    specs
}

/// One workload × tool classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadRow {
    /// Family short name.
    pub family: String,
    /// Spec-encoded workload name.
    pub spec: String,
    /// Oracle summary (`race-free` / `seeded(n)`).
    pub oracle: String,
    /// Tool label.
    pub tool: String,
    /// Racy contexts reported.
    pub contexts: usize,
    /// Contexts the oracle demands.
    pub expected: usize,
    /// Injected races the tool failed to report (soundness).
    pub missed: usize,
    /// Reports matching no injected race (completeness).
    pub unexpected: usize,
}

impl WorkloadRow {
    /// Did this tool report exactly the ground truth?
    pub fn pass(&self) -> bool {
        self.missed == 0 && self.unexpected == 0 && self.contexts == self.expected
    }
}

/// The whole table.
#[derive(Clone, Debug)]
pub struct WorkloadTable {
    /// One row per workload × tool, workload-major in
    /// [`standard_specs`] order.
    pub rows: Vec<WorkloadRow>,
    /// VM executions performed (distinct prepared modules, not
    /// workloads × tools).
    pub vm_runs: usize,
}

impl WorkloadTable {
    /// Do all rows pass their oracles?
    pub fn all_pass(&self) -> bool {
        self.rows.iter().all(WorkloadRow::pass)
    }

    /// The failing rows, if any.
    pub fn failures(&self) -> Vec<&WorkloadRow> {
        self.rows.iter().filter(|r| !r.pass()).collect()
    }

    /// Row for a given workload spec name and tool label.
    pub fn row(&self, spec: &str, tool: &str) -> Option<&WorkloadRow> {
        self.rows.iter().find(|r| r.spec == spec && r.tool == tool)
    }
}

/// Run the standard workload specs under `tools`.
pub fn run_workloads(tools: &[Tool]) -> WorkloadTable {
    run_workloads_with(tools, &standard_specs())
}

/// Run a specific spec list under `tools`.
pub fn run_workloads_with(tools: &[Tool], specs: &[WorkloadSpec]) -> WorkloadTable {
    let mut rows = Vec::with_capacity(specs.len() * tools.len());
    let mut vm_runs = 0;
    for spec in specs {
        let wl = spec.build();
        let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
        let (outs, runs) = lineup_outcomes(&session, tools);
        vm_runs += runs;
        for (&tool, result) in tools.iter().zip(outs) {
            let row = match result {
                Ok(out) => {
                    let verdict = judge_outcome(&wl.oracle, &out);
                    WorkloadRow {
                        family: spec.family.name().to_string(),
                        spec: spec.name(),
                        oracle: wl.oracle.describe(),
                        tool: tool.label(),
                        contexts: out.contexts,
                        expected: wl.oracle.expected_for(tool.is_predictive()).len(),
                        missed: verdict.missed.len(),
                        unexpected: verdict.unexpected.len(),
                    }
                }
                // A pipeline failure misses every injected race and, on a
                // race-free workload, is its own kind of unsoundness —
                // record it as missing everything plus one "unexpected"
                // marker so `pass()` can never be true.
                Err(_) => WorkloadRow {
                    family: spec.family.name().to_string(),
                    spec: spec.name(),
                    oracle: wl.oracle.describe(),
                    tool: tool.label(),
                    contexts: 0,
                    expected: wl.oracle.expected_for(tool.is_predictive()).len(),
                    missed: wl.oracle.expected_for(tool.is_predictive()).len(),
                    unexpected: 1,
                },
            };
            rows.push(row);
        }
    }
    WorkloadTable { rows, vm_runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline guarantee: the whole lineup — HB tools plus the
    /// predictive pass — is sound and complete on every standard
    /// workload (including the reorder-only families, where the HB
    /// tools owe 0 and `SyncPreserving` owes the injected set) — and
    /// stays that way.
    #[test]
    fn full_lineup_passes_every_standard_workload() {
        let mut tools = Tool::paper_lineup().to_vec();
        tools.push(Tool::SyncPreserving);
        let table = run_workloads(&tools);
        assert_eq!(table.rows.len(), standard_specs().len() * tools.len());
        assert!(table.all_pass(), "oracle failures: {:#?}", table.failures());
        // The reorder-only families are actually exercised: their racy
        // rows demand a non-zero count from the predictive tool only.
        let sp = Tool::SyncPreserving.label();
        let reorder_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| (r.family == "straddle" || r.family == "publish") && r.expected > 0)
            .collect();
        assert!(!reorder_rows.is_empty());
        assert!(reorder_rows.iter().all(|r| r.tool == sp));
    }

    /// Trace fan-out works here exactly as in the other suites: tools
    /// sharing a prepared module share one VM execution.
    #[test]
    fn executions_are_shared_across_tools() {
        let tools = Tool::paper_lineup();
        let table = run_workloads_with(&tools, &[WorkloadSpec::new(Family::Zipf)]);
        // Zipf has no spin loops and no library sync, so lib, lib+spin
        // and DRD all share the unmodified module; only nolib lowering
        // (renaming the module) forces a second execution.
        assert_eq!(table.vm_runs, 2);
    }

    /// `Oracle::RaceFree` rows demand zero contexts; seeded rows demand
    /// the exact count.
    #[test]
    fn expected_counts_follow_the_oracle() {
        let specs = [
            WorkloadSpec::new(Family::Ring).seed(7),
            WorkloadSpec::new(Family::Ring).races(3).seed(7),
        ];
        let table = run_workloads_with(&[Tool::Drd], &specs);
        assert_eq!(table.rows[0].expected, 0);
        assert_eq!(table.rows[1].expected, 3);
        assert!(table.all_pass(), "{:#?}", table.failures());
    }

    #[test]
    fn oracle_export_is_usable_downstream() {
        // Downstream consumers (report, the `trace` CLI) read oracles straight off
        // built workloads.
        let oracle = WorkloadSpec::new(Family::Barrier).build().oracle;
        assert_eq!(oracle.describe(), "race-free");
    }
}
