//! The ground-truth oracle suite: generated workloads where the true race
//! set is known by construction, checked against **every** tool in the
//! paper lineup plus the predictive `SyncPreserving` pass, for **every**
//! detection path — live (detector attached to the VM run), whole-trace
//! replay, and streamed chunked replay, which must also agree with each
//! other bit for bit.
//!
//! This turns the tool lineup from "matches recorded numbers" into
//! "sound and complete on known ground truth": race-free families must
//! yield zero reports (no false positives anywhere in the pipeline), and
//! seeded families must yield exactly the injected race set, by victim
//! variable and thread pair (no misses, no extras). The reorder-only
//! families split the lineup by class: every HB tool owes **0** (the
//! recorded interleaving orders the pair) while the predictive tool owes
//! exactly the injected set.

use proptest::prelude::*;
use spinrace::core::{AnalysisOutcome, DetectRequest, Session, Tool};
use spinrace::suites::judge_outcome;
use spinrace::tracefmt::{encode_trace_chunked, ChunkedTraceReader, DEFAULT_CHUNK_EVENTS};
use spinrace::workloads::{Family, Workload, WorkloadSpec};

/// Judge one outcome against the ground truth the producing tool's
/// class owes, panicking with a readable description on any mismatch.
fn assert_oracle(wl: &Workload, out: &AnalysisOutcome, path: &str) -> Result<(), TestCaseError> {
    let verdict = judge_outcome(&wl.oracle, out);
    prop_assert!(
        verdict.pass(),
        "{} under {} [{path}]: {verdict}",
        wl.module.name,
        out.tool_label
    );
    let predictive = out
        .tool_label
        .parse::<Tool>()
        .map(|t| t.is_predictive())
        .unwrap_or(false);
    prop_assert_eq!(
        out.contexts,
        wl.oracle.expected_for(predictive).len(),
        "{} under {} [{path}]: context count",
        &wl.module.name,
        &out.tool_label
    );
    Ok(())
}

/// The full check for one spec: for every paper-lineup tool and the
/// predictive tool, run the VM once with the live detector and a trace
/// recorder teed, then replay the recorded trace whole and streamed.
fn check_spec(spec: WorkloadSpec) -> Result<(), TestCaseError> {
    let wl = spec.build();
    let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
    let mut tools = Tool::paper_lineup().to_vec();
    tools.push(Tool::SyncPreserving);
    for tool in tools {
        check_tool(&wl, &session, tool)?;
    }
    Ok(())
}

/// One tool's leg of [`check_spec`]: live, whole-trace replay, and
/// streamed chunked replay must each satisfy the oracle, and both
/// replays must reproduce the live metrics and report list.
fn check_tool(wl: &Workload, session: &Session, tool: Tool) -> Result<(), TestCaseError> {
    let prepared = session.prepare(tool).unwrap();
    let (run, live) = prepared.execute_detecting().unwrap();
    assert_oracle(wl, &live, "live")?;
    let whole = run.run(&DetectRequest::own()).into_single();
    assert_oracle(wl, &whole, "whole-trace replay")?;
    prop_assert_eq!(&live.metrics, &whole.metrics);

    // Streamed chunked replay: encode the recorded trace with small
    // chunks so streams cross several chunk boundaries, then decode it
    // chunk-by-chunk through the replay loop. Same outcome bytes.
    let bytes = encode_trace_chunked(run.trace(), 64);
    let reader = ChunkedTraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    let (streamed, _) = run
        .prepared()
        .try_run_streamed(&DetectRequest::own(), reader)
        .unwrap();
    let streamed = streamed.into_single();
    assert_oracle(wl, &streamed, "streamed replay")?;
    prop_assert_eq!(&streamed.metrics, &whole.metrics);
    prop_assert_eq!(streamed.reports.len(), whole.reports.len());
    for (a, b) in streamed.reports.iter().zip(&whole.reports) {
        prop_assert_eq!(&a.location, &b.location);
        prop_assert_eq!(&a.report, &b.report);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Race-free variants of every family: zero reports under every tool
    /// on every path, across random thread counts, event budgets,
    /// address-space sizes, skews and seeds.
    #[test]
    fn race_free_families_report_nothing(
        fam_ix in 0usize..7,
        threads in 2u32..6,
        events in 16u32..120,
        addr_space in 8u32..600,
        skew in 0u32..4,
        seed in 0u64..10_000,
    ) {
        let fam = Family::all()[fam_ix];
        let spec = WorkloadSpec::new(fam)
            .threads(threads)
            .events_per_thread(events)
            .addr_space(addr_space)
            .skew(skew)
            .seed(seed);
        check_spec(spec)?;
    }

    /// Seeded variants: exactly the injected race set — by victim
    /// variable and thread pair — under every tool on every path. For
    /// the reorder-only families this is the class split: HB tools owe
    /// zero, the predictive tool owes the set.
    #[test]
    fn seeded_families_report_exactly_the_injected_races(
        fam_ix in 0usize..7,
        threads in 2u32..6,
        events in 16u32..120,
        addr_space in 8u32..600,
        skew in 0u32..4,
        races in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let fam = Family::all()[fam_ix];
        let spec = WorkloadSpec::new(fam)
            .threads(threads)
            .events_per_thread(events)
            .addr_space(addr_space)
            .skew(skew)
            .races(races)
            .seed(seed);
        check_spec(spec)?;
    }
}

/// One deterministic pinned case per family (race-free and seeded), so a
/// regression names the family directly instead of a proptest seed.
#[test]
fn every_family_passes_its_oracle_pinned() {
    for fam in Family::all() {
        check_spec(WorkloadSpec::new(fam)).unwrap();
        check_spec(WorkloadSpec::new(fam).races(2).seed(3)).unwrap();
    }
}

/// The headline predictive claim, pinned per reorder-only family: on a
/// trace where every injected racy pair is ordered by a happens-before
/// path through an *unrelated* critical section, all four HB tools
/// report 0 while `SyncPreserving` reports exactly the injected set —
/// the races that exist only in sync-preserving reorderings of the
/// recorded interleaving.
#[test]
fn reorder_only_families_split_the_lineup_by_class() {
    for fam in [Family::Straddle, Family::Publish] {
        for races in [1u32, 2, 3] {
            let spec = WorkloadSpec::new(fam).races(races).seed(41 + races as u64);
            let wl = spec.build();
            assert_eq!(
                wl.oracle.expected().len(),
                races as usize,
                "{fam:?} must inject all {races} requested races"
            );
            assert!(wl.oracle.expected_for(false).is_empty());
            check_spec(spec).unwrap();
        }
    }
}

/// The structural soundness guarantee, tested differentially: on the
/// *same* recorded stream, `SyncPreserving` only ever drops
/// happens-before edges, so every race an HB tool reports must also be
/// reported by the predictive pass — as a context on the same location
/// between the same thread pair. Checked on the seeded variant of every
/// family, across sequential and streamed replay of the shared
/// unmodified-module trace.
#[test]
fn predictive_reports_are_a_superset_of_hb_reports() {
    for fam in Family::all() {
        let spec = WorkloadSpec::new(fam).races(2).seed(17);
        let wl = spec.build();
        let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
        // Drd shares the unmodified module with SyncPreserving, so one
        // execution yields the identical event stream for both tools.
        let prepared = session.prepare(Tool::Drd).unwrap();
        let (run, _) = prepared.execute_detecting().unwrap();

        let context_set = |out: &AnalysisOutcome| -> std::collections::BTreeSet<_> {
            out.reports
                .iter()
                .map(|r| {
                    (
                        r.location.clone(),
                        r.report.prior.tid.min(r.report.current.tid),
                        r.report.prior.tid.max(r.report.current.tid),
                    )
                })
                .collect()
        };
        let hb = context_set(&run.run(&DetectRequest::tool(Tool::Drd)).into_single());
        let sp_sequential = run
            .run(&DetectRequest::tool(Tool::SyncPreserving))
            .into_single();
        let sp = context_set(&sp_sequential);
        assert!(
            hb.is_subset(&sp),
            "{fam:?}: HB races {:?} not all predicted; SP reported {:?}",
            hb,
            sp
        );

        // The streamed predictive pass lands on the same bytes as the
        // sequential one — the superset holds on every replay mode.
        let bytes = encode_trace_chunked(run.trace(), DEFAULT_CHUNK_EVENTS);
        let reader = ChunkedTraceReader::new(std::io::Cursor::new(bytes)).unwrap();
        let prepared = session.prepare(Tool::SyncPreserving).unwrap();
        let (streamed, _) = prepared
            .try_run_streamed(
                &DetectRequest::tool(Tool::SyncPreserving).streamed(),
                reader,
            )
            .unwrap();
        let streamed = streamed.into_single();
        assert_eq!(context_set(&streamed), sp);
        assert_eq!(streamed.metrics, sp_sequential.metrics);
    }
}

/// Wide fan-out at genuinely wide thread counts (the `ReadState` read
/// vectors and vector clocks reach the full width).
#[test]
fn wide_fanout_oracles_hold_at_32_and_48_threads() {
    for threads in [32u32, 48] {
        check_spec(
            WorkloadSpec::new(Family::Fanout)
                .threads(threads)
                .events_per_thread(24),
        )
        .unwrap();
        check_spec(
            WorkloadSpec::new(Family::Fanout)
                .threads(threads)
                .events_per_thread(24)
                .races(3)
                .seed(threads as u64),
        )
        .unwrap();
    }
}
