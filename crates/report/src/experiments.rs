//! The per-experiment renderers. Each regenerates one table or figure of
//! the paper from a live run of the pipeline and pairs the measured
//! numbers with the paper's reported ones.

use crate::ascii::AsciiTable;
use serde_json::json;
use spinrace_core::{DetectRequest, Session, Tool};
use spinrace_spinfind::sync_inventory;
use spinrace_suites::{all_programs, run_drt, run_parsec, run_workloads, ParsecProgram};
use std::time::Instant;

/// A rendered experiment: ASCII output plus machine-readable payload.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment id (`T1`…`F2`).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered ASCII table(s).
    pub rendered: String,
    /// JSON payload for tooling.
    pub json: serde_json::Value,
}

/// Seeds used for the PARSEC averages (the paper averaged 5 runs).
pub const PARSEC_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// T1 — the `data-race-test` table (paper: 120 cases, four tools).
pub fn t1_drt() -> Experiment {
    let tools = Tool::paper_lineup();
    let table = run_drt(&tools);
    // Paper row values for side-by-side comparison.
    let paper = [
        ("Helgrind+ lib", (32, 8)),
        ("Helgrind+ lib+spin(7)", (8, 7)),
        ("Helgrind+ nolib+spin(7)", (9, 7)),
        ("DRD", (13, 20)),
    ];
    let mut t = AsciiTable::new(&[
        "Tool",
        "FalseAlarms",
        "Missed",
        "Failed",
        "Correct",
        "paper FA",
        "paper missed",
    ]);
    let mut rows_json = Vec::new();
    for r in &table.rows {
        let (pfa, pm) = paper
            .iter()
            .find(|(n, _)| *n == r.tool)
            .map(|(_, v)| *v)
            .unwrap_or((0, 0));
        t.row(vec![
            r.tool.clone(),
            r.false_alarms.to_string(),
            r.missed_races.to_string(),
            r.failed.to_string(),
            r.correct.to_string(),
            pfa.to_string(),
            pm.to_string(),
        ]);
        rows_json.push(json!({
            "tool": r.tool,
            "false_alarms": r.false_alarms,
            "missed": r.missed_races,
            "failed": r.failed,
            "correct": r.correct,
            "paper_false_alarms": pfa,
            "paper_missed": pm,
        }));
    }
    Experiment {
        id: "T1",
        title: "data-race-test suite (120 cases), standard tool lineup".into(),
        rendered: t.render(),
        json: json!({ "rows": rows_json }),
    }
}

/// T2 — the spin-window sweep (paper: spin(3)/(6)/(7)/(8)).
///
/// Trace-centric since the session redesign: per case, each window's
/// instrumented module is prepared, but the VM executes only once per
/// *distinct* prepared module and every window's detector replays the
/// recorded trace (windows that accept the same loops — e.g. 7 and 8 on
/// most cases — share one execution). The JSON's `vm_runs` field reports
/// how many executions the sweep actually needed out of `tools × cases`.
pub fn t2_window_sweep() -> Experiment {
    let windows = [3u32, 6, 7, 8];
    let paper_fa = [24, 23, 8, 8];
    let tools: Vec<Tool> = windows
        .iter()
        .map(|&w| Tool::HelgrindLibSpin { window: w })
        .collect();
    let table = run_drt(&tools);
    let mut t = AsciiTable::new(&[
        "Tool",
        "FalseAlarms",
        "Missed",
        "Failed",
        "Correct",
        "paper FA",
    ]);
    let mut rows_json = Vec::new();
    for (i, r) in table.rows.iter().enumerate() {
        t.row(vec![
            r.tool.clone(),
            r.false_alarms.to_string(),
            r.missed_races.to_string(),
            r.failed.to_string(),
            r.correct.to_string(),
            paper_fa[i].to_string(),
        ]);
        rows_json.push(json!({
            "tool": r.tool,
            "false_alarms": r.false_alarms,
            "missed": r.missed_races,
            "paper_false_alarms": paper_fa[i],
        }));
    }
    Experiment {
        id: "T2",
        title: "spin-loop detection window sweep".into(),
        rendered: t.render(),
        json: json!({
            "rows": rows_json,
            "vm_runs": table.vm_runs as u64,
            "cells": table.outcomes.len() as u64,
        }),
    }
}

/// T3 — the PARSEC synchronization-characteristics table.
pub fn t3_characteristics() -> Experiment {
    let programs = all_programs();
    let mut t = AsciiTable::new(&[
        "Program",
        "Model",
        "LOC (paper)",
        "CVs",
        "Locks",
        "Barriers",
        "Ad-hoc",
        "spins found",
    ]);
    let mut rows_json = Vec::new();
    for p in &programs {
        let module = p.module();
        let inv = sync_inventory(&module, 7);
        let mark = |b: bool| if b { "x" } else { "-" }.to_string();
        t.row(vec![
            p.name.to_string(),
            p.model.to_string(),
            p.paper_loc.to_string(),
            mark(p.uses_cvs),
            mark(p.uses_locks),
            mark(p.uses_barriers),
            mark(p.has_adhoc),
            inv.adhoc_spins.to_string(),
        ]);
        rows_json.push(json!({
            "program": p.name,
            "model": p.model,
            "cvs": p.uses_cvs,
            "locks": p.uses_locks,
            "barriers": p.uses_barriers,
            "adhoc": p.has_adhoc,
            "detected_spins": inv.adhoc_spins,
            "lib_lock_sites": inv.locks,
            "lib_cv_sites": inv.condvars,
            "lib_barrier_sites": inv.barriers,
            "atomic_sites": inv.atomics,
        }));
    }
    Experiment {
        id: "T3",
        title: "PARSEC program synchronization characteristics".into(),
        rendered: t.render(),
        json: json!({ "rows": rows_json }),
    }
}

fn parsec_table(programs: &[ParsecProgram], id: &'static str, title: &str) -> Experiment {
    let tools = Tool::paper_lineup();
    let table = run_parsec(programs, &tools, &PARSEC_SEEDS);
    let mut t = AsciiTable::new(&[
        "Program",
        "H+ lib",
        "H+ lib+spin",
        "H+ nolib+spin",
        "DRD",
        "paper (lib/spin/nolib/drd)",
    ]);
    let mut rows_json = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let cells = &table.cells[i];
        t.row(vec![
            p.name.to_string(),
            format!("{:.1}", cells[0].mean_contexts),
            format!("{:.1}", cells[1].mean_contexts),
            format!("{:.1}", cells[2].mean_contexts),
            format!("{:.1}", cells[3].mean_contexts),
            format!(
                "{}/{}/{}/{}",
                p.paper.lib, p.paper.lib_spin, p.paper.nolib_spin, p.paper.drd
            ),
        ]);
        rows_json.push(json!({
            "program": p.name,
            "lib": cells[0].mean_contexts,
            "lib_spin": cells[1].mean_contexts,
            "nolib_spin": cells[2].mean_contexts,
            "drd": cells[3].mean_contexts,
            "paper": {
                "lib": p.paper.lib,
                "lib_spin": p.paper.lib_spin,
                "nolib_spin": p.paper.nolib_spin,
                "drd": p.paper.drd,
            },
        }));
    }
    Experiment {
        id,
        title: title.into(),
        rendered: t.render(),
        json: json!({ "rows": rows_json, "seeds": PARSEC_SEEDS }),
    }
}

/// T4 — racy contexts, programs *without* ad-hoc synchronization (plus
/// freqmine, grouped as in the paper's first PARSEC table).
pub fn t4_no_adhoc() -> Experiment {
    let programs: Vec<ParsecProgram> = all_programs().into_iter().take(5).collect();
    parsec_table(
        &programs,
        "T4",
        "PARSEC racy contexts — programs without ad-hoc synchronization (+freqmine)",
    )
}

/// T5 — racy contexts, programs *with* ad-hoc synchronization.
pub fn t5_with_adhoc() -> Experiment {
    let programs: Vec<ParsecProgram> = all_programs().into_iter().skip(5).collect();
    parsec_table(
        &programs,
        "T5",
        "PARSEC racy contexts — programs with ad-hoc synchronization",
    )
}

/// T6 — the combined "universal race detector" table (all 13 programs).
pub fn t6_universal() -> Experiment {
    let programs = all_programs();
    parsec_table(
        &programs,
        "T6",
        "PARSEC racy contexts — universal detector summary (all programs)",
    )
}

/// W1 — the generated-workloads oracle table (beyond the paper): every
/// `spinrace-workloads` family (race-free and seeded variants) under the
/// full lineup, classified against *computed* ground truth instead of
/// recorded numbers. `missed` counts injected races a tool failed to
/// report (soundness); `unexpected` counts reports matching no injected
/// race (completeness — on race-free workloads every report lands here).
pub fn w1_workloads() -> Experiment {
    // The paper lineup plus the predictive tool: on the reorder-only
    // families the HB columns must show 0 while `SyncPreserving` owes
    // exactly the injected set.
    let mut tools = Tool::paper_lineup().to_vec();
    tools.push(Tool::SyncPreserving);
    let table = run_workloads(&tools);
    let mut t = AsciiTable::new(&[
        "Workload",
        "Oracle",
        "Tool",
        "Contexts",
        "Expected",
        "Missed",
        "Unexpected",
        "Verdict",
    ]);
    let mut rows_json = Vec::new();
    for r in &table.rows {
        t.row(vec![
            r.spec.clone(),
            r.oracle.clone(),
            r.tool.clone(),
            r.contexts.to_string(),
            r.expected.to_string(),
            r.missed.to_string(),
            r.unexpected.to_string(),
            if r.pass() { "pass" } else { "FAIL" }.to_string(),
        ]);
        rows_json.push(json!({
            "spec": r.spec,
            "family": r.family,
            "oracle": r.oracle,
            "tool": r.tool,
            "contexts": r.contexts,
            "expected": r.expected,
            "missed": r.missed,
            "unexpected": r.unexpected,
            "pass": r.pass(),
        }));
    }
    Experiment {
        id: "W1",
        title: "generated workloads vs ground-truth oracles (soundness/completeness)".into(),
        rendered: t.render(),
        json: json!({
            "rows": rows_json,
            "vm_runs": table.vm_runs,
            "all_pass": table.all_pass(),
        }),
    }
}

/// F1 — detector memory consumption per configuration (the paper's
/// memory-overhead figure). One round-robin run per cell.
pub fn f1_memory() -> Experiment {
    let programs = all_programs();
    let tools = Tool::paper_lineup();
    let mut t = AsciiTable::new(&[
        "Program",
        "lib (bytes)",
        "lib+spin (bytes)",
        "nolib+spin (bytes)",
        "drd (bytes)",
        "spin-state share",
    ]);
    let mut rows_json = Vec::new();
    for p in &programs {
        let module = p.module();
        let mut totals = Vec::new();
        let mut spin_share = 0.0;
        for &tool in &tools {
            let session = Session::for_module(&module)
                .long_msm()
                .nolib_style(p.nolib_style);
            match session
                .prepare(tool)
                .and_then(|p| p.try_run(&DetectRequest::own()))
            {
                Ok(out) => {
                    let m = out.into_single().metrics;
                    if matches!(tool, Tool::HelgrindLibSpin { .. }) && m.total() > 0 {
                        spin_share = m.spin_sync_bytes as f64 / m.total() as f64;
                    }
                    totals.push(m.total());
                }
                Err(_) => totals.push(0),
            }
        }
        t.row(vec![
            p.name.to_string(),
            totals[0].to_string(),
            totals[1].to_string(),
            totals[2].to_string(),
            totals[3].to_string(),
            format!("{:.1}%", spin_share * 100.0),
        ]);
        rows_json.push(json!({
            "program": p.name,
            "lib_bytes": totals[0],
            "lib_spin_bytes": totals[1],
            "nolib_spin_bytes": totals[2],
            "drd_bytes": totals[3],
            "spin_state_share": spin_share,
        }));
    }
    Experiment {
        id: "F1",
        title: "detector memory consumption (paper: minor overhead for the spin feature)".into(),
        rendered: t.render(),
        json: json!({ "rows": rows_json }),
    }
}

/// F2 — runtime overhead per configuration vs. an uninstrumented run
/// (the paper's runtime-overhead figure). Wall-clock, one run per cell.
pub fn f2_runtime() -> Experiment {
    let programs = all_programs();
    let tools = Tool::paper_lineup();
    let mut t = AsciiTable::new(&[
        "Program",
        "native (ms)",
        "lib (x)",
        "lib+spin (x)",
        "nolib+spin (x)",
        "drd (x)",
    ]);
    let mut rows_json = Vec::new();
    for p in &programs {
        let module = p.module();
        // Native: VM without a detector.
        let t0 = Instant::now();
        let _ = spinrace_vm::run_module(
            &module,
            spinrace_vm::VmConfig::round_robin(),
            &mut spinrace_vm::NullSink,
        );
        let native = t0.elapsed().as_secs_f64().max(1e-6);
        let mut factors = Vec::new();
        for &tool in &tools {
            let session = Session::for_module(&module)
                .long_msm()
                .nolib_style(p.nolib_style);
            let t1 = Instant::now();
            let _ = session
                .prepare(tool)
                .and_then(|p| p.try_run(&DetectRequest::own()));
            factors.push(t1.elapsed().as_secs_f64() / native);
        }
        t.row(vec![
            p.name.to_string(),
            format!("{:.2}", native * 1e3),
            format!("{:.1}", factors[0]),
            format!("{:.1}", factors[1]),
            format!("{:.1}", factors[2]),
            format!("{:.1}", factors[3]),
        ]);
        rows_json.push(json!({
            "program": p.name,
            "native_ms": native * 1e3,
            "lib_factor": factors[0],
            "lib_spin_factor": factors[1],
            "nolib_spin_factor": factors[2],
            "drd_factor": factors[3],
        }));
    }
    Experiment {
        id: "F2",
        title: "runtime overhead vs uninstrumented execution (paper: slight overhead)".into(),
        rendered: t.render(),
        json: json!({ "rows": rows_json }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3_has_thirteen_rows_and_detects_spins() {
        let e = t3_characteristics();
        assert_eq!(e.id, "T3");
        let rows = e.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 13);
        // Programs flagged ad-hoc must have detected spin loops; the
        // first four must have none.
        for r in rows.iter().take(4) {
            assert_eq!(r["detected_spins"].as_u64().unwrap(), 0, "{r}");
        }
        for r in rows.iter().skip(4) {
            assert!(r["detected_spins"].as_u64().unwrap() > 0, "{r}");
        }
    }

    #[test]
    fn t2_renders_with_paper_column() {
        let e = t2_window_sweep();
        assert!(e.rendered.contains("paper FA"));
        assert!(e.rendered.contains("lib+spin(3)"));
        let rows = e.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
    }

    /// The trace-centric rewrite must not move a single number: T1 and T2
    /// are pinned to the values the live-run pipeline produced before the
    /// session redesign (lib 32/8, lib+spin 8/7, nolib 8/7, DRD 13/21;
    /// window sweep FA 24/23/8/8, missed 7 throughout) — and T2 must
    /// actually reuse recorded traces across windows.
    #[test]
    fn t1_t2_numbers_match_seed_tables_and_t2_reuses_traces() {
        let t1 = t1_drt();
        let expect1 = [
            ("Helgrind+ lib", 32u64, 8u64),
            ("Helgrind+ lib+spin(7)", 8, 7),
            ("Helgrind+ nolib+spin(7)", 8, 7),
            ("DRD", 13, 21),
        ];
        let rows = t1.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), expect1.len());
        for (row, (tool, fa, missed)) in rows.iter().zip(expect1) {
            assert_eq!(row["tool"].as_str().unwrap(), tool);
            assert_eq!(row["false_alarms"].as_u64().unwrap(), fa, "{tool} FA");
            assert_eq!(row["missed"].as_u64().unwrap(), missed, "{tool} missed");
        }

        let t2 = t2_window_sweep();
        let rows = t2.json["rows"].as_array().unwrap();
        let expect_fa = [24u64, 23, 8, 8];
        assert_eq!(rows.len(), expect_fa.len());
        for (row, fa) in rows.iter().zip(expect_fa) {
            assert_eq!(row["false_alarms"].as_u64().unwrap(), fa, "{row}");
            assert_eq!(row["missed"].as_u64().unwrap(), 7, "{row}");
        }
        let vm_runs = t2.json["vm_runs"].as_u64().unwrap();
        let cells = t2.json["cells"].as_u64().unwrap();
        assert!(
            vm_runs < cells,
            "window sweep must share recorded traces ({vm_runs} runs for {cells} cells)"
        );
    }

    /// F1 counts detector state, so its cells are exact: 13 programs ×
    /// {lib, lib+spin, nolib+spin, drd} bytes, and the spin-state share
    /// of lib+spin in tenths of a percent as `tables f1` prints it. Every
    /// cell is a live round-robin run, so this also pins the VM's
    /// schedules of the whole PARSEC set.
    #[test]
    fn f1_cells_are_pinned() {
        #[rustfmt::skip]
        let expect: [(&str, [u64; 4], u64); 13] = [
            ("blackscholes", [7624, 7624, 8316, 7624], 0),
            ("swaptions", [5340, 5340, 5340, 5340], 0),
            ("fluidanimate", [3428, 3428, 3148, 3428], 0),
            ("canneal", [2524, 3260, 3260, 3260], 226),
            ("freqmine", [19932, 12144, 12144, 13916], 13),
            ("vips", [32332, 8892, 8892, 38780], 156),
            ("bodytrack", [7248, 5384, 9268, 9808], 79),
            ("facesim", [18364, 14988, 15116, 23612], 48),
            ("ferret", [9680, 6704, 7528, 13008], 72),
            ("x264", [12680, 10592, 12436, 19592], 48),
            ("dedup", [14904, 10744, 10956, 8824], 113),
            ("streamcluster", [4340, 4064, 4800, 4468], 11),
            ("raytrace", [14112, 6064, 4112, 18080], 148),
        ];
        let f1 = f1_memory();
        let rows = f1.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), expect.len());
        let cols = [
            "lib_bytes",
            "lib_spin_bytes",
            "nolib_spin_bytes",
            "drd_bytes",
        ];
        for (row, (program, bytes, share)) in rows.iter().zip(expect) {
            assert_eq!(row["program"].as_str().unwrap(), program);
            for (col, want) in cols.into_iter().zip(bytes) {
                assert_eq!(row[col].as_u64().unwrap(), want, "{program} {col}");
            }
            let got = (row["spin_state_share"].as_f64().unwrap() * 1000.0).round() as u64;
            assert_eq!(
                got, share,
                "{program} spin-state share (tenths of a percent)"
            );
        }
    }
}
