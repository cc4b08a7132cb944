//! The paper-tables workload: regenerate T1 and T2 and hold them to the
//! pinned paper-reproduction numbers.

use crate::tracer::Tracer;
use spinrace_core::{Session, Tool};
use spinrace_report::{t1_drt, t2_window_sweep, Experiment};
use spinrace_suites::all_cases;
use spinrace_suites::harness::DRT_CAP;

/// T1 (false alarms, missed races) per tool, paper lineup order.
const T1_PINNED: [(u64, u64); 4] = [(32, 8), (8, 7), (8, 7), (13, 21)];
/// T2 false alarms for spin windows 3, 6, 7 and 8.
const T2_PINNED: [u64; 4] = [24, 23, 8, 8];
const T2_WINDOWS: [u32; 4] = [3, 6, 7, 8];

pub struct Tables {
    /// Events the detectors analyse in one T1 + T2 regeneration.
    pub events_per_op: u64,
    /// VM executions in one regeneration (distinct prepared modules).
    pub vm_runs_per_op: u64,
    t2_vm_runs: u64,
}

impl Tables {
    /// Run the static phases and the VM over every drt case once, as
    /// T1 and T2 do, to count the work one regeneration performs.
    pub fn setup(t: &mut Tracer) -> Result<Tables, String> {
        let t2_tools: Vec<Tool> = T2_WINDOWS
            .iter()
            .map(|&window| Tool::HelgrindLibSpin { window })
            .collect();
        let lineups = [Tool::paper_lineup().to_vec(), t2_tools];
        let mut events_per_op = 0u64;
        let mut runs = [0u64; 2];
        for case in all_cases() {
            let session = Session::for_module(&case.module).cap(DRT_CAP);
            for (li, tools) in lineups.iter().enumerate() {
                // Tools whose preparations share a fingerprint share one
                // execution, and each of their detectors reads its trace.
                let mut groups: Vec<(u64, u64, usize)> = Vec::new();
                for &tool in tools {
                    let prepared = t
                        .call("core.prepare", |_| session.prepare(tool))
                        .map_err(|e| format!("prepare {} under {tool}: {e}", case.name))?;
                    let fp = prepared.fingerprint();
                    if let Some(g) = groups.iter_mut().find(|g| g.0 == fp) {
                        g.2 += 1;
                        continue;
                    }
                    let run = t
                        .span(
                            "core.execute",
                            |_| prepared.execute(),
                            |r| r.as_ref().map_or(0, |r| r.trace().events.len() as u64),
                        )
                        .map_err(|e| format!("execute {} under {tool}: {e}", case.name))?;
                    groups.push((fp, run.trace().events.len() as u64, 1));
                }
                runs[li] += groups.len() as u64;
                events_per_op += groups.iter().map(|g| g.1 * g.2 as u64).sum::<u64>();
            }
        }
        Ok(Tables {
            events_per_op,
            vm_runs_per_op: runs[0] + runs[1],
            t2_vm_runs: runs[1],
        })
    }

    /// One regeneration of T1 and T2, checked against the pinned rows.
    pub fn op(&self, t: &mut Tracer) -> Result<u64, String> {
        let t1 = t.call("report.t1", |_| t1_drt());
        let t2 = t.call("report.t2", |_| t2_window_sweep());
        t.gauge("vm.runs", self.vm_runs_per_op as f64);
        for (i, &(fa, missed)) in T1_PINNED.iter().enumerate() {
            let got = (row(&t1, i, "false_alarms")?, row(&t1, i, "missed")?);
            if got != (fa, missed) {
                return Err(format!(
                    "T1 row {i}: false alarms/missed {got:?}, pinned ({fa}, {missed})"
                ));
            }
        }
        for (i, &fa) in T2_PINNED.iter().enumerate() {
            let got = row(&t2, i, "false_alarms")?;
            if got != fa {
                return Err(format!("T2 row {i}: {got} false alarms, pinned {fa}"));
            }
        }
        let vm_runs = t2.json["vm_runs"].as_u64();
        if vm_runs != Some(self.t2_vm_runs) {
            return Err(format!(
                "T2 ran the VM {vm_runs:?} times, set-up counted {}",
                self.t2_vm_runs
            ));
        }
        Ok(self.events_per_op)
    }
}

fn row(exp: &Experiment, i: usize, field: &str) -> Result<u64, String> {
    exp.json["rows"][i][field]
        .as_u64()
        .ok_or_else(|| format!("{} has no rows[{i}].{field}", exp.id))
}
