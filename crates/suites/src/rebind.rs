//! Rebind a serialized trace to a freshly prepared module, from its
//! header alone.
//!
//! A trace header names the program, its VM configuration, the
//! recording tool, and the prepared module's fingerprint. The program
//! name fixes every other preparation input: a generated workload's
//! name encodes its full spec (and `trace gen` records only the textbook
//! library style), and a PARSEC program is recorded only at its own
//! thread count, size and nolib style. So rebinding is a lookup: prepare
//! the one candidate module per tool and compare fingerprints. A match
//! means the stream replays against the very module it was recorded
//! from, so reports carry source locations; a mismatch (a stale or
//! forged header) binds nothing, at the cost of one preparation per
//! tool. Shared by the `trace` CLI and the analysis server, which must
//! rebind every upload before detection.

use crate::parsec::all_programs;
use spinrace_core::{PreparedModule, Session, Tool};
use spinrace_detector::MsmMode;
use spinrace_synclib::LibStyle;
use spinrace_vm::TraceHeader;
use spinrace_workloads::WorkloadSpec;

/// The preparation a replay should bind to: the *requested* tool's when
/// its fingerprint matches the header (the replay then equals a live
/// `tool` run), else the recording tool's, with a plain warning that the
/// results describe the recorded stream. Returns `None` when the header
/// names no known program or neither preparation reproduces its
/// fingerprint.
pub fn prepared_for_replay(
    header: &TraceHeader,
    tool: Tool,
    msm: MsmMode,
    cap: usize,
) -> Option<PreparedModule> {
    // Lowered (nolib) modules are renamed `<name>.nolib`.
    let base = header
        .module_name
        .strip_suffix(".nolib")
        .unwrap_or(&header.module_name);
    let (module, style) = match WorkloadSpec::from_name(base) {
        Some(spec) => (spec.build().module, LibStyle::Textbook),
        None => {
            let prog = all_programs().into_iter().find(|p| p.name == base)?;
            (prog.module(), prog.nolib_style)
        }
    };
    let session = Session::for_module(&module)
        .msm(msm)
        .cap(cap)
        .vm_config(header.vm)
        .nolib_style(style);
    let matching = |t: Tool| {
        session
            .prepare(t)
            .ok()
            .filter(|p| p.fingerprint() == header.module_fingerprint)
    };
    if let Some(prepared) = matching(tool) {
        return Some(prepared);
    }
    let rec_tool: Tool = header.tool_label.parse().ok()?;
    if rec_tool == tool {
        return None;
    }
    let prepared = matching(rec_tool)?;
    eprintln!(
        "note: stream was recorded from the `{}` preparation; results show that stream under \
         `{}`'s detector configuration, NOT what a live `{}` run would report",
        rec_tool.label(),
        tool.label(),
        tool.label(),
    );
    Some(prepared)
}

/// Why [`prepared_for_replay`] bound nothing, in the words the `trace`
/// CLI prints and the analysis server sends in its `unknown-module`
/// error frame.
pub fn unbound_message(header: &TraceHeader) -> String {
    format!(
        "cannot rebuild module {:?} from the trace header (unknown program or fingerprint drift)",
        header.module_name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_vm::VmConfig;

    /// Every PARSEC program, recorded the way `trace record` records it
    /// under each paper-lineup tool and both schedulers, rebinds to the
    /// requested tool's own preparation with the recorded fingerprint —
    /// the obscure-style programs included — and a header whose
    /// fingerprint drifted binds nothing.
    #[test]
    fn every_parsec_recording_rebinds_to_its_own_preparation() {
        for prog in all_programs() {
            let module = (prog.build)(prog.threads, prog.size);
            for vm in [VmConfig::round_robin(), VmConfig::random(1)] {
                let session = Session::for_module(&module)
                    .vm_config(vm)
                    .nolib_style(prog.nolib_style);
                for tool in Tool::paper_lineup() {
                    let run = session.prepare(tool).unwrap().execute().unwrap();
                    let mut header = run.trace().header.clone();
                    let prepared = prepared_for_replay(&header, tool, MsmMode::Long, 1000)
                        .unwrap_or_else(|| panic!("{} under {tool} did not rebind", prog.name));
                    assert_eq!(prepared.fingerprint(), header.module_fingerprint);
                    assert_eq!(prepared.tool(), tool, "{}", prog.name);
                    header.module_fingerprint ^= 1;
                    assert!(prepared_for_replay(&header, tool, MsmMode::Long, 1000).is_none());
                }
            }
        }
    }
}
