//! Record once, replay everywhere: record a PARSEC-style workload as a
//! trace, replay it under all four paper tools, and round-trip it
//! through the binary trace encoding.
//!
//! ```text
//! cargo run --example trace_replay
//! ```
//!
//! The staged session API splits a live analysis
//! (`prepare(tool)?.try_run(&DetectRequest::own())?`) into prepare →
//! execute → detect. Because the VM is deterministic, tools whose preparation produced the same module (same fingerprint) share
//! one recorded execution — here `Helgrind+ lib` and `DRD`, which both
//! run the unmodified program — and every detector configuration replays
//! the stream with results identical to a live run.

use spinrace::core::{DetectRequest, ExecutedRun, Session, Tool};
use spinrace::suites::all_programs;
use spinrace::tracefmt::{decode_trace, encode_trace};

fn main() {
    // dedup: a pipeline program with ad-hoc spin synchronization.
    let prog = all_programs()
        .into_iter()
        .find(|p| p.name == "dedup")
        .expect("dedup in the PARSEC set");
    let module = (prog.build)(prog.threads, prog.size);
    let session = Session::for_module(&module);

    // Prepare all four tools, but execute only once per *distinct*
    // prepared module.
    let mut runs: Vec<ExecutedRun> = Vec::new();
    let mut executions = 0;
    println!("workload: {} ({} threads)\n", prog.name, prog.threads);
    println!(
        "{:<26} {:>8} {:>9} {:>11}  execution",
        "tool", "contexts", "promoted", "spin loops"
    );
    for tool in Tool::paper_lineup() {
        let prepared = session.prepare(tool).expect("prepare");
        let fp = prepared.fingerprint();
        let idx = match runs.iter().position(|r| r.prepared().fingerprint() == fp) {
            Some(i) => i,
            None => {
                runs.push(prepared.execute().expect("execute"));
                executions += 1;
                runs.len() - 1
            }
        };
        let out = runs[idx].run(&DetectRequest::tool(tool)).into_single();
        println!(
            "{:<26} {:>8} {:>9} {:>11}  #{} ({} events)",
            out.tool_label,
            out.contexts,
            out.promoted_locations,
            out.spin_loops_found,
            idx + 1,
            runs[idx].trace().events.len(),
        );
    }
    println!(
        "\n{} tool configurations served by {} execution(s)",
        Tool::paper_lineup().len(),
        executions
    );

    // The trace is a stable, versioned artifact: encode it to the binary
    // format, decode it back, and the replay is identical.
    let trace = runs[0].trace();
    let bytes = encode_trace(trace);
    let decoded = decode_trace(&bytes).expect("decode");
    assert_eq!(&decoded, trace);
    let replayed = runs[0].run(&DetectRequest::own()).into_single();
    let rebound = ExecutedRun::from_trace(runs[0].prepared().clone(), decoded).expect("rebind");
    let from_decoded = rebound.run(&DetectRequest::own()).into_single();
    assert_eq!(from_decoded.contexts, replayed.contexts);
    assert_eq!(from_decoded.metrics, replayed.metrics);
    println!(
        "\nencoded execution #1: {} bytes ({:.2} bytes/event), {} events, fingerprint {:#018x}",
        bytes.len(),
        bytes.len() as f64 / trace.events.len().max(1) as f64,
        trace.events.len(),
        trace.header.module_fingerprint,
    );
    println!("round trip lossless; replay of the decoded trace is identical to the live run");
}
