//! `Module::fingerprint` is the trace-sharing key: tools whose prepared
//! modules share a fingerprint share one VM execution. The fingerprint
//! hashes the IR structurally; these tests hold it to the partition the
//! textual rendering induces (two preparations share a fingerprint
//! exactly when they render to the same text) over every preparation the
//! paper's tables and the W1 workloads can make, and pin the execution
//! counts T1 and T2 get from that sharing.

use spinrace::core::{Session, Tool};
use spinrace::report::t2_window_sweep;
use spinrace::suites::workloads::standard_specs;
use spinrace::suites::{all_cases, all_programs, run_drt};
use spinrace::synclib::LibStyle;
use spinrace::tir::Module;
use std::collections::HashMap;

/// The oracle: FNV-1a 64 over the module's textual rendering.
fn text_hash(m: &Module) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in m.to_string().as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The paper lineup plus `lib+spin` and `nolib+spin` at every window
/// from 1 to 10.
fn tools() -> Vec<Tool> {
    let mut tools = Tool::paper_lineup().to_vec();
    for window in 1..=10 {
        tools.push(Tool::HelgrindLibSpin { window });
        tools.push(Tool::HelgrindNolibSpin { window });
    }
    tools
}

/// `(text hash, fingerprint)` of every tool's preparation of every
/// module, under both nolib library styles.
fn preparations(modules: &[Module]) -> Vec<(u64, u64)> {
    let tools = tools();
    let mut out = Vec::new();
    for module in modules {
        for style in [LibStyle::Textbook, LibStyle::Obscure] {
            let session = Session::for_module(module).nolib_style(style);
            for &tool in &tools {
                let prepared = session
                    .prepare(tool)
                    .unwrap_or_else(|e| panic!("prepare {} under {tool}: {e}", module.name));
                assert_eq!(prepared.fingerprint(), prepared.module().fingerprint());
                out.push((text_hash(prepared.module()), prepared.fingerprint()));
            }
        }
    }
    out
}

/// Assert text-equal ⇔ fingerprint-equal and return the class count.
fn assert_same_partition(preps: &[(u64, u64)]) -> usize {
    let mut by_text: HashMap<u64, u64> = HashMap::new();
    let mut by_fp: HashMap<u64, u64> = HashMap::new();
    for &(text, fp) in preps {
        let seen_fp = *by_text.entry(text).or_insert(fp);
        assert_eq!(
            seen_fp, fp,
            "equal renderings {text:#018x}, different fingerprints"
        );
        let seen_text = *by_fp.entry(fp).or_insert(text);
        assert_eq!(
            seen_text, text,
            "fingerprint {fp:#018x} shared by different renderings"
        );
    }
    assert_eq!(by_text.len(), by_fp.len());
    by_fp.len()
}

#[test]
fn structural_fingerprint_partitions_like_the_rendering() {
    let mut modules: Vec<Module> = all_cases().into_iter().map(|c| c.module).collect();
    modules.extend(all_programs().iter().map(|p| (p.build)(p.threads, p.size)));
    let preps = preparations(&modules);
    assert_eq!(preps.len(), 6_384);
    assert_eq!(assert_same_partition(&preps), 493);
}

#[test]
fn w1_workload_preparations_partition_like_the_rendering() {
    let modules: Vec<Module> = standard_specs().iter().map(|s| s.build().module).collect();
    let preps = preparations(&modules);
    let classes = assert_same_partition(&preps);
    // Tools that leave a spec's module untouched share its class.
    assert!(classes < preps.len(), "{classes} classes");
}

#[test]
fn t1_and_t2_execution_counts_are_pinned() {
    assert_eq!(run_drt(&Tool::paper_lineup()).vm_runs, 265);
    assert_eq!(t2_window_sweep().json["vm_runs"].as_u64(), Some(136));
}
