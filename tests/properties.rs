//! Cross-crate property tests: determinism, serde round trips, detection
//! stability, and randomized soundness checks.

mod common;

use common::{analyze, racy};
use proptest::prelude::*;
use spinrace::core::{Session, Tool};
use spinrace::spinfind::SpinFinder;
use spinrace::tir::{Module, ModuleBuilder};
use spinrace::vm::{run_module, RecordingSink, VmConfig};

/// A small random well-locked program: `threads` workers increment
/// `slots[own]` (disjoint) and a shared counter under a mutex.
fn locked_program(threads: u32, iters: u8) -> Module {
    let mut mb = ModuleBuilder::new("prop-locked");
    let mu = mb.global("mu", 1);
    let shared = mb.global("shared", 1);
    let slots = mb.global("slots", threads as u64);
    let w = mb.function("w", 1, |f| {
        for _ in 0..iters {
            f.lock(mu.at(0));
            let v = f.load(shared.at(0));
            let v2 = f.add(v, 1);
            f.store(shared.at(0), v2);
            f.unlock(mu.at(0));
            let s = f.load(slots.idx(f.param(0)));
            let s2 = f.add(s, 1);
            f.store(slots.idx(f.param(0)), s2);
        }
        f.ret(None);
    });
    mb.entry("main", |f| {
        let tids: Vec<_> = (0..threads).map(|i| f.spawn(w, i as i64)).collect();
        for t in tids {
            f.join(t);
        }
        let v = f.load(shared.at(0));
        f.output(v);
        f.ret(None);
    });
    mb.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical (module, seed) pairs produce identical event streams.
    #[test]
    fn vm_is_deterministic(threads in 2u32..5, iters in 1u8..4, seed in 0u64..1000) {
        let m = locked_program(threads, iters);
        let mut s1 = RecordingSink::default();
        let mut s2 = RecordingSink::default();
        run_module(&m, VmConfig::random(seed), &mut s1).unwrap();
        run_module(&m, VmConfig::random(seed), &mut s2).unwrap();
        prop_assert_eq!(s1.events, s2.events);
    }

    /// Well-locked programs never produce reports, under any tool & seed.
    #[test]
    fn no_fp_on_locked_programs(threads in 2u32..5, iters in 1u8..4, seed in 0u64..500) {
        let m = locked_program(threads, iters);
        for tool in Tool::paper_lineup() {
            let out = analyze(Session::for_module(&m).seed(seed), tool);
            prop_assert!(out.is_clean(), "{} seed {} -> {:?}", tool.label(), seed, out.reports);
        }
    }

    /// Racy programs are flagged by the hybrid under every seed (a write-
    /// write race on the same location is never schedule-hidden for HB).
    #[test]
    fn racy_always_caught(threads in 2u32..6, seed in 0u64..500) {
        let m = racy(threads);
        let out = analyze(Session::for_module(&m).seed(seed), Tool::HelgrindLibSpin { window: 7 });
        prop_assert!(out.has_race_on("victim"));
    }

    /// Modules survive a serde round trip bit-exactly, including the spin
    /// table produced by instrumentation.
    #[test]
    fn module_serde_round_trip(threads in 2u32..4, iters in 1u8..3) {
        let mut m = locked_program(threads, iters);
        let _ = SpinFinder::default().instrument(&mut m);
        let json = serde_json::to_string(&m).unwrap();
        let back: Module = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(m, back);
    }

    /// Spin detection results are identical when re-run (pure analysis).
    #[test]
    fn spinfind_is_pure(threads in 2u32..4) {
        let m = racy(threads);
        let a = SpinFinder::default().analyze(&m);
        let b = SpinFinder::default().analyze(&m);
        prop_assert_eq!(a.table, b.table);
    }

    /// Widening the window never loses accepted loops on suite programs
    /// (monotonicity of the size criterion).
    #[test]
    fn window_is_monotone(idx in 0usize..13) {
        let programs = spinrace::suites::all_programs();
        let p = &programs[idx];
        let m = (p.build)(p.threads, p.size);
        let small = SpinFinder::with_window(3).analyze(&m).accepted();
        let medium = SpinFinder::with_window(7).analyze(&m).accepted();
        let large = SpinFinder::with_window(12).analyze(&m).accepted();
        prop_assert!(small <= medium && medium <= large);
    }
}
