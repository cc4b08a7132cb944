//! The universal race detector: analyze a lock-based program with *zero*
//! library knowledge.
//!
//! The program below synchronizes with ordinary mutexes. We lower it
//! through `spinrace-synclib` (mutexes become test-and-test-and-set spin
//! locks — what the machine code of any lock ultimately looks like) and
//! run the `nolib+spin` configuration, which knows nothing about any
//! library. The spin-loop analysis recovers the synchronization by itself.
//!
//! ```text
//! cargo run --example unknown_library
//! ```

use spinrace::core::{DetectRequest, Session, Tool};
use spinrace::spinfind::SpinFinder;
use spinrace::synclib::{lower_to_spinlib_styled, LibStyle};
use spinrace::tir::ModuleBuilder;

fn main() {
    let mut mb = ModuleBuilder::new("bank");
    let mu = mb.global("mu", 1);
    let balance = mb.global("balance", 1);
    let deposit = mb.function("deposit", 1, |f| {
        for _ in 0..4 {
            f.lock(mu.at(0));
            let b = f.load(balance.at(0));
            let b2 = f.add(b, f.param(0));
            f.store(balance.at(0), b2);
            f.unlock(mu.at(0));
        }
        f.ret(None);
    });
    mb.entry("main", |f| {
        let t1 = f.spawn(deposit, 10);
        let t2 = f.spawn(deposit, 25);
        f.join(t1);
        f.join(t2);
        let b = f.load(balance.at(0));
        f.output(b);
        f.ret(None);
    });
    let module = mb.finish().expect("valid program");

    // Show what the lowering produces.
    let lowered = lower_to_spinlib_styled(&module, LibStyle::Textbook).expect("lowering");
    println!(
        "Original module: {} functions; lowered: {} (the spin library)",
        module.functions.len(),
        lowered.functions.len()
    );
    let analysis = SpinFinder::default().analyze(&lowered);
    println!(
        "Instrumentation phase on the lowered module: {} spinning read loops",
        analysis.accepted()
    );
    for info in &analysis.table.loops {
        println!(
            "    {:?} in `{}` (weight {}, {} condition loads)",
            info.id,
            lowered.functions[info.func.0 as usize].name,
            info.weight,
            info.cond_loads.len()
        );
    }
    println!();

    // Full pipeline comparison: the detector with library knowledge vs
    // the universal detector with none.
    for tool in [Tool::HelgrindLib, Tool::HelgrindNolibSpin { window: 7 }] {
        let out = Session::for_module(&module)
            .prepare(tool)
            .and_then(|p| p.try_run(&DetectRequest::own()))
            .expect("analysis")
            .into_single();
        println!(
            "{:<26} racy contexts: {}  (program output: {:?})",
            tool.label(),
            out.contexts,
            out.summary
                .outputs
                .iter()
                .map(|(_, v)| *v)
                .collect::<Vec<_>>()
        );
    }
    println!();
    println!("Both configurations stay silent — the universal detector");
    println!("re-derived the mutex semantics from the TTAS spin loops alone,");
    println!("with no knowledge of any synchronization library.");
}
