//! Quickstart: build a program with ad-hoc flag synchronization, run the
//! paper's four detector configurations on it, and see why spin-loop
//! detection matters.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use spinrace::core::{DetectRequest, Session, Tool};
use spinrace::tir::ModuleBuilder;

fn main() {
    // The paper's motivating pattern:
    //
    //   Thread 1:  DATA++; FLAG = 1;
    //   Thread 2:  while (FLAG == 0) {}  DATA--;
    //
    let mut mb = ModuleBuilder::new("motivating-example");
    let flag = mb.global("FLAG", 1);
    let data = mb.global("DATA", 1);

    let thread2 = mb.function("thread2", 1, |f| {
        let head = f.new_block();
        let done = f.new_block();
        f.jump(head);
        f.switch_to(head);
        let v = f.load(flag.at(0)); // the spinning read
        f.branch(v, done, head);
        f.switch_to(done);
        let d = f.load(data.at(0));
        let d2 = f.sub(d, 1);
        f.store(data.at(0), d2);
        f.ret(None);
    });

    mb.entry("main", |f| {
        let t = f.spawn(thread2, 0);
        let d = f.load(data.at(0));
        let d2 = f.add(d, 1);
        f.store(data.at(0), d2); // DATA++
        f.store(flag.at(0), 1); // FLAG = 1
        f.join(t);
        let final_d = f.load(data.at(0));
        f.output(final_d);
        f.ret(None);
    });
    let module = mb.finish().expect("valid program");

    println!("Program: DATA++/FLAG=1 vs spin-wait/DATA--  (race-free!)\n");
    for tool in Tool::paper_lineup() {
        let out = Session::for_module(&module)
            .prepare(tool)
            .and_then(|p| p.try_run(&DetectRequest::own()))
            .expect("analysis")
            .into_single();
        println!(
            "{:<26} racy contexts: {:>2}   spin loops found: {}",
            tool.label(),
            out.contexts,
            out.spin_loops_found
        );
        for r in &out.reports {
            println!(
                "    {:?} race on `{}` between t{}@{} and t{}@{}",
                r.report.kind,
                r.location,
                r.report.prior.tid,
                r.report.prior.pc,
                r.report.current.tid,
                r.report.current.pc
            );
        }
    }
    println!();
    println!("Without spin detection the detector reports a synchronization");
    println!("race on FLAG and an apparent race on DATA. With the paper's");
    println!("spinning-read-loop analysis both disappear: the condition load");
    println!("is instrumented, FLAG is promoted to a synchronization location,");
    println!("and the counterpart write happens-before the loop exit.");
}
