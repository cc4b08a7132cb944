//! Explore the PARSEC-skeleton workloads: run any program under any tool
//! and print the racy contexts with their locations.
//!
//! ```text
//! cargo run --example parsec_explorer                 # list programs
//! cargo run --example parsec_explorer -- vips         # all four tools
//! cargo run --example parsec_explorer -- x264 drd 42  # one tool, seed 42
//! ```

use spinrace::core::{Session, Tool};
use spinrace::suites::all_programs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let programs = all_programs();

    let Some(name) = args.first() else {
        println!("available programs:");
        for p in &programs {
            println!(
                "  {:<14} {:<7} threads={} size={} adhoc={}",
                p.name, p.model, p.threads, p.size, p.has_adhoc
            );
        }
        println!("\nusage: parsec_explorer <program> [lib|spin|nolib|drd] [seed]");
        return;
    };

    let Some(prog) = programs.iter().find(|p| p.name == name.as_str()) else {
        eprintln!("unknown program `{name}` (run without arguments for the list)");
        std::process::exit(2);
    };
    let module = (prog.build)(prog.threads, prog.size);

    let tools: Vec<Tool> = match args.get(1).map(|s| s.as_str()) {
        None => Tool::paper_lineup().to_vec(),
        Some("lib") => vec![Tool::HelgrindLib],
        Some("spin") => vec![Tool::HelgrindLibSpin { window: 7 }],
        Some("nolib") => vec![Tool::HelgrindNolibSpin { window: 7 }],
        Some("drd") => vec![Tool::Drd],
        Some(other) => {
            eprintln!("unknown tool `{other}` (lib|spin|nolib|drd)");
            std::process::exit(2);
        }
    };
    let seed: Option<u64> = args.get(2).map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("seed `{s}` is not a non-negative integer");
            std::process::exit(2)
        })
    });

    println!(
        "{} ({}, {} threads, size {})  paper row: lib={} spin={} nolib={} drd={}\n",
        prog.name,
        prog.model,
        prog.threads,
        prog.size,
        prog.paper.lib,
        prog.paper.lib_spin,
        prog.paper.nolib_spin,
        prog.paper.drd
    );

    for tool in tools {
        let mut session = Session::for_module(&module).long_msm();
        if let Some(s) = seed {
            session = session.seed(s);
        }
        if prog.obscure_nolib {
            session = session.obscure_nolib();
        }
        match session.prepare(tool).and_then(|p| p.detect_live()) {
            Ok(out) => {
                println!(
                    "{:<26} contexts={:<4} spin loops={:<3} promoted locations={:<4} steps={}",
                    tool.label(),
                    out.contexts,
                    out.spin_loops_found,
                    out.promoted_locations,
                    out.summary.steps
                );
                for r in out.reports.iter().take(8) {
                    println!("    {:?} on `{}`", r.report.kind, r.location);
                }
                if out.reports.len() > 8 {
                    println!("    ... and {} more", out.reports.len() - 8);
                }
            }
            Err(e) => println!("{:<26} failed: {e}", tool.label()),
        }
    }
}
