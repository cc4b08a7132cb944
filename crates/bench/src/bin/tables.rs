//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p spinrace-bench --bin tables --release -- all
//! cargo run -p spinrace-bench --bin tables --release -- t1 t2
//! ```
//!
//! Prints each experiment and writes its JSON payload to
//! `target/experiments/<id>.json`. Exit codes: `0` success, `1` a JSON
//! payload could not be written, `2` an unknown experiment id (checked
//! before any experiment runs).

use spinrace_report::{
    f1_memory, f2_runtime, t1_drt, t2_window_sweep, t3_characteristics, t4_no_adhoc, t5_with_adhoc,
    t6_universal, w1_workloads, Experiment,
};
use std::fs;
use std::path::Path;

/// An experiment id and the function that runs it.
type Entry = (&'static str, fn() -> Experiment);

/// Every experiment by id, in the order `all` runs them.
const EXPERIMENTS: [Entry; 9] = [
    ("t1", t1_drt),
    ("t2", t2_window_sweep),
    ("t3", t3_characteristics),
    ("t4", t4_no_adhoc),
    ("t5", t5_with_adhoc),
    ("t6", t6_universal),
    ("w1", w1_workloads),
    ("f1", f1_memory),
    ("f2", f2_runtime),
];

/// Resolve the command line to the experiments to run: no arguments or
/// `all` means every one; ids are case-insensitive. The first unknown id
/// is the error.
fn parse_ids(args: &[String]) -> Result<Vec<Entry>, String> {
    if args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case("all")) {
        return Ok(EXPERIMENTS.to_vec());
    }
    args.iter()
        .map(|a| {
            EXPERIMENTS
                .iter()
                .find(|(id, _)| a.eq_ignore_ascii_case(id))
                .copied()
                .ok_or_else(|| a.clone())
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = parse_ids(&args).unwrap_or_else(|other| {
        eprintln!("unknown experiment `{other}` (use t1..t6, w1, f1, f2, all)");
        std::process::exit(2);
    });

    let out_dir = Path::new("target/experiments");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("error: could not create {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    for (_, run) in wanted {
        let exp = run();
        println!("== {} — {} ==", exp.id, exp.title);
        println!("{}", exp.rendered);
        let path = out_dir.join(format!("{}.json", exp.id.to_lowercase()));
        if let Err(e) = fs::write(&path, serde_json::to_string_pretty(&exp.json).unwrap()) {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("[json written to {}]\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_ids(&args).map(|v| v.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn experiment_ids_parse_before_any_runs() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids(&[]).unwrap(), every);
        assert_eq!(ids(&["t2", "ALL"]).unwrap(), every);
        assert_eq!(ids(&["T2", "w1", "t1"]).unwrap(), ["t2", "w1", "t1"]);
        assert_eq!(ids(&["t1", "bogus", "t9"]).unwrap_err(), "bogus");
    }
}
