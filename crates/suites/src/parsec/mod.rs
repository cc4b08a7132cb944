//! Thirteen miniature programs reproducing the synchronization skeletons
//! of the PARSEC 2.0 applications the paper evaluates.
//!
//! Each program reproduces its original's *synchronization structure* —
//! which library primitives it uses, which ad-hoc patterns it contains,
//! and whether its library internals defeat the spin patterns — around a
//! small computational kernel. Hot handoff code is partially unrolled (per
//! item / per frame) so racy contexts accumulate across distinct static
//! sites, as they do in the full applications. Absolute context counts are
//! therefore scaled down from the paper's (our kernels are orders of
//! magnitude smaller); the *relative* behaviour of the four tools per
//! program is the reproduction target.

mod programs_a;
mod programs_b;

use spinrace_synclib::LibStyle;
use spinrace_tir::Module;

/// The paper's reported racy-context row for one program (for
/// side-by-side comparison in reports; not used by the analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// `Helgrind+ lib`.
    pub lib: f64,
    /// `Helgrind+ lib+spin`.
    pub lib_spin: f64,
    /// `Helgrind+ nolib+spin`.
    pub nolib_spin: f64,
    /// `DRD`.
    pub drd: f64,
}

/// One PARSEC-skeleton program with its metadata.
#[derive(Clone)]
pub struct ParsecProgram {
    /// Program name (table row).
    pub name: &'static str,
    /// Parallelization model as listed by the paper.
    pub model: &'static str,
    /// The paper's LOC column (of the original; for the characteristics
    /// table only).
    pub paper_loc: &'static str,
    /// Characteristics row: uses ad-hoc synchronization.
    pub has_adhoc: bool,
    /// Characteristics row: uses condition variables.
    pub uses_cvs: bool,
    /// Characteristics row: uses locks.
    pub uses_locks: bool,
    /// Characteristics row: uses barriers.
    pub uses_barriers: bool,
    /// Worker thread count.
    pub threads: u32,
    /// Kernel size (items/frames/cells — drives unrolling).
    pub size: u32,
    /// The library flavour `nolib` lowering uses: obscure internals for
    /// the programs whose real libraries defeated the paper's patterns,
    /// textbook primitives otherwise.
    pub nolib_style: LibStyle,
    /// The paper's racy-context row (for comparison output).
    pub paper: PaperRow,
    /// Program builder.
    pub build: fn(u32, u32) -> Module,
}

impl ParsecProgram {
    /// The program built at its own thread count and kernel size: the
    /// module every table, `trace record` and trace rebinding prepare.
    pub fn module(&self) -> Module {
        (self.build)(self.threads, self.size)
    }
}

/// All thirteen programs in the paper's table order.
pub fn all_programs() -> Vec<ParsecProgram> {
    vec![
        ParsecProgram {
            name: "blackscholes",
            model: "POSIX",
            paper_loc: "812",
            has_adhoc: false,
            uses_cvs: false,
            uses_locks: false,
            uses_barriers: true,
            threads: 4,
            size: 16,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 0.0,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 0.0,
            },
            build: programs_a::blackscholes,
        },
        ParsecProgram {
            name: "swaptions",
            model: "POSIX",
            paper_loc: "4,029",
            has_adhoc: false,
            uses_cvs: false,
            uses_locks: false,
            uses_barriers: false,
            threads: 4,
            size: 16,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 0.0,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 0.0,
            },
            build: programs_a::swaptions,
        },
        ParsecProgram {
            name: "fluidanimate",
            model: "POSIX",
            paper_loc: "3,689",
            has_adhoc: false,
            uses_cvs: false,
            uses_locks: true,
            uses_barriers: true,
            threads: 4,
            size: 12,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 0.0,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 0.0,
            },
            build: programs_a::fluidanimate,
        },
        ParsecProgram {
            name: "canneal",
            model: "POSIX",
            paper_loc: "29,31",
            has_adhoc: false,
            uses_cvs: false,
            uses_locks: true,
            uses_barriers: false,
            threads: 4,
            size: 16,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 0.0,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 0.0,
            },
            build: programs_a::canneal,
        },
        ParsecProgram {
            name: "freqmine",
            model: "OpenMP",
            paper_loc: "10,279",
            has_adhoc: true,
            uses_cvs: false,
            uses_locks: false,
            uses_barriers: true,
            threads: 4,
            size: 24,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 153.4,
                lib_spin: 2.0,
                nolib_spin: 2.0,
                drd: 1000.0,
            },
            build: programs_a::freqmine,
        },
        ParsecProgram {
            name: "vips",
            model: "GLIB",
            paper_loc: "1,255",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: false,
            threads: 3,
            size: 16,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 50.8,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 858.6,
            },
            build: programs_a::vips,
        },
        ParsecProgram {
            name: "bodytrack",
            model: "POSIX",
            paper_loc: "9,735",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: true,
            threads: 4,
            size: 8,
            nolib_style: LibStyle::Obscure,
            paper: PaperRow {
                lib: 36.8,
                lib_spin: 3.6,
                nolib_spin: 32.4,
                drd: 34.6,
            },
            build: programs_a::bodytrack,
        },
        ParsecProgram {
            name: "facesim",
            model: "POSIX",
            paper_loc: "1,391",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: false,
            threads: 4,
            size: 20,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 113.8,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 1000.0,
            },
            build: programs_b::facesim,
        },
        ParsecProgram {
            name: "ferret",
            model: "POSIX",
            paper_loc: "2,706",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: false,
            threads: 4,
            size: 12,
            nolib_style: LibStyle::Obscure,
            paper: PaperRow {
                lib: 111.0,
                lib_spin: 2.0,
                nolib_spin: 47.0,
                drd: 214.6,
            },
            build: programs_b::ferret,
        },
        ParsecProgram {
            name: "x264",
            model: "POSIX",
            paper_loc: "1,494",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: false,
            threads: 4,
            size: 10,
            nolib_style: LibStyle::Obscure,
            paper: PaperRow {
                lib: 1000.0,
                lib_spin: 19.0,
                nolib_spin: 28.0,
                drd: 1000.0,
            },
            build: programs_b::x264,
        },
        ParsecProgram {
            name: "dedup",
            model: "POSIX",
            paper_loc: "3,228",
            has_adhoc: true,
            uses_cvs: true,
            uses_locks: true,
            uses_barriers: false,
            threads: 3,
            size: 16,
            nolib_style: LibStyle::Obscure,
            paper: PaperRow {
                lib: 1000.0,
                lib_spin: 0.0,
                nolib_spin: 2.0,
                drd: 0.0,
            },
            build: programs_b::dedup,
        },
        ParsecProgram {
            name: "streamcluster",
            model: "POSIX",
            paper_loc: "40,393",
            has_adhoc: true,
            uses_cvs: false,
            uses_locks: true,
            uses_barriers: true,
            threads: 4,
            size: 16,
            nolib_style: LibStyle::Obscure,
            paper: PaperRow {
                lib: 4.0,
                lib_spin: 0.0,
                nolib_spin: 1.0,
                drd: 1000.0,
            },
            build: programs_b::streamcluster,
        },
        ParsecProgram {
            name: "raytrace",
            model: "POSIX",
            paper_loc: "13,302",
            has_adhoc: true,
            uses_cvs: false,
            uses_locks: true,
            uses_barriers: false,
            threads: 4,
            size: 16,
            nolib_style: LibStyle::Textbook,
            paper: PaperRow {
                lib: 106.4,
                lib_spin: 0.0,
                nolib_spin: 0.0,
                drd: 1000.0,
            },
            build: programs_b::raytrace,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinrace_vm::{run_module, NullSink, VmConfig};

    #[test]
    fn thirteen_programs_in_paper_order() {
        let ps = all_programs();
        assert_eq!(ps.len(), 13);
        assert_eq!(ps[0].name, "blackscholes");
        assert_eq!(ps[12].name, "raytrace");
    }

    #[test]
    fn every_program_runs_clean_under_round_robin() {
        for p in all_programs() {
            let m = (p.build)(p.threads, p.size);
            let r = run_module(&m, VmConfig::round_robin(), &mut NullSink);
            assert!(r.is_ok(), "{} failed: {:?}", p.name, r.err());
        }
    }

    #[test]
    fn every_program_runs_clean_under_random_seeds() {
        for p in all_programs() {
            let m = (p.build)(p.threads, p.size);
            for seed in 1..=3u64 {
                let r = run_module(&m, VmConfig::random(seed), &mut NullSink);
                assert!(r.is_ok(), "{} seed {seed} failed: {:?}", p.name, r.err());
            }
        }
    }

    #[test]
    fn adhoc_flags_match_the_characteristics_table() {
        // First four programs: no ad-hoc sync; the rest have it.
        let ps = all_programs();
        for p in &ps[..4] {
            assert!(!p.has_adhoc, "{}", p.name);
        }
        for p in &ps[4..] {
            assert!(p.has_adhoc, "{}", p.name);
        }
    }
}
