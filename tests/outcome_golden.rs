//! Golden outcome documents: the CRC-64 of every tool's outcome JSON
//! (`spinrace::serve::outcome_json`: reports, contexts, promotions,
//! metrics and run summary) on every standard workload spec and on three
//! PARSEC programs that exercise condvars and barriers.
//!
//! Live-versus-replay checks compare two paths of one build; these pins
//! compare builds, so a change that moves both paths together (a metric
//! counted differently, a report reordered) still fails here, naming the
//! case and tool.

use spinrace::core::{AnalysisOutcome, DetectRequest, Session, Tool};
use spinrace::serve::outcome_json;
use spinrace::suites::all_programs;
use spinrace::suites::workloads::standard_specs;
use spinrace::tracefmt::checksum;

/// The four paper tools and the predictive pass.
fn tools() -> Vec<Tool> {
    let mut tools = Tool::paper_lineup().to_vec();
    tools.push(Tool::SyncPreserving);
    tools
}

/// CRC-64 of the outcome document's canonical rendering.
fn doc_crc(out: &AnalysisOutcome) -> u64 {
    let text = serde_json::to_string(&outcome_json(out)).unwrap();
    checksum(text.as_bytes())
}

/// Assert one case's five documents against its pinned checksums.
fn check(case: &str, session: &Session, pinned: [u64; 5]) {
    let got: Vec<u64> = tools()
        .into_iter()
        .map(|tool| {
            let out = session
                .prepare(tool)
                .and_then(|p| p.try_run(&DetectRequest::own()))
                .unwrap_or_else(|e| panic!("{case} under {tool}: {e}"))
                .into_single();
            doc_crc(&out)
        })
        .collect();
    for ((tool, want), got) in tools().into_iter().zip(pinned).zip(got) {
        assert_eq!(got, want, "{case} under {tool}: outcome document changed");
    }
}

/// Pinned checksums per standard spec, in `standard_specs()` order; the
/// columns follow [`tools`].
#[rustfmt::skip]
const WORKLOADS: &[[u64; 5]] = &[
    // wl-ring-t4-e48-a64-k0-r0-s100
    [0xffd1dbec1ee7fef5, 0xd05a2107125d8b65, 0x41bc91d573f62849, 0x55d92915f1e3d431, 0x3ca942fe90ded80c],
    // wl-ring-t4-e48-a64-k0-r2-s200
    [0x6077b9c1d4960dbe, 0x65d589c7d5335119, 0xe9104d5607ef48b7, 0x5aa91015b7802307, 0xfdaf60e9a56585f8],
    // wl-spinflag-t4-e48-a64-k0-r0-s101
    [0x82747c933894bfe5, 0x3eb397d3a340a4b5, 0xf2bd3fbb20420ddd, 0x75cdadc4664f4821, 0x436b5d3c6e448618],
    // wl-spinflag-t4-e48-a64-k0-r2-s201
    [0x8bc7a7285dd4d143, 0x5dfbd73215a9baf8, 0x532b929ace8ef70c, 0xb2a1b58c8ee32288, 0x913facc0ea0f6e2b],
    // wl-barrier-t4-e48-a64-k0-r0-s102
    [0xd9cb5aa1c63bebb3, 0xb8c9b6a8f026e797, 0x0d3ab6ab37919643, 0x8157d25a5859d622, 0xbd77bc45b6200116],
    // wl-barrier-t4-e48-a64-k0-r2-s202
    [0x3f1ed1ce8a907b07, 0x2413cd3f78def511, 0x590e6949a03d7608, 0xbf4baa809dc3dcb3, 0x233d85f5a9c909f0],
    // wl-zipf-t4-e48-a1024-k2-r0-s103
    [0xc4d530119b9ff6cf, 0xb0826e3082748634, 0x12663414ae179a8d, 0xba97feb8aaf93e3b, 0x3a9473211796b479],
    // wl-zipf-t4-e48-a1024-k2-r2-s203
    [0x0e5fe7f52175c705, 0x11b5cb87520f636d, 0x0eaaaab1a8f1698a, 0xb53c06660f5066a3, 0x3addde2387bd373c],
    // wl-fanout-t16-e48-a64-k0-r0-s104
    [0x0b7d8b6ac5b0781e, 0x1254f6644a6c5797, 0x4855d38844946744, 0x3aebfce6ebd6888b, 0x4e619cda46e96b29],
    // wl-fanout-t16-e48-a64-k0-r2-s204
    [0xb2c41c0b9b83de70, 0x0412fa22b353dd15, 0xbf699d86336176f5, 0x6ca404fa5c43dd6e, 0x492481cc2eda002e],
    // wl-straddle-t4-e48-a64-k0-r0-s105
    [0x169d742cc3f902a0, 0xebf46ab2150bc4cd, 0x3a773e9b715ed2a8, 0x26539d81bba1ec50, 0x4845530487e6abcd],
    // wl-straddle-t4-e48-a64-k0-r2-s205
    [0x6725921583a706b9, 0x4073d2f77ff9a432, 0xf8b41042b59396b7, 0x6e66d4532e6a58f8, 0x27d50cb4d58d1a23],
    // wl-publish-t4-e48-a64-k0-r0-s106
    [0x82b500826b653620, 0xe80f3cfe46e42c98, 0x81f0f5ad471fd1ab, 0xaa2ddd8dbeea34df, 0x3e5259e75ae38e39],
    // wl-publish-t4-e48-a64-k0-r2-s206
    [0xb9a0152fe77337da, 0x0925772fe05e4984, 0x099e28e04f9a9057, 0xa8b567cbe7698594, 0xfe565b75f08a65fe],
    // wl-fanout-t32-e24-a64-k0-r3-s300
    [0xc613472853592087, 0xbcd6bfae1da9f9ab, 0xf64ef1a0fde02b6a, 0xf6f2ac29415408e1, 0x71e861028ac0a270],
];

/// Pinned checksums per PARSEC program (seed 1, long MSM).
#[rustfmt::skip]
const PARSEC: &[(&str, [u64; 5])] = &[
    ("vips", [0xf4b69b5d513f7c6e, 0x6861145539e8ea6a, 0xf1203c18da52ecc3, 0x764f0f3ac6546a09, 0x42220c839ee77771]),
    ("bodytrack", [0x7de89073d9aac9bc, 0xd98c48eeebb8f5c1, 0xbc434ef1581e5569, 0xceb698e45f46e4ec, 0xa04770429644a39b]),
    ("streamcluster", [0x057f9becaca99512, 0x82217c1878c6bd55, 0xfd8695873bbeea7a, 0xa2c571189fcfa0db, 0xdf2e0a1e5167dfe5]),
];

#[test]
fn workload_outcomes_match_pins() {
    let specs = standard_specs();
    assert_eq!(specs.len(), WORKLOADS.len(), "one pin row per spec");
    for (spec, &pinned) in specs.into_iter().zip(WORKLOADS) {
        let wl = spec.build();
        let session = Session::for_module(&wl.module).vm_config(spec.vm_config());
        check(&wl.module.name, &session, pinned);
    }
}

#[test]
fn parsec_outcomes_match_pins() {
    let programs = all_programs();
    for &(name, pinned) in PARSEC {
        let prog = programs.iter().find(|p| p.name == name).unwrap();
        let module = (prog.build)(prog.threads, prog.size);
        let session = Session::for_module(&module)
            .long_msm()
            .seed(1)
            .nolib_style(prog.nolib_style);
        check(name, &session, pinned);
    }
}
