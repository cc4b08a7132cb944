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
    [0x6c7fb54440a3f2e4, 0x6d110455a6de038f, 0x8ccdc8cd16495a38, 0x674b00121337b1b5, 0x80c208f2c24fec0f],
    // wl-ring-t4-e48-a64-k0-r2-s200
    [0x5f256da630fb528b, 0x93c6895e7783b295, 0x50eda0745ca1b640, 0xb057683ff24c9698, 0x8c1ccfdc99c51651],
    // wl-spinflag-t4-e48-a64-k0-r0-s101
    [0xb491c5cb73422560, 0x0d302bed4b600562, 0x38d84dbfe92e7130, 0x4328149c2d99d2a4, 0x408a28488d4fde53],
    // wl-spinflag-t4-e48-a64-k0-r2-s201
    [0x88a6c932c5879d5f, 0x8804bf4b07f9ff40, 0xfe8b9baf0729ba51, 0xb1c0db9616b06e94, 0xea669f61d8ec4d5e],
    // wl-barrier-t4-e48-a64-k0-r0-s102
    [0xe0b3e521be162d53, 0x81b10928880b2177, 0x9ece133e46204c42, 0xb82f6dda207410c2, 0x0c89ad544b6020c0],
    // wl-barrier-t4-e48-a64-k0-r2-s202
    [0x1fd1eb0b2d65dd0b, 0x04dcf7fadf2b531d, 0xae7c29d3ab1a5ec0, 0x9f8490453a367abf, 0x47bff80212f37e68],
    // wl-zipf-t4-e48-a1024-k2-r0-s103
    [0x8fad34247c85325d, 0xbb44b6c83ec7337b, 0x3616ead23f3fa099, 0x7373fb137737b247, 0x2140028122537ffe],
    // wl-zipf-t4-e48-a1024-k2-r2-s203
    [0xf619cb5cc8c65121, 0x7addf73bfebbab65, 0x03548fd54c68de21, 0xd17ad2fe7f623593, 0xd27e6d6f6e803b8d],
    // wl-fanout-t16-e48-a64-k0-r0-s104
    [0x8fbb46e078558974, 0x96923beef789a6fd, 0xcc931e02f971962e, 0xbe2d316c563379e1, 0x56048522f5991481],
    // wl-fanout-t16-e48-a64-k0-r2-s204
    [0xa2ee4ab4db98c223, 0x1438ac9df348c146, 0xaf43cb39737a6aa6, 0x7c8e52451c58c13d, 0x3165e55857e60909],
    // wl-straddle-t4-e48-a64-k0-r0-s105
    [0xee129ed6bac9c136, 0xfb2ccc0c92fb4402, 0x9233d36f1ac85dba, 0xcc8727a7f2f6c219, 0xbba0d6296f55c035],
    // wl-straddle-t4-e48-a64-k0-r2-s205
    [0x77470dc061cc23cd, 0xc15d81ae563c6415, 0x5ee21efef5d2d640, 0xcc17d0c936c6d1fb, 0x4bd2b411a50025f8],
    // wl-publish-t4-e48-a64-k0-r0-s106
    [0xf642b9d63bdef071, 0xdbf98731f0213e96, 0xaf4836ec1ae08e96, 0x3db1ff9bfbe20a8b, 0x80c40a4d9563f155],
    // wl-publish-t4-e48-a64-k0-r2-s206
    [0x15110e43b6811cea, 0x9b8eee1062bc10e1, 0x199fdffea3a00b0c, 0x47272c7669881709, 0x9251e3d080075a25],
    // wl-fanout-t32-e24-a64-k0-r3-s300
    [0xacc5926e5bf2a5a1, 0xd6006ae815027c8d, 0x9c9824e6f54bae4c, 0x9c24796f49ff8dc7, 0x14bf2fd804aec0de],
];

/// Pinned checksums per PARSEC program (seed 1, long MSM).
#[rustfmt::skip]
const PARSEC: &[(&str, [u64; 5])] = &[
    ("vips", [0x805cc9a7f063237b, 0x38d98dde2bb79de5, 0xa198a593c80d9b4c, 0xe65f64344b48be09, 0x7dcc0c8b6438c9e5]),
    ("bodytrack", [0x137558154f3bb7ed, 0xd961927268d76c43, 0xf1d465218cf997e0, 0xbbb654ebeadfa47a, 0xdd0965f72125d1f8]),
    ("streamcluster", [0xd94113da0c16304e, 0x1ccd0156ec0dd0da, 0x5248959beeaf3890, 0xb44263f702468de1, 0xa6581bfd8cca4ad7]),
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
