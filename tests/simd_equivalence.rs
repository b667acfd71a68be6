//! The explicit SIMD kernel layer must be **bit-identical** to the portable
//! instance it widens — frames, `RenderStats`, sink sample streams, warped
//! frames, pipeline reports and full serve `ServiceReport`s — for every
//! model family. This is the contract that makes the backend cap a pure
//! throughput knob that never moves a pixel.
//!
//! Every backend the target has is compiled into one binary; which instance
//! the hot loops take is the process-wide `cicero_field::simd` backend cap,
//! moved only by `set_backend_cap`. Each frame-path test is `check` of its
//! rows of `tests/frame_matrix.rs`: each row runs capped to SSE2, AVX or
//! AVX-512 (or with every knob wide at once, the backend uncapped) and is
//! held to its oracle on the portable kernels. Each row's line names the
//! backend that ran; a row capped below `Backend::WIDEST` at a backend the
//! host cannot run is skipped with a line saying so, while an uncapped one
//! (the `avx512` and `all wide` rows) runs at the host's widest.
//! The per-kernel bitwise tests live next to the kernels, and the wide
//! path's zero-allocation leg lives in `tests/zero_alloc.rs`.

#[path = "frame_matrix.rs"]
mod frame_matrix;

use cicero::pipeline::PipelineConfig;
use cicero::Variant;
use cicero_field::simd::{self, Backend};
use cicero_scene::volume::MarchParams;
use cicero_serve::{
    Fleet, FleetConfig, FleetReport, QosClass, ServeConfig, SessionSpec, Submission,
};
use frame_matrix::{check, pipeline, target, warp, Case, Family, Mask, ALL, BASE, GRID, WIDE};
use frame_matrix::{HASH8, PHI, WARP, WIDTHS};

const SSE2: Case = Case {
    backend: Backend::Sse2,
    ..BASE
};
const AVX: Case = Case {
    backend: Backend::Avx,
    ..BASE
};
const AVX512: Case = Case {
    backend: Backend::Avx512,
    ..BASE
};

#[test]
fn wide_render_is_bit_identical_across_scenes_models_and_block_sizes() {
    #[rustfmt::skip]
    check(&[
        ("sse2", ALL, SSE2),
        ("avx", ALL, AVX),
        ("avx512", ALL, AVX512),
        ("block 1, sse2", ALL, Case { block: 1, ..SSE2 }),
        ("block 1, avx", ALL, Case { block: 1, ..AVX }),
        ("block 1, avx512", ALL, Case { block: 1, ..AVX512 }),
        ("block 64, sse2", ALL, Case { block: 64, ..SSE2 }),
        ("all wide", ALL, WIDE),
        ("all wide, observing", ALL, Case { observe: true, ..WIDE }),
        ("all wide, occupancy off", ALL, Case { occupancy: false, ..WIDE }),
        ("all wide, sparse mask", ALL, Case { mask: Mask::Sparse, ..WIDE }),
        ("all wide, 3 rays", GRID, Case { mask: Mask::ThreeRays, ..WIDE }),
        ("all wide, one row on 1-row bands", GRID, Case { mask: Mask::OneRow, tile_rows: 1, ..WIDE }),
    ]);
}

/// The fixture's hash (11 features per entry over six levels) and tensor
/// (21 and 35 channels) models leave every block gather a ragged lane tail;
/// a 20-sample block leaves the gathers a 4-sample chunk after the full one
/// and the 16-lane MLP a 4-lane group after its 16-lane one. Hash at the
/// benchmark's 8 features also runs one-sample blocks and full chunks on
/// every backend, its sink observing.
#[test]
fn block_gathers_render_bit_identically_at_every_feature_width() {
    check(&[
        ("block 1, sse2", HASH8, Case { block: 1, ..SSE2 }),
        ("block 1, avx", HASH8, Case { block: 1, ..AVX }),
        ("block 1, avx512", HASH8, Case { block: 1, ..AVX512 }),
        ("block 16, sse2", HASH8, Case { block: 16, ..SSE2 }),
        ("block 16, avx", HASH8, Case { block: 16, ..AVX }),
        (
            "block 16, avx512",
            HASH8,
            Case {
                block: 16,
                ..AVX512
            },
        ),
        ("block 20", WIDTHS, Case { block: 20, ..BASE }),
        ("block 20, sse2", WIDTHS, Case { block: 20, ..SSE2 }),
        ("block 20, avx", WIDTHS, Case { block: 20, ..AVX }),
        (
            "block 20, avx512",
            WIDTHS,
            Case {
                block: 20,
                ..AVX512
            },
        ),
        (
            "block 64, avx512",
            WIDTHS,
            Case {
                block: 64,
                ..AVX512
            },
        ),
    ]);
}

/// The SPARW splat / normalize / void-classify kernels, end to end on a
/// rendered reference, with and without the φ test; then whole target
/// frames, whose sparse render runs the model's kernels on the holes.
#[test]
fn wide_warp_passes_are_bit_identical() {
    check(&[
        ("warp sse2", GRID, warp(WARP, SSE2)),
        ("warp avx", ALL, warp(WARP, AVX)),
        ("warp avx512", ALL, warp(WARP, AVX512)),
        ("warp phi sse2", GRID, warp(PHI, SSE2)),
        ("warp phi avx", GRID, warp(PHI, AVX)),
        ("warp phi avx512", GRID, warp(PHI, AVX512)),
        ("warp all wide", GRID, warp(WARP, WIDE)),
        ("target sse2", GRID, target(WARP, SSE2)),
        ("target avx", ALL, target(WARP, AVX)),
        ("target phi avx512", GRID, target(PHI, AVX512)),
        ("target all wide", ALL, target(WARP, WIDE)),
    ]);
}

#[test]
fn wide_pipeline_runs_are_bit_identical() {
    check(&[
        ("pipeline sse2", GRID, pipeline(Variant::Sparw, SSE2)),
        ("pipeline avx", ALL, pipeline(Variant::Cicero, AVX)),
        ("pipeline avx512", ALL, pipeline(Variant::Cicero, AVX512)),
        ("pipeline all wide", ALL, pipeline(Variant::Cicero, WIDE)),
    ]);
}

/// Full service reports — frame records, latency percentiles, PSNR, cache
/// economics — through the multi-session serve layer at a host thread budget
/// of 2, on every wide backend, equal the portable kernels' report.
#[test]
fn wide_serve_reports_are_bit_identical() {
    let _serial = frame_matrix::lock();
    let fx = frame_matrix::fixture();
    let serve = |backend: Backend| -> FleetReport {
        simd::set_backend_cap(backend);
        let mut fleet = Fleet::new(FleetConfig {
            base: ServeConfig {
                render_threads: 2,
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        for (i, (qos, family, offset)) in [
            (QosClass::Interactive, Family::Grid, 0.0),
            (QosClass::Standard, Family::Grid, 0.004),
            (QosClass::BestEffort, Family::Tensor, 0.009),
            (QosClass::Standard, Family::Tensor, 0.006),
        ]
        .into_iter()
        .enumerate()
        {
            let baked = fx.baked(family);
            let spec = SessionSpec {
                name: format!("s{i}"),
                scene_key: format!("{family:?}"),
                qos,
                start_offset_s: offset,
                config: PipelineConfig {
                    variant: Variant::Cicero,
                    window: 4,
                    march: MarchParams {
                        step: 0.05,
                        ..Default::default()
                    },
                    collect_quality: true, // PSNR equality ⇒ frames match too
                    collect_traffic: false,
                    ..Default::default()
                },
            };
            let (scene, model) = (&baked.scene, baked.model.as_ref());
            let k = fx.camera.intrinsics;
            let submission = Submission::trajectory(spec, scene, model, &baked.trajectory, k);
            fleet.submit(submission).unwrap();
        }
        fleet.run()
    };
    let portable = serve(Backend::Portable);
    assert!(portable.frames > 0, "empty serve run");
    for backend in Backend::ALL.into_iter().filter(|&b| b != Backend::Portable) {
        if !backend.supported() {
            println!("skipping {backend:?}: not supported in this build on this host");
            continue;
        }
        let wide = serve(backend);
        assert!(wide == portable, "{backend:?}: the service report differs");
    }
    simd::set_backend_cap(Backend::WIDEST);
}
