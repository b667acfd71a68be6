//! The SoA sample engine must be **bit-identical** to the per-sample
//! reference renderer (`render_reference`, the oracle: one ray at a time, an
//! occupancy test per step, a plan / gather / decode per sample) — frames,
//! `RenderStats`, sink sample streams and whole pipeline runs with traffic
//! on — at every block size, for every model family and variant. This is the
//! contract that makes `sample_block` a pure throughput knob: experiment
//! reproducibility, the serve layer's digests and the simulated timelines
//! all rely on it.
//!
//! Blocks cover the degenerate sizes (0, read as 1, and 1 and 2, where every
//! processed sample is (nearly) its own block), non-divisor sizes (3 and 4,
//! so full blocks end mid-ray and band tails are ragged), the default (16)
//! and an oversized block (64, where band-end tails dominate). Each test is
//! [`check`] of its rows of `tests/frame_matrix.rs`, which holds the
//! fixture and the oracles.

#[path = "frame_matrix.rs"]
mod frame_matrix;

use cicero::Variant;
use frame_matrix::{check, lanes, pipeline, Case, Mask, ALL, BASE, GRID};

/// A zero-lane block could never park a sample, so `sample_block: 0` is
/// read as one lane; at one lane every processed sample is evaluated and
/// committed on its own. The degenerate blocks also run without the
/// occupancy grid, on a sparse mask and into `NullSink`.
#[test]
fn marcher_matches_render_reference_at_blocks_0_1_2_and_16() {
    let sparse_null_no_occupancy = Case {
        mask: Mask::Sparse,
        observe: false,
        occupancy: false,
        ..BASE
    };
    #[rustfmt::skip]
    check(&[
        ("oracle knobs", ALL, BASE),
        ("block 0", ALL, Case { block: 0, ..BASE }),
        ("block 1", ALL, Case { block: 1, ..BASE }),
        ("block 2", ALL, Case { block: 2, ..BASE }),
        ("block 1, NullSink", ALL, Case { block: 1, observe: false, ..BASE }),
        ("block 1, sparse mask", ALL, Case { block: 1, mask: Mask::Sparse, ..BASE }),
        ("block 1, occupancy off", ALL, Case { block: 1, occupancy: false, ..BASE }),
        ("block 0, sparse, NullSink, occupancy off", ALL, Case { block: 0, ..sparse_null_no_occupancy }),
        ("block 2, sparse, NullSink, occupancy off", ALL, Case { block: 2, ..sparse_null_no_occupancy }),
    ]);
}

#[test]
fn batched_render_is_bit_identical_across_scenes_models_and_block_sizes() {
    check(&[
        ("block 3", ALL, Case { block: 3, ..BASE }),
        ("block 64", ALL, Case { block: 64, ..BASE }),
    ]);
}

/// Sparse (crack-fill style) renders: the mask skips pixels, so blocks pack
/// samples of non-adjacent rays.
#[test]
fn batched_masked_render_matches_scalar() {
    #[rustfmt::skip]
    check(&[
        ("sparse mask", ALL, Case { mask: Mask::Sparse, ..BASE }),
        ("sparse mask, NullSink, block 3", ALL, Case { mask: Mask::Sparse, observe: false, block: 3, ..BASE }),
    ]);
}

/// The shapes the slot-stable marcher has to get right beyond full frames:
/// fewer rays than slots (the whole render is a band end), a single row,
/// one-row tile bands through the pool, rays that never skip (occupancy
/// off), and both sink kinds — an observing sink (its trace must replay
/// ray-major) and `NullSink` (no trace, no plans built).
#[test]
fn interleaved_marcher_matches_scalar_on_small_masks_thin_bands_and_both_sink_kinds() {
    let thin_bands = Case {
        lanes: 2,
        tile_rows: 1,
        ..BASE
    };
    #[rustfmt::skip]
    check(&[
        ("3 rays", GRID, Case { mask: Mask::ThreeRays, ..BASE }),
        ("one row", GRID, Case { mask: Mask::OneRow, ..BASE }),
        ("occupancy off", ALL, Case { occupancy: false, ..BASE }),
        ("NullSink", GRID, Case { observe: false, ..BASE }),
        ("NullSink, occupancy off", GRID, Case { observe: false, occupancy: false, ..BASE }),
        ("block 1, 2 lanes, 1-row bands", GRID, Case { block: 1, ..thin_bands }),
        ("3 rays, block 2, 2 lanes, 1-row bands", GRID, Case { mask: Mask::ThreeRays, block: 2, ..thin_bands }),
        ("one row, NullSink, occupancy off, block 4, 2 lanes, 1-row bands", GRID,
            Case { mask: Mask::OneRow, observe: false, occupancy: false, block: 4, ..thin_bands }),
    ]);
}

/// One marching order for every sink: an observing sink's frame evaluates
/// exactly the lanes `NullSink`'s does, and commits the same ones.
#[test]
fn observing_and_null_sinks_evaluate_the_same_lanes() {
    for block in [4, 16, 64] {
        let observed = Case {
            block,
            telemetry: true,
            ..BASE
        };
        let null = Case {
            observe: false,
            ..observed
        };
        let (observed, null) = (lanes(&observed), lanes(&null));
        println!("block {block}: [evaluated, committed] {observed:?} observed, {null:?} NullSink");
        assert_eq!(observed, null, "block {block}: [evaluated, committed]");
    }
}

/// The memory-trace sinks observe the per-sample gather stream, so equal
/// simulated reports mean the stream (not just the frames) is unchanged by
/// batching.
#[test]
fn pipeline_runs_are_block_size_invariant_including_traffic() {
    check(&[
        ("pipeline cicero", ALL, pipeline(Variant::Cicero, BASE)),
        ("pipeline sparw", ALL, pipeline(Variant::Sparw, BASE)),
        (
            "pipeline block 3",
            ALL,
            pipeline(Variant::Cicero, Case { block: 3, ..BASE }),
        ),
    ]);
}
