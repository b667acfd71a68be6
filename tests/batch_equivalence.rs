//! The SoA sample engine must be **bit-identical** to the per-sample
//! reference renderer ([`render_reference`], the oracle: one ray at a time,
//! an occupancy test per step, a plan / gather / decode per sample) —
//! frames, [`RenderStats`], sink sample streams and whole pipeline runs — at
//! every block size, for every scene, model family and variant. This is the
//! contract that makes `sample_block` a pure throughput knob (like
//! `render_threads`): experiment reproducibility, the serve layer's digests
//! and the simulated timelines all rely on it.
//!
//! Block sizes cover a non-divisor size (3, so full blocks end mid-ray and
//! band tails are ragged), the default (16) and an oversized block (64, most
//! rays fit in one flush and band-end tails dominate). The degenerate sizes —
//! 0, read as 1, and 1 and 2, where every processed sample is (nearly) its
//! own block — have a test of their own on fewer rays, because an
//! unoptimised one-lane block costs several times more per sample; block 1
//! also runs through the pool in the interleaved-marcher test.

use cicero::pipeline::{run_pipeline, PipelineConfig};
use cicero::Variant;
use cicero_field::render::{render_full, render_masked, render_reference};
use cicero_field::{
    bake, render_tiled, GatherPlan, GridConfig, HashConfig, ModelSource, NerfModel, NullSink,
    RenderOptions, RenderStats, TensorConfig, TileOptions,
};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::{background_frame, Frame};
use cicero_scene::library;
use cicero_scene::volume::MarchParams;
use cicero_scene::Trajectory;

const BLOCK_SIZES: [usize; 3] = [3, 16, 64];

fn bench_camera() -> Camera {
    Camera::new(
        // Odd size: the last block of a band is always a ragged tail.
        Intrinsics::from_fov(33, 33, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    )
}

fn model_for(scene_name: &str) -> Box<dyn NerfModel> {
    let scene = library::scene_by_name(scene_name).unwrap();
    // One family per scene keeps the matrix affordable while covering every
    // encoding's block kernel: dense grid, multi-level hash, VM tensor.
    match scene_name {
        "lego" => Box::new(bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 24,
                ..Default::default()
            },
        )),
        "chair" => Box::new(bake::bake_hash(
            &scene,
            &HashConfig {
                levels: 4,
                base_resolution: 4,
                max_resolution: 24,
                table_size_log2: 10,
                ..Default::default()
            },
        )),
        _ => Box::new(bake::bake_tensor(
            &scene,
            &TensorConfig {
                resolution: 24,
                ..Default::default()
            },
        )),
    }
}

/// What a sink saw of every processed sample.
type Events = Vec<(u32, f32, u64, u64)>;

/// An observing sink that records the sample stream into `events`.
fn recorder(events: &mut Events) -> impl FnMut(u32, f32, &GatherPlan) + '_ {
    |ray, t, plan| events.push((ray, t, plan.bytes(), plan.entry_reads()))
}

/// The oracle's frame, stats and sink stream for `mask` (`sample_block` is
/// not read).
fn reference(
    model: &dyn NerfModel,
    cam: &Camera,
    opts: &RenderOptions,
    mask: Option<&[bool]>,
) -> (Frame, RenderStats, Events) {
    let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
    let mut frame = background_frame(&ModelSource(model), w, h);
    let mut events = Events::new();
    let stats = render_reference(
        model,
        cam,
        opts,
        mask,
        &mut frame,
        &mut recorder(&mut events),
    );
    (frame, stats, events)
}

#[test]
fn batched_render_is_bit_identical_across_scenes_models_and_block_sizes() {
    for scene_name in ["lego", "chair", "ship"] {
        let model = model_for(scene_name);
        let model = model.as_ref();
        let cam = bench_camera();
        let collect = |block: usize| {
            let opts = RenderOptions {
                sample_block: block,
                ..Default::default()
            };
            let mut events = Events::new();
            let (frame, stats) = render_full(model, &cam, &opts, &mut recorder(&mut events));
            (frame, stats, events)
        };
        let (seq_frame, seq_stats, seq_events) =
            reference(model, &cam, &RenderOptions::default(), None);
        assert!(
            seq_stats.samples_processed > 0,
            "{scene_name}: empty render"
        );
        for block in BLOCK_SIZES {
            let (frame, stats, events) = collect(block);
            assert_eq!(frame, seq_frame, "{scene_name}: frame, block {block}");
            assert_eq!(stats, seq_stats, "{scene_name}: stats, block {block}");
            assert_eq!(
                events, seq_events,
                "{scene_name}: sink stream, block {block}"
            );
        }
    }
}

#[test]
fn batched_masked_render_matches_scalar() {
    // Sparse (SPARW crack-fill style) renders: the mask skips pixels, so
    // blocks pack samples of non-adjacent rays.
    let model = model_for("lego");
    let model = model.as_ref();
    let cam = bench_camera();
    let (w, h) = (33usize, 33usize);
    let mut mask = vec![false; w * h];
    for (i, m) in mask.iter_mut().enumerate() {
        *m = i % 5 == 0 || i % 7 == 0;
    }
    let render = |block: usize| {
        let opts = RenderOptions {
            sample_block: block,
            ..Default::default()
        };
        let mut frame = background_frame(&ModelSource(model), w, h);
        let stats = render_masked(model, &cam, &opts, Some(&mask), &mut frame, &mut NullSink);
        (frame, stats)
    };
    let (seq_frame, seq_stats, _) = reference(model, &cam, &RenderOptions::default(), Some(&mask));
    for block in BLOCK_SIZES {
        let (frame, stats) = render(block);
        assert_eq!(frame, seq_frame, "masked frame, block {block}");
        assert_eq!(stats, seq_stats, "masked stats, block {block}");
    }
}

#[test]
fn interleaved_marcher_matches_scalar_on_small_masks_thin_bands_and_both_sink_kinds() {
    // The shapes the slot-stable marcher has to get right beyond full
    // frames: fewer rays than slots (the whole render is "band end"), a
    // single row, one-row tile bands through the pool, rays that never skip
    // (`use_occupancy: false`), and both values of the one parameter it
    // reads from the sink — a closure observes (one ray marches at a time,
    // the stream must come out ray-major), `NullSink` does not (one lane per
    // ray per block, no plans built).
    let model = model_for("lego");
    let model = model.as_ref();
    let (w, h) = (17usize, 17usize);
    let cam = Camera::new(
        Intrinsics::from_fov(w, h, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let few: Vec<bool> = (0..w * h).map(|i| [143, 145, 161].contains(&i)).collect();
    let one_row: Vec<bool> = (0..w * h).map(|i| i / w == 8).collect();
    let masks: [(&str, Option<&[bool]>); 3] = [
        ("full", None),
        ("3 rays", Some(&few)),
        ("one row", Some(&one_row)),
    ];
    let bands = [
        TileOptions::default(), // sequential: the whole frame is one band
        TileOptions {
            threads: 2,
            tile_rows: 1,
        },
    ];
    for use_occupancy in [true, false] {
        for (mask_name, mask) in masks {
            let opts_at = |block: usize| RenderOptions {
                march: MarchParams {
                    // Without the grid every step is a processed sample.
                    step: if use_occupancy { 0.02 } else { 0.06 },
                    ..Default::default()
                },
                use_occupancy,
                sample_block: block,
            };
            let render = |block: usize, tile: &TileOptions, observe: bool| {
                let opts = opts_at(block);
                let mut frame = background_frame(&ModelSource(model), w, h);
                let mut events = Events::new();
                let stats = if observe {
                    let mut sink = recorder(&mut events);
                    render_tiled(model, &cam, &opts, mask, &mut frame, &mut sink, tile)
                } else {
                    render_tiled(model, &cam, &opts, mask, &mut frame, &mut NullSink, tile)
                };
                (frame, stats, events)
            };
            let (seq_frame, seq_stats, seq_events) = reference(model, &cam, &opts_at(16), mask);
            assert!(seq_stats.samples_processed > 0);
            for block in [1usize, 2, 4, 16, 64] {
                for tile in &bands {
                    let case =
                        format!("occupancy {use_occupancy}, {mask_name}, block {block}, {tile:?}");
                    let (frame, stats, events) = render(block, tile, true);
                    assert_eq!(frame, seq_frame, "observed frame: {case}");
                    assert_eq!(stats, seq_stats, "observed stats: {case}");
                    assert_eq!(events, seq_events, "sink stream: {case}");
                    let (frame, stats, _) = render(block, tile, false);
                    assert_eq!(frame, seq_frame, "unobserved frame: {case}");
                    assert_eq!(stats, seq_stats, "unobserved stats: {case}");
                }
            }
        }
    }
}

#[test]
fn marcher_matches_render_reference_at_blocks_0_1_2_and_16() {
    // One marcher at every lane count, the degenerate ones included: a
    // zero-lane block could never park a sample, so `sample_block: 0` is read
    // as one lane; at one lane every processed sample is evaluated and
    // committed on its own. Every model family × full frame / sparse mask ×
    // occupancy on / off × observing closure / `NullSink`, against the
    // per-sample oracle: frame, stats, and the sink stream where there is one.
    // Few rays and a long step: without the occupancy grid every step of a
    // ray is a processed sample, and an unoptimised one-lane block is slow.
    let (w, h) = (11usize, 11usize);
    let cam = Camera::new(
        Intrinsics::from_fov(w, h, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let sparse: Vec<bool> = (0..w * h).map(|i| i % 5 == 0 || i % 7 == 0).collect();
    for scene_name in ["lego", "chair", "ship"] {
        let model = model_for(scene_name);
        let model = model.as_ref();
        for use_occupancy in [true, false] {
            for mask in [None, Some(sparse.as_slice())] {
                let opts_at = |block: usize| RenderOptions {
                    march: MarchParams {
                        step: if use_occupancy { 0.04 } else { 0.2 },
                        ..Default::default()
                    },
                    use_occupancy,
                    sample_block: block,
                };
                // The oracle does not read `sample_block`.
                let (ref_frame, ref_stats, ref_events) = reference(model, &cam, &opts_at(7), mask);
                assert!(ref_stats.samples_processed > 0);
                for block in [0usize, 1, 2, 16] {
                    let case = format!(
                        "{scene_name}, occupancy {use_occupancy}, sparse {}, block {block}",
                        mask.is_some()
                    );
                    let opts = opts_at(block);
                    let mut frame = background_frame(&ModelSource(model), w, h);
                    let mut events = Events::new();
                    let stats = render_masked(
                        model,
                        &cam,
                        &opts,
                        mask,
                        &mut frame,
                        &mut recorder(&mut events),
                    );
                    assert_eq!(frame, ref_frame, "observed frame: {case}");
                    assert_eq!(stats, ref_stats, "observed stats: {case}");
                    assert_eq!(events, ref_events, "sink stream: {case}");
                    let mut frame = background_frame(&ModelSource(model), w, h);
                    let stats = render_masked(model, &cam, &opts, mask, &mut frame, &mut NullSink);
                    assert_eq!(frame, ref_frame, "unobserved frame: {case}");
                    assert_eq!(stats, ref_stats, "unobserved stats: {case}");
                }
            }
        }
    }
}

#[test]
fn pipeline_runs_are_block_size_invariant_including_traffic() {
    // Whole-pipeline equality under SPARW and Cicero with the traffic
    // simulators attached: the memory-trace sinks observe the per-sample
    // gather stream, so this asserts the stream (not just the frames) is
    // unchanged by batching. Simulated reports must match to the bit.
    for scene_name in ["lego", "ship"] {
        let scene = library::scene_by_name(scene_name).unwrap();
        let model = model_for(scene_name);
        let model = model.as_ref();
        let traj = Trajectory::orbit(&scene, 4, 40.0);
        let k = Intrinsics::from_fov(24, 24, 0.9);
        for variant in [Variant::Sparw, Variant::Cicero] {
            let run_with = |block: usize| {
                let cfg = PipelineConfig {
                    variant,
                    window: 3,
                    march: MarchParams {
                        step: 0.05,
                        ..Default::default()
                    },
                    collect_quality: false,
                    collect_traffic: true,
                    sample_block: block,
                    ..Default::default()
                };
                run_pipeline(&scene, model, &traj, k, &cfg)
            };
            let base = run_with(1);
            for block in [3usize, 16] {
                let run = run_with(block);
                assert_eq!(
                    run.frames, base.frames,
                    "{scene_name}/{variant:?}: frames, block {block}"
                );
                assert_eq!(
                    run.warp_totals, base.warp_totals,
                    "{scene_name}/{variant:?}: warp stats, block {block}"
                );
                assert_eq!(run.outcomes.len(), base.outcomes.len());
                for (a, b) in run.outcomes.iter().zip(&base.outcomes) {
                    assert_eq!(
                        a.report, b.report,
                        "{scene_name}/{variant:?}: report, block {block}"
                    );
                }
            }
        }
    }
}
