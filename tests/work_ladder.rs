//! Exact work counts per rung: what a frame of each benchmark workload's
//! shape *does*, counted, not timed. Host time on this machine drifts with
//! the build and the neighbours; these counts do not, so a change that
//! moves one says so here, in the same diff, as it would a digest.
//!
//! One rung so far: the `full_frame` workload's Baseline hash frame at its
//! smoke scale — lego, 40², the smoke `HashConfig`, four handheld poses at 3
//! poses/s, the benchmark's march and sample block on one lane — summed
//! over the four frames.

use cicero_field::{
    bake, render_full_tiled, HashConfig, NullSink, RenderOptions, RenderStats, TileOptions,
    DEFAULT_SAMPLE_BLOCK,
};
use cicero_math::{Camera, Intrinsics};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, Trajectory};

/// The frozen benchmark's smoke-size hash encoding.
const SMOKE_HASH: HashConfig = HashConfig {
    levels: 4,
    base_resolution: 16,
    max_resolution: 64,
    table_size_log2: 14,
    features_per_entry: 8,
    bytes_per_feature: 2,
};

/// The Baseline hash rung: rays, indexed, processed, gather entry reads,
/// gather bytes and MLP MACs of the four frames together. Processed
/// samples are the indexed ones in the analytic occupancy that the hash
/// model's sampled opacity support (a 32³ lattice at this configuration)
/// keeps; each costs 32 entry reads, 512 bytes and 6 784 MACs.
const HASH_FRAME: RenderStats = RenderStats {
    rays: 6_400,
    samples_indexed: 226_721,
    samples_processed: 38_203,
    gather_entry_reads: 1_222_496,
    gather_bytes: 19_559_936,
    mlp_macs: 259_169_152,
};

#[test]
fn baseline_hash_frame_counts_are_the_table_row() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_hash(&scene, &SMOKE_HASH);
    let path = Trajectory::handheld(&scene, 4, 3.0, 11);
    let intrinsics = Intrinsics::from_fov(40, 40, 0.9);
    let opts = RenderOptions {
        march: MarchParams::default(),
        use_occupancy: true,
        sample_block: DEFAULT_SAMPLE_BLOCK,
    };
    let mut total = RenderStats::default();
    for pose in path.poses() {
        let camera = Camera::new(intrinsics, *pose);
        let (_, stats) = render_full_tiled(
            &model,
            &camera,
            &opts,
            &mut NullSink,
            &TileOptions::default(),
        );
        stats
            .check(&model, intrinsics.pixel_count() as u64)
            .unwrap();
        total.accumulate(&stats);
    }
    assert_eq!(total, HASH_FRAME);
}
