//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench target exercises the computational kernel behind one paper
//! figure (see `DESIGN.md` §4): MLP inference (Feature Computation), encoding
//! queries (Feature Gathering), SPARW warping, the bank-conflict simulator,
//! traffic analysis and the end-to-end pipeline.

use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::{library, AnalyticScene};

/// A small scene every bench shares.
pub fn bench_scene() -> AnalyticScene {
    library::scene_by_name("lego").expect("library scene")
}

/// A small grid model baked for benching.
pub fn bench_model() -> GridModel {
    let opts = bake::BakeOptions {
        decoder_hidden: 16,
        ..Default::default()
    };
    bake::bake_grid_with(
        &bench_scene(),
        &GridConfig {
            resolution: 48,
            ..Default::default()
        },
        &opts,
    )
}

/// A camera looking at the bench scene.
pub fn bench_camera(res: usize) -> Camera {
    Camera::new(
        Intrinsics::from_fov(res, res, 0.9),
        Pose::look_at(Vec3::new(0.0, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    )
}
