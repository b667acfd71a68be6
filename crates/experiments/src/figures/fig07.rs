//! Fig. 7 — Frame-to-frame overlap across Synthetic-NeRF scenes, plus the
//! §III-A disocclusion statistics.
//!
//! The paper: >98% of pixels overlap between adjacent frames (σ = 1.7%);
//! real-world traces leave only 4.3% (Unbounded-360) / 4.9% (Tanks&Temples)
//! of pixels un-warpable.

use super::*;
use cicero::{warp_frame, WarpOptions};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::{library, RadianceSource, Trajectory};

/// (overlap, needs-render) fractions between the first two frames of the
/// library scene `name` orbited at `fps`.
fn overlap_of(name: &str, fps: f32) -> (f64, f64) {
    let scene = library::scene_by_name(name).expect("a library scene");
    let k = quality_intrinsics();
    let traj = Trajectory::orbit(&scene, 2, fps);
    let cam0 = traj.camera(0, k);
    let cam1 = traj.camera(1, k);
    let f0 = render_frame(&scene, &cam0, &exp_march());
    let r = warp_frame(
        &f0,
        &cam0,
        &cam1,
        RadianceSource::background(&scene),
        &WarpOptions::default(),
    );
    let s = r.stats();
    (s.overlap_fraction(), s.render_fraction())
}

pub fn run(_: &Lab) -> Figure {
    let mut fig = Figure::new("fig07", "Warp overlap between adjacent frames");
    let mut table = Table::new([
        col("scene", "scene"),
        col("overlap", "overlap %").percent(2),
        col("needs_render", "needs render %").percent(2),
    ]);
    for name in library::SYNTHETIC_SCENES.iter().take(6) {
        let (ov, rf) = overlap_of(name, 30.0);
        table.push(row![*name, ov, rf]);
    }
    fig.tables.push(table.clone());

    let n = table.column("overlap").count() as f64;
    let mean = table.mean("overlap");
    let var = table
        .column("overlap")
        .map(|ov| (ov - mean).powi(2))
        .sum::<f64>()
        / n;
    fig.claim("mean overlap (synthetic, 30 FPS)", ">98%", pct(mean, 1))
        .pinned(96.9, GAP_D);
    fig.claim("std dev", "1.7%", pct(var.sqrt(), 1));

    // Real-world-like scenes: the dataset captures are temporally sparser
    // than 30 FPS VR motion, so sample them at a handheld-capture spacing.
    for (name, paper, today) in [("bonsai", "4.3%", 8.8), ("ignatius", "4.9%", 8.7)] {
        let (_, rf) = overlap_of(name, 8.0);
        let label = format!("{name}: un-warpable pixels");
        fig.claim(&label, paper, pct(rf, 1)).pinned(today, STAND_IN);
        table.push(row![name, 1.0 - rf, rf]);
    }
    fig.json = table.json();
    fig
}
