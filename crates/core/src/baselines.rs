//! Comparison baselines of the paper's quality evaluation (Fig. 16):
//!
//! - **DS-2** — render at half resolution, bilinearly upsample back. Work
//!   drops ~4×; quality drops wherever the frame carries detail above the
//!   half-resolution Nyquist limit.
//! - **Temp-N** — classic temporal warping: the reference is the previously
//!   *displayed* frame (on-trajectory), each target warps from the previous
//!   output, and a full render happens every N frames. Chained warping
//!   accumulates error — "Temp-16 is the worst because it warps from previous
//!   frames and accumulates errors" (§VI-A).

use crate::sparw::{render_target, WarpOptions, WarpScratch};
use cicero_field::render::{render_full, RenderOptions, RenderStats};
use cicero_field::{GatherSink, NerfModel, NullSink, TileOptions};
use cicero_math::{Camera, Image, Intrinsics};
use cicero_scene::ground_truth::Frame;
use cicero_scene::Trajectory;

/// Renders one frame with the DS-2 method: half-resolution render plus
/// bilinear 2× upsampling. Returns the full-resolution frame and the
/// (half-resolution) render statistics.
pub fn render_ds2<M: NerfModel + ?Sized, S: GatherSink>(
    model: &M,
    camera: &Camera,
    opts: &RenderOptions,
    sink: &mut S,
) -> (Frame, RenderStats) {
    let half = Camera::new(camera.intrinsics.downsampled(2), camera.pose);
    let (small, stats) = render_full(model, &half, opts, sink);
    let color = small.color.upsample_bilinear(2);
    // Depth upsampling: nearest neighbor (bilinear would smear the infinities
    // marking background).
    let (w, h) = (color.width(), color.height());
    let depth = Image::from_fn(w, h, |x, y| {
        *small.depth.get(
            (x / 2).min(small.width() - 1),
            (y / 2).min(small.height() - 1),
        )
    });
    (Frame { color, depth }, stats)
}

/// Renders a whole trajectory with the Temp-N method: full render on frame 0
/// and every `window`-th frame thereafter; every other frame chain-warps from
/// the *previous output* and sparse-renders its holes.
///
/// Returns the output frames plus per-frame render stats (full or sparse).
pub fn render_temp_chain<M: NerfModel + ?Sized>(
    model: &M,
    traj: &Trajectory,
    intrinsics: Intrinsics,
    window: usize,
    opts: &RenderOptions,
) -> Vec<(Frame, RenderStats)> {
    assert!(window >= 1);
    let mut out: Vec<(Frame, RenderStats)> = Vec::with_capacity(traj.len());
    // Warp scratch reused across the whole chain: no per-frame buffer churn.
    let mut scratch = WarpScratch::new();
    for i in 0..traj.len() {
        let cam = traj.camera(i, intrinsics);
        if i % window == 0 {
            out.push(render_full(model, &cam, opts, &mut NullSink));
        } else {
            let prev_cam = traj.camera(i - 1, intrinsics);
            let target = render_target(
                model,
                opts,
                &out[i - 1].0,
                &prev_cam,
                &cam,
                &WarpOptions::default(),
                &mut scratch,
                &TileOptions::default(),
                &mut NullSink,
            );
            out.push((target.frame, target.render));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_field::{bake, GridConfig};
    use cicero_math::{metrics, Pose, Vec3};
    use cicero_scene::ground_truth::render_frame;
    use cicero_scene::library;

    fn setup() -> (cicero_scene::AnalyticScene, cicero_field::GridModel, Camera) {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 48,
                ..Default::default()
            },
        );
        let cam = Camera::new(
            Intrinsics::from_fov(64, 64, 0.9),
            Pose::look_at(Vec3::new(0.0, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        (scene, model, cam)
    }

    #[test]
    fn ds2_quarters_the_work() {
        let (_, model, cam) = setup();
        let opts = RenderOptions::default();
        let (_, full) = render_full(&model, &cam, &opts, &mut NullSink);
        let (frame, half) = render_ds2(&model, &cam, &opts, &mut NullSink);
        assert_eq!(frame.width(), 64);
        assert_eq!(frame.height(), 64);
        assert_eq!(half.rays * 4, full.rays);
        assert!(half.samples_processed < full.samples_processed / 2);
    }

    #[test]
    fn ds2_loses_quality_vs_full_render() {
        let (scene, model, cam) = setup();
        let opts = RenderOptions::default();
        let gt = render_frame(&scene, &cam, &opts.march);
        let (full, _) = render_full(&model, &cam, &opts, &mut NullSink);
        let (ds2, _) = render_ds2(&model, &cam, &opts, &mut NullSink);
        let psnr_full = metrics::psnr(&full.color, &gt.color);
        let psnr_ds2 = metrics::psnr(&ds2.color, &gt.color);
        assert!(
            psnr_ds2 < psnr_full,
            "DS-2 {psnr_ds2:.2} dB should trail full {psnr_full:.2} dB"
        );
    }

    #[test]
    fn temp_chain_renders_full_every_window() {
        let (scene, model, _) = setup();
        let traj = cicero_scene::Trajectory::orbit(&scene, 9, 30.0);
        let frames = render_temp_chain(
            &model,
            &traj,
            Intrinsics::from_fov(48, 48, 0.9),
            4,
            &RenderOptions::default(),
        );
        assert_eq!(frames.len(), 9);
        // Frames 0, 4, 8 are full renders: all 48×48 rays.
        for &i in &[0usize, 4, 8] {
            assert_eq!(frames[i].1.rays, 48 * 48, "frame {i}");
        }
        // Warped frames render far fewer rays.
        assert!(frames[1].1.rays < 48 * 48 / 2);
    }

    #[test]
    fn temp_chain_error_accumulates_along_window() {
        let (scene, model, _) = setup();
        let traj = cicero_scene::Trajectory::orbit(&scene, 8, 4.0); // fast orbit
        let k = Intrinsics::from_fov(48, 48, 0.9);
        let frames = render_temp_chain(&model, &traj, k, 8, &RenderOptions::default());
        let march = cicero_scene::volume::MarchParams::default();
        let early = metrics::psnr(
            &frames[1].0.color,
            &render_frame(&scene, &traj.camera(1, k), &march).color,
        );
        let late = metrics::psnr(
            &frames[7].0.color,
            &render_frame(&scene, &traj.camera(7, k), &march).color,
        );
        assert!(
            late < early + 0.5,
            "chained warping should not improve: frame1 {early:.2} dB, frame7 {late:.2} dB"
        );
    }
}
