//! Fig. 9 — Reference frame, naive warping (with disocclusion holes) and the
//! SPARW result (holes filled by sparse NeRF).
//!
//! Hands the driver three PPM images and reports hole statistics.

use super::*;
use cicero::{render_target, warp_frame, WarpOptions, WarpScratch};
use cicero_field::{NullSink, TileOptions};
use cicero_math::metrics::psnr;
use cicero_scene::ground_truth::render_frame;
use cicero_scene::Trajectory;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig09", "Naive warping vs SPARW hole filling (images)");
    let scene = lab.scene("chair");
    let model = lab.model("chair", ModelSpec::standard(ModelKind::Grid));
    let model = model.as_ref();
    let k = quality_intrinsics();
    let traj = Trajectory::orbit(&scene, 10, 6.0); // brisk motion → visible holes
    let cam0 = traj.camera(0, k);
    let cam1 = traj.camera(6, k);
    let opts = exp_render_options();

    let (reference, _) = render_full(model, &cam0, &opts, &mut NullSink);
    // The naive image is the warp alone; SPARW's is the whole target frame.
    let warp = WarpOptions::default();
    let naive = warp_frame(&reference, &cam0, &cam1, model.background(), &warp).frame;
    let sparw = render_target(
        model,
        &opts,
        &reference,
        &cam0,
        &cam1,
        &warp,
        &mut WarpScratch::new(),
        &TileOptions::default(),
        &mut NullSink,
    );
    let stats = sparw.warp;
    // A hole is a pixel the mask sent to the sparse render that no ray wrote.
    let holes = (stats.disoccluded + stats.rejected).abs_diff(sparw.render.rays);

    let gt = render_frame(scene.as_ref(), &cam1, &exp_march());
    let psnr_naive = psnr(&naive.color, &gt.color);
    let psnr_sparw = psnr(&sparw.frame.color, &gt.color);

    fig.notes = vec![
        "  wrote results/fig09_{reference,naive_warp,sparw}.ppm".into(),
        format!(
            "  disoccluded pixels: {} of {}",
            stats.disoccluded, stats.total
        ),
    ];
    let gain = signed(psnr_sparw - psnr_naive, 1, " dB");
    fig.claim("naive warp has holes", "yes", yes_no(stats.disoccluded > 0));
    fig.claim("SPARW removes them (PSNR gain)", ">0 dB", gain);
    fig.claim("SPARW leaves no hole", "0", num(holes as f64, 0, ""));
    fig.json = record(&[
        ("disoccluded_pixels", stats.disoccluded.to_value()),
        ("holes_after_sparw", holes.to_value()),
        ("psnr_naive", psnr_naive.to_value()),
        ("psnr_sparw", psnr_sparw.to_value()),
    ]);
    fig.images = vec![
        ("reference", reference.color),
        ("naive_warp", naive.color),
        ("sparw", sparw.frame.color),
    ];
    fig
}
