//! Quality-path integration: baked models approximate the analytic ground
//! truth; warping preserves it; the comparison baselines order as the paper
//! reports.

use cicero::baselines::{render_ds2, render_temp_chain};
use cicero::pipeline::run_pipeline;
use cicero::Variant;
use cicero_field::{bake, GridConfig, NullSink, RenderOptions};
use cicero_math::{metrics, Intrinsics};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, Trajectory};

fn setup() -> (
    cicero_scene::AnalyticScene,
    cicero_field::GridModel,
    Trajectory,
    Intrinsics,
) {
    let scene = library::scene_by_name("lego").unwrap();
    let opts = bake::BakeOptions {
        decoder_hidden: 16,
        ..Default::default()
    };
    let model = bake::bake_grid_with(
        &scene,
        &GridConfig {
            resolution: 64,
            ..Default::default()
        },
        &opts,
    );
    let traj = Trajectory::orbit(&scene, 9, 30.0);
    (scene, model, traj, Intrinsics::from_fov(48, 48, 0.9))
}

fn cfg(variant: Variant, window: usize) -> cicero::pipeline::PipelineConfig {
    cicero::pipeline::PipelineConfig {
        variant,
        window,
        march: MarchParams {
            step: 0.02,
            ..Default::default()
        },
        collect_traffic: false,
        ..Default::default()
    }
}

#[test]
fn baked_model_scores_reasonable_psnr_vs_analytic_truth() {
    let (scene, model, traj, k) = setup();
    let run = run_pipeline(&scene, &model, &traj, k, &cfg(Variant::Baseline, 1));
    assert!(
        run.mean_psnr() > 20.0,
        "grid-64 reconstruction too poor: {:.1} dB",
        run.mean_psnr()
    );
}

#[test]
fn method_ordering_matches_paper_fig16() {
    let (scene, model, traj, k) = setup();
    let gt: Vec<_> = (0..traj.len())
        .map(|i| {
            render_frame(
                &scene,
                &traj.camera(i, k),
                &MarchParams {
                    step: 0.02,
                    ..Default::default()
                },
            )
            .color
        })
        .collect();
    let score = |frames: &[cicero_scene::ground_truth::Frame]| {
        let mse: f64 = frames
            .iter()
            .zip(&gt)
            .map(|(f, g)| metrics::mse(&f.color, g))
            .sum::<f64>()
            / frames.len() as f64;
        -10.0 * mse.log10()
    };

    let base = score(&run_pipeline(&scene, &model, &traj, k, &cfg(Variant::Baseline, 1)).frames);
    let cicero6 = score(&run_pipeline(&scene, &model, &traj, k, &cfg(Variant::Cicero, 6)).frames);
    let opts = RenderOptions {
        march: cfg(Variant::Baseline, 1).march,
        ..Default::default()
    };
    let ds2: Vec<_> = (0..traj.len())
        .map(|i| render_ds2(&model, &traj.camera(i, k), &opts, &mut NullSink).0)
        .collect();
    let temp: Vec<_> = render_temp_chain(&model, &traj, k, 8, &opts)
        .into_iter()
        .map(|(frame, _stats)| frame)
        .collect();
    let (ds2, temp) = (score(&ds2), score(&temp));

    // Paper Fig. 16 shape: baseline ≥ Cicero-6, Cicero beats DS-2 and Temp.
    assert!(
        base >= cicero6 - 0.3,
        "baseline {base:.2} vs cicero6 {cicero6:.2}"
    );
    assert!(cicero6 > ds2 - 0.5, "cicero6 {cicero6:.2} vs ds2 {ds2:.2}");
    assert!(
        cicero6 >= temp - 0.3,
        "cicero6 {cicero6:.2} vs temp {temp:.2}"
    );
    // And everything is in a plausible PSNR band.
    for (name, v) in [
        ("base", base),
        ("cicero6", cicero6),
        ("ds2", ds2),
        ("temp", temp),
    ] {
        assert!(v > 14.0 && v < 60.0, "{name} = {v:.1} dB out of band");
    }
}

#[test]
fn ssim_tracks_psnr_ordering() {
    let (scene, model, traj, k) = setup();
    let mut full_cfg = cfg(Variant::Baseline, 1);
    full_cfg.collect_quality = true;
    let base = run_pipeline(&scene, &model, &traj, k, &full_cfg);
    let mut c_cfg = cfg(Variant::Cicero, 8);
    c_cfg.collect_quality = true;
    let cic = run_pipeline(&scene, &model, &traj, k, &c_cfg);
    let mean_ssim = |r: &cicero::PipelineRun| {
        let v: Vec<f64> = r.outcomes.iter().filter_map(|o| o.ssim).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(mean_ssim(&base) > 0.5);
    assert!(mean_ssim(&base) >= mean_ssim(&cic) - 0.05);
}

#[test]
fn specular_scene_quality_degrades_more_under_warping() {
    // The paper's §VI-F observation: the radiance approximation weakens on
    // non-diffuse surfaces. Compare warp-induced loss on `materials`
    // (specular) vs `chair` (diffuse) under identical large motion.
    let opts = bake::BakeOptions {
        decoder_hidden: 16,
        ..Default::default()
    };
    // 96²: fine enough that splat noise is small against the specular
    // residual (at 48² both losses drown in silhouette error).
    let k = Intrinsics::from_fov(96, 96, 0.9);
    let mut losses = Vec::new();
    for name in ["lego", "materials"] {
        let scene = library::scene_by_name(name).unwrap();
        let model = bake::bake_grid_with(
            &scene,
            &GridConfig {
                resolution: 64,
                ..Default::default()
            },
            &opts,
        );
        // Gentle VR-rate motion: disocclusion error stays small, so the
        // view-dependent (specular) residual dominates the comparison.
        let traj = Trajectory::orbit(&scene, 7, 30.0);
        let base = run_pipeline(&scene, &model, &traj, k, &cfg(Variant::Baseline, 1));
        let warped = run_pipeline(&scene, &model, &traj, k, &cfg(Variant::Cicero, 6));
        losses.push(base.mean_psnr() - warped.mean_psnr());
    }
    assert!(
        losses[1] > losses[0],
        "specular loss {:.2} dB should exceed diffuse {:.2} dB",
        losses[1],
        losses[0]
    );
}
