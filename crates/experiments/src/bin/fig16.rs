//! Fig. 16 — Rendering quality (PSNR): Baseline vs Cicero-6 / Cicero-16 /
//! DS-2 / Temp-16, on Synthetic-NeRF-like scenes (a) and real-world-like
//! scenes (b).
//!
//! The paper's headline: Cicero-6 stays within 1.0 dB of the baseline;
//! Cicero-16 drops ~1.3 dB but still beats DS-2 and Temp-16 on the synthetic
//! set. Pass `--quick` to run 3 scenes instead of all 10.

use cicero::pipeline::run_pipeline;
use cicero::{RefPlacement, Variant};
use cicero_experiments::*;
use cicero_math::metrics;
use cicero_scene::ground_truth::render_frame;
use cicero_scene::{library, Trajectory};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scene: String,
    baseline: f64,
    cicero6: f64,
    cicero16: f64,
    ds2: f64,
    temp16: f64,
}

fn psnr_vs_gt(frames: &[cicero_scene::ground_truth::Frame], gt: &[cicero_math::RgbImage]) -> f64 {
    let mut mse = 0.0;
    for (f, g) in frames.iter().zip(gt) {
        mse += metrics::mse(&f.color, g);
    }
    mse /= frames.len() as f64;
    -10.0 * mse.log10()
}

fn eval_scene(name: &str, frames_n: usize) -> Row {
    let scene = experiment_scene(name);
    let model = quality_model(&scene);
    let k = quality_intrinsics();
    let traj = Trajectory::orbit(&scene, frames_n, 30.0);
    let gt: Vec<_> = (0..traj.len())
        .map(|i| render_frame(&scene, &traj.camera(i, k), &exp_march()).color)
        .collect();

    let baseline = run_pipeline(
        &scene,
        &model,
        &traj,
        k,
        &quality_config(Variant::Baseline, 1),
    );
    let mut c6cfg = quality_config(Variant::Cicero, 6);
    c6cfg.ref_placement = RefPlacement::Extrapolated;
    let c6 = run_pipeline(&scene, &model, &traj, k, &c6cfg);
    let c16 = run_pipeline(
        &scene,
        &model,
        &traj,
        k,
        &quality_config(Variant::Cicero, 16),
    );
    let ds2 = ds2_frames(&model, &traj, k);
    let temp16 = temp_frames(&model, &traj, k, 16);

    Row {
        scene: name.into(),
        baseline: psnr_vs_gt(&baseline.frames, &gt),
        cicero6: psnr_vs_gt(&c6.frames, &gt),
        cicero16: psnr_vs_gt(&c16.frames, &gt),
        ds2: psnr_vs_gt(&ds2, &gt),
        temp16: psnr_vs_gt(&temp16, &gt),
    }
}

fn main() {
    banner("fig16", "Rendering quality: PSNR across methods");
    let quick = std::env::args().any(|a| a == "--quick");
    let synth: Vec<&str> = if quick {
        vec!["lego", "chair", "mic"]
    } else {
        library::SYNTHETIC_SCENES.to_vec()
    };
    let frames_n = 18;

    let mut table = Table::new(&[
        "scene",
        "Baseline",
        "Cicero-6",
        "Cicero-16",
        "DS-2",
        "Temp-16",
    ]);
    let mut rows = Vec::new();
    for name in &synth {
        let r = eval_scene(name, frames_n);
        table.row(&[
            r.scene.clone(),
            fmt(r.baseline, 2),
            fmt(r.cicero6, 2),
            fmt(r.cicero16, 2),
            fmt(r.ds2, 2),
            fmt(r.temp16, 2),
        ]);
        rows.push(r);
    }
    // Real-world-like scenes (Fig. 16b).
    for name in ["bonsai", "ignatius"] {
        let r = eval_scene(name, frames_n);
        table.row(&[
            format!("{} (rw)", r.scene),
            fmt(r.baseline, 2),
            fmt(r.cicero6, 2),
            fmt(r.cicero16, 2),
            fmt(r.ds2, 2),
            fmt(r.temp16, 2),
        ]);
        rows.push(r);
    }
    table.print();

    let n = rows.len() as f64;
    let mean = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let base = mean(|r| r.baseline);
    let c6 = mean(|r| r.cicero6);
    let c16 = mean(|r| r.cicero16);
    let ds2 = mean(|r| r.ds2);
    let temp = mean(|r| r.temp16);
    println!();
    paper_vs(
        "Cicero-6 drop vs baseline",
        "<1.0 dB",
        &format!("{:.2} dB", base - c6),
    );
    paper_vs(
        "Cicero-16 drop vs baseline",
        "~1.3 dB",
        &format!("{:.2} dB", base - c16),
    );
    paper_vs(
        "Cicero-16 vs DS-2 (synthetic)",
        "better",
        if c16 > ds2 { "better" } else { "worse" },
    );
    paper_vs(
        "Temp-16 is worst",
        "yes",
        if temp <= c16 && temp <= ds2 {
            "yes"
        } else {
            "no"
        },
    );
    write_results("fig16", &rows);
}
