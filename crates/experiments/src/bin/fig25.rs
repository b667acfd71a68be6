//! Fig. 25 — Real-world temporal resolution: PSNR on the Ignatius-like scene
//! at 1 FPS (sparse capture) vs 30 FPS (real-time VR).
//!
//! The paper: at 1 FPS Cicero trails DS-2 (large pose deltas break the
//! radiance approximation); at 30 FPS Cicero-16 has little loss and matches
//! DS-2 while being ~4× faster.

use cicero::pipeline::run_pipeline;
use cicero::Variant;
use cicero_experiments::*;
use cicero_math::metrics;
use cicero_scene::ground_truth::render_frame;
use cicero_scene::Trajectory;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    condition: String,
    baseline: f64,
    cicero6: f64,
    cicero16: f64,
    ds2: f64,
    temp16: f64,
}

fn eval(
    traj: &Trajectory,
    scene: &cicero_scene::AnalyticScene,
    model: &dyn cicero_field::NerfModel,
) -> (f64, f64, f64, f64, f64) {
    let k = quality_intrinsics();
    let gt: Vec<_> = (0..traj.len())
        .map(|i| render_frame(scene, &traj.camera(i, k), &exp_march()).color)
        .collect();
    let score = |frames: &[cicero_scene::ground_truth::Frame]| {
        let mse = frames
            .iter()
            .zip(&gt)
            .map(|(f, g)| metrics::mse(&f.color, g))
            .sum::<f64>()
            / frames.len() as f64;
        -10.0 * mse.log10()
    };
    let base = run_pipeline(scene, model, traj, k, &quality_config(Variant::Baseline, 1));
    let c6 = run_pipeline(scene, model, traj, k, &quality_config(Variant::Cicero, 6));
    let c16 = run_pipeline(scene, model, traj, k, &quality_config(Variant::Cicero, 16));
    let ds2 = ds2_frames(model, traj, k);
    let temp = temp_frames(model, traj, k, 16);
    (
        score(&base.frames),
        score(&c6.frames),
        score(&c16.frames),
        score(&ds2),
        score(&temp),
    )
}

fn main() {
    banner(
        "fig25",
        "Ignatius: 1 FPS (sparse) vs 30 FPS (dense) capture",
    );
    let scene = experiment_scene("ignatius");
    let model = quality_model(&scene);

    let dense = Trajectory::orbit(&scene, 18, 30.0);
    let sparse = Trajectory::orbit(&scene, 18 * 15, 30.0).subsample(15); // ~2 FPS-equivalent deltas

    let mut table = Table::new(&[
        "condition",
        "Baseline",
        "Cicero-6",
        "Cicero-16",
        "DS-2",
        "Temp-16",
    ]);
    let mut rows = Vec::new();
    for (label, traj) in [("sparse (1 FPS-like)", &sparse), ("dense (30 FPS)", &dense)] {
        let (b, c6, c16, d, t) = eval(traj, &scene, &model);
        table.row(&[
            label.into(),
            fmt(b, 2),
            fmt(c6, 2),
            fmt(c16, 2),
            fmt(d, 2),
            fmt(t, 2),
        ]);
        rows.push(Row {
            condition: label.into(),
            baseline: b,
            cicero6: c6,
            cicero16: c16,
            ds2: d,
            temp16: t,
        });
    }
    table.print();

    println!();
    let sparse_row = &rows[0];
    let dense_row = &rows[1];
    paper_vs(
        "1 FPS: Cicero-16 trails DS-2",
        "yes",
        if sparse_row.cicero16 < sparse_row.ds2 {
            "yes"
        } else {
            "no"
        },
    );
    paper_vs(
        "30 FPS: Cicero-16 loss vs baseline",
        "little",
        &format!("{:.2} dB", dense_row.baseline - dense_row.cicero16),
    );
    paper_vs(
        "30 FPS: Cicero-16 ≈ DS-2",
        "similar",
        &format!("{:+.2} dB", dense_row.cicero16 - dense_row.ds2),
    );
    write_results("fig25", &rows);
}
