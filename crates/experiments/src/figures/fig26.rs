//! Fig. 26 — The warp-angle threshold φ on the sparse (1 FPS-like) Ignatius
//! trace: smaller φ → fewer pixels warped → higher quality, lower speedup.
//!
//! The paper: at φ = 4°, quality is within 0.1 dB of the full render while
//! keeping a 4.3× speedup.

use super::*;
use cicero::pipeline::run_pipeline;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig26",
        "Warp-angle threshold sweep (sparse Ignatius trace)",
    );
    let scene = lab.scene("ignatius");
    let model = lab.model("ignatius", ModelSpec::QUALITY);
    let k = quality_intrinsics();
    let traj = Capture::Sparse.trajectory(&scene);
    let gt = lab.ground_truth("ignatius", Capture::Sparse);

    // Baseline: full render of every frame.
    let mut base_cfg = quality_config(Variant::Baseline, 1);
    base_cfg.collect_traffic = true;
    let base = run_pipeline(&scene, model.as_ref(), &traj, k, &base_cfg);
    let base_psnr = psnr_vs_gt(&base.frames, &gt);
    let base_time = base.mean_frame_time();

    let mut table = Table::new([
        col("phi_deg", "phi (deg)").fixed(0),
        col("psnr", "PSNR dB").fixed(2),
        col("speedup", "speedup ×").fixed(1),
        col("warped_fraction", "warped %").percent(1),
    ]);
    let (smallest, unlimited) = (1.0f64, 180.0);
    for phi_deg in [smallest, 2.0, 4.0, 8.0, 16.0, 32.0, unlimited] {
        let mut cfg = quality_config(Variant::Cicero, 16);
        cfg.collect_traffic = true;
        cfg.phi = Some((phi_deg as f32).to_radians());
        let run = run_pipeline(&scene, model.as_ref(), &traj, k, &cfg);
        let warped = run.warp_totals.warped as f64 / run.warp_totals.total.max(1) as f64;
        let speedup = base_time / run.mean_frame_time();
        table.push(row![phi_deg, psnr_vs_gt(&run.frames, &gt), speedup, warped]);
    }

    fig.notes
        .push(format!("  baseline (full render): {base_psnr:.2} dB"));
    let at = |phi_deg: f64, column| table.at("phi_deg", phi_deg, column);
    let drop = num(base_psnr - at(4.0, "psnr"), 2, " dB");
    let quality_rises = yes_no(at(smallest, "psnr") >= at(unlimited, "psnr"));
    let speedup_falls = yes_no(at(smallest, "speedup") <= at(unlimited, "speedup"));
    fig.claim("phi=4 deg quality drop", "<=0.1 dB*", drop)
        .pinned(9.17, GAP_A);
    fig.claim("phi=4 deg speedup", "4.3x", times(at(4.0, "speedup"), 1))
        .pinned(1.0, GAP_A);
    fig.claim("smaller phi -> higher quality", "yes", quality_rises);
    fig.claim("smaller phi -> lower speedup", "yes", speedup_falls);
    fig.footnotes.push(
        "  (*paper measures on the photographic Ignatius; ours is the analytic stand-in)".into(),
    );
    fig.with_table(table)
}
