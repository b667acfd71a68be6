//! Fig. 22 — Sensitivity to the warping window (Instant-NGP): speedup and
//! PSNR under local and remote rendering.
//!
//! The paper: quality decays gently with window size; local speedup plateaus
//! and dips past window ≈26 (disocclusions grow); remote speedup rises
//! ~linearly until the on-device work stops hiding behind the remote render
//! (window ≈16).

use super::*;
use cicero::pipeline::run_pipeline;
use cicero_scene::Trajectory;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig22", "Warping-window sensitivity (Instant-NGP)");
    let scene = lab.scene("lego");
    let spec = ModelSpec::standard(ModelKind::Hash);
    let model = lab.model("lego", spec);
    let soc = SocModel::new(SocConfig::default());
    let scenarios = [Scenario::Local, Scenario::Remote];
    let baseline = lab.workloads("lego", spec, 2);
    let [base_local, base_remote] = scenarios.map(|s| price_baseline(&soc, &baseline, s).time_s);

    let mut table = Table::new([
        col("window", "window"),
        col("local_speedup", "local ×").fixed(1),
        col("remote_speedup", "remote ×").fixed(1),
        col("psnr", "PSNR dB").fixed(2),
    ]);
    let windows = [1usize, 6, 11, 16, 21, 26, 31];
    for window in windows {
        let mw = lab.workloads("lego", spec, window);
        let [local, remote] =
            scenarios.map(|s| price_window(&soc, &mw, s, Variant::Cicero, window).time_s);

        // Quality: a short trajectory spanning one full window.
        let frames = (window + 2).min(24);
        let traj = Trajectory::orbit(&scene, frames.max(4), 30.0);
        let mut cfg = quality_config(Variant::Cicero, window);
        cfg.collect_quality = true;
        let run = run_pipeline(&scene, model.as_ref(), &traj, quality_intrinsics(), &cfg);

        let psnr = run.mean_psnr();
        table.push(row![window, base_local / local, base_remote / remote, psnr]);
    }

    let at = |window: usize, column| table.at("window", window, column);
    let (first, last) = (windows[0], windows[windows.len() - 1]);
    let peak = table.column("local_speedup").fold(0.0, f64::max);
    let remote = |window| at(window, "remote_speedup");
    let remote_grows = remote(16) > remote(6) && remote(last) < remote(16) * 1.6;
    fig.claim(
        "quality decreases with window",
        "yes",
        yes_no(at(last, "psnr") < at(first, "psnr")),
    );
    fig.claim(
        "local speedup plateaus (peak > w31?)",
        "yes",
        yes_no(peak >= at(last, "local_speedup")),
    );
    fig.claim(
        "remote speedup grows to ~w16 then flattens",
        "yes",
        yes_no(remote_grows),
    )
    .pinned_failing(GAP_B);
    fig.with_table(table)
}
