//! Fig. 22 — Sensitivity to the warping window (Instant-NGP): speedup and
//! PSNR under local and remote rendering.
//!
//! The paper: quality decays gently with window size; local speedup plateaus
//! and dips past window ≈26 (disocclusions grow); remote speedup rises
//! ~linearly until the on-device work stops hiding behind the remote render
//! (window ≈16).

use cicero::pipeline::run_pipeline;
use cicero::{Scenario, Variant};
use cicero_accel::config::SocConfig;
use cicero_accel::soc::{FrameKind, SocModel};
use cicero_experiments::*;
use cicero_field::ModelKind;
use cicero_scene::Trajectory;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    window: usize,
    local_speedup: f64,
    remote_speedup: f64,
    psnr: f64,
}

fn main() {
    banner("fig22", "Warping-window sensitivity (Instant-NGP)");
    let scene = experiment_scene("lego");
    let model = standard_model(&scene, ModelKind::Hash);
    let soc = SocModel::new(SocConfig::default());
    let pixels = (PAPER_RES * PAPER_RES) as u64;

    let [base_local, base_remote] = {
        let mw = measure_workloads(&scene, model.as_ref(), 2);
        let full = scale_to_paper(&mw.full_pc);
        [Scenario::Local, Scenario::Remote].map(|scenario| {
            soc.price(scenario, Variant::Baseline, pixels, FrameKind::Full(&full))
                .time_s
        })
    };

    let k = quality_intrinsics();
    let mut table = Table::new(&["window", "local ×", "remote ×", "PSNR dB"]);
    let mut rows = Vec::new();
    for window in [1usize, 6, 11, 16, 21, 26, 31] {
        let mw = measure_workloads(&scene, model.as_ref(), window);
        let (full, sparse) = mw.paper_pair(Variant::Cicero);
        let frame = FrameKind::Window {
            reference: &full,
            target: &soc.target_frame(&sparse, Variant::Cicero),
            window,
        };
        let [local, remote] = [Scenario::Local, Scenario::Remote]
            .map(|scenario| soc.price(scenario, Variant::Cicero, pixels, frame).time_s);

        // Quality: a short trajectory spanning one full window.
        let frames = (window + 2).min(24);
        let traj = Trajectory::orbit(&scene, frames.max(4), 30.0);
        let mut cfg = quality_config(Variant::Cicero, window);
        cfg.collect_quality = true;
        let run = run_pipeline(&scene, model.as_ref(), &traj, k, &cfg);

        let row = Row {
            window,
            local_speedup: base_local / local,
            remote_speedup: base_remote / remote,
            psnr: run.mean_psnr(),
        };
        table.row(&[
            window.to_string(),
            fmt(row.local_speedup, 1),
            fmt(row.remote_speedup, 1),
            fmt(row.psnr, 2),
        ]);
        rows.push(row);
    }
    table.print();

    println!();
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let peak = rows.iter().map(|r| r.local_speedup).fold(0.0, f64::max);
    paper_vs(
        "quality decreases with window",
        "yes",
        if last.psnr < first.psnr { "yes" } else { "no" },
    );
    paper_vs(
        "local speedup plateaus (peak > w31?)",
        "yes",
        if peak >= last.local_speedup {
            "yes"
        } else {
            "no"
        },
    );
    paper_vs(
        "remote speedup grows to ~w16 then flattens",
        "yes",
        if rows[3].remote_speedup > rows[1].remote_speedup
            && last.remote_speedup < rows[3].remote_speedup * 1.6
        {
            "yes"
        } else {
            "no"
        },
    );
    write_results("fig22", &rows);
}
