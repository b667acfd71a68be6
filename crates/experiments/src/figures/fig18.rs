//! Fig. 18 — GPU execution-time distribution of software Cicero vs DS-2.
//!
//! The paper: with window 6, 86.1% of Cicero's GPU time is (amortized)
//! reference full-frame NeRF; at window 16 that falls to 49.7% while sparse
//! NeRF rises to 48.9%. The non-NeRF "Others" (warping) stays negligible.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig18",
        "GPU time distribution: full-frame vs sparse NeRF vs others",
    );
    let gpu = GpuModel::new(GpuConfig::default());
    let mw = lab.workloads("lego", ModelSpec::standard(ModelKind::Grid), 16);
    let full = scale_to_paper(&mw.full_pc);
    let sparse = scale_to_paper(&mw.sparse_pc);

    let t_full = gpu.stage_times_software(&full).total();
    let sparse_stages = gpu.stage_times_software(&sparse);
    let t_warp = sparse_stages.warp_s;
    let t_sparse = sparse_stages.total() - t_warp;

    let mut table = Table::new([
        col("config", "config"),
        col("full_frame_nerf", "full-frame NeRF %").percent(1),
        col("sparse_nerf", "sparse NeRF %").percent(1),
        col("others", "others %").percent(1),
    ]);
    for window in [6.0, 16.0] {
        let amortized = t_full / window;
        let total = amortized + t_sparse + t_warp;
        let config = format!("Cicero-{window}");
        table.push(row![config, amortized / total, t_sparse / total, t_warp / total]);
    }

    let share = |config, part| table.at("config", config, part);
    let full6 = pct(share("Cicero-6", "full_frame_nerf"), 1);
    let full16 = pct(share("Cicero-16", "full_frame_nerf"), 1);
    let sparse16 = pct(share("Cicero-16", "sparse_nerf"), 1);
    let negligible = yes_no(share("Cicero-16", "others") < 0.1);
    fig.claim("Cicero-6 full-frame NeRF share", "86.1%", full6)
        .pinned(65.5, GAP_D);
    fig.claim("Cicero-16 full-frame NeRF share", "49.7%", full16)
        .pinned(41.6, GAP_D);
    fig.claim("Cicero-16 sparse NeRF share", "48.9%", sparse16);
    fig.claim("others (warp) negligible", "yes", negligible);
    fig.with_table(table)
}
