//! Fig. 2 — Frame rate vs model size on the mobile GPU.
//!
//! The paper plots several NeRF models on a (model size, FPS) plane against
//! the 60 FPS bar: none are close, and model sizes (10 MB–1 GB) dwarf on-chip
//! SRAM. We sweep our three families over two scales each and report the
//! simulated 800²-equivalent FPS of the pure-GPU (software) pipeline.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig02",
        "Frame rate vs model size (mobile GPU, 800x800-equivalent)",
    );
    let gpu = GpuModel::new(GpuConfig::default());
    let grids = [96, 128].map(|resolution| {
        let spec = ModelSpec::Grid { resolution };
        (format!("DirectVoxGO-{resolution}"), spec)
    });
    let hashes = [15, 17].map(|table_size_log2| {
        let spec = ModelSpec::Hash { table_size_log2 };
        (format!("Instant-NGP-2^{table_size_log2}"), spec)
    });
    let tensors = [64, 96].map(|resolution| {
        let spec = ModelSpec::Tensor { resolution };
        (format!("TensoRF-{resolution}"), spec)
    });

    let mut table = Table::new([
        col("model", "model"),
        col("size_mb", "size (MB)").fixed(1),
        col("fps", "FPS (sim)").fixed(2),
        col("", "60 FPS?"),
    ]);
    for (name, spec) in grids.into_iter().chain(hashes).chain(tensors) {
        let full = scale_to_paper(&lab.workloads("lego", spec, 8).full_pc);
        let fps = 1.0 / gpu.stage_times_software(&full).total();
        let size_mb = lab.model("lego", spec).memory_footprint_bytes() as f64 / (1024.0 * 1024.0);
        let reaches_60 = if fps >= 60.0 { "yes" } else { "no" };
        table.push(row![name, size_mb, fps, reaches_60]);
    }

    let fps_of = |model| table.at("model", model, "fps");
    let grid_fps = num(fps_of("DirectVoxGO-128"), 2, "");
    let hash_time = num(1.0 / fps_of("Instant-NGP-2^17"), 1, "");
    let none_reach_60 = table.column("fps").all(|fps| fps < 60.0);
    fig.claim("DirectVoxGO FPS (Xavier, 800x800)", "~0.8", grid_fps)
        .pinned(6.01, GAP_C);
    fig.claim("Instant-NGP frame time", ">6 s", hash_time)
        .pinned(0.98, GAP_C);
    fig.claim(
        "any model at 60 FPS",
        "none",
        flag(none_reach_60, "none", "some"),
    );
    fig.with_table(table)
}
