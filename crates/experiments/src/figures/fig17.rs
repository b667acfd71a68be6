//! Fig. 17 — Pure-software Cicero on the mobile GPU: speedup and energy
//! saving vs DS-2, normalized to the GPU baseline.
//!
//! The paper: Cicero-16 achieves 8.0× speedup and 7.9× energy saving; DS-2
//! only 4.0×/4.0×; Cicero-6 still beats DS-2.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig17", "Software-only speedup & energy vs DS-2 (GPU)");
    let gpu = GpuModel::new(GpuConfig::default());

    let mut table = Table::new([
        col("model", "model"),
        col("cicero6_speedup", "Cicero-6 ×").fixed(1),
        col("cicero16_speedup", "Cicero-16 ×").fixed(1),
        col("ds2_speedup", "DS-2 ×").fixed(1),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 16);
        let full = scale_to_paper(&mw.full_pc);
        let sparse = scale_to_paper(&mw.sparse_pc);
        let t_base = gpu.stage_times_software(&full).total();

        // Software SPARW: everything on the GPU; reference amortized.
        let frame_time = |window: f64| t_base / window + gpu.stage_times_software(&sparse).total();
        let t_c6 = frame_time(6.0);
        let t_c16 = frame_time(16.0);
        // DS-2: quarter workload + upsample (folded into warp cost).
        let mut ds2 = full.scaled(0.25);
        ds2.warped_pixels = full.rays;
        let t_ds2 = gpu.stage_times_software(&ds2).total();

        let name = kind.algorithm_name();
        table.push(row![name, t_base / t_c6, t_base / t_c16, t_base / t_ds2]);
    }

    let [c6, c16, ds2] =
        ["cicero6_speedup", "cicero16_speedup", "ds2_speedup"].map(|method| table.mean(method));
    let label = "Cicero-16 speedup (≈ energy saving on GPU)";
    fig.claim(label, "8.0x", times(c16, 1)).pinned(6.6, GAP_D);
    fig.claim("DS-2 speedup", "4.0x", times(ds2, 1));
    fig.claim("Cicero-6 beats DS-2", "yes", yes_no(c6 > ds2))
        .pinned_failing(GAP_D);
    // GPU energy = power × time, so energy savings mirror speedups.
    fig.claim("Cicero-16 energy saving", "7.9x", times(c16, 1))
        .pinned(6.6, GAP_D);
    fig.with_table(table)
}
