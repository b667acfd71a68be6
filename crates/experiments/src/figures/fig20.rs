//! Fig. 20 — Feature Gathering in isolation: GU vs GPU speedup and energy.
//!
//! The paper: the GU achieves 72.2× average gather speedup (182.4× on
//! Instant-NGP, whose hash tables conflict heavily) and contributes 99.9% of
//! the gather energy reduction.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig20", "Feature gathering: GU vs GPU");
    let soc = SocModel::new(SocConfig::default());

    let mut table = Table::new([
        col("model", "model"),
        col("gpu_gather_s", "GPU gather (s)").fixed(3),
        col("gu_gather_s", "GU gather (s)").fixed(4),
        col("speedup", "speedup ×").fixed(1),
        col("energy_reduction", "energy ÷").fixed(0),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 8);
        let pc = scale_to_paper(&mw.full_pc);
        let fs = scale_fs_to_paper(&mw.full_fs, &mw.full_fs_report);

        let gpu_t = soc.gpu.gather_time(&pc);
        let gu_t = soc.gu.gather_time(&fs);
        // GPU gather energy: busy power × time. GU: SRAM + reducers.
        let gpu_e = soc.gpu.energy(gpu_t);
        let gu_e = soc.gu.gather_energy(&fs);
        let name = kind.algorithm_name();
        table.push(row![name, gpu_t, gu_t, gpu_t / gu_t, gpu_e / gu_e]);
    }

    let mean = table.mean("speedup");
    let ingp = table.at("model", "Instant-NGP", "speedup");
    let least = table.column("energy_reduction").fold(f64::MAX, f64::min);
    fig.claim("mean gather speedup", "72.2x", times(mean, 1))
        .pinned(9.5, GAP_C);
    fig.claim("Instant-NGP gather speedup", "182.4x", times(ingp, 1))
        .pinned(6.5, GAP_C);
    fig.claim("GU dominates energy reduction", "99.9%", pct(1.0 - 1.0 / least, 1));
    fig.footnotes = vec![
        "  note: our conservative mobile-GPU transaction model narrows the gap;".into(),
        "  direction and per-model ordering (Instant-NGP worst on GPU) match the paper.".into(),
    ];
    fig.with_table(table)
}
