//! Fig. 3 — Normalized execution breakdown (Indexing / Gathering / Feature
//! Computation) across NeRF algorithms on the mobile GPU.
//!
//! The paper finds all three stages non-trivial with Feature Gathering
//! dominating (>56% of execution on average).

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig03", "Execution breakdown across NeRF algorithms (GPU)");
    let gpu = GpuModel::new(GpuConfig::default());

    let mut table = Table::new([
        col("model", "model"),
        col("indexing", "I %").percent(1),
        col("gathering", "G %").percent(1),
        col("feature_computation", "F %").percent(1),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 8);
        let t = gpu.stage_times_software(&scale_to_paper(&mw.full_pc));
        let (i, g, f, _) = t.fractions();
        table.push(row![kind.algorithm_name(), i, g, f]);
    }
    fig.claim(
        "mean Feature Gathering share",
        ">56%",
        pct(table.mean("gathering"), 1),
    );
    fig.with_table(table)
}
