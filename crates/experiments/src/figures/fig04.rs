//! Fig. 4 — Percentage of non-continuous (non-streaming) DRAM accesses in
//! feature gathering under the pixel-centric order.
//!
//! The paper reports over 81% of gather DRAM accesses are non-streaming on
//! average across the four algorithms.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig04", "Non-streaming DRAM accesses in feature gathering");
    let mut table = Table::new([
        col("model", "model"),
        col("non_streaming_fraction", "non-streaming %").percent(1),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 8);
        let frac = mw.full_pc.dram.non_streaming_fraction();
        table.push(row![kind.algorithm_name(), frac]);
    }
    fig.claim(
        "mean non-streaming fraction",
        ">81%",
        pct(table.mean("non_streaming_fraction"), 1),
    );
    fig.with_table(table)
}
