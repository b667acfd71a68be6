//! Fig. 21 — Where the DRAM energy saving comes from: traffic reduction vs
//! converting random accesses to streaming.
//!
//! The paper attributes 84.5% of the DRAM energy reduction to traffic
//! reduction (each voxel feature read once instead of redundantly re-fetched)
//! and 15.5% to the random→streaming conversion. Both sides are evaluated at
//! the 800²-equivalent scale: baseline miss traffic grows with rays, while
//! the fully-streaming MVoxel pass stays bounded by the touched model bytes.

use super::*;
use cicero_mem::{DramConfig, DramStats};

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig21",
        "DRAM energy saving decomposition (800x800-equivalent)",
    );
    let dram = DramConfig::default();
    let e_of = |d: &DramStats| {
        d.streaming_bytes as f64 * dram.stream_energy_pj_per_byte
            + d.random_bytes as f64 * dram.random_energy_pj_per_byte
    };

    let mut table = Table::new([
        col("model", "model"),
        col("baseline_mb", "baseline MB").fixed(1),
        col("fs_mb", "FS MB").fixed(1),
        col("traffic_reduction_share", "traffic-cut %").percent(1),
        col("conversion_share", "conversion %").percent(1),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 8);
        let base = scale_to_paper(&mw.full_pc).dram;
        let fs = mw.paper_pair(Variant::Cicero).0.dram;

        let saving = (e_of(&base) - e_of(&fs)).max(0.0);
        // Decomposition: bytes removed at the random rate, remaining bytes
        // converted from random to streaming.
        let bytes_base = base.total_bytes() as f64;
        let bytes_fs = fs.total_bytes() as f64;
        let traffic_cut = (bytes_base - bytes_fs).max(0.0) * dram.random_energy_pj_per_byte;
        let conversion = (saving - traffic_cut).max(0.0);
        let total = (traffic_cut + conversion).max(1e-9);
        let name = kind.algorithm_name();
        let (cut_share, conversion_share) = (traffic_cut / total, conversion / total);
        table.push(row![name, bytes_base / 1e6, bytes_fs / 1e6, cut_share, conversion_share]);
    }

    // Pinned on GAP_C: the baseline's traffic is too low. The shares read
    // 75.3 % / 24.7 % before the support mask, inside the paper's ± 10
    // points; the mask shed more of the baseline's traffic than of the
    // streamed MVoxels'.
    let mean_cut = table.mean("traffic_reduction_share");
    fig.claim("traffic-reduction share of DRAM saving", "84.5%", pct(mean_cut, 1))
        .pinned(72.0, GAP_C);
    fig.claim("conversion share", "15.5%", pct(1.0 - mean_cut, 1))
        .pinned(28.0, GAP_C);
    fig.with_table(table)
}
