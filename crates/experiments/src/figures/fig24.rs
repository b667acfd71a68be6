//! Fig. 24 — Cicero vs prior NeRF accelerators (NeuRex, NGPC) on Instant-NGP.
//!
//! The paper: without SPARW, Cicero is ~2.0× NeuRex and ≈ NGPC (which needs a
//! 16 MB on-chip buffer); with SPARW, 16.4× and 8.2×.

use super::*;
use cicero_accel::rivals::{cicero_no_sparw_frame, neurex_frame, ngpc_frame};

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig24", "Cicero vs NeuRex and NGPC (Instant-NGP)");
    let soc = SocModel::new(SocConfig::default());

    let mw = lab.workloads("lego", ModelSpec::standard(ModelKind::Hash), 16);
    let pc = scale_to_paper(&mw.full_pc);
    let (fs, _) = mw.paper_pair(Variant::Cicero);
    let neurex = neurex_frame(&soc, &pc);
    let ngpc = ngpc_frame(&soc, &pc);
    let cicero_ns = cicero_no_sparw_frame(&soc, &fs);
    let cicero = price_window(&soc, &mw, Scenario::Local, Variant::Cicero, 16);

    let mut table = Table::new([
        col("", "design"),
        col("", "frame time (s)").fixed(3),
        col("", "PEs"),
        col("", "feature buffer"),
    ]);
    table.push(row!["NeuRex", neurex.time_s, "32x32", "64 KB"]);
    table.push(row!["NGPC", ngpc.time_s, "24x24", "16 MB"]);
    table.push(row![
        "Cicero w/o SpaRW",
        cicero_ns.time_s,
        "24x24",
        "32 KB"
    ]);
    table.push(row!["Cicero", cicero.time_s, "24x24", "32 KB"]);
    fig.tables.push(table);

    let vs_neurex = neurex.time_s / cicero_ns.time_s;
    let vs_ngpc = ngpc.time_s / cicero_ns.time_s;
    let sparw_vs_neurex = neurex.time_s / cicero.time_s;
    let sparw_vs_ngpc = ngpc.time_s / cicero.time_s;
    let buffers = ngpc.buffer_bytes as f64 / cicero_ns.buffer_bytes as f64;
    fig.claim("Cicero w/o SpaRW vs NeuRex", "2.0x", times(vs_neurex, 1))
        .pinned(3.8, GAP_C);
    fig.claim("Cicero w/o SpaRW vs NGPC", "~1x", times(vs_ngpc, 2));
    fig.claim("Cicero vs NeuRex", "16.4x", times(sparw_vs_neurex, 1));
    fig.claim("Cicero vs NGPC", "8.2x", times(sparw_vs_ngpc, 1))
        .pinned(4.9, GAP_D);
    fig.claim("NGPC buffer vs Cicero buffer", "512x", times(buffers, 0));
    fig.json = record(&[
        ("neurex_s", neurex.time_s.to_value()),
        ("ngpc_s", ngpc.time_s.to_value()),
        ("cicero_no_sparw_s", cicero_ns.time_s.to_value()),
        ("cicero_s", cicero.time_s.to_value()),
        ("speedup_vs_neurex", vs_neurex.to_value()),
        ("speedup_vs_ngpc", vs_ngpc.to_value()),
        ("sparw_speedup_vs_neurex", sparw_vs_neurex.to_value()),
        ("sparw_speedup_vs_ngpc", sparw_vs_ngpc.to_value()),
    ]);
    fig
}
