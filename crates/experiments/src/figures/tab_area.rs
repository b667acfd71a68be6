//! §V area overhead — the GU's SRAM and logic cost relative to the NPU.
//!
//! The paper: 44 KB of SRAM (2×6 KB RIT + 32 KB VFT), 0.048 mm² in 12 nm,
//! < 2.5% of the baseline NPU; removing the VFT crossbar saves 0.036 mm².

use super::*;
use cicero_accel::area::AreaModel;
use cicero_accel::{GuConfig, NpuConfig};

pub fn run(_: &Lab) -> Figure {
    let mut fig = Figure::new("tab_area", "GU area overhead (paper §V)");
    let report = AreaModel::default().report(&NpuConfig::default(), &GuConfig::default());
    let overhead_pct = report.overhead_fraction * 100.0;
    let sram = format!("{:.0} KB", report.gu_sram_kb);
    let mm2 = |area: f64| format!("{area:.3} mm2");

    let mut table = Table::new([col("", "quantity"), col("", "value")]);
    table.push(row!["GU SRAM (RIT x2 + VFT)", sram]);
    table.push(row!["GU area", mm2(report.gu_mm2)]);
    table.push(row!["baseline NPU area", mm2(report.npu_mm2)]);
    table.push(row!["overhead", format!("{overhead_pct:.2} %")]);
    table.push(row!["crossbar avoided", mm2(report.crossbar_saved_mm2)]);
    fig.tables.push(table);

    let saved = num(report.crossbar_saved_mm2, 3, " mm2");
    fig.claim("GU SRAM", "44 KB", num(report.gu_sram_kb, 0, " KB"));
    fig.claim("GU area", "0.048 mm2", num(report.gu_mm2, 3, " mm2"));
    fig.claim("overhead vs NPU", "<2.5%", num(overhead_pct, 2, "%"));
    fig.claim("crossbar saving", "0.036 mm2", saved);
    fig.json = record(&[
        ("gu_sram_kb", report.gu_sram_kb.to_value()),
        ("gu_mm2", report.gu_mm2.to_value()),
        ("npu_mm2", report.npu_mm2.to_value()),
        ("overhead_pct", overhead_pct.to_value()),
        ("crossbar_saved_mm2", report.crossbar_saved_mm2.to_value()),
    ]);
    fig
}
