//! Fig. 16 — Rendering quality (PSNR): Baseline vs Cicero-6 / Cicero-16 /
//! DS-2 / Temp-16, on Synthetic-NeRF-like scenes (a) and real-world-like
//! scenes (b).
//!
//! The paper's headline: Cicero-6 stays within 1.0 dB of the baseline;
//! Cicero-16 drops ~1.3 dB but still beats DS-2 and Temp-16 on the synthetic
//! set.

use super::*;
use cicero_scene::library::{REAL_WORLD_SCENES, SYNTHETIC_SCENES};

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig16", "Rendering quality: PSNR across methods");
    let mut cols = vec![col("scene", ""), col("", "scene")];
    cols.extend(method_columns());
    let mut table = Table::new(cols);

    let synthetic = SYNTHETIC_SCENES.map(|name| (name, name.to_string()));
    // Real-world-like scenes (Fig. 16b).
    let real_world = REAL_WORLD_SCENES.map(|name| (name, format!("{name} (rw)")));
    for (name, shown) in synthetic.into_iter().chain(real_world) {
        let [base, c6, c16, ds2, temp] = lab.method_psnrs(name, Capture::Dense);
        table.push(row![name, shown, base, c6, c16, ds2, temp]);
    }

    let [base, c6, c16, ds2, temp] =
        ["baseline", "cicero6", "cicero16", "ds2", "temp16"].map(|method| table.mean(method));
    let (drop6, drop16) = (num(base - c6, 2, " dB"), num(base - c16, 2, " dB"));
    let beats_ds2 = flag(c16 > ds2, "better", "worse");
    let temp_worst = yes_no(temp <= c16 && temp <= ds2);
    fig.claim("Cicero-6 drop vs baseline", "<1.0 dB", drop6)
        .pinned(5.19, GAP_A);
    fig.claim("Cicero-16 drop vs baseline", "~1.3 dB", drop16)
        .pinned(5.54, GAP_A);
    fig.claim("Cicero-16 vs DS-2 (synthetic)", "better", beats_ds2)
        .pinned_failing(GAP_A);
    fig.claim("Temp-16 is worst", "yes", temp_worst);
    fig.with_table(table)
}
