//! Fig. 25 — Real-world temporal resolution: PSNR on the Ignatius-like scene
//! at 1 FPS (sparse capture) vs 30 FPS (real-time VR).
//!
//! The paper: at 1 FPS Cicero trails DS-2 (large pose deltas break the
//! radiance approximation); at 30 FPS Cicero-16 has little loss and matches
//! DS-2 while being ~4× faster.

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig25",
        "Ignatius: 1 FPS (sparse) vs 30 FPS (dense) capture",
    );
    let mut cols = vec![col("condition", "condition")];
    cols.extend(method_columns());
    let mut table = Table::new(cols);
    let (sparse, dense) = ("sparse (1 FPS-like)", "dense (30 FPS)");
    for (label, capture) in [(sparse, Capture::Sparse), (dense, Capture::Dense)] {
        let [base, c6, c16, ds2, temp] = lab.method_psnrs("ignatius", capture);
        table.push(row![label, base, c6, c16, ds2, temp]);
    }

    let at = |condition, method| table.at("condition", condition, method);
    let trails = yes_no(at(sparse, "cicero16") < at(sparse, "ds2"));
    let loss = num(at(dense, "baseline") - at(dense, "cicero16"), 2, " dB");
    let vs_ds2 = signed(at(dense, "cicero16") - at(dense, "ds2"), 2, " dB");
    fig.claim("1 FPS: Cicero-16 trails DS-2", "yes", trails);
    fig.claim("30 FPS: Cicero-16 loss vs baseline", "little", loss)
        .pinned(4.55, GAP_A);
    fig.claim("30 FPS: Cicero-16 ≈ DS-2", "similar", vs_ds2)
        .pinned(2.69, STAND_IN);
    fig.with_table(table)
}
