//! Fig. 24 — Cicero vs prior NeRF accelerators (NeuRex, NGPC) on Instant-NGP.
//!
//! The paper: without SPARW, Cicero is ~2.0× NeuRex and ≈ NGPC (which needs a
//! 16 MB on-chip buffer); with SPARW, 16.4× and 8.2×.

use cicero::{Scenario, Variant};
use cicero_accel::config::SocConfig;
use cicero_accel::rivals::{cicero_no_sparw_frame, neurex_frame, ngpc_frame};
use cicero_accel::soc::{FrameKind, SocModel};
use cicero_experiments::*;
use cicero_field::ModelKind;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    neurex_s: f64,
    ngpc_s: f64,
    cicero_no_sparw_s: f64,
    cicero_s: f64,
    speedup_vs_neurex: f64,
    speedup_vs_ngpc: f64,
    sparw_speedup_vs_neurex: f64,
    sparw_speedup_vs_ngpc: f64,
}

fn main() {
    banner("fig24", "Cicero vs NeuRex and NGPC (Instant-NGP)");
    let scene = experiment_scene("lego");
    let model = standard_model(&scene, ModelKind::Hash);
    let soc = SocModel::new(SocConfig::default());
    let window = 16;

    let mw = measure_workloads(&scene, model.as_ref(), window);
    let pc = scale_to_paper(&mw.full_pc);
    let (fs, sparse_fs) = mw.paper_pair(Variant::Cicero);

    let neurex = neurex_frame(&soc, &pc);
    let ngpc = ngpc_frame(&soc, &pc);
    let cicero_ns = cicero_no_sparw_frame(&soc, &fs);
    let cicero = soc.price(
        Scenario::Local,
        Variant::Cicero,
        (PAPER_RES * PAPER_RES) as u64,
        FrameKind::Window {
            reference: &fs,
            target: &soc.target_frame(&sparse_fs, Variant::Cicero),
            window,
        },
    );

    let out = Out {
        neurex_s: neurex.time_s,
        ngpc_s: ngpc.time_s,
        cicero_no_sparw_s: cicero_ns.time_s,
        cicero_s: cicero.time_s,
        speedup_vs_neurex: neurex.time_s / cicero_ns.time_s,
        speedup_vs_ngpc: ngpc.time_s / cicero_ns.time_s,
        sparw_speedup_vs_neurex: neurex.time_s / cicero.time_s,
        sparw_speedup_vs_ngpc: ngpc.time_s / cicero.time_s,
    };

    let mut table = Table::new(&["design", "frame time (s)", "PEs", "feature buffer"]);
    table.row(&[
        "NeuRex".into(),
        fmt(out.neurex_s, 3),
        "32x32".into(),
        "64 KB".into(),
    ]);
    table.row(&[
        "NGPC".into(),
        fmt(out.ngpc_s, 3),
        "24x24".into(),
        "16 MB".into(),
    ]);
    table.row(&[
        "Cicero w/o SpaRW".into(),
        fmt(out.cicero_no_sparw_s, 3),
        "24x24".into(),
        "32 KB".into(),
    ]);
    table.row(&[
        "Cicero".into(),
        fmt(out.cicero_s, 3),
        "24x24".into(),
        "32 KB".into(),
    ]);
    table.print();

    println!();
    paper_vs(
        "Cicero w/o SpaRW vs NeuRex",
        "2.0x",
        &format!("{:.1}x", out.speedup_vs_neurex),
    );
    paper_vs(
        "Cicero w/o SpaRW vs NGPC",
        "~1x",
        &format!("{:.2}x", out.speedup_vs_ngpc),
    );
    paper_vs(
        "Cicero vs NeuRex",
        "16.4x",
        &format!("{:.1}x", out.sparw_speedup_vs_neurex),
    );
    paper_vs(
        "Cicero vs NGPC",
        "8.2x",
        &format!("{:.1}x", out.sparw_speedup_vs_ngpc),
    );
    paper_vs("NGPC buffer vs Cicero buffer", "512x", "512x");
    write_results("fig24", &out);
}
