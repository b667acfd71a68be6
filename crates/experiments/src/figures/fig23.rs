//! Fig. 23 — GU energy sensitivity to the VFT buffer size (8 KB – 256 KB).
//!
//! The paper: energy stays roughly flat from 8 KB to 64 KB, then rises —
//! bigger SRAM arrays cost more per access, while larger MVoxels stream more
//! unused vertices.

use super::*;
use cicero::traffic::{StreamingConfig, StreamingTraffic};
use cicero_accel::{EnergyConfig, FrameWorkload, GuConfig, GuModel};

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig23", "GU energy vs VFT buffer size");
    let model = lab.model("lego", ModelSpec::standard(ModelKind::Grid));
    let cam = exp_camera(&lab.scene("lego"));

    let energy_at = |vft_kb: u64| {
        let cfg = StreamingConfig {
            vft_bytes: vft_kb << 10,
            ..Default::default()
        };
        let mut sink = StreamingTraffic::new(model.as_ref(), cfg);
        let (_, stats) = render_full(model.as_ref(), &cam, &exp_render_options(), &mut sink);
        let report = sink.finish();
        let gu = GuModel::new(
            GuConfig {
                vft_bytes: vft_kb << 10,
                ..Default::default()
            },
            EnergyConfig::default(),
        );
        let w = FrameWorkload {
            samples_processed: stats.samples_processed,
            gather_entry_reads: stats.gather_entry_reads,
            // Charge the streamed MVoxel bytes into the VFT (everything the
            // GU writes + reads on-chip grows with the buffer's granularity).
            gather_bytes: report.mvoxel_bytes + report.halo_bytes,
            ..Default::default()
        };
        gu.gather_energy(&w) * GuModel::vft_energy_scale(vft_kb << 10)
    };
    let raw = [8u64, 16, 32, 64, 128, 256].map(|vft_kb| (vft_kb, energy_at(vft_kb)));
    let (_, base) = raw[raw.iter().position(|(kb, _)| *kb == 32).expect("32 KB is swept")];
    let mut table = Table::new([
        col("vft_kb", "VFT (KB)"),
        col("norm_energy", "normalized energy").fixed(3),
    ]);
    for (vft_kb, energy) in raw {
        table.push(row![vft_kb, energy / base]);
    }

    let energy = |vft_kb: u64| table.at("vft_kb", vft_kb, "norm_energy");
    let flat = num(energy(64) / energy(8), 2, "");
    let rise = times(energy(256) / energy(64), 2);
    fig.claim("flat region 8–64 KB (ratio)", "~1.0", flat);
    fig.claim("rise at 256 KB vs 64 KB", ">1.3x", rise);
    fig.with_table(table)
}
