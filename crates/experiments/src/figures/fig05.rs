//! Fig. 5 — Cache miss rate in feature gathering with a 2 MB buffer under
//! *oracle* (Belady) replacement.
//!
//! The paper reports miss rates up to 92% with an average of 38%: even a
//! clairvoyant on-chip buffer cannot absorb pixel-centric gathering.
//!
//! We measure at 128² instead of 800², so the per-frame working set is
//! (800/128)² ≈ 39× smaller; the comparable buffer is therefore 2 MB / 39 ≈
//! 64 KB ("scaled" columns). The raw 2 MB numbers are reported alongside.

use super::*;
use cicero::traffic::{PixelCentricConfig, PixelCentricTraffic};
use cicero_mem::belady_misses;

pub fn run(lab: &Lab) -> Figure {
    let mut fig = Figure::new("fig05", "Oracle (Belady) miss rate of the gather buffer");
    let cam = exp_camera(&lab.scene("lego"));
    let scaled_bytes: u64 = 64 << 10; // 2 MB × (EXP_RES/PAPER_RES)²

    let mut table = Table::new([
        col("model", "model"),
        col("lru_2mb", "LRU 2MB %").percent(1),
        col("belady_2mb", "Belady 2MB %").percent(1),
        col("lru_scaled", "LRU 64KB %").percent(1),
        col("belady_scaled", "Belady 64KB %").percent(1),
    ]);
    for kind in ModelKind::ALL {
        let model = lab.model("lego", ModelSpec::standard(kind));
        let measure = |cache_bytes: u64| {
            let cfg = PixelCentricConfig {
                cache_bytes,
                collect_belady_trace: true,
                ..Default::default()
            };
            let mut sink = PixelCentricTraffic::new(model.as_ref(), cfg);
            render_full(model.as_ref(), &cam, &exp_render_options(), &mut sink);
            let report = sink.finish();
            let trace = report.belady_trace.as_ref().expect("trace was asked for");
            let opt = belady_misses(trace, (cache_bytes / 64) as usize);
            (report.cache.miss_rate(), opt.miss_rate())
        };
        let (lru_2mb, opt_2mb) = measure(2 << 20);
        let (lru_scaled, opt_scaled) = measure(scaled_bytes);
        let name = kind.algorithm_name();
        table.push(row![name, lru_2mb, opt_2mb, lru_scaled, opt_scaled]);
    }
    let mean = table.mean("belady_scaled");
    let worst = table.column("belady_scaled").fold(0.0, f64::max);
    let label = "mean oracle miss rate (working-set-scaled)";
    fig.claim(label, "38% avg", pct(mean, 1)).pinned(8.9, GAP_C);
    fig.claim("worst model", "up to 92%", pct(worst, 1))
        .pinned(15.1, GAP_C);
    fig.with_table(table)
}
