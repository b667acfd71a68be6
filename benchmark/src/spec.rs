//! What the benchmark measures: the workloads, the end-to-end metrics with
//! their bounds and the per-layer metrics. `BENCHMARK.json` at the repo root
//! is exactly [`benchmark_json`]; a unit test keeps the two equal.

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
/// The full-size workloads are sized so that one pass over their inputs
/// takes 3–5 s on the 2-core development container: at least three passes
/// fit (see `workloads::timed_passes`).
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const FULL_FRAME: &str = "full_frame";
pub const WARP_STREAM: &str = "warp_stream";
pub const SIM_FIGURES: &str = "sim_figures";
pub const SERVE_LADDER: &str = "serve_ladder";

/// Names are final; later issues cite them. Sizes are the cut-down ones that
/// fit three passes into `RUN_SECONDS` (the issue's 30–35 s phases do not).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: FULL_FRAME,
        why: "field-bound: Baseline, lego, hash encoding, 40x40, 104 time-lapse handheld poses per pass, closed loop, 1 client; every frame is a full plan-gather-MLP render, sparw/mem/accel/serve idle",
    },
    Workload {
        name: WARP_STREAM,
        why: "warp-bound: Cicero window 16, lego, grid 48^3, 160x160, 3 sessions x 49 frames at 30 poses/s per pass, closed loop; 1 reference per 16 warped targets, sparw and masked sparse render dominate",
    },
    Workload {
        name: SIM_FIGURES,
        why: "simulator-bound: 4 variants x Local, lego, tensor encoding, 52x52, 2 x 33-frame segments each per pass, traffic sinks and ground truth on; mem/accel/core::traffic do the host work",
    },
    Workload {
        name: SERVE_LADDER,
        why: "scheduler-bound: run_replay of seeded 1 s profiles at r64..r768 sessions/s, 8 frames/session, 24x24, 1 simulated worker, overload control armed; open-loop arrivals; the only capacity test",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports (tracing off). Times are
/// reference-host times (see `host`). The bounds are what ten runs on ten
/// seeds spread by on the shared development container, times three where
/// 0.25 allows: tighter bounds would reject the benchmark's own noise.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "frame_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "frame_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "good_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "psnr_db",
        unit: "dB",
        better: Better::Higher,
        bound: 0.12,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics (tracing on). A workload reports 0 for a layer it
/// does not exercise. README.md says which end-to-end metric each group
/// should move, and on which workload.
pub const PER_LAYER: [Layer; 94] = [
    // Defined on one workload only, so the run contract (every end-to-end
    // metric on every workload) files them here; all but `psnr_drop_db`'s
    // inputs are simulated and exact in the seed.
    lo("psnr_drop_db", "dB"),
    hi("sim_fps", "1/s"),
    hi("sim_speedup", "x"),
    hi("sim_energy_saving", "x"),
    hi("capacity_sessions_per_s", "1/s"),
    hi("goodput_fps", "1/s"),
    lo("sim_p99_latency_ms", "ms"),
    // scene / math
    lo("scene.ground_truth.ms_per_frame", "ms/frame"),
    lo("math.metrics.psnr_ssim_ms", "ms"),
    // field kernels
    lo("field.plan.grid.ns_per_sample", "ns/sample"),
    lo("field.plan.hash.ns_per_sample", "ns/sample"),
    lo("field.plan.tensor.ns_per_sample", "ns/sample"),
    lo("field.gather.grid.ns_per_sample", "ns/sample"),
    lo("field.gather.hash.ns_per_sample", "ns/sample"),
    lo("field.gather.tensor.ns_per_sample", "ns/sample"),
    lo("field.decoder.decode_block.ns_per_sample", "ns/sample"),
    lo("field.mlp.forward_block.ns_per_sample", "ns/sample"),
    lo("field.occupancy.ns_per_query", "ns/query"),
    // field render
    lo("field.render.grid.ms_per_frame", "ms/frame"),
    hi("field.render.grid.msamples_per_s", "Msamples/s"),
    lo("field.render.grid.samples_processed_per_ray", "samples/ray"),
    hi("field.render.grid.useful_sample_ratio", "ratio"),
    hi("field.render.grid.kernel_share", "ratio"),
    lo("field.render.hash.ms_per_frame", "ms/frame"),
    hi("field.render.hash.msamples_per_s", "Msamples/s"),
    lo("field.render.hash.samples_processed_per_ray", "samples/ray"),
    hi("field.render.hash.useful_sample_ratio", "ratio"),
    hi("field.render.hash.kernel_share", "ratio"),
    lo("field.render.tensor.ms_per_frame", "ms/frame"),
    hi("field.render.tensor.msamples_per_s", "Msamples/s"),
    lo(
        "field.render.tensor.samples_processed_per_ray",
        "samples/ray",
    ),
    hi("field.render.tensor.useful_sample_ratio", "ratio"),
    hi("field.render.tensor.kernel_share", "ratio"),
    hi("field.render.block1.msamples_per_s", "Msamples/s"),
    hi("field.render.block4.msamples_per_s", "Msamples/s"),
    hi("field.render.block16.msamples_per_s", "Msamples/s"),
    hi("field.render.block64.msamples_per_s", "Msamples/s"),
    lo("field.render.masked.us_per_ray", "us/ray"),
    lo("field.render.sink.overhead_share", "ratio"),
    lo("field.bake.grid_s", "s"),
    lo("field.bake.hash_s", "s"),
    lo("field.bake.tensor_s", "s"),
    // field pool
    hi("field.tiles.lanes2.speedup", "x"),
    lo("field.pool.pass_us", "us"),
    // mem / core::traffic
    lo("mem.cache.miss_rate", "ratio"),
    lo("mem.dram.non_streaming_fraction_baseline", "ratio"),
    lo("mem.dram.non_streaming_fraction_fs", "ratio"),
    lo("mem.bank.conflict_rate_baseline", "ratio"),
    lo("core.traffic.pixel_centric.ms_per_frame", "ms/frame"),
    lo("core.traffic.streaming.ms_per_frame", "ms/frame"),
    // accel
    lo("accel.soc.us_per_report", "us"),
    lo("accel.soc.stage_share.indexing", "ratio"),
    lo("accel.soc.stage_share.gather", "ratio"),
    lo("accel.soc.stage_share.compute", "ratio"),
    lo("accel.soc.stage_share.warp", "ratio"),
    // core::sparw / pipeline
    lo("core.sparw.splat_ms", "ms"),
    lo("core.sparw.resolve_ms", "ms"),
    lo("core.sparw.normalize_ms", "ms"),
    lo("core.sparw.classify_ms", "ms"),
    lo("core.sparw.crack_fill_ms", "ms"),
    lo("core.sparw.warp_ms", "ms"),
    hi("core.sparw.overlap_fraction", "ratio"),
    lo("core.sparw.render_fraction", "ratio"),
    lo("core.pipeline.reference_ms", "ms"),
    lo("core.pipeline.target_ms", "ms"),
    lo("core.pipeline.target.unattributed_share", "ratio"),
    lo("core.pipeline.full.unattributed_share", "ratio"),
    // serve
    lo("serve.traffic.generate.us_per_session", "us/session"),
    lo("serve.traffic.parse.us_per_session", "us/session"),
    lo("serve.assets.build_s", "s"),
    lo("serve.replay.us_per_frame_8px", "us/frame"),
    lo("serve.replay.us_per_frame_32px", "us/frame"),
    hi("serve.ladder.ontime_share.r64", "ratio"),
    hi("serve.ladder.ontime_share.r128", "ratio"),
    hi("serve.ladder.ontime_share.r192", "ratio"),
    hi("serve.ladder.ontime_share.r256", "ratio"),
    hi("serve.ladder.ontime_share.r384", "ratio"),
    hi("serve.ladder.ontime_share.r512", "ratio"),
    hi("serve.ladder.ontime_share.r768", "ratio"),
    hi("serve.ladder.goodput_fps.r64", "1/s"),
    hi("serve.ladder.goodput_fps.r128", "1/s"),
    hi("serve.ladder.goodput_fps.r192", "1/s"),
    hi("serve.ladder.goodput_fps.r256", "1/s"),
    hi("serve.ladder.goodput_fps.r384", "1/s"),
    hi("serve.ladder.goodput_fps.r512", "1/s"),
    hi("serve.ladder.goodput_fps.r768", "1/s"),
    hi("serve.cache.hit_ratio", "ratio"),
    hi("serve.scheduler.pool_utilization", "ratio"),
    lo("serve.scheduler.reference_jobs_per_session", "jobs/session"),
    lo("serve.overload.shed_share", "ratio"),
    lo("serve.overload.queue_peak", "count"),
    lo("serve.replay.generator_lag_s", "s"),
    // telemetry / bench
    lo("telemetry.armed.overhead_share", "ratio"),
    lo("bench.trace.overhead_share", "ratio"),
];

/// The offered rates of the serve ladder, sessions per simulated second.
pub const LADDER_RATES: [u32; 7] = [64, 128, 192, 256, 384, 512, 768];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `true` for a legal metric or workload name: 1–64 of letters, digits,
    /// `_`, `.` and `-`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `true` for a legal unit: 1–16 of letters, digits, `_ / % . -`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn name_charset_is_enforced() {
        for ok in [
            "setup_s",
            "field.plan.hash.ns_per_sample",
            "r64",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "slash/y",
            "ünï",
            "×",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "1/s", "ns/sample", "%", "MB", "jobs/session"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "×", "per second", "a-unit-that-is-too-long"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_and_unit_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && END_TO_END.iter().all(|o| o.bound <= m.bound)));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_generated_from_this_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
