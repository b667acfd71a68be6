//! `sim_figures`: the paper-reproduction use.
//!
//! The four `Variant`s × `Scenario::Local` over the tensor-encoded lego
//! model with `collect_traffic` and `collect_quality` on: the `mem`, `accel`
//! and `core::traffic` simulators and `scene` ground truth do the host work,
//! and `field` runs with a recording `GatherSink` attached instead of
//! `NullSink`. A render speed-up that taxes sinks, or a simulator change
//! that alters a simulated statistic, shows here and nowhere else.
//!
//! Each variant steps two 33-frame segments (bootstrap plus two windows, so
//! the second window warps from an extrapolated reference) taken half a
//! dolly period apart on one handheld path: the dolly moves frame cost by
//! ±15 %, and opposite phases cancel it, which keeps host time comparable
//! across seeds. Baseline frames are independent of each other, so Baseline
//! steps every third pose of the same segments. The frame is 52×52 so that
//! one pass takes under a third of the run (see `timed_passes`).

use super::{
    best_steps, check_block_identity, fps_of, intrinsics, march, one_lane, pipeline_config,
    render_options, repeat_setup, timed_passes, Ctx, Drive, Emitter, EndToEnd, Quality, Timed,
    SAMPLE_BLOCK, SEGMENT_ROUNDS,
};
use crate::host::HostClock;
use crate::probes::{self, Probe};
use crate::stats::{median, mix};
use crate::trace::Tracer;
use cicero::pipeline::PipelineSession;
use cicero::traffic::{
    build_workload, PixelCentricConfig, PixelCentricTraffic, StreamingConfig, StreamingTraffic,
};
use cicero::Variant;
use cicero_accel::soc::SocModel;
use cicero_accel::{SocConfig, StageTimes};
use cicero_field::{bake, render_full_tiled, GatherPlan, NerfModel, NullSink, TensorConfig};
use cicero_math::metrics;
use cicero_scene::ground_truth::render_frame;
use cicero_scene::{library, Trajectory};
use std::hint::black_box;

const SCENE: &str = "lego";
const PATH_FPS: f32 = 30.0;
/// Frames in one period of the handheld path's dolly (0.5 rad/s).
const DOLLY_PERIOD: usize = 377;
/// Per-frame PSNR floor, dB, over all four variants. Warped frames from an
/// extrapolated reference score in the mid 20s at this size.
const PSNR_FLOOR_DB: f64 = 18.0;
const TAG_PATH: u64 = 1;
const TAG_PROBE: u64 = 2;

struct Size {
    res: usize,
    segment_frames: usize,
    segments: usize,
    baseline_every: usize,
    warmup: usize,
    tensor: TensorConfig,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            res: 32,
            segment_frames: 17,
            segments: 2,
            baseline_every: 4,
            warmup: 1,
            tensor: TensorConfig {
                resolution: 32,
                components_per_signal: 2,
                bytes_per_value: 2,
            },
        }
    } else {
        Size {
            res: 52,
            segment_frames: 33,
            segments: 2,
            baseline_every: 3,
            warmup: 2,
            tensor: TensorConfig {
                resolution: 128,
                components_per_signal: 4,
                bytes_per_value: 2,
            },
        }
    }
}

/// What one variant's sessions reported, summed over its frames.
#[derive(Default)]
struct VariantRun {
    frames: usize,
    sim_time_s: f64,
    energy_j: f64,
    stages: StageTimes,
    quality: Quality,
}

impl VariantRun {
    fn sim_fps(&self) -> f64 {
        self.frames as f64 / self.sim_time_s
    }

    fn mean_energy_j(&self) -> f64 {
        self.energy_j / self.frames as f64
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Emitter) {
    let sz = size(ctx.smoke);
    let mut host = HostClock::default();
    out.header(
        "size",
        format_args!(
            "{SCENE} tensor {}x{} {} segments x {} frames at {PATH_FPS} poses/s per SPARW variant, Baseline every {}rd pose, traffic and quality on, hidden 64",
            sz.res, sz.res, sz.segments, sz.segment_frames, sz.baseline_every
        ),
    );
    let intr = intrinsics(sz.res);
    let path_seed = mix(ctx.seed, TAG_PATH);
    let config = |v: Variant| pipeline_config(v, true, true);

    let mut bake_s = Vec::new();
    let ((scene, model), setup_s) = repeat_setup(ctx.setup_reps(), &mut host, |host| {
        let scene = library::scene_by_name(SCENE).expect("library scene");
        let (model, secs) = host.time(|| bake::bake_tensor(&scene, &sz.tensor));
        bake_s.push(secs);
        let warm = Trajectory::handheld(&scene, sz.warmup, PATH_FPS, path_seed);
        let cfg = config(Variant::Baseline);
        let mut session = PipelineSession::new(&scene, &model, &warm, intr, &cfg);
        while session.step().is_some() {}
        (scene, model)
    });

    // The segments, evenly spaced over one dolly period.
    let path = Trajectory::handheld(
        &scene,
        DOLLY_PERIOD + sz.segment_frames,
        PATH_FPS,
        path_seed,
    );
    let segment = |k: usize, every: usize| {
        let at = k * DOLLY_PERIOD / sz.segments;
        let poses = path.poses()[at..at + sz.segment_frames]
            .iter()
            .step_by(every)
            .copied()
            .collect();
        Trajectory::from_poses(poses, PATH_FPS / every as f32)
    };
    let sessions: Vec<(Variant, Trajectory)> = Variant::ALL
        .into_iter()
        .flat_map(|v| {
            let every = if v == Variant::Baseline {
                sz.baseline_every
            } else {
                1
            };
            (0..sz.segments).map(move |k| (v, k, every))
        })
        .map(|(v, k, every)| (v, segment(k, every)))
        .collect();
    let frames: usize = sessions.iter().map(|(_, t)| t.len()).sum();

    check_block_identity(out, &model, &path.camera(0, intr));

    out.plan(frames);
    let mut runs: [VariantRun; 4] = Default::default();
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let timed = Timed(timed_passes(seconds, |pass| {
        let mut drive = Drive::default();
        for (variant, traj) in &sessions {
            let cfg = config(*variant);
            let mut session = PipelineSession::new(&scene, &model, traj, intr, &cfg);
            let index = Variant::ALL.iter().position(|v| v == variant);
            let run = &mut runs[index.expect("one of the four variants")];
            drive.run(
                tr,
                &mut host,
                "core.pipeline.step",
                &mut session,
                sz.res,
                |step, _| {
                    if pass > 0 {
                        return;
                    }
                    let o = &step.outcome;
                    run.frames += 1;
                    run.sim_time_s += o.report.time_s;
                    run.energy_j += o.report.energy.total();
                    run.stages.accumulate(&o.report.stages);
                    run.quality
                        .push(o.psnr_db.unwrap_or(f64::NAN), PSNR_FLOOR_DB);
                },
            );
        }
        drive
    }));
    timed.check_repeats(out);

    let mut all = Quality::default();
    for r in &runs {
        all.psnr_db.extend(&r.quality.psnr_db);
        all.below_floor += r.quality.below_floor;
    }
    all.check(out, PSNR_FLOOR_DB);
    let [baseline, _, _, cicero] = &runs;
    out.check(
        "simulated_times_are_positive",
        runs.iter().all(|r| r.sim_time_s > 0.0 && r.energy_j > 0.0),
        "every variant reports time and energy",
    );

    let failed = timed.unsound() + all.below_floor;
    out.ops(timed.attempted(), failed);

    // Simulated figures: exact in the seed, printed in both modes.
    let psnr_db = cicero.quality.mean_db();
    out.metric(
        "psnr_drop_db",
        baseline.quality.mean_db() - psnr_db,
        cicero.frames,
    );
    out.metric("sim_fps", cicero.sim_fps(), cicero.frames);
    out.header(
        "sim_speedup basis",
        format_args!(
            "Cicero {:.3} vs Baseline {:.3} simulated frames/s; Sparw {:.3}, SparwFs {:.3}",
            cicero.sim_fps(),
            baseline.sim_fps(),
            runs[1].sim_fps(),
            runs[2].sim_fps()
        ),
    );
    out.metric(
        "sim_speedup",
        cicero.sim_fps() / baseline.sim_fps(),
        cicero.frames,
    );
    out.header(
        "sim_energy_saving basis",
        format_args!(
            "Baseline {:.6} J vs Cicero {:.6} J per frame",
            baseline.mean_energy_j(),
            cicero.mean_energy_j()
        ),
    );
    out.metric(
        "sim_energy_saving",
        baseline.mean_energy_j() / cicero.mean_energy_j(),
        cicero.frames,
    );

    if ctx.trace {
        let bake = bake_s.last().copied().unwrap_or(0.0);
        out.metric("field.bake.tensor_s", bake, bake_s.len());
        let (indexing, gather, compute, warp) = cicero.stages.fractions();
        out.metric("accel.soc.stage_share.indexing", indexing, cicero.frames);
        out.metric("accel.soc.stage_share.gather", gather, cicero.frames);
        out.metric("accel.soc.stage_share.compute", compute, cicero.frames);
        out.metric("accel.soc.stage_share.warp", warp, cicero.frames);

        trace_overhead(tr, &mut host, out, &sz, &scene, &model, &sessions);
        simulators(tr, &mut host, out, &sz, &scene, &model, &path);
        let poses = path
            .poses()
            .iter()
            .step_by(DOLLY_PERIOD / 4)
            .copied()
            .take(4);
        let cams = probes::probe_cameras(poses, ctx.smoke);
        let mut probe = Probe {
            out,
            tr,
            host: &mut host,
        };
        let costs = probe.kernels(&model, "tensor", &cams, mix(ctx.seed, TAG_PROBE), ctx.smoke);
        probe.render(&model, "tensor", &cams, &costs);
    } else {
        EndToEnd::of_frames(out, setup_s, &timed, failed, (psnr_db, cicero.frames)).emit(out);
    }
    out.digest(timed.digest());
}

/// The Cicero variant over the first bootstrap-plus-window of segment 0,
/// untraced then traced.
fn trace_overhead(
    tr: &mut Tracer,
    host: &mut HostClock,
    out: &mut Emitter,
    sz: &Size,
    scene: &cicero_scene::AnalyticScene,
    model: &cicero_field::TensorModel,
    sessions: &[(Variant, Trajectory)],
) {
    let (_, traj) = sessions
        .iter()
        .find(|(v, _)| *v == Variant::Cicero)
        .expect("a Cicero session");
    let short = Trajectory::from_poses(traj.poses()[..17].to_vec(), PATH_FPS);
    let cfg = pipeline_config(Variant::Cicero, true, true);
    let drive_short = |tr: &mut Tracer, host: &mut HostClock, name: &'static str| {
        let mut drive = Drive::default();
        let mut session = PipelineSession::new(scene, model, &short, intrinsics(sz.res), &cfg);
        drive.run(tr, host, name, &mut session, sz.res, |_, _| {});
        drive
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENT_ROUNDS {
        tr.set_recording(false);
        untraced.push(drive_short(tr, host, "segment.untraced.step"));
        tr.set_recording(true);
        traced.push(drive_short(tr, host, "segment.traced.step"));
    }
    let fps = |drives: &[Drive]| fps_of(&best_steps(drives));
    out.header(
        "bench.trace.overhead_share basis",
        format_args!(
            "{:.4} traced vs {:.4} untraced frames/s, best of {SEGMENT_ROUNDS} rounds over {} frames",
            fps(&traced),
            fps(&untraced),
            short.len()
        ),
    );
    out.metric(
        "bench.trace.overhead_share",
        1.0 - fps(&traced) / fps(&untraced),
        short.len(),
    );
}

/// Host cost and modelled statistics of the layers under the pipeline:
/// ground truth and image metrics, the two traffic sinks, the SoC model.
fn simulators(
    tr: &mut Tracer,
    host: &mut HostClock,
    out: &mut Emitter,
    sz: &Size,
    scene: &cicero_scene::AnalyticScene,
    model: &cicero_field::TensorModel,
    path: &Trajectory,
) {
    let soc_cfg = SocConfig::default();
    let soc = SocModel::new(soc_cfg);
    let opts = render_options(SAMPLE_BLOCK);
    let cams: Vec<_> = (0..3)
        .map(|k| path.camera(k * DOLLY_PERIOD / 3, intrinsics(sz.res)))
        .collect();
    let n = cams.len();
    let open = tr.begin("probe.simulators", 0);

    let (mut truth_ms, mut metric_ms) = (Vec::new(), Vec::new());
    let mut truths = Vec::new();
    for (i, cam) in cams.iter().enumerate() {
        let ((truth, _), secs) = host.time(|| {
            tr.time("scene.ground_truth.render_frame", i as u64, || {
                render_frame(scene, cam, &march())
            })
        });
        truth_ms.push(secs * 1e3);
        truths.push(truth);
    }
    for i in 0..n {
        let (a, b) = (&truths[i].color, &truths[(i + 1) % n].color);
        let (_, secs) = host.time(|| {
            tr.time("math.metrics.psnr_ssim", i as u64, || {
                black_box((metrics::psnr(a, b), metrics::ssim(a, b)))
            })
        });
        metric_ms.push(secs * 1e3);
    }
    out.metric("scene.ground_truth.ms_per_frame", median(&truth_ms), n);
    out.metric("math.metrics.psnr_ssim_ms", median(&metric_ms), n);

    // The same frames through no sink, a counting sink and the two traffic
    // analysers; a sink's host cost is its render minus the NullSink render.
    let pixel_cfg = PixelCentricConfig {
        cache_bytes: soc_cfg.gpu.cache_bytes,
        dram: soc_cfg.dram,
        ..Default::default()
    };
    let streaming_cfg = StreamingConfig {
        vft_bytes: soc_cfg.gu.vft_bytes,
        hashed_cache_bytes: soc_cfg.gpu.cache_bytes,
        dram: soc_cfg.dram,
        ..Default::default()
    };
    let (mut counting, mut pixel_ms, mut streaming_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut sink_complete = true;
    for (i, cam) in cams.iter().enumerate() {
        let id = i as u64;
        // Best of interleaved rounds: (no sink, counting, pixel-centric,
        // streaming) seconds.
        let mut best = [f64::INFINITY; 4];
        let before = host.slowdown();
        for _ in 0..SEGMENT_ROUNDS {
            let ((_, stats), null_s) = tr.time("field.render_full_tiled.null_sink", id, || {
                render_full_tiled(model, cam, &opts, &mut NullSink, &one_lane())
            });
            let mut seen = 0u64;
            let (_, count_s) = tr.time("field.render_full_tiled.counting_sink", id, || {
                let mut sink = |_: u32, _: f32, _: &GatherPlan| seen += 1;
                render_full_tiled(model, cam, &opts, &mut sink, &one_lane())
            });
            let (pixel, pixel_s) = tr.time("core.traffic.pixel_centric", id, || {
                let mut sink = PixelCentricTraffic::new(model, pixel_cfg);
                render_full_tiled(model, cam, &opts, &mut sink, &one_lane());
                sink.finish()
            });
            let (streaming, streaming_s) = tr.time("core.traffic.streaming", id, || {
                let mut sink = StreamingTraffic::new(model, streaming_cfg);
                render_full_tiled(model, cam, &opts, &mut sink, &one_lane());
                sink.finish()
            });
            for (b, s) in best.iter_mut().zip([null_s, count_s, pixel_s, streaming_s]) {
                *b = b.min(s);
            }
            sink_complete &= seen == stats.samples_processed;
            last = Some((stats, pixel, streaming));
        }
        let slowdown = (before + host.slowdown()) / 2.0;
        let [null_s, count_s, pixel_s, streaming_s] = best.map(|s| s / slowdown);
        counting.push((count_s - null_s) / null_s);
        pixel_ms.push((pixel_s - null_s) * 1e3);
        streaming_ms.push((streaming_s - null_s) * 1e3);
    }
    out.check(
        "sink_sees_every_processed_sample",
        sink_complete,
        "a counting sink saw `samples_processed` samples on every probe frame",
    );
    out.metric("field.render.sink.overhead_share", median(&counting), n);
    out.metric(
        "core.traffic.pixel_centric.ms_per_frame",
        median(&pixel_ms),
        n,
    );
    out.metric(
        "core.traffic.streaming.ms_per_frame",
        median(&streaming_ms),
        n,
    );

    // Modelled statistics of the last probe frame: exact in the seed.
    let (stats, pixel, streaming) = last.expect("at least one probe camera");
    out.metric("mem.cache.miss_rate", pixel.cache.miss_rate(), 1);
    out.metric(
        "mem.dram.non_streaming_fraction_baseline",
        pixel.dram.non_streaming_fraction(),
        1,
    );
    out.metric(
        "mem.dram.non_streaming_fraction_fs",
        streaming.dram.non_streaming_fraction(),
        1,
    );
    out.metric(
        "mem.bank.conflict_rate_baseline",
        pixel.bank.conflict_rate(),
        1,
    );

    let pixel_w = build_workload(&stats, model.decoder(), Some(&pixel), None, None);
    let streaming_w = build_workload(&stats, model.decoder(), None, Some(&streaming), None);
    let rounds = 200;
    let (_, secs) = host.time(|| {
        tr.time("accel.soc.reports", 0, || {
            for _ in 0..rounds {
                black_box(soc.full_frame(black_box(&pixel_w), Variant::Baseline));
                black_box(soc.full_frame(black_box(&streaming_w), Variant::Cicero));
                black_box(soc.target_frame(black_box(&streaming_w), Variant::Cicero));
            }
        })
    });
    tr.end(open);
    out.metric(
        "accel.soc.us_per_report",
        secs * 1e6 / (3 * rounds) as f64,
        3 * rounds,
    );
}
