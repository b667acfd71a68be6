//! `full_frame`: every frame is a full NeRF render.
//!
//! `Variant::Baseline` over the hash-encoded lego model, closed loop, one
//! client. `field` (plan → gather → MLP) does practically all the work and
//! `core::sparw`, `mem`, `accel` and `serve` do none, so this is where an
//! MLP, gather, marcher or space-skipping change must show.
//!
//! Baseline frames are independent of each other, so the handheld path is
//! sampled time-lapse (3 poses per second of motion, 35 s in all): the seed
//! picks the sway and dolly phases, and several whole periods of each land
//! in every run. At 30 poses per second the 104 frames would cover a sliver
//! of one dolly period, and the seed alone would move frame cost by ±15 %.
//! The frame is 40×40 so that one pass over the path takes under a fifth of
//! the run (see `timed_passes`); the work per ray is that of any size.

use super::{
    best_of, best_steps, check_block_identity, digest_frame, fps_of, intrinsics, one_lane, paced,
    pipeline_config, psnr_vs_truth, render_options, repeat_setup, timed_passes, Ctx, Drive,
    Emitter, EndToEnd, Quality, Timed, SAMPLE_BLOCK, SEGMENT_ROUNDS,
};
use crate::host::HostClock;
use crate::probes::{self, Probe};
use crate::stats::{mix, Digest};
use crate::trace::Tracer;
use cicero::pipeline::PipelineSession;
use cicero::traffic::build_workload;
use cicero::Variant;
use cicero_accel::soc::SocModel;
use cicero_accel::SocConfig;
use cicero_field::{bake, render_full_tiled, HashConfig, NerfModel, NullSink};
use cicero_scene::ground_truth::Frame;
use cicero_scene::{library, Trajectory};

const SCENE: &str = "lego";
/// Per-frame PSNR floor, dB: a frame below it counts as failed. The hash
/// model scores 36–41 dB on these views; the floor catches a broken render,
/// `psnr_db` catches a subtly worse one.
const PSNR_FLOOR_DB: f64 = 30.0;
const TAG_PATH: u64 = 1;
const TAG_PROBE: u64 = 2;

struct Size {
    res: usize,
    frames: usize,
    warmup: usize,
    /// Poses per second of handheld motion.
    path_fps: f32,
    /// Every n-th frame is scored against ground truth.
    psnr_every: usize,
    /// Frames of the traced-versus-untraced and re-enactment segments.
    segment: usize,
    hash: HashConfig,
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            res: 32,
            frames: 8,
            warmup: 1,
            path_fps: 3.0,
            psnr_every: 4,
            segment: 2,
            hash: HashConfig {
                levels: 4,
                base_resolution: 16,
                max_resolution: 64,
                table_size_log2: 14,
                features_per_entry: 8,
                bytes_per_feature: 2,
            },
        }
    } else {
        Size {
            res: 40,
            frames: 104,
            warmup: 2,
            path_fps: 3.0,
            psnr_every: 8,
            segment: 16,
            hash: HashConfig::default(),
        }
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Emitter) {
    let sz = size(ctx.smoke);
    let mut host = HostClock::default();
    out.header(
        "size",
        format_args!(
            "{SCENE} hash {}x{} {} frames + {} warm-up at {} poses/s, Baseline, hidden 64",
            sz.res, sz.res, sz.frames, sz.warmup, sz.path_fps
        ),
    );
    let cfg = pipeline_config(Variant::Baseline, false, false);
    let intr = intrinsics(sz.res);
    let path_seed = mix(ctx.seed, TAG_PATH);

    // Set-up: bake the model, then warm the render scratch on a short path.
    let mut bake_s = Vec::new();
    let ((scene, model), setup_s) = repeat_setup(ctx.setup_reps(), &mut host, |host| {
        let scene = library::scene_by_name(SCENE).expect("library scene");
        let (model, secs) = host.time(|| bake::bake_hash(&scene, &sz.hash));
        bake_s.push(secs);
        let warm = Trajectory::handheld(&scene, sz.warmup, sz.path_fps, path_seed);
        let mut session = PipelineSession::new(&scene, &model, &warm, intr, &cfg);
        while session.step().is_some() {}
        (scene, model)
    });
    let traj = Trajectory::handheld(&scene, sz.frames, sz.path_fps, path_seed);

    check_block_identity(out, &model, &traj.camera(0, intr));

    // The timed phase: whole passes over the path.
    out.plan(sz.frames);
    let mut kept: Vec<(usize, Frame)> = Vec::new();
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let timed = Timed(timed_passes(seconds, |pass| {
        let mut drive = Drive::default();
        let mut session = PipelineSession::new(&scene, &model, &traj, intr, &cfg);
        let mut i = 0;
        drive.run(
            tr,
            &mut host,
            "core.pipeline.step",
            &mut session,
            sz.res,
            |step, _| {
                if pass == 0 && i % sz.psnr_every == 0 {
                    kept.push((i, step.frame.clone()));
                }
                i += 1;
            },
        );
        drive
    }));
    timed.check_repeats(out);

    let mut quality = Quality::default();
    for (i, frame) in &kept {
        quality.push(
            psnr_vs_truth(&scene, &traj.camera(*i, intr), frame),
            PSNR_FLOOR_DB,
        );
    }
    quality.check(out, PSNR_FLOOR_DB);
    let failed = timed.unsound() + quality.below_floor;
    out.ops(timed.attempted(), failed);

    if ctx.trace {
        let bake = bake_s.last().copied().unwrap_or(0.0);
        out.metric("field.bake.hash_s", bake, bake_s.len());
        segments(tr, &mut host, out, &sz, &scene, &model, &traj);
        let poses = traj.poses().iter().step_by(sz.frames / 4).copied().take(4);
        let cams = probes::probe_cameras(poses, ctx.smoke);
        let mut probe = Probe {
            out,
            tr,
            host: &mut host,
        };
        let costs = probe.kernels(&model, "hash", &cams, mix(ctx.seed, TAG_PROBE), ctx.smoke);
        probe.render(&model, "hash", &cams, &costs);
    } else {
        let quality = (quality.mean_db(), quality.psnr_db.len());
        EndToEnd::of_frames(out, setup_s, &timed, failed, quality).emit(out);
    }
    out.digest(timed.digest());
}

/// The traced run's segments over the first `segment` poses: untraced,
/// traced, telemetry armed, and the step re-enacted from its public pieces,
/// in interleaved rounds so that each reading is a best-of-rounds.
fn segments(
    tr: &mut Tracer,
    host: &mut HostClock,
    out: &mut Emitter,
    sz: &Size,
    scene: &cicero_scene::AnalyticScene,
    model: &cicero_field::HashModel,
    traj: &Trajectory,
) {
    let cfg = pipeline_config(Variant::Baseline, false, false);
    let intr = intrinsics(sz.res);
    let short = Trajectory::from_poses(traj.poses()[..sz.segment].to_vec(), sz.path_fps);
    let drive_segment = |tr: &mut Tracer, host: &mut HostClock, name: &'static str| {
        let mut drive = Drive::default();
        let mut session = PipelineSession::new(scene, model, &short, intr, &cfg);
        drive.run(tr, host, name, &mut session, sz.res, |_, _| {});
        drive
    };
    let soc = SocModel::new(SocConfig::default());

    let (mut untraced, mut traced, mut armed) = (Vec::new(), Vec::new(), Vec::new());
    // Per round, per frame: the sum of the re-enacted step's child spans,
    // reference-host ms.
    let mut children_ms: Vec<Vec<f64>> = Vec::new();
    let mut reenacted = Digest::default();
    for round in 0..SEGMENT_ROUNDS {
        tr.set_recording(false);
        untraced.push(drive_segment(tr, host, "segment.untraced.step"));
        cicero_telemetry::enable();
        armed.push(drive_segment(tr, host, "segment.armed.step"));
        cicero_telemetry::disable();
        tr.set_recording(true);
        traced.push(drive_segment(tr, host, "segment.traced.step"));

        // A Baseline step re-enacted from the calls it is made of.
        let mut digest = Digest::default();
        let mut round_ms = Vec::with_capacity(sz.segment);
        let slowdown = paced(sz.segment, host, |i| {
            let cam = short.camera(i, intr);
            let id = i as u64;
            let open = tr.begin("reenact.full", id);
            let ((frame, stats), render_s) = tr.time("field.render_full_tiled", id, || {
                render_full_tiled(
                    model,
                    &cam,
                    &render_options(SAMPLE_BLOCK),
                    &mut NullSink,
                    &one_lane(),
                )
            });
            let (workload, build_s) = tr.time("core.traffic.build_workload", id, || {
                build_workload(&stats, model.decoder(), None, None, None)
            });
            let (report, price_s) = tr.time("accel.soc.full_frame", id, || {
                soc.full_frame(&workload, Variant::Baseline)
            });
            tr.end(open);
            digest_frame(&mut digest, &frame);
            digest.f64(report.time_s);
            round_ms.push((render_s + build_s + price_s) * 1e3);
            render_s + build_s + price_s
        });
        children_ms.push(
            round_ms
                .iter()
                .zip(slowdown)
                .map(|(ms, s)| ms / s)
                .collect(),
        );
        if round == 0 {
            reenacted = digest;
        }
    }

    let (untraced_ms, traced_ms, armed_ms) = (
        best_steps(&untraced),
        best_steps(&traced),
        best_steps(&armed),
    );
    out.header(
        "bench.trace.overhead_share basis",
        format_args!(
            "{:.4} traced vs {:.4} untraced frames/s, best of {SEGMENT_ROUNDS} rounds over {} frames",
            fps_of(&traced_ms),
            fps_of(&untraced_ms),
            sz.segment
        ),
    );
    out.metric(
        "bench.trace.overhead_share",
        1.0 - fps_of(&traced_ms) / fps_of(&untraced_ms),
        sz.segment,
    );
    out.check(
        "telemetry_is_observe_only",
        armed[0].digest == untraced[0].digest,
        "armed frames equal unarmed frames",
    );
    out.metric(
        "telemetry.armed.overhead_share",
        1.0 - fps_of(&armed_ms) / fps_of(&untraced_ms),
        sz.segment,
    );
    out.check(
        "reenacted_full_step_matches",
        reenacted == traced[0].digest,
        "frames and simulated times equal the session's",
    );
    let children: f64 = best_of(children_ms.iter().map(Vec::as_slice)).iter().sum();
    let steps: f64 = traced_ms.iter().sum();
    out.header(
        "core.pipeline.full.unattributed_share basis",
        format_args!(
            "{children:.3} ms of child spans vs {steps:.3} ms of step() over {} frames, best of {SEGMENT_ROUNDS} rounds",
            sz.segment
        ),
    );
    out.metric(
        "core.pipeline.full.unattributed_share",
        1.0 - children / steps,
        sz.segment,
    );
}
