//! `warp_stream`: the paper's headline path.
//!
//! `Variant::Cicero`, window 16, over the grid-encoded lego model at 30
//! poses per second, closed loop, one client: one reference render per 16
//! warped targets, so `core::sparw`'s passes and `field`'s *masked* sparse
//! render dominate target frames while references are the rest of the wall
//! time. A sparw change shows here and must not move `full_frame`.
//!
//! A pass is three 49-frame sessions spaced evenly over one dolly period of
//! one handheld path. The dolly moves frame cost by ±15 %; evenly spaced
//! phases cancel it, so the seed barely moves the cost of a pass, and a pass
//! stays under a third of the run (see `timed_passes`). A session is a
//! bootstrap frame plus three windows: the first window warps from the
//! bootstrap frame and is cheap, the later ones warp from extrapolated
//! references and disocclude more. With two windows the cheap and the dear
//! targets were as many, the median frame sat in the gap between them, and
//! `frame_ms_p50` spread by 19 % across seeds.

use super::{
    best_of, best_steps, check_block_identity, digest_frame, fps_of, intrinsics, one_lane, paced,
    pipeline_config, psnr_vs_truth, render_options, repeat_setup, timed_passes, Ctx, Drive,
    Emitter, EndToEnd, Quality, Timed, SAMPLE_BLOCK, SEGMENT_ROUNDS,
};
use crate::host::HostClock;
use crate::probes::{self, Probe};
use crate::stats::{median, mix, Digest};
use crate::trace::Tracer;
use cicero::pipeline::PipelineSession;
use cicero::traffic::build_workload;
use cicero::{warp_frame_timed, Variant, WarpOptions, WarpScratch, WarpStats, WarpTiming};
use cicero_accel::soc::SocModel;
use cicero_accel::SocConfig;
use cicero_field::{bake, render_full_tiled, render_tiled, GridConfig, NerfModel, NullSink};
use cicero_scene::ground_truth::Frame;
use cicero_scene::{library, Trajectory};

const SCENE: &str = "lego";
const PATH_FPS: f32 = 30.0;
const WINDOW: usize = 16;
/// Frames in one period of the handheld path's dolly (0.5 rad/s).
const DOLLY_PERIOD: usize = 377;
/// Per-frame PSNR floor, dB. Warped frames late in a window score in the
/// high 20s on these views; the floor catches a broken warp or render.
const PSNR_FLOOR_DB: f64 = 20.0;
const TAG_PATH: u64 = 1;
const TAG_PROBE: u64 = 2;

struct Size {
    res: usize,
    /// Sessions per pass, evenly spaced over one dolly period of the path.
    segments: usize,
    /// Warping windows per session after its bootstrap frame.
    windows: usize,
    warmup: usize,
    psnr_every: usize,
    /// Bootstrap-plus-one-window sessions of the traced run's re-enactment.
    reenacted: usize,
    grid: usize,
}

impl Size {
    fn segment_frames(&self) -> usize {
        1 + self.windows * WINDOW
    }
}

fn size(smoke: bool) -> Size {
    if smoke {
        Size {
            res: 48,
            segments: 2,
            windows: 1,
            warmup: 2,
            psnr_every: 8,
            reenacted: 1,
            grid: 24,
        }
    } else {
        Size {
            res: 160,
            segments: 3,
            windows: 3,
            warmup: 4,
            psnr_every: 4,
            reenacted: 2,
            grid: 48,
        }
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Emitter) {
    let sz = size(ctx.smoke);
    let mut host = HostClock::default();
    let frames = sz.segments * sz.segment_frames();
    out.header(
        "size",
        format_args!(
            "{SCENE} grid {}^3 {}x{} {} sessions x {} frames + {} warm-up at {PATH_FPS} poses/s, Cicero window {WINDOW}, hidden 64",
            sz.grid, sz.res, sz.res, sz.segments, sz.segment_frames(), sz.warmup
        ),
    );
    let cfg = pipeline_config(Variant::Cicero, false, false);
    let intr = intrinsics(sz.res);
    let path_seed = mix(ctx.seed, TAG_PATH);
    let grid_cfg = GridConfig {
        resolution: sz.grid,
        channels: 12,
        bytes_per_channel: 2,
    };

    let mut bake_s = Vec::new();
    let ((scene, model), setup_s) = repeat_setup(ctx.setup_reps(), &mut host, |host| {
        let scene = library::scene_by_name(SCENE).expect("library scene");
        let (model, secs) = host.time(|| bake::bake_grid(&scene, &grid_cfg));
        bake_s.push(secs);
        let warm = Trajectory::handheld(&scene, sz.warmup, PATH_FPS, path_seed);
        let mut session = PipelineSession::new(&scene, &model, &warm, intr, &cfg);
        while session.step().is_some() {}
        (scene, model)
    });
    let path = Trajectory::handheld(
        &scene,
        DOLLY_PERIOD + sz.segment_frames(),
        PATH_FPS,
        path_seed,
    );
    let sessions: Vec<Trajectory> = (0..sz.segments)
        .map(|k| {
            let at = k * DOLLY_PERIOD / sz.segments;
            let poses = path.poses()[at..at + sz.segment_frames()].to_vec();
            Trajectory::from_poses(poses, PATH_FPS)
        })
        .collect();

    check_block_identity(out, &model, &path.camera(0, intr));

    out.plan(frames);
    let mut kept: Vec<(usize, usize, Frame)> = Vec::new();
    let mut warp_totals = WarpStats::default();
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let timed = Timed(timed_passes(seconds, |pass| {
        let mut drive = Drive::default();
        for (k, traj) in sessions.iter().enumerate() {
            let mut session = PipelineSession::new(&scene, &model, traj, intr, &cfg);
            let mut i = 0;
            drive.run(
                tr,
                &mut host,
                "core.pipeline.step",
                &mut session,
                sz.res,
                |step, _| {
                    if pass == 0 {
                        if i % sz.psnr_every == 0 {
                            kept.push((k, i, step.frame.clone()));
                        }
                        if let Some(w) = step.outcome.warp_stats {
                            accumulate(&mut warp_totals, &w);
                        }
                    }
                    i += 1;
                },
            );
        }
        drive
    }));
    timed.check_repeats(out);
    // Conservation over the warped frames: every target pixel has exactly
    // one provenance.
    let classified = warp_totals.warped
        + warp_totals.disoccluded
        + warp_totals.void_pixels
        + warp_totals.rejected;
    let targets = sz.segments * sz.windows * WINDOW;
    out.check(
        "warp_pixels_conserved",
        warp_totals.total == (targets * sz.res * sz.res) as u64 && classified == warp_totals.total,
        format_args!(
            "{classified} classified of {} target pixels",
            warp_totals.total
        ),
    );

    let mut quality = Quality::default();
    for (k, i, frame) in &kept {
        quality.push(
            psnr_vs_truth(&scene, &sessions[*k].camera(*i, intr), frame),
            PSNR_FLOOR_DB,
        );
    }
    quality.check(out, PSNR_FLOOR_DB);
    let failed = timed.unsound() + quality.below_floor;
    out.ops(timed.attempted(), failed);

    if ctx.trace {
        let bake = bake_s.last().copied().unwrap_or(0.0);
        out.metric("field.bake.grid_s", bake, bake_s.len());
        reenact(tr, &mut host, out, &sz, &scene, &model, &sessions);
        let poses = sessions.iter().map(|t| *t.pose(0));
        let cams = probes::probe_cameras(poses, ctx.smoke);
        let mut probe = Probe {
            out,
            tr,
            host: &mut host,
        };
        let costs = probe.kernels(&model, "grid", &cams, mix(ctx.seed, TAG_PROBE), ctx.smoke);
        probe.render(&model, "grid", &cams, &costs);
        probe.render_blocks(&model, &cams);
        probe.pool(&model, &cams);
    } else {
        let quality = (quality.mean_db(), quality.psnr_db.len());
        EndToEnd::of_frames(out, setup_s, &timed, failed, quality).emit(out);
    }
    out.digest(timed.digest());
}

fn accumulate(total: &mut WarpStats, w: &WarpStats) {
    total.total += w.total;
    total.warped += w.warped;
    total.disoccluded += w.disoccluded;
    total.void_pixels += w.void_pixels;
    total.rejected += w.rejected;
}

/// The traced run's segments, in interleaved rounds so that each reading is
/// a best-of-rounds. Each segment is a bootstrap frame plus one window: a
/// session's first window warps from its own frame 0, so the whole segment
/// can be re-enacted bit for bit from `render_full_tiled`,
/// `warp_frame_timed` and `render_tiled` without reading the session's
/// schedule.
fn reenact(
    tr: &mut Tracer,
    host: &mut HostClock,
    out: &mut Emitter,
    sz: &Size,
    scene: &cicero_scene::AnalyticScene,
    model: &cicero_field::GridModel,
    sessions: &[Trajectory],
) {
    let cfg = pipeline_config(Variant::Cicero, false, false);
    let intr = intrinsics(sz.res);
    let pixels = (sz.res * sz.res) as u64;
    let shorts: Vec<Trajectory> = sessions[..sz.reenacted]
        .iter()
        .map(|t| Trajectory::from_poses(t.poses()[..WINDOW + 1].to_vec(), PATH_FPS))
        .collect();
    let targets = shorts.len() * WINDOW;
    let drive_shorts = |tr: &mut Tracer, host: &mut HostClock, name: &'static str| {
        let mut drive = Drive::default();
        for short in &shorts {
            let mut session = PipelineSession::new(scene, model, short, intr, &cfg);
            drive.run(tr, host, name, &mut session, sz.res, |_, _| {});
        }
        drive
    };
    let soc = SocModel::new(SocConfig::default());
    let opts = render_options(SAMPLE_BLOCK);
    // The session's own warp options: φ from the pipeline configuration,
    // the rest defaulted exactly as `step()` does.
    let warp_opts = WarpOptions {
        phi: cfg.phi,
        ..Default::default()
    };
    let mut scratch = WarpScratch::new();

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // Per round, in reference-host time: the warp passes' summed seconds,
    // and per target frame the child spans' sum and the masked render alone,
    // ms.
    let mut timings: Vec<WarpTiming> = Vec::new();
    let (mut children_ms, mut masked_ms): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let mut warp_stats = WarpStats::default();
    let mut masked_rays = 0u64;
    let mut reenacted = Digest::default();
    for round in 0..SEGMENT_ROUNDS {
        tr.set_recording(false);
        untraced.push(drive_shorts(tr, host, "segment.untraced.step"));
        tr.set_recording(true);
        traced.push(drive_shorts(tr, host, "segment.traced.step"));

        let mut timing = WarpTiming::default();
        let (mut round_children, mut round_masked) = (Vec::new(), Vec::new());
        let mut digest = Digest::default();
        // The reference of the segment being re-enacted: frame, camera and
        // simulated report.
        let mut reference = None;
        let slowdown = paced(targets, host, |op| {
            let (k, i) = (op / WINDOW, op % WINDOW + 1);
            let short = &shorts[k];
            let base = (k * (WINDOW + 1)) as u64;
            if i == 1 {
                let ref_cam = short.camera(0, intr);
                let open = tr.begin("reenact.reference", base);
                let ((frame, stats), _) = tr.time("field.render_full_tiled", base, || {
                    render_full_tiled(model, &ref_cam, &opts, &mut NullSink, &one_lane())
                });
                let (workload, _) = tr.time("core.traffic.build_workload", base, || {
                    build_workload(&stats, model.decoder(), None, None, None)
                });
                let (report, _) = tr.time("accel.soc.full_frame", base, || {
                    soc.full_frame(&workload, Variant::Cicero)
                });
                tr.end(open);
                digest_frame(&mut digest, &frame);
                digest.f64(report.time_s);
                reference = Some((frame, ref_cam, report));
            }
            let (ref_frame, ref_cam, ref_report) = reference.as_ref().expect("rendered at i == 1");
            let cam = short.camera(i, intr);
            let id = base + i as u64;
            let open = tr.begin("reenact.target", id);
            let (warped, warp_s) = tr.time("core.sparw.warp_frame_timed", id, || {
                warp_frame_timed(
                    ref_frame,
                    ref_cam,
                    &cam,
                    model.background(),
                    &warp_opts,
                    &mut scratch,
                    1,
                    &mut timing,
                )
            });
            let ((stats, mask), mask_s) = tr.time("core.sparw.mask_and_stats", id, || {
                (warped.stats(), warped.render_mask())
            });
            let mut frame = warped.frame;
            let (render_stats, render_s) = tr.time("field.render_tiled.masked", id, || {
                render_tiled(
                    model,
                    &cam,
                    &opts,
                    Some(&mask),
                    &mut frame,
                    &mut NullSink,
                    &one_lane(),
                )
            });
            let (report, price_s) = tr.time("accel.soc.target_frame", id, || {
                let w = build_workload(
                    &render_stats,
                    model.decoder(),
                    None,
                    None,
                    Some((pixels, pixels)),
                );
                soc.sparw_local_from_reports(
                    ref_report,
                    &soc.target_frame(&w, Variant::Cicero),
                    WINDOW,
                )
            });
            tr.end(open);
            round_children.push((warp_s + mask_s + render_s + price_s) * 1e3);
            round_masked.push(render_s * 1e3);
            if round == 0 {
                accumulate(&mut warp_stats, &stats);
                masked_rays += render_stats.rays;
            }
            digest_frame(&mut digest, &frame);
            digest.f64(report.time_s);
            warp_s + mask_s + render_s + price_s
        });
        let scaled =
            |ms: &[f64]| -> Vec<f64> { ms.iter().zip(&slowdown).map(|(v, s)| v / s).collect() };
        // The warp passes accumulate over the round: charge them the
        // round's median slowdown.
        let round_slowdown = median(&slowdown);
        timings.push(WarpTiming {
            splat_s: timing.splat_s / round_slowdown,
            resolve_s: timing.resolve_s / round_slowdown,
            normalize_s: timing.normalize_s / round_slowdown,
            classify_s: timing.classify_s / round_slowdown,
            crack_fill_s: timing.crack_fill_s / round_slowdown,
        });
        children_ms.push(scaled(&round_children));
        masked_ms.push(scaled(&round_masked));
        if round == 0 {
            reenacted = digest;
        }
    }
    out.check(
        "reenacted_window_matches",
        reenacted == traced[0].digest,
        "frames and simulated times equal the session's",
    );

    let (untraced_ms, traced_ms) = (best_steps(&untraced), best_steps(&traced));
    out.header(
        "bench.trace.overhead_share basis",
        format_args!(
            "{:.4} traced vs {:.4} untraced frames/s, best of {SEGMENT_ROUNDS} rounds over {} frames",
            fps_of(&traced_ms),
            fps_of(&untraced_ms),
            traced_ms.len()
        ),
    );
    out.metric(
        "bench.trace.overhead_share",
        1.0 - fps_of(&traced_ms) / fps_of(&untraced_ms),
        traced_ms.len(),
    );
    // Frame 0 of each segment is the reference render, the rest targets.
    let is_reference = |i: usize| i.is_multiple_of(WINDOW + 1);
    let mean_of = |reference: bool| {
        let ms: Vec<f64> = traced_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| is_reference(*i) == reference)
            .map(|(_, ms)| *ms)
            .collect();
        (ms.iter().sum::<f64>() / ms.len() as f64, ms.len())
    };
    let (reference_ms, references) = mean_of(true);
    let (target_ms, _) = mean_of(false);
    out.metric("core.pipeline.reference_ms", reference_ms, references);
    out.metric("core.pipeline.target_ms", target_ms, targets);

    let n = targets as f64;
    let pass_ms = |slot: fn(&WarpTiming) -> f64| {
        timings.iter().map(slot).fold(f64::INFINITY, f64::min) * 1e3 / n
    };
    out.metric("core.sparw.splat_ms", pass_ms(|t| t.splat_s), targets);
    out.metric("core.sparw.resolve_ms", pass_ms(|t| t.resolve_s), targets);
    out.metric(
        "core.sparw.normalize_ms",
        pass_ms(|t| t.normalize_s),
        targets,
    );
    out.metric("core.sparw.classify_ms", pass_ms(|t| t.classify_s), targets);
    out.metric(
        "core.sparw.crack_fill_ms",
        pass_ms(|t| t.crack_fill_s),
        targets,
    );
    out.metric("core.sparw.warp_ms", pass_ms(WarpTiming::total_s), targets);
    out.metric(
        "core.sparw.overlap_fraction",
        warp_stats.overlap_fraction(),
        targets,
    );
    out.metric(
        "core.sparw.render_fraction",
        warp_stats.render_fraction(),
        targets,
    );

    let masked: f64 = best_of(masked_ms.iter().map(Vec::as_slice)).iter().sum();
    out.metric(
        "field.render.masked.us_per_ray",
        masked * 1e3 / masked_rays.max(1) as f64,
        targets,
    );
    let children: f64 = best_of(children_ms.iter().map(Vec::as_slice)).iter().sum();
    let steps = target_ms * targets as f64;
    out.header(
        "core.pipeline.target.unattributed_share basis",
        format_args!(
            "{children:.3} ms of child spans vs {steps:.3} ms of step() over {targets} target frames, best of {SEGMENT_ROUNDS} rounds"
        ),
    );
    out.metric(
        "core.pipeline.target.unattributed_share",
        1.0 - children / steps,
        targets,
    );
}
