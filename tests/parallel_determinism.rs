//! Tile-parallel rendering and warping must be *bit-identical* to the
//! sequential paths — for every thread count, scene, model family and
//! pipeline variant. This is the contract that makes `render_threads` a pure
//! wall-clock knob: experiment reproducibility, the serve layer's reference
//! cache and the simulated timelines all rely on it.
//!
//! Since the persistent worker pool took over every data-parallel pass, the
//! contract widened: it must also survive the pool's *lifecycle* — worker
//! reuse across frames and sessions, resizes mid-run, and the serve
//! scheduler stepping many sessions concurrently on one pool.

use cicero::pipeline::{run_pipeline, PipelineConfig, PipelineSession};
use cicero::sparw::{warp_frame, warp_frame_into, WarpOptions, WarpResult, WarpScratch};
use cicero::Variant;
use cicero_field::pool::RenderPool;
use cicero_field::tiles::{render_full_tiled, TileOptions};
use cicero_field::{bake, render::render_full, GatherPlan, HashConfig, RenderOptions};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, RadianceSource, Trajectory};
use cicero_serve::{
    FrameServer, IdleWorkerPrefetch, LoadAdaptiveDegrade, Policies, QosClass, SceneAffinity,
    ServeConfig, SessionSpec, Submission,
};
use cicero_telemetry as telemetry;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn fast_cfg(variant: Variant, threads: usize) -> PipelineConfig {
    PipelineConfig {
        variant,
        window: 3,
        march: MarchParams {
            step: 0.05,
            ..Default::default()
        },
        collect_quality: false,
        collect_traffic: false,
        render_threads: threads,
        ..Default::default()
    }
}

#[test]
fn tiled_render_is_bit_identical_across_scenes_models_and_threads() {
    for scene_name in ["lego", "chair"] {
        let scene = library::scene_by_name(scene_name).unwrap();
        let models: [Box<dyn cicero_field::NerfModel>; 2] = [
            Box::new(bake::bake_grid(
                &scene,
                &cicero_field::GridConfig {
                    resolution: 24,
                    ..Default::default()
                },
            )),
            Box::new(bake::bake_hash(
                &scene,
                &HashConfig {
                    levels: 4,
                    base_resolution: 4,
                    max_resolution: 24,
                    table_size_log2: 10,
                    ..Default::default()
                },
            )),
        ];
        let cam = Camera::new(
            Intrinsics::from_fov(33, 33, 0.9), // odd size: ragged last tile
            Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
        );
        let opts = RenderOptions::default();
        for model in &models {
            let model = model.as_ref();
            let mut seq_events: Vec<(u32, f32, u64)> = Vec::new();
            let mut seq_sink =
                |ray: u32, t: f32, p: &GatherPlan| seq_events.push((ray, t, p.bytes()));
            let (seq_frame, seq_stats) = render_full(model, &cam, &opts, &mut seq_sink);
            for threads in THREAD_COUNTS {
                let mut events: Vec<(u32, f32, u64)> = Vec::new();
                let mut sink = |ray: u32, t: f32, p: &GatherPlan| events.push((ray, t, p.bytes()));
                let (frame, stats) = render_full_tiled(
                    model,
                    &cam,
                    &opts,
                    &mut sink,
                    &TileOptions {
                        threads,
                        tile_rows: 8,
                    },
                );
                assert_eq!(frame, seq_frame, "{scene_name}: {threads} threads");
                assert_eq!(stats, seq_stats, "{scene_name}: {threads} threads");
                assert_eq!(
                    events, seq_events,
                    "{scene_name}: sink stream, {threads} threads"
                );
            }
        }
    }
}

#[test]
fn parallel_warp_is_bit_identical_across_scenes_and_threads() {
    for scene_name in ["lego", "ship"] {
        let scene = library::scene_by_name(scene_name).unwrap();
        let k = Intrinsics::from_fov(48, 48, 0.9);
        let ref_cam = Camera::new(
            k,
            Pose::look_at(Vec3::new(0.0, 1.3, -2.8), Vec3::ZERO, Vec3::Y),
        );
        let tgt_cam = Camera::new(
            k,
            Pose::look_at(Vec3::new(0.25, 1.2, -2.7), Vec3::ZERO, Vec3::Y),
        );
        let reference = render_frame(&scene, &ref_cam, &MarchParams::default());
        let opts = WarpOptions::default();
        let seq = warp_frame(&reference, &ref_cam, &tgt_cam, scene.background(), &opts);
        let mut scratch = WarpScratch::new();
        let mut par = WarpResult::empty();
        for threads in THREAD_COUNTS {
            warp_frame_into(
                &reference,
                &ref_cam,
                &tgt_cam,
                scene.background(),
                &opts,
                &mut scratch,
                threads,
                &mut par,
            );
            assert_eq!(par.frame, seq.frame, "{scene_name}: {threads} threads");
            assert_eq!(par.status, seq.status, "{scene_name}: {threads} threads");
        }
    }
}

#[test]
fn pipeline_runs_are_bit_identical_across_thread_counts() {
    for scene_name in ["lego", "chair"] {
        let scene = library::scene_by_name(scene_name).unwrap();
        let model = bake::bake_grid(
            &scene,
            &cicero_field::GridConfig {
                resolution: 24,
                ..Default::default()
            },
        );
        let traj = Trajectory::orbit(&scene, 6, 30.0);
        let k = Intrinsics::from_fov(32, 32, 0.9);
        for variant in [Variant::Sparw, Variant::Cicero] {
            let seq = run_pipeline(&scene, &model, &traj, k, &fast_cfg(variant, 1));
            for threads in [2, 3, 8] {
                let par = run_pipeline(&scene, &model, &traj, k, &fast_cfg(variant, threads));
                assert_eq!(
                    par.frames, seq.frames,
                    "{scene_name}/{variant:?}: frames differ at {threads} threads"
                );
                assert_eq!(par.warp_totals, seq.warp_totals);
                for (p, s) in par.outcomes.iter().zip(&seq.outcomes) {
                    assert_eq!(
                        p.report.time_s, s.report.time_s,
                        "{scene_name}/{variant:?}: simulated time drifted at {threads} threads"
                    );
                }
            }
        }
    }
}

/// The persistent pool's workers (and their thread-local scratches) serve
/// every frame of every session; reuse across frames, interleaved sessions
/// and whole-session lifetimes must never leak state into the output.
#[test]
fn pool_reuse_across_frames_and_sessions_is_bit_identical() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &cicero_field::GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    let cam = Camera::new(
        Intrinsics::from_fov(33, 33, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let opts = RenderOptions::default();
    let (seq_frame, seq_stats) = render_full(&model, &cam, &opts, &mut cicero_field::NullSink);

    // Back-to-back frames through the same warm pool.
    let tile = TileOptions {
        threads: 4,
        tile_rows: 8,
    };
    for i in 0..4 {
        let (frame, stats) =
            render_full_tiled(&model, &cam, &opts, &mut cicero_field::NullSink, &tile);
        assert_eq!(frame, seq_frame, "pool frame {i}");
        assert_eq!(stats, seq_stats, "pool stats {i}");
    }

    // Two sessions stepped in lockstep share the pool's workers frame by
    // frame; each must reproduce its own solo (sequential) run exactly.
    let traj = Trajectory::orbit(&scene, 6, 30.0);
    let k = Intrinsics::from_fov(32, 32, 0.9);
    for variant in [Variant::Sparw, Variant::Cicero] {
        let solo = run_pipeline(&scene, &model, &traj, k, &fast_cfg(variant, 1));
        let mut a = PipelineSession::new(&scene, &model, &traj, k, &fast_cfg(variant, 3));
        let mut b = PipelineSession::new(&scene, &model, &traj, k, &fast_cfg(variant, 8));
        let mut frames_a = Vec::new();
        let mut frames_b = Vec::new();
        loop {
            let (sa, sb) = (a.step(), b.step());
            if sa.is_none() && sb.is_none() {
                break;
            }
            frames_a.extend(sa.map(|s| s.frame));
            frames_b.extend(sb.map(|s| s.frame));
        }
        assert_eq!(frames_a, solo.frames, "{variant:?}: interleaved session a");
        assert_eq!(frames_b, solo.frames, "{variant:?}: interleaved session b");
    }
}

/// Resizing the pool mid-run — capping it to zero (every pass degrades to
/// inline), regrowing it, shrinking between frames — must never change a
/// pixel. Lane counts are a pure wall-clock knob even while they fluctuate.
#[test]
fn pool_resize_mid_run_keeps_output_bit_identical() {
    let scene = library::scene_by_name("chair").unwrap();
    let model = bake::bake_grid(
        &scene,
        &cicero_field::GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    let cam = Camera::new(
        Intrinsics::from_fov(40, 40, 0.9),
        Pose::look_at(Vec3::new(0.2, 1.1, -2.7), Vec3::ZERO, Vec3::Y),
    );
    let opts = RenderOptions::default();
    let (seq_frame, seq_stats) = render_full(&model, &cam, &opts, &mut cicero_field::NullSink);

    let pool = RenderPool::global();
    let tile = TileOptions {
        threads: 8,
        tile_rows: 6,
    };
    // Also resize across a warp loop: the same scratch must stay clean
    // while the bands it feeds change width under it.
    let ref_cam = cam;
    let tgt_cam = Camera::new(
        cam.intrinsics,
        Pose::look_at(Vec3::new(0.45, 1.1, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let reference = render_frame(&scene, &ref_cam, &MarchParams::default());
    let wopts = WarpOptions::default();
    let warp_seq = warp_frame(&reference, &ref_cam, &tgt_cam, scene.background(), &wopts);
    let mut scratch = WarpScratch::new();
    let mut warped = WarpResult::empty();

    for cap in [0usize, 1, 2, 63, 3, 0, 63] {
        pool.set_cap(cap);
        let (frame, stats) =
            render_full_tiled(&model, &cam, &opts, &mut cicero_field::NullSink, &tile);
        assert_eq!(frame, seq_frame, "cap {cap}");
        assert_eq!(stats, seq_stats, "cap {cap}");
        warp_frame_into(
            &reference,
            &ref_cam,
            &tgt_cam,
            scene.background(),
            &wopts,
            &mut scratch,
            6,
            &mut warped,
        );
        assert_eq!(warped.frame, warp_seq.frame, "cap {cap}");
        assert_eq!(warped.status, warp_seq.status, "cap {cap}");
    }
    pool.set_cap(63);
}

/// The serve scheduler steps ready batches concurrently when given a host
/// thread budget; every budget must reproduce the serial (budget 0) service
/// report **exactly** — records, latencies, PSNR, cache counters, timeline.
#[test]
fn concurrent_multi_session_serving_matches_serial_stepping() {
    let lego = library::scene_by_name("lego").unwrap();
    let ship = library::scene_by_name("ship").unwrap();
    let models = [
        bake::bake_grid(
            &lego,
            &cicero_field::GridConfig {
                resolution: 24,
                ..Default::default()
            },
        ),
        bake::bake_grid(
            &ship,
            &cicero_field::GridConfig {
                resolution: 24,
                ..Default::default()
            },
        ),
    ];
    let scenes = [&lego, &ship];
    let trajs = [
        Trajectory::orbit(&lego, 8, 30.0),
        Trajectory::orbit(&ship, 8, 30.0),
    ];
    let k = Intrinsics::from_fov(24, 24, 0.9);

    let serve_with = |budget: usize| {
        let mut server = FrameServer::new(ServeConfig {
            render_threads: budget,
            ..Default::default()
        });
        // Six sessions over two scenes: co-located pairs share references,
        // QoS classes contend, offsets stagger the ready batches.
        for (i, (qos, scene_ix, offset)) in [
            (QosClass::Interactive, 0, 0.0),
            (QosClass::Standard, 0, 0.004),
            (QosClass::BestEffort, 0, 0.009),
            (QosClass::Interactive, 1, 0.002),
            (QosClass::Standard, 1, 0.006),
            (QosClass::Standard, 1, 0.013),
        ]
        .into_iter()
        .enumerate()
        {
            let spec = SessionSpec {
                name: format!("s{i}"),
                scene_key: if scene_ix == 0 { "lego" } else { "ship" }.into(),
                qos,
                start_offset_s: offset,
                config: PipelineConfig {
                    variant: Variant::Cicero,
                    window: 4,
                    march: MarchParams {
                        step: 0.05,
                        ..Default::default()
                    },
                    collect_quality: true, // PSNR equality ⇒ frames match too
                    collect_traffic: false,
                    ..Default::default()
                },
            };
            server
                .submit(Submission::trajectory(
                    spec,
                    scenes[scene_ix],
                    &models[scene_ix],
                    &trajs[scene_ix],
                    k,
                ))
                .unwrap();
        }
        server.run()
    };

    let serial = serve_with(0);
    assert_eq!(serial.frames, 6 * 8);
    for budget in [1, 2, 3, 8] {
        let par = serve_with(budget);
        assert_eq!(par.records, serial.records, "budget {budget}: records");
        assert_eq!(par.sessions, serial.sessions, "budget {budget}: sessions");
        assert_eq!(par.makespan_s, serial.makespan_s, "budget {budget}");
        assert_eq!(par.p50_latency_s, serial.p50_latency_s, "budget {budget}");
        assert_eq!(par.p99_latency_s, serial.p99_latency_s, "budget {budget}");
        assert_eq!(par.cache, serial.cache, "budget {budget}: cache stats");
        assert_eq!(
            par.reference_jobs, serial.reference_jobs,
            "budget {budget}: reference jobs"
        );
        assert_eq!(
            par.deadline_misses, serial.deadline_misses,
            "budget {budget}: deadline misses"
        );
    }
}

/// Every non-default policy must keep the serving core's determinism
/// contract on its own: placement, QoS degradation and prefetch decisions
/// may only consume simulated state, so the **entire** service report —
/// records, degradations, prefetch economics, cache counters — is
/// bit-identical at any host thread budget.
#[test]
fn non_default_policies_are_budget_deterministic() {
    let lego = library::scene_by_name("lego").unwrap();
    let ship = library::scene_by_name("ship").unwrap();
    let models = [
        bake::bake_grid(
            &lego,
            &cicero_field::GridConfig {
                resolution: 24,
                ..Default::default()
            },
        ),
        bake::bake_grid(
            &ship,
            &cicero_field::GridConfig {
                resolution: 24,
                ..Default::default()
            },
        ),
    ];
    let scenes = [&lego, &ship];
    let trajs = [
        Trajectory::orbit(&lego, 8, 30.0),
        Trajectory::orbit(&ship, 8, 30.0),
    ];
    let k = Intrinsics::from_fov(24, 24, 0.9);

    let policies_for = |name: &str| -> Policies {
        match name {
            "affinity" => Policies::default().with_placement(SceneAffinity { lanes: 2 }),
            "degrade" => Policies::default().with_qos(LoadAdaptiveDegrade {
                max_window: 16,
                min_resolution: 8,
            }),
            "prefetch" => Policies::default().with_prefetch(IdleWorkerPrefetch::default()),
            other => panic!("unknown policy {other}"),
        }
    };

    for policy in ["affinity", "degrade", "prefetch"] {
        let serve_with = |budget: usize| {
            let mut server = FrameServer::new(ServeConfig {
                render_threads: budget,
                policies: policies_for(policy),
                // Tight enough that the degrade ladder actually engages for
                // later sessions (and the default would reject them).
                admission: cicero_serve::AdmissionPolicy {
                    max_utilization: if policy == "degrade" { 0.012 } else { 0.85 },
                    ..Default::default()
                },
                ..Default::default()
            });
            let mut admitted = 0;
            for (i, (qos, scene_ix, offset)) in [
                (QosClass::Interactive, 0, 0.0),
                (QosClass::Standard, 0, 0.004),
                (QosClass::BestEffort, 0, 0.009),
                (QosClass::Interactive, 1, 0.002),
                (QosClass::Standard, 1, 0.006),
                (QosClass::Standard, 1, 0.013),
            ]
            .into_iter()
            .enumerate()
            {
                let spec = SessionSpec {
                    name: format!("s{i}"),
                    scene_key: if scene_ix == 0 { "lego" } else { "ship" }.into(),
                    qos,
                    start_offset_s: offset,
                    config: PipelineConfig {
                        variant: Variant::Cicero,
                        window: 4,
                        march: MarchParams {
                            step: 0.05,
                            ..Default::default()
                        },
                        collect_quality: true, // PSNR equality ⇒ frames match too
                        collect_traffic: false,
                        ..Default::default()
                    },
                };
                // Degrade mode intentionally saturates: rejections are fine,
                // they must simply be identical across budgets.
                if server
                    .submit(Submission::trajectory(
                        spec,
                        scenes[scene_ix],
                        &models[scene_ix],
                        &trajs[scene_ix],
                        k,
                    ))
                    .is_ok()
                {
                    admitted += 1;
                }
            }
            assert!(admitted >= 1, "{policy}: at least one session admitted");
            (admitted, server.run())
        };

        let (admitted, serial) = serve_with(0);
        assert_eq!(serial.frames, admitted * 8, "{policy}");
        match policy {
            // The exercised fixture must actually engage each policy.
            "degrade" => assert!(
                !serial.degradations.is_empty(),
                "degrade policy never engaged"
            ),
            "prefetch" => assert!(serial.prefetch_jobs > 0, "prefetch policy never engaged"),
            _ => {}
        }
        for budget in [1, 2, 3, 8] {
            let (_, par) = serve_with(budget);
            assert_eq!(par.records, serial.records, "{policy}: budget {budget}");
            assert_eq!(par.sessions, serial.sessions, "{policy}: budget {budget}");
            assert_eq!(par.makespan_s, serial.makespan_s, "{policy}: {budget}");
            assert_eq!(par.p50_latency_s, serial.p50_latency_s, "{policy}");
            assert_eq!(par.p99_latency_s, serial.p99_latency_s, "{policy}");
            assert_eq!(par.cache, serial.cache, "{policy}: budget {budget}");
            assert_eq!(par.reference_jobs, serial.reference_jobs, "{policy}");
            assert_eq!(par.prefetch_jobs, serial.prefetch_jobs, "{policy}");
            assert_eq!(par.degradations, serial.degradations, "{policy}");
            assert_eq!(par.deadline_misses, serial.deadline_misses, "{policy}");
        }
    }
}

#[test]
fn traffic_collection_is_deterministic_under_parallel_rendering() {
    // The memory simulators replay the gather stream; tile traces must hand
    // them the exact sequential order or the modeled timings would drift.
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &cicero_field::GridConfig {
            resolution: 20,
            ..Default::default()
        },
    );
    let traj = Trajectory::orbit(&scene, 4, 30.0);
    let k = Intrinsics::from_fov(24, 24, 0.9);
    for variant in [Variant::Cicero, Variant::Sparw] {
        let mut cfg = fast_cfg(variant, 1);
        cfg.collect_traffic = true;
        let seq = run_pipeline(&scene, &model, &traj, k, &cfg);
        cfg.render_threads = 4;
        let par = run_pipeline(&scene, &model, &traj, k, &cfg);
        assert_eq!(par.frames, seq.frames);
        for (p, s) in par.outcomes.iter().zip(&seq.outcomes) {
            assert_eq!(p.report.time_s, s.report.time_s, "{variant:?}");
            assert_eq!(
                p.report.energy.total(),
                s.report.energy.total(),
                "{variant:?}"
            );
        }
    }
}

/// Telemetry is **observe-only**: flipping the recorder on must not move a
/// single bit of output — frames, statistics, simulated timings or service
/// reports — at any host thread budget or sample-block size. Spans and
/// counters read the pipeline; nothing in the pipeline reads them back.
/// (ISSUE 6 acceptance: threads {1, 4} × blocks {1, 16}, on vs off. There is
/// one marcher and one probe set now, so the one-lane block is swept where it
/// is the subject — the render, where it records a plan / gather / MLP /
/// decode span per *sample* and wraps the ring — and the pipeline and the
/// server run at the default block.)
#[test]
fn telemetry_on_is_bit_identical_to_off() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &cicero_field::GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    let traj = Trajectory::orbit(&scene, 6, 30.0);
    let k = Intrinsics::from_fov(24, 24, 0.9);

    let pipeline_with = |threads: usize| {
        run_pipeline(
            &scene,
            &model,
            &traj,
            k,
            &fast_cfg(Variant::Cicero, threads),
        )
    };
    let serve_with = |threads: usize| {
        let mut server = FrameServer::new(ServeConfig {
            render_threads: threads,
            policies: Policies::default().with_prefetch(IdleWorkerPrefetch::default()),
            ..Default::default()
        });
        for (i, (qos, offset)) in [
            (QosClass::Interactive, 0.0),
            (QosClass::Standard, 0.004),
            (QosClass::BestEffort, 0.009),
        ]
        .into_iter()
        .enumerate()
        {
            let spec = SessionSpec {
                name: format!("t{i}"),
                scene_key: "lego".into(),
                qos,
                start_offset_s: offset,
                config: PipelineConfig {
                    collect_quality: true, // PSNR equality ⇒ frames match too
                    ..fast_cfg(Variant::Cicero, threads)
                },
            };
            server
                .submit(Submission::trajectory(spec, &scene, &model, &traj, k))
                .unwrap();
        }
        server.run()
    };

    let cam = Camera::new(
        Intrinsics::from_fov(33, 33, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    );
    let render_with = |threads: usize, block: usize| {
        let opts = RenderOptions {
            sample_block: block,
            ..Default::default()
        };
        let mut events: Vec<(u32, f32, u64)> = Vec::new();
        let mut sink = |ray: u32, t: f32, p: &GatherPlan| events.push((ray, t, p.bytes()));
        let (frame, stats) = render_full_tiled(
            &model,
            &cam,
            &opts,
            &mut sink,
            &TileOptions {
                threads,
                tile_rows: 8,
            },
        );
        (frame, stats, events)
    };

    const BLOCKS: [usize; 2] = [1, 16];
    for threads in [1usize, 4] {
        assert!(!telemetry::is_enabled());
        let renders_off = BLOCKS.map(|block| render_with(threads, block));
        let pipe_off = pipeline_with(threads);
        let serve_off = serve_with(threads);

        telemetry::enable();
        let renders_on = BLOCKS.map(|block| {
            telemetry::reset();
            let render = render_with(threads, block);
            assert!(
                telemetry::event_count() > 0,
                "{threads}t/{block}b: telemetry recorded nothing"
            );
            // A one-lane block records several spans per sample, far more
            // than the ring of the thread that renders holds, and the
            // recorder has to say so. (Tests running beside this one record
            // too while the recorder is on: they can only add.)
            if (threads, block) == (1, 1) {
                assert!(
                    4 * render.1.samples_processed > 4096 && telemetry::events_dropped() > 0,
                    "{} samples, {} events retained, {} dropped",
                    render.1.samples_processed,
                    telemetry::event_count(),
                    telemetry::events_dropped()
                );
            }
            render
        });
        let pipe_on = pipeline_with(threads);
        let serve_on = serve_with(threads);
        telemetry::disable();
        telemetry::reset();

        for (block, (on, off)) in BLOCKS.into_iter().zip(renders_on.iter().zip(&renders_off)) {
            assert_eq!(
                on.0, off.0,
                "{threads}t/{block}b: telemetry moved a rendered pixel"
            );
            assert_eq!(
                on.1, off.1,
                "{threads}t/{block}b: telemetry moved RenderStats"
            );
            assert_eq!(
                on.2, off.2,
                "{threads}t/{block}b: telemetry moved the sink stream"
            );
        }
        assert_eq!(
            pipe_on.frames, pipe_off.frames,
            "{threads}t: telemetry moved a pipeline frame"
        );
        assert_eq!(pipe_on.warp_totals, pipe_off.warp_totals);
        for (on, off) in pipe_on.outcomes.iter().zip(&pipe_off.outcomes) {
            assert_eq!(
                on.report.time_s, off.report.time_s,
                "{threads}t: telemetry drifted simulated time"
            );
        }
        assert_eq!(
            serve_on, serve_off,
            "{threads}t: telemetry moved the service report"
        );
    }
}
