//! The explicit SIMD kernel layer must be **bit-identical** to the scalar
//! paths it replaces — frames, [`RenderStats`], sink sample streams, warped
//! frames and full serve `ServiceReport`s — for every scene, model family
//! and block size. This is the contract that lets the backend cap ride the
//! same determinism matrix as `render_threads` and `sample_block`: a pure
//! throughput knob that never moves a pixel.
//!
//! Every backend the target has is compiled into one binary; which instance
//! the hot loops take is the process-wide `cicero_field::simd` backend cap.
//! Each test here runs its workload capped to the portable instance (the
//! scalar oracle), then under every wider backend the host can run —
//! SSE2, and AVX where the CPU reports it, so the 128- and 256-bit
//! instances of the MLP block kernel, of the encoding gathers and of the
//! SPARW passes are all held to the oracle's bytes — and asserts byte
//! equality. Off x86_64 no wide backend exists: the suite then runs the
//! portable path twice as a self-check. CI additionally diffs the swarm's
//! digests between an uncapped and a `CICERO_SIMD=0` process.
//!
//! The cap is process-global, so every test serializes on [`lock`]; the
//! per-kernel bitwise tests live next to the kernels (no cap needed),
//! and the wide path's zero-allocation leg lives in `tests/zero_alloc.rs`
//! (the counting allocator is process-global too).

use std::sync::{Mutex, MutexGuard};

use cicero::pipeline::{run_pipeline, PipelineConfig};
use cicero::sparw::{warp_frame, WarpOptions};
use cicero::Variant;
use cicero_field::render::render_full;
use cicero_field::simd::{self, Backend};
use cicero_field::{
    bake, GatherPlan, GridConfig, HashConfig, NerfModel, RenderOptions, RenderStats, TensorConfig,
};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_scene::ground_truth::{render_frame, Frame};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, RadianceSource, Trajectory};
use cicero_serve::{FrameServer, QosClass, ServeConfig, ServiceReport, SessionSpec, Submission};

const BLOCK_SIZES: [usize; 3] = [1, 16, 64];

/// Serializes tests that move the process-wide backend cap.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another equivalence test failed; the
    // cap is restored by `with_backend` regardless.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The backends each test holds to the scalar oracle: every wide one this
/// target has and this host can run, or — with none, i.e. off x86_64 — the
/// portable one again.
fn wide_backends() -> Vec<Backend> {
    let (wide, missing): (Vec<_>, Vec<_>) = [Backend::Sse2, Backend::Avx]
        .into_iter()
        .partition(|b| b.supported());
    for b in missing {
        println!("skipping {b:?}: not supported in this build on this host");
    }
    if wide.is_empty() {
        vec![Backend::Portable]
    } else {
        wide
    }
}

/// Runs `f` capped to `backend` ([`Backend::Portable`] is the scalar
/// oracle), then lifts the cap again.
fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    simd::set_backend_cap(backend);
    assert_eq!(simd::backend(), backend.name(), "cap did not take");
    let out = f();
    simd::set_backend_cap(Backend::Avx);
    out
}

/// A `side`² camera; odd sides, so lane groups always end in a ragged tail.
fn camera(side: usize) -> Camera {
    Camera::new(
        Intrinsics::from_fov(side, side, 0.9),
        Pose::look_at(Vec3::new(0.3, 1.2, -2.6), Vec3::ZERO, Vec3::Y),
    )
}

fn model_for(scene_name: &str) -> Box<dyn NerfModel> {
    let scene = library::scene_by_name(scene_name).unwrap();
    // One family per scene: dense grid, multi-level hash, VM tensor — each
    // with its own wide gather kernel.
    match scene_name {
        "lego" => Box::new(bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 24,
                ..Default::default()
            },
        )),
        "chair" => Box::new(bake::bake_hash(
            &scene,
            &HashConfig {
                levels: 4,
                base_resolution: 4,
                max_resolution: 24,
                table_size_log2: 10,
                ..Default::default()
            },
        )),
        _ => Box::new(bake::bake_tensor(
            &scene,
            &TensorConfig {
                resolution: 24,
                ..Default::default()
            },
        )),
    }
}

/// A full frame, its stats, and what a sink saw of every processed sample.
type Render = (Frame, RenderStats, Vec<(u32, f32, u64, u64)>);

fn render_with_events(model: &dyn NerfModel, cam: &Camera, block: usize) -> Render {
    let opts = RenderOptions {
        sample_block: block,
        ..Default::default()
    };
    let mut events = Vec::new();
    let mut sink =
        |ray: u32, t: f32, p: &GatherPlan| events.push((ray, t, p.bytes(), p.entry_reads()));
    let (frame, stats) = render_full(model, cam, &opts, &mut sink);
    (frame, stats, events)
}

#[test]
fn wide_render_is_bit_identical_across_scenes_models_and_block_sizes() {
    let _guard = lock();
    let backends = wide_backends();
    for scene_name in ["lego", "chair", "ship"] {
        let model = model_for(scene_name);
        let model = model.as_ref();
        for block in BLOCK_SIZES {
            // A one-lane block is the same engine with every sample its own
            // flush; an unoptimised build pays several times more per sample
            // for it, so it gets a quarter of the rays.
            let cam = if block == 1 { camera(17) } else { camera(33) };
            let collect = |block| render_with_events(model, &cam, block);
            let (frame, stats, events) = with_backend(Backend::Portable, || collect(block));
            assert!(stats.samples_processed > 0, "{scene_name}: empty render");
            for &b in &backends {
                let (w_frame, w_stats, w_events) = with_backend(b, || collect(block));
                let at = format!("{scene_name}, block {block}, {b:?}");
                assert_eq!(w_frame, frame, "{at}: frame");
                assert_eq!(w_stats, stats, "{at}: stats");
                assert_eq!(w_events, events, "{at}: sink stream");
            }
        }
    }
}

#[test]
fn block_gathers_render_bit_identically_at_every_feature_width() {
    // Full frames through the hash and tensor block gathers at widths the
    // default configs above do not reach: 11 features per entry (an 8-lane
    // group plus three 1-lane tails) over six levels, dense then hashed;
    // 21 and 35 tensor channels, where a signal's components straddle the
    // lane groups. Frame, stats and sink stream per backend cap.
    let _guard = lock();
    let backends = wide_backends();
    let scene = library::scene_by_name("chair").unwrap();
    let hash = bake::bake_hash(
        &scene,
        &HashConfig {
            levels: 6,
            base_resolution: 4,
            max_resolution: 32,
            table_size_log2: 11,
            features_per_entry: 11,
            ..Default::default()
        },
    );
    assert!((1..6).contains(&hash.encoding.first_hashed_level()));
    let tensor = |components_per_signal| {
        bake::bake_tensor(
            &scene,
            &TensorConfig {
                resolution: 24,
                components_per_signal,
                ..Default::default()
            },
        )
    };
    let models: [(&str, Box<dyn NerfModel>); 3] = [
        ("hash 6 x 11", Box::new(hash)),
        ("tensor 21", Box::new(tensor(3))),
        ("tensor 35", Box::new(tensor(5))),
    ];
    let cam = camera(33);
    for (name, model) in &models {
        // One chunk and a bit: 20-sample blocks leave the gathers a 4-sample
        // chunk after the full one.
        let collect = || render_with_events(model.as_ref(), &cam, 20);
        let scalar = with_backend(Backend::Portable, collect);
        assert!(scalar.1.samples_processed > 0, "{name}: empty render");
        for &b in &backends {
            assert!(with_backend(b, collect) == scalar, "{name}, {b:?}");
        }
    }
}

#[test]
fn wide_warp_passes_are_bit_identical() {
    // The SPARW splat / normalize / void-classify kernels, end to end on a
    // real rendered reference — covers both splat modes and the φ test.
    let _guard = lock();
    let backends = wide_backends();
    let scene = library::scene_by_name("lego").unwrap();
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
    for opts in [
        WarpOptions::default(),
        WarpOptions {
            splat: cicero::sparw::SplatMode::Bilinear,
            ..Default::default()
        },
        WarpOptions {
            phi: Some(0.02),
            ..Default::default()
        },
    ] {
        let warp = || warp_frame(&reference, &ref_cam, &tgt_cam, scene.background(), &opts);
        let scalar = with_backend(Backend::Portable, warp);
        for &b in &backends {
            let wide = with_backend(b, warp);
            assert_eq!(wide.frame, scalar.frame, "phi={:?} {b:?}: frame", opts.phi);
            assert_eq!(
                wide.status, scalar.status,
                "phi={:?} {b:?}: status",
                opts.phi
            );
        }
    }
}

#[test]
fn wide_pipeline_runs_are_bit_identical() {
    // Whole pipeline (render + warp + schedule) under SPARW and Cicero:
    // every wide kernel in one pass, with simulated reports compared.
    let _guard = lock();
    let backends = wide_backends();
    for scene_name in ["lego", "ship"] {
        let scene = library::scene_by_name(scene_name).unwrap();
        let model = model_for(scene_name);
        let model = model.as_ref();
        let traj = Trajectory::orbit(&scene, 4, 40.0);
        let k = Intrinsics::from_fov(24, 24, 0.9);
        for variant in [Variant::Sparw, Variant::Cicero] {
            let run = || {
                let cfg = PipelineConfig {
                    variant,
                    window: 3,
                    march: MarchParams {
                        step: 0.05,
                        ..Default::default()
                    },
                    collect_quality: false,
                    collect_traffic: true,
                    ..Default::default()
                };
                run_pipeline(&scene, model, &traj, k, &cfg)
            };
            let scalar = with_backend(Backend::Portable, run);
            for &b in &backends {
                let wide = with_backend(b, run);
                let at = format!("{scene_name}/{variant:?}/{b:?}");
                assert_eq!(wide.frames, scalar.frames, "{at}: frames");
                assert_eq!(wide.warp_totals, scalar.warp_totals, "{at}: warp stats");
                assert_eq!(wide.outcomes.len(), scalar.outcomes.len());
                for (w, s) in wide.outcomes.iter().zip(&scalar.outcomes) {
                    assert_eq!(w.report, s.report, "{at}: report");
                }
            }
        }
    }
}

#[test]
fn wide_serve_reports_are_bit_identical() {
    // Full service reports — frame records, latency percentiles, cache
    // economics — through the multi-session serve layer.
    let _guard = lock();
    let backends = wide_backends();
    let lego = library::scene_by_name("lego").unwrap();
    let ship = library::scene_by_name("ship").unwrap();
    let models = [model_for("lego"), model_for("ship")];
    let scenes = [&lego, &ship];
    let trajs = [
        Trajectory::orbit(&lego, 6, 30.0),
        Trajectory::orbit(&ship, 6, 30.0),
    ];
    let k = Intrinsics::from_fov(24, 24, 0.9);
    let serve = || -> ServiceReport {
        let mut server = FrameServer::new(ServeConfig {
            render_threads: 2,
            ..Default::default()
        });
        for (i, (qos, scene_ix, offset)) in [
            (QosClass::Interactive, 0, 0.0),
            (QosClass::Standard, 0, 0.004),
            (QosClass::BestEffort, 1, 0.009),
            (QosClass::Standard, 1, 0.006),
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
                    models[scene_ix].as_ref(),
                    &trajs[scene_ix],
                    k,
                ))
                .unwrap();
        }
        server.run()
    };
    let scalar = with_backend(Backend::Portable, serve);
    assert!(scalar.frames > 0, "empty serve run");
    for &b in &backends {
        let wide = with_backend(b, serve);
        assert_eq!(wide, scalar, "{b:?}: full service report");
    }
}
