//! Tile-parallel rendering and warping must be *bit-identical* to the
//! sequential paths — for every thread count, model family and pipeline
//! variant — and so must everything the persistent worker pool's lifecycle
//! does: worker reuse across frames and sessions, resizes mid-run, and the
//! serve scheduler stepping many sessions concurrently on one pool, under
//! every policy and with telemetry recording. This is the contract that
//! makes `render_threads` a pure wall-clock knob.
//!
//! Each frame-path test is `check` of its rows of `tests/frame_matrix.rs`,
//! held to the per-sample oracle, the serial warp or a serial pipeline. The
//! serve tests compare whole service reports against serial (budget 0)
//! stepping; they hold the matrix's lock, since its rows move the
//! process-wide backend cap.

#[path = "frame_matrix.rs"]
mod frame_matrix;

use cicero::pipeline::{run_pipeline, PipelineConfig};
use cicero::Variant;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    Fleet, FleetConfig, IdleWorkerPrefetch, LoadAdaptiveDegrade, Policies, QosClass, SceneAffinity,
    ServeConfig, ServiceReport, SessionSpec, Submission,
};
use cicero_telemetry as telemetry;
use frame_matrix::{check, pipeline, target, warp, Case, Pool, ALL, BASE, GRID, PHI, WARP};
use std::sync::OnceLock;

const EIGHT: Case = Case { lanes: 8, ..BASE };
const REUSE: Case = Case {
    pool: Pool::Reuse,
    ..EIGHT
};

#[test]
fn tiled_render_is_bit_identical_across_scenes_models_and_threads() {
    check(&[
        (
            "2 lanes, 1-row bands",
            GRID,
            Case {
                lanes: 2,
                tile_rows: 1,
                ..BASE
            },
        ),
        ("3 lanes", GRID, Case { lanes: 3, ..BASE }),
        ("8 lanes", ALL, EIGHT),
    ]);
}

/// On the 47² warp pair, eight lanes split the reference into bands whose
/// splats meet in one target pixel, and five lanes end target bands in
/// 1-lane tails on φ-rejected pixels.
#[test]
fn parallel_warp_is_bit_identical_across_scenes_and_threads() {
    #[rustfmt::skip]
    check(&[
        ("warp", ALL, warp(WARP, BASE)),
        ("warp phi", GRID, warp(PHI, BASE)),
        ("warp 2 lanes", GRID, warp(WARP, Case { lanes: 2, ..BASE })),
        ("warp 3 lanes", GRID, warp(WARP, Case { lanes: 3, ..BASE })),
        ("warp 8 lanes", ALL, warp(WARP, EIGHT)),
        ("warp phi, 8 lanes", ALL, warp(PHI, EIGHT)),
        ("warp phi, 5 lanes", ALL, warp(PHI, Case { lanes: 5, ..BASE })),
    ]);
}

/// One target frame — the warp, then the sparse render of its holes into
/// the warped frame — held to the serial warp and the per-sample oracle
/// over its mask: frame, warp stats, render stats and sink stream, on one,
/// three and eight lanes, into an observing sink and `NullSink`, and
/// through a warm pool and scratch.
#[test]
fn target_frames_are_bit_identical_across_threads_and_pool_reuse() {
    #[rustfmt::skip]
    check(&[
        ("target", ALL, target(WARP, BASE)),
        ("target phi", GRID, target(PHI, BASE)),
        ("target phi, 3 lanes", GRID, target(PHI, Case { lanes: 3, ..BASE })),
        ("target 8 lanes", ALL, target(WARP, EIGHT)),
        ("target 8 lanes, NullSink", GRID, target(WARP, Case { observe: false, ..EIGHT })),
        ("target phi, pool reuse", GRID, target(PHI, REUSE)),
    ]);
}

#[test]
fn pipeline_runs_are_bit_identical_across_thread_counts() {
    #[rustfmt::skip]
    check(&[
        ("pipeline 3 lanes", GRID, pipeline(Variant::Cicero, Case { lanes: 3, ..BASE })),
        ("pipeline sparw, 2 lanes", GRID, pipeline(Variant::Sparw, Case { lanes: 2, ..BASE })),
    ]);
}

/// The memory simulators replay the gather stream; tile traces must hand
/// them the exact sequential order or the modeled timings would drift.
#[test]
fn traffic_collection_is_deterministic_under_parallel_rendering() {
    check(&[
        ("pipeline 8 lanes", ALL, pipeline(Variant::Sparw, EIGHT)),
        (
            "pipeline cicero, 8 lanes",
            GRID,
            pipeline(Variant::Cicero, EIGHT),
        ),
    ]);
}

/// The persistent pool's workers (and their thread-local scratches) serve
/// every frame of every session; reuse across frames, interleaved sessions
/// and whole-session lifetimes must never leak state into the output.
#[test]
fn pool_reuse_across_frames_and_sessions_is_bit_identical() {
    check(&[
        ("pool reuse", GRID, REUSE),
        ("warp pool reuse", GRID, warp(WARP, REUSE)),
        ("pipeline pool reuse", GRID, pipeline(Variant::Sparw, REUSE)),
        (
            "pipeline cicero, pool reuse",
            GRID,
            pipeline(Variant::Cicero, REUSE),
        ),
    ]);
}

/// Resizing the pool mid-run — capping it to zero (every pass degrades to
/// inline), regrowing it, shrinking between frames — must never change a
/// pixel or a warped frame.
#[test]
fn pool_resize_mid_run_keeps_output_bit_identical() {
    let resize = Case {
        pool: Pool::Resize,
        ..BASE
    };
    check(&[
        ("pool resize", GRID, Case { lanes: 8, ..resize }),
        (
            "warp pool resize",
            GRID,
            warp(WARP, Case { lanes: 6, ..resize }),
        ),
    ]);
}

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

/// Lego and ship (grid 24³, an eight-frame orbit each): what the budget
/// tests serve, baked once per binary.
struct Assets {
    scenes: [AnalyticScene; 2],
    models: [GridModel; 2],
    trajectories: [Trajectory; 2],
}

fn assets() -> &'static Assets {
    static ASSETS: OnceLock<Assets> = OnceLock::new();
    ASSETS.get_or_init(|| {
        let scenes = ["lego", "ship"].map(|name| library::scene_by_name(name).unwrap());
        let grid = GridConfig {
            resolution: 24,
            ..Default::default()
        };
        Assets {
            models: [0, 1].map(|i| bake::bake_grid(&scenes[i], &grid)),
            trajectories: [0, 1].map(|i| Trajectory::orbit(&scenes[i], 8, 30.0)),
            scenes,
        }
    })
}

/// Six Cicero sessions over lego and ship at 24² served under `cfg`:
/// co-located pairs share references, QoS classes contend, offsets stagger
/// the ready batches. Returns how many sessions were admitted (a saturating
/// admission policy refuses some) and the report.
fn serve_six(cfg: ServeConfig) -> (usize, ServiceReport) {
    let assets = assets();
    let mut fleet = Fleet::new(FleetConfig {
        base: cfg,
        ..Default::default()
    })
    .unwrap();
    let mut admitted = 0;
    for (i, (qos, ix, offset)) in [
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
            scene_key: ["lego", "ship"][ix].into(),
            qos,
            start_offset_s: offset,
            config: PipelineConfig {
                window: 4,
                collect_quality: true, // PSNR equality ⇒ frames match too
                ..fast_cfg(Variant::Cicero, 1)
            },
        };
        let submission = Submission::trajectory(
            spec,
            &assets.scenes[ix],
            &assets.models[ix],
            &assets.trajectories[ix],
            Intrinsics::from_fov(24, 24, 0.9),
        );
        admitted += usize::from(fleet.submit(submission).is_ok());
    }
    (admitted, fleet.run().shards.remove(0))
}

/// The serve scheduler steps ready batches concurrently when given a host
/// thread budget; every budget must reproduce the serial (budget 0) service
/// report **exactly** — records, latencies, PSNR, cache counters, timeline.
#[test]
fn concurrent_multi_session_serving_matches_serial_stepping() {
    let _serial = frame_matrix::lock();
    let serve_with = |budget: usize| {
        let cfg = ServeConfig {
            render_threads: budget,
            ..Default::default()
        };
        serve_six(cfg).1
    };
    let serial = serve_with(0);
    assert_eq!(serial.frames, 6 * 8);
    for budget in [1, 2, 3, 8] {
        assert!(
            serve_with(budget) == serial,
            "budget {budget}: the service report differs from serial stepping's"
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
    let _serial = frame_matrix::lock();
    let policies_for = |name: &str| -> Policies {
        match name {
            "affinity" => Policies {
                placement: SceneAffinity { lanes: 2 },
                ..Default::default()
            },
            "degrade" => Policies {
                qos: Some(LoadAdaptiveDegrade {
                    max_window: 16,
                    min_resolution: 8,
                }),
                ..Default::default()
            },
            "prefetch" => Policies {
                prefetch: Some(IdleWorkerPrefetch::default()),
                ..Default::default()
            },
            other => panic!("unknown policy {other}"),
        }
    };

    for policy in ["affinity", "degrade", "prefetch"] {
        let serve_with = |budget: usize| {
            serve_six(ServeConfig {
                render_threads: budget,
                policies: policies_for(policy),
                // Tight enough that the degrade ladder actually engages for
                // later sessions (and the default would reject them).
                admission: cicero_serve::AdmissionPolicy {
                    max_utilization: if policy == "degrade" { 0.012 } else { 0.85 },
                    ..Default::default()
                },
                ..Default::default()
            })
        };

        let (admitted, serial) = serve_with(0);
        assert!(admitted >= 1, "{policy}: at least one session admitted");
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
            assert!(
                par == serial,
                "{policy}: budget {budget}: the service report differs from serial stepping's"
            );
        }
    }
}

/// Telemetry is **observe-only**: flipping the recorder on must not move a
/// single bit of a pipeline run or a service report at host thread budgets 1
/// and 4. Spans and counters read the pipeline; nothing in the pipeline
/// reads them back. The render and the warp under the recorder, one-lane
/// block and ring overflow included, are this test's rows of
/// `tests/frame_matrix.rs`; the pipeline and server legs hold the matrix's
/// lock, which serializes everything that moves the recorder.
#[test]
fn telemetry_on_is_bit_identical_to_off() {
    #[rustfmt::skip]
    check(&[
        ("telemetry on", GRID, Case { telemetry: true, ..BASE }),
        ("telemetry on, block 1", GRID, Case { telemetry: true, block: 1, ..BASE }),
        ("telemetry on, 4 lanes, block 1", GRID, Case { telemetry: true, lanes: 4, block: 1, ..BASE }),
        ("warp telemetry on", GRID, warp(WARP, Case { telemetry: true, ..BASE })),
    ]);
    let _serial = frame_matrix::lock();
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
        let mut fleet = Fleet::new(FleetConfig {
            base: ServeConfig {
                render_threads: threads,
                policies: Policies {
                    prefetch: Some(IdleWorkerPrefetch::default()),
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
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
            fleet
                .submit(Submission::trajectory(spec, &scene, &model, &traj, k))
                .unwrap();
        }
        fleet.run()
    };

    for threads in [1usize, 4] {
        assert!(!telemetry::is_enabled());
        let pipe_off = pipeline_with(threads);
        let serve_off = serve_with(threads);

        telemetry::enable();
        let pipe_on = pipeline_with(threads);
        let serve_on = serve_with(threads);
        telemetry::disable();
        telemetry::reset();

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
