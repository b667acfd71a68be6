//! Streaming pose ingestion must be observationally equivalent to
//! whole-trajectory submission: a client that feeds its poses one at a time
//! (`push_pose`) and closes the stream gets bit-identical frames, statistics
//! and service reports — per pipeline variant, and at any host thread
//! budget. The serve layer additionally interleaves `run()` calls between
//! pose batches: partial feeds drain deterministically and the final report
//! still covers every frame exactly once.

use cicero::pipeline::{run_pipeline, PipelineConfig, PipelineSession};
use cicero::Variant;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{Fleet, FleetConfig, QosClass, ServeConfig, SessionSpec, Submission};

fn assets() -> (AnalyticScene, GridModel, Trajectory) {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    // 10 frames at window 4: windows [1,5) and [5,9) complete mid-stream,
    // frame 9 sits in a partial tail window only `close_stream` can flush.
    let traj = Trajectory::orbit(&scene, 10, 30.0);
    (scene, model, traj)
}

fn cfg(variant: Variant) -> PipelineConfig {
    PipelineConfig {
        variant,
        window: 4,
        march: MarchParams {
            step: 0.05,
            ..Default::default()
        },
        collect_quality: true, // PSNR equality ⇒ frames match too
        collect_traffic: false,
        ..Default::default()
    }
}

fn spec(name: &str, variant: Variant, offset: f64) -> SessionSpec {
    SessionSpec {
        name: name.into(),
        scene_key: "lego".into(),
        qos: QosClass::Standard,
        start_offset_s: offset,
        config: cfg(variant),
    }
}

/// Core-level: pushing poses one at a time (stepping greedily whenever the
/// window-atomic planner allows) reproduces `run_pipeline` bit for bit.
#[test]
fn push_pose_stepping_matches_run_pipeline() {
    let (scene, model, traj) = assets();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    for variant in [Variant::Sparw, Variant::Cicero] {
        let whole = run_pipeline(&scene, &model, &traj, k, &cfg(variant));
        let mut sess = PipelineSession::new_streaming(&scene, &model, traj.fps(), k, &cfg(variant));
        let mut frames = Vec::new();
        let mut outcomes = Vec::new();
        for pose in traj.poses() {
            sess.push_pose(*pose);
            while sess.can_step() {
                let step = sess.step().unwrap();
                frames.push(step.frame);
                outcomes.push(step.outcome);
            }
        }
        sess.close_stream();
        while let Some(step) = sess.step() {
            frames.push(step.frame);
            outcomes.push(step.outcome);
        }
        assert_eq!(frames, whole.frames, "{variant:?}");
        assert_eq!(outcomes.len(), whole.outcomes.len());
        for (a, b) in whole.outcomes.iter().zip(&outcomes) {
            assert_eq!(a.report.time_s, b.report.time_s, "{variant:?}");
            assert_eq!(a.psnr_db, b.psnr_db, "{variant:?}");
            assert_eq!(a.full_render, b.full_render);
        }
    }
}

/// Serve-level: a fleet mixing whole-trajectory and streaming submissions,
/// where every stream is fed pose-by-pose before the drain, reports exactly
/// like the all-whole-trajectory fleet — per variant, at budgets {1, 4}
/// (against the serial budget-0 oracle).
#[test]
fn streamed_sessions_report_identically_to_whole_trajectories() {
    let (scene, model, traj) = assets();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    for variant in [Variant::Sparw, Variant::Cicero] {
        let serve = |budget: usize, streamed: bool| {
            let mut fleet = Fleet::new(FleetConfig {
                base: ServeConfig {
                    render_threads: budget,
                    ..Default::default()
                },
                ..Default::default()
            })
            .unwrap();
            for (i, offset) in [0.0, 0.004, 0.011].into_iter().enumerate() {
                let spec = spec(&format!("s{i}"), variant, offset);
                if streamed {
                    let id = fleet
                        .submit(Submission::stream(spec, &scene, &model, traj.fps(), k))
                        .unwrap()
                        .session()
                        .unwrap();
                    for pose in traj.poses() {
                        fleet.push_pose(id, *pose).unwrap();
                    }
                    fleet.close_stream(id).unwrap();
                } else {
                    fleet
                        .submit(Submission::trajectory(spec, &scene, &model, &traj, k))
                        .unwrap();
                }
            }
            fleet.run().shards.remove(0)
        };

        let oracle = serve(0, false);
        assert_eq!(oracle.frames, 3 * traj.len());
        for budget in [0, 1, 4] {
            let streamed = serve(budget, true);
            assert_eq!(streamed.records, oracle.records, "{variant:?}/{budget}");
            assert_eq!(streamed.sessions, oracle.sessions, "{variant:?}/{budget}");
            assert_eq!(streamed.makespan_s, oracle.makespan_s, "{variant:?}");
            assert_eq!(streamed.cache, oracle.cache, "{variant:?}/{budget}");
            assert_eq!(streamed.reference_jobs, oracle.reference_jobs);
            // And the whole-trajectory fleet itself stays budget-invariant.
            let whole = serve(budget, false);
            assert_eq!(whole.records, oracle.records, "{variant:?}/{budget}");
        }
    }
}

/// Serve-level, mid-stream: `run()` between pose batches drains exactly the
/// frames whose windows are plannable, never more, and the final report
/// covers every frame once. The interleaving itself is deterministic:
/// repeating the same feed schedule reproduces the report bit-for-bit.
#[test]
fn interleaved_push_and_run_drains_incrementally_and_deterministically() {
    let (scene, model, traj) = assets();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    let run_once = || {
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        let id = fleet
            .submit(Submission::stream(
                spec("inc", Variant::Cicero, 0.0),
                &scene,
                &model,
                traj.fps(),
                k,
            ))
            .unwrap()
            .session()
            .unwrap();
        let mut frames_after = Vec::new();
        // Feed in three uneven chunks with a drain after each.
        for chunk in [&traj.poses()[0..3], &traj.poses()[3..4], &traj.poses()[4..]] {
            for pose in chunk {
                fleet.push_pose(id, *pose).unwrap();
            }
            let report = fleet.run();
            frames_after.push(report.frames);
        }
        fleet.close_stream(id).unwrap();
        let report = fleet.run().shards.remove(0);
        (frames_after, report)
    };

    let (frames_after, report) = run_once();
    // Window 4, 9 frames: after 3 poses only the bootstrap frame's window is
    // fully planned (frames 1..5 need pose 4); after 4 poses still just the
    // bootstrap; after all 9 poses frames up to the last complete window
    // drain; the close flushes the partial tail window.
    assert_eq!(frames_after[0], 1, "bootstrap drains on first run");
    assert_eq!(frames_after[1], 1, "incomplete window must not drain");
    assert!(frames_after[2] >= 5 && frames_after[2] < traj.len());
    assert_eq!(report.frames, traj.len(), "close flushes the tail");
    assert_eq!(report.records.len(), traj.len());
    // Each frame served exactly once, in trajectory order.
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.frame_index, i);
    }

    // Determinism: the identical feed schedule reproduces the report.
    let (frames_after2, report2) = run_once();
    assert_eq!(frames_after, frames_after2);
    assert_eq!(report.records, report2.records);
    assert_eq!(report.sessions, report2.sessions);
}
