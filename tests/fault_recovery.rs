//! Chaos must be as reproducible as everything else: a seeded [`FaultPlan`]
//! is part of the workload, so the standing serve invariant — bit-identical
//! [`ServiceReport`]s at any host thread budget — extends to runs where
//! workers crash, caches corrupt and pose streams stall. Four contracts:
//!
//! (a) the same fault seed produces the **same full report** (records,
//!     latencies, cache stats, fault accounting) across budgets {0, 1, 4};
//! (b) an armed plan whose rates are all zero is **byte-identical** to an
//!     un-armed server — the injector's presence alone moves nothing;
//! (c) the recovery ladder's stale-warp rung only ever falls back to
//!     references within the policy's pose-error radius, and the resulting
//!     frames keep a sane PSNR — Cicero's warping math is the recovery
//!     primitive, not a quality cliff;
//! (d) streaming sessions survive injected pose stalls and drops, drain
//!     incrementally, and reproduce bit-for-bit when the feed is repeated.

use cicero::pipeline::PipelineConfig;
use cicero::Variant;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::{Intrinsics, Pose, Vec3};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    FaultPlan, FaultReport, Fleet, FleetConfig, QosClass, RetryWithBackoff, ServeConfig,
    ServiceReport, SessionSpec, Submission,
};

fn assets(name: &str, frames: usize) -> (AnalyticScene, GridModel, Trajectory) {
    let scene = library::scene_by_name(name).unwrap();
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    let traj = Trajectory::orbit(&scene, frames, 30.0);
    (scene, model, traj)
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        variant: Variant::Cicero,
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

fn spec(name: &str, qos: QosClass, offset: f64) -> SessionSpec {
    SessionSpec {
        name: name.into(),
        scene_key: "lego".into(),
        qos,
        start_offset_s: offset,
        config: cfg(),
    }
}

/// A mixed fleet — four whole-trajectory sessions across two scenes plus one
/// streamed session fed pose-by-pose — served under `faults` at `budget`.
fn serve_fleet(faults: Option<FaultPlan>, budget: usize) -> ServiceReport {
    let (lego, lego_model, lego_traj) = assets("lego", 8);
    let (ship, ship_model, ship_traj) = assets("ship", 8);
    let mut fleet = Fleet::new(FleetConfig {
        base: ServeConfig {
            render_threads: budget,
            faults,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    for (i, (qos, on_lego, offset)) in [
        (QosClass::Interactive, true, 0.0),
        (QosClass::Standard, true, 0.004),
        (QosClass::Standard, false, 0.006),
        (QosClass::BestEffort, false, 0.013),
    ]
    .into_iter()
    .enumerate()
    {
        let mut spec = spec(&format!("s{i}"), qos, offset);
        let (scene, model, traj) = if on_lego {
            (&lego, &lego_model, &lego_traj)
        } else {
            spec.scene_key = "ship".into();
            (&ship, &ship_model, &ship_traj)
        };
        fleet
            .submit(Submission::trajectory(
                spec,
                scene,
                model,
                traj,
                Intrinsics::from_fov(24, 24, 0.9),
            ))
            .unwrap();
    }
    let id = fleet
        .submit(Submission::stream(
            spec("stream", QosClass::Standard, 0.009),
            &lego,
            &lego_model,
            lego_traj.fps(),
            Intrinsics::from_fov(24, 24, 0.9),
        ))
        .unwrap()
        .session()
        .unwrap();
    for pose in lego_traj.poses() {
        fleet.push_pose(id, *pose).unwrap();
    }
    fleet.close_stream(id).unwrap();
    fleet.run().shards.remove(0)
}

/// (a) Same fault seed ⇒ bit-identical full service report — fault
/// accounting included — across host thread budgets {0, 1, 4}.
#[test]
fn faulted_reports_are_bit_identical_across_budgets() {
    let plan = FaultPlan::with_rate(42, 0.1);
    let serial = serve_fleet(Some(plan), 0);
    assert!(
        serial.faults.injected() > 0,
        "fixture must actually inject faults"
    );
    assert!(
        serial.faults.recoveries() > 0,
        "fixture must actually recover"
    );
    assert!(serial.frames > 0);
    for budget in [1, 4] {
        let par = serve_fleet(Some(plan), budget);
        assert_eq!(par, serial, "budget {budget}: chaos run drifted");
    }
    // And a different seed genuinely reschedules the chaos.
    let other = serve_fleet(Some(FaultPlan::with_rate(43, 0.1)), 0);
    assert_ne!(
        (
            serial.faults.worker_crashes,
            serial.faults.stragglers,
            serial.faults.cache_corruptions,
            serial.faults.pose_stalls,
            serial.faults.pose_drops,
        ),
        (
            other.faults.worker_crashes,
            other.faults.stragglers,
            other.faults.cache_corruptions,
            other.faults.pose_stalls,
            other.faults.pose_drops,
        ),
        "different seeds must inject different schedules"
    );
}

/// (b) An armed zero-rate plan serves **byte-identically** to an un-armed
/// server: the injector's plumbing alone must not move a bit, and its
/// report must be exactly the default.
#[test]
fn zero_fault_plan_matches_unarmed_server_byte_for_byte() {
    for budget in [0usize, 4] {
        let unarmed = serve_fleet(None, budget);
        let armed = serve_fleet(Some(FaultPlan::zero(42)), budget);
        assert_eq!(armed, unarmed, "budget {budget}: zero-rate plan drifted");
        assert_eq!(armed.faults, FaultReport::default());
        assert_eq!(armed.faults.availability, 1.0);
    }
}

/// (c) The stale-warp rung: a session whose fresh renders always crash falls
/// back to cached references a co-located session planted nearby. Every
/// fallback must stay within the recovery policy's pose-error radius and the
/// recovered frames keep a usable PSNR.
#[test]
fn fallback_warps_stay_within_radius_and_psnr_floor() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 24,
            ..Default::default()
        },
    );
    let k = Intrinsics::from_fov(24, 24, 0.9);
    // Only crashes, always: every demand render attempt dies, so off-stream
    // references exhaust their retries and take rung two (stale warp)
    // whenever the cache holds anything in radius, rung three (degraded
    // re-render) otherwise.
    let mut plan = FaultPlan::zero(9);
    plan.crash_rate = 1.0;

    // A brisk lateral dolly: 0.1 world units per frame means the
    // velocity-extrapolated off-stream references (window 4, horizon 6)
    // land ~1.0 away from the bootstrap — far outside the recovery
    // policy's 0.75 stale radius, so the planter's crashed references
    // must take rung three, planting cache entries at the extrapolated
    // poses. The faller walks the same dolly shifted 0.08 in x: past the
    // cache's 0.05 position quantum (its demand lookups miss) but well
    // inside the stale radius of the planter's entries, so its crashed
    // references recover via rung two at pose error ≈ 0.08.
    let dolly = |shift: f32| {
        Trajectory::from_poses(
            (0..16)
                .map(|i| {
                    Pose::look_at(
                        Vec3::new(-0.8 + 0.1 * i as f32 + shift, 1.2, -2.6),
                        Vec3::ZERO,
                        Vec3::Y,
                    )
                })
                .collect::<Vec<Pose>>(),
            30.0,
        )
    };
    let traj = dolly(0.0);
    let shifted = dolly(0.08);
    let mut fleet = Fleet::new(FleetConfig {
        base: ServeConfig {
            faults: Some(plan),
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    fleet
        .submit(Submission::trajectory(
            spec("planter", QosClass::Standard, 0.0),
            &scene,
            &model,
            &traj,
            k,
        ))
        .unwrap();
    fleet
        .submit(Submission::trajectory(
            spec("faller", QosClass::Standard, 0.004),
            &scene,
            &model,
            &shifted,
            k,
        ))
        .unwrap();
    let report = fleet.run().shards.remove(0);

    assert!(
        report.faults.degraded_rerenders >= 1,
        "the planter's empty-cache crashes must take rung three"
    );
    assert!(
        report.faults.fallback_warps >= 1,
        "the shifted session must recover at least one reference via rung two"
    );
    assert_eq!(
        report.faults.fallbacks.len() as u64,
        report.faults.fallback_warps
    );
    let policy = RetryWithBackoff::default();
    for fb in &report.faults.fallbacks {
        assert!(
            fb.pos_error <= policy.stale_pos_radius,
            "fallback {fb:?} outside the position radius"
        );
        assert!(
            fb.rot_error <= policy.stale_rot_radius,
            "fallback {fb:?} outside the rotation radius"
        );
    }
    // The recovered session still produces usable frames: warping from a
    // reference 0.08 away degrades quality, it must not destroy it.
    let faller = &report.sessions[1];
    assert_eq!(faller.frames, traj.len());
    assert!(
        faller.mean_psnr_db.is_finite() && faller.mean_psnr_db > 12.0,
        "fallback-warped session PSNR collapsed: {} dB",
        faller.mean_psnr_db
    );
    // And the chaos run stays budget-deterministic even at rate 1.
    let rerun = || {
        let mut fleet = Fleet::new(FleetConfig {
            base: ServeConfig {
                render_threads: 4,
                faults: Some(plan),
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        fleet
            .submit(Submission::trajectory(
                spec("planter", QosClass::Standard, 0.0),
                &scene,
                &model,
                &traj,
                k,
            ))
            .unwrap();
        fleet
            .submit(Submission::trajectory(
                spec("faller", QosClass::Standard, 0.004),
                &scene,
                &model,
                &shifted,
                k,
            ))
            .unwrap();
        fleet.run().shards.remove(0)
    };
    assert_eq!(rerun(), report, "rate-1 chaos drifted across budgets");
}

/// (d) Streaming under chaos: injected stalls shift arrivals, injected drops
/// shrink the session, and the interleaved push/run schedule both drains
/// every delivered pose exactly once and reproduces bit-for-bit.
#[test]
fn streaming_sessions_survive_stalls_and_resume_bit_identically() {
    let (scene, model, traj) = assets("lego", 10);
    let k = Intrinsics::from_fov(24, 24, 0.9);
    // Stall-heavy mix with occasional drops; no worker faults, so every
    // difference from a fault-free run is ingest-side.
    let mut plan = FaultPlan::zero(11);
    plan.stall_rate = 0.5;
    plan.stall_s = 0.05;
    plan.drop_rate = 0.15;

    let run_once = |budget: usize| {
        let mut fleet = Fleet::new(FleetConfig {
            base: ServeConfig {
                render_threads: budget,
                faults: Some(plan),
                ..Default::default()
            },
            ..Default::default()
        })
        .unwrap();
        let id = fleet
            .submit(Submission::stream(
                spec("chaotic", QosClass::Standard, 0.0),
                &scene,
                &model,
                traj.fps(),
                k,
            ))
            .unwrap()
            .session()
            .unwrap();
        // Uneven chunks with a drain between each: the session must keep
        // making progress around the stalls, not just after the close.
        let mut drained = Vec::new();
        for chunk in [&traj.poses()[0..3], &traj.poses()[3..7], &traj.poses()[7..]] {
            for pose in chunk {
                fleet.push_pose(id, *pose).unwrap();
            }
            drained.push(fleet.run().frames);
        }
        fleet.close_stream(id).unwrap();
        (drained, fleet.run().shards.remove(0))
    };

    let (drained, report) = run_once(0);
    assert!(
        report.faults.pose_stalls > 0,
        "fixture must actually stall poses"
    );
    assert!(
        report.faults.pose_drops > 0,
        "fixture must actually drop poses"
    );
    // Every delivered pose is served exactly once; dropped poses shrink the
    // session instead of wedging it.
    assert_eq!(
        report.frames as u64 + report.faults.pose_drops,
        traj.len() as u64,
        "drops and served frames must partition the feed"
    );
    assert!(
        drained[2] > drained[0],
        "stalled stream stopped draining mid-feed"
    );
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.frame_index, i, "frame served out of order after drops");
    }

    // Bit-identical on repeat, and across host budgets.
    for budget in [0usize, 1, 4] {
        let (drained2, report2) = run_once(budget);
        assert_eq!(drained2, drained, "budget {budget}: drain schedule drifted");
        assert_eq!(report2, report, "budget {budget}: chaos stream drifted");
    }
}
