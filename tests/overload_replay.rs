//! Traffic replay and SLO-aware overload control, pinned to the standing
//! determinism matrix. Contracts:
//!
//! (a) the same traffic profile replays to a **bit-identical**
//!     [`ReplayOutcome`] at host thread budgets {0, 1, 4}, shedding and
//!     backpressure included;
//! (b) a disarmed replay (overload `None`) reproduces the plain
//!     `submit`-then-`run` path **byte-for-byte** — the replay harness and
//!     the overload plumbing move nothing when off;
//! (c) an armed server under a flash crowd sheds the predicted-worst SLO
//!     risks and keeps interactive attainment at or above the reject-only
//!     baseline — degrading by choice, not by luck; under a load-bound crowd
//!     shedding plus brownout holds goodput near the best posture's and beats
//!     reject-only's interactive attainment;
//! (d) the queueing edge cases hold: a zero-capacity queue degenerates to
//!     pure backpressure, all-starved streaming sessions flush and drain
//!     once their tickets admit, and a shed spec resubmits cleanly;
//! (e) an armed [`Fleet`] diverts admissions to sibling shards with
//!     headroom before shedding, and its reports ride the same budget
//!     matrix.

use cicero::pipeline::PipelineConfig;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    run_replay, AdmissionPolicy, ArrivalProcess, Fleet, FleetConfig, LoadAdaptiveDegrade,
    OverloadControl, OverloadReport, QosClass, ReplayOptions, ReplayOutcome, ServeConfig,
    SessionSpec, Submission, SubmitOutcome, TicketState, TrafficAssets, TrafficModel,
    TrafficProfile,
};

fn grid() -> GridConfig {
    GridConfig {
        resolution: 24,
        ..Default::default()
    }
}

fn small_model(sessions: usize, arrivals: ArrivalProcess) -> TrafficModel {
    TrafficModel {
        sessions,
        duration_s: 0.4,
        arrivals,
        scenes: vec!["lego".into(), "ship".into()],
        zipf_s: 1.0,
        qos_mix: [2.0, 2.0, 1.0],
        streaming_frac: 0.25,
        frames: 5,
        base_fps: 30.0,
        fps_jitter: 0.1,
    }
}

fn armed_cfg(budget: usize, max_sessions: usize) -> ServeConfig {
    ServeConfig {
        render_threads: budget,
        admission: AdmissionPolicy {
            max_sessions,
            ..Default::default()
        },
        overload: Some(OverloadControl::default()),
        ..Default::default()
    }
}

fn replay(profile: &TrafficProfile, assets: &TrafficAssets, cfg: ServeConfig) -> ReplayOutcome {
    run_replay(
        profile,
        assets,
        &ReplayOptions {
            cfg,
            client_seed: profile.seed,
            intrinsics: Intrinsics::from_fov(24, 24, 0.9),
            // PSNR equality ⇒ pixels match too (and keeps summaries NaN-free
            // so report equality is meaningful).
            collect_quality: true,
            ..Default::default()
        },
    )
    .expect("replay absorbs backpressure and rejections")
}

/// (a) Same profile ⇒ bit-identical replay outcome across budgets {0, 1, 4},
/// with the overload machinery genuinely engaged.
#[test]
fn armed_replay_is_bit_identical_across_budgets() {
    let profile = small_model(
        12,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.4,
            width_frac: 0.15,
            crowd_frac: 0.7,
        },
    )
    .generate(42);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let serial = replay(&profile, &assets, armed_cfg(0, 3));
    assert!(
        serial.report.overload.engaged(),
        "fixture must engage the queue: {:?}",
        serial.report.overload
    );
    assert!(serial.report.frames > 0);
    for budget in [1, 4] {
        let par = replay(&profile, &assets, armed_cfg(budget, 3));
        assert_eq!(par, serial, "budget {budget}: replay outcome drifted");
    }
    // A different profile seed genuinely reschedules the workload.
    let other_profile = small_model(
        12,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.4,
            width_frac: 0.15,
            crowd_frac: 0.7,
        },
    )
    .generate(43);
    let other_assets = TrafficAssets::build(&other_profile, &grid()).unwrap();
    assert_ne!(
        replay(&other_profile, &other_assets, armed_cfg(0, 3)),
        serial
    );
}

/// (b) Disarmed replay of a whole-trajectory profile reproduces the plain
/// `submit`-then-`run` path byte-for-byte.
#[test]
fn disarmed_replay_matches_plain_submission_byte_for_byte() {
    let mut model = small_model(6, ArrivalProcess::Uniform);
    model.streaming_frac = 0.0; // the manual mirror below batch-submits
    let mut profile = model.generate(7);
    // All arrivals at t = 0: the replay then performs every submission
    // before the first service round, exactly like the historical
    // batch-submit-then-run path, so the two reports must agree down to
    // record order. (Staggered arrivals legitimately reorder records — the
    // scheduler can only batch sessions it has been told about.)
    for s in &mut profile.sessions {
        s.start_s = 0.0;
    }
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let opts = ReplayOptions {
        cfg: ServeConfig::default(),
        client_seed: profile.seed,
        intrinsics: Intrinsics::from_fov(24, 24, 0.9),
        collect_quality: true,
        ..Default::default()
    };
    let replayed = run_replay(&profile, &assets, &opts).unwrap();

    // Mirror: bake identical assets, submit every spec in arrival order
    // through the historical path, run to completion.
    let scenes: Vec<(String, AnalyticScene, GridModel)> = {
        let mut s: Vec<(String, AnalyticScene, GridModel)> = Vec::new();
        for sess in &profile.sessions {
            if !s.iter().any(|(n, _, _)| n == &sess.scene) {
                let scene = library::scene_by_name(&sess.scene).unwrap();
                let model = bake::bake_grid(&scene, &grid());
                s.push((sess.scene.clone(), scene, model));
            }
        }
        s
    };
    let trajs: Vec<Trajectory> = profile
        .sessions
        .iter()
        .map(|sess| {
            let (_, scene, _) = scenes.iter().find(|(n, _, _)| n == &sess.scene).unwrap();
            Trajectory::generate(
                scene,
                sess.frames as usize,
                sess.fps,
                match sess.path {
                    cicero_serve::PathKind::Orbit => cicero_scene::TrajectoryKind::Orbit,
                    cicero_serve::PathKind::Handheld => cicero_scene::TrajectoryKind::Handheld,
                    cicero_serve::PathKind::FlyThrough => cicero_scene::TrajectoryKind::FlyThrough,
                },
                sess.path_seed,
            )
        })
        .collect();
    let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
    for (i, sess) in profile.sessions.iter().enumerate() {
        let (_, scene, model) = scenes.iter().find(|(n, _, _)| n == &sess.scene).unwrap();
        fleet
            .submit(Submission::trajectory(
                SessionSpec {
                    name: sess.name.clone(),
                    scene_key: sess.scene.clone(),
                    qos: sess.qos,
                    start_offset_s: sess.start_s,
                    config: PipelineConfig {
                        window: if sess.qos == QosClass::Interactive {
                            4
                        } else {
                            6
                        },
                        march: MarchParams {
                            step: 0.04,
                            ..Default::default()
                        },
                        collect_quality: true,
                        collect_traffic: false,
                        ..Default::default()
                    },
                },
                scene,
                model,
                &trajs[i],
                Intrinsics::from_fov(24, 24, 0.9),
            ))
            .unwrap();
    }
    let plain = fleet.run().shards.remove(0);
    assert_eq!(
        replayed.report, plain,
        "disarmed replay drifted off the plain path"
    );
    assert_eq!(replayed.report.overload, OverloadReport::default());
    assert_eq!(replayed.client.admitted, profile.sessions.len() as u64);
    assert_eq!(replayed.client.queued + replayed.client.rejected, 0);
}

/// (c) Flash crowd against a saturated server: the armed run sheds, keeps
/// serving, and holds interactive SLO attainment at or above the reject-only
/// baseline.
#[test]
fn flash_crowd_sheds_and_holds_interactive_attainment() {
    let profile = small_model(
        16,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.3,
            width_frac: 0.1,
            crowd_frac: 0.85,
        },
    )
    .generate(11);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let mut crowd_cfg = armed_cfg(0, 2);
    crowd_cfg.overload = Some(OverloadControl {
        queue_capacity: 6,
        deadline_slack: 2.0, // tight SLO: starved entries shed, not linger
        ..Default::default()
    });
    let armed = replay(&profile, &assets, crowd_cfg);
    let baseline = replay(
        &profile,
        &assets,
        ServeConfig {
            admission: AdmissionPolicy {
                max_sessions: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    assert!(armed.report.overload.sheds > 0, "crowd must force sheds");
    assert!(
        armed.report.frames > 0,
        "shedding must not collapse service"
    );
    assert!(
        baseline.client.rejected > 0,
        "baseline must actually reject"
    );
    let interactive = QosClass::Interactive.priority() as usize;
    assert!(
        armed.attainment[interactive] >= baseline.attainment[interactive],
        "armed interactive attainment {:.3} fell below reject-only {:.3}",
        armed.attainment[interactive],
        baseline.attainment[interactive]
    );
    // Queueing + brownout admit strictly more client demand than rejection.
    assert!(
        armed.client.admitted + armed.client.queue_admitted > baseline.client.admitted,
        "queue should convert rejections into (possibly degraded) service"
    );
}

/// (c) The three overload postures over a load-bound flash crowd: admission
/// by utilisation headroom (about three full-fidelity sessions fit), not a
/// session cap, so brownout's stretched windows admit what shedding drops.
/// Reject-only rejects, shed-only sheds, shed+brownout admits degraded,
/// keeps goodput within 20 % of the best posture's and beats reject-only's
/// interactive attainment.
#[test]
fn shed_and_brownout_hold_goodput_and_beat_reject_only() {
    let mut model = small_model(
        16,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.3,
            width_frac: 0.1,
            crowd_frac: 0.85,
        },
    );
    model.scenes = ["lego", "chair", "ship", "hotdog"]
        .map(String::from)
        .to_vec();
    let profile = model.generate(11);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let posture = |overload| {
        let admission = AdmissionPolicy {
            max_utilization: 0.024,
            ..Default::default()
        };
        let cfg = ServeConfig {
            admission,
            overload,
            ..Default::default()
        };
        replay(&profile, &assets, cfg)
    };
    // A tight SLO: a short queue and half the deadline to admit in, so a
    // starved entry meets the brownout-or-shed decision instead of lingering.
    let crowd = |brownout| {
        Some(OverloadControl {
            queue_capacity: 6,
            deadline_slack: 0.5,
            brownout,
            ..Default::default()
        })
    };
    let reject = posture(None);
    let shed = posture(crowd(None));
    let brown = posture(crowd(Some(LoadAdaptiveDegrade::default())));
    assert!(reject.client.rejected > 0, "reject-only must reject");
    assert!(shed.report.overload.sheds > 0, "shed-only never shed");
    assert!(brown.report.overload.engaged(), "brownout never queued");
    assert!(
        brown.report.overload.brownout_admits > 0,
        "no degraded admission: shed+brownout is shed-only"
    );
    let peak = [&reject, &shed, &brown]
        .iter()
        .map(|out| out.goodput_fps)
        .fold(0.0, f64::max);
    assert!(
        brown.goodput_fps >= 0.8 * peak,
        "shed+brownout goodput {:.1} below 80 % of the peak {peak:.1}",
        brown.goodput_fps
    );
    let interactive = QosClass::Interactive.priority() as usize;
    assert!(
        brown.attainment[interactive] > reject.attainment[interactive],
        "shed+brownout interactive attainment {:.3} does not beat reject-only's {:.3}",
        brown.attainment[interactive],
        reject.attainment[interactive]
    );
}

/// (d) A zero-capacity queue degenerates to pure backpressure: nothing
/// enqueues, clients see `Overloaded` with retry hints and either land on a
/// retry or abandon.
#[test]
fn zero_capacity_queue_is_pure_backpressure() {
    let profile = small_model(
        10,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.2,
            width_frac: 0.05,
            crowd_frac: 0.9,
        },
    )
    .generate(5);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let cfg = ServeConfig {
        admission: AdmissionPolicy {
            max_sessions: 2,
            ..Default::default()
        },
        overload: Some(OverloadControl {
            queue_capacity: 0,
            ..Default::default()
        }),
        ..Default::default()
    };
    let out = replay(&profile, &assets, cfg);
    assert_eq!(
        out.report.overload.enqueued, 0,
        "nothing can queue at capacity 0"
    );
    assert!(out.report.overload.backpressure > 0);
    assert!(out.client.backpressured > 0);
    assert!(out.client.retries > 0, "clients honor the retry hint");
    assert_eq!(out.client.queued, 0);
    // Every submission resolved one way or another.
    assert_eq!(
        out.client.admitted + out.client.abandoned + out.client.rejected,
        out.client.submitted
    );
}

/// (d) All-streaming sessions starved behind a one-session server: queued
/// clients buffer poses, flush once their ticket admits, and the stream
/// drains to completion.
#[test]
fn starved_streams_flush_after_queue_admission() {
    let mut model = small_model(5, ArrivalProcess::Uniform);
    model.streaming_frac = 1.0;
    model.duration_s = 0.05; // everyone arrives nearly at once
    let profile = model.generate(9);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    assert!(profile.sessions.iter().all(|s| s.streaming));
    let out = replay(&profile, &assets, armed_cfg(0, 1));
    assert!(
        out.report.overload.enqueued > 0,
        "streams must starve first"
    );
    let admitted_late = out.report.overload.queue_admits + out.report.overload.brownout_admits;
    assert!(admitted_late > 0, "queued streams must eventually admit");
    assert!(out.client.poses_pushed > 0, "buffered poses must flush");
    // Every admitted stream drained frames through the server.
    assert!(out.report.frames > 0);
    for s in &out.report.sessions {
        assert!(s.frames > 0, "admitted stream {} never drained", s.name);
    }
}

/// (d) Shed-then-resubmit: the same [`SessionSpec`] is a valid submission
/// after the server shed it under pressure.
#[test]
fn shed_spec_resubmits_cleanly_once_load_drains() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(&scene, &grid());
    let traj = Trajectory::orbit(&scene, 5, 30.0);
    let spec = |name: &str| SessionSpec {
        name: name.into(),
        scene_key: "lego".into(),
        qos: QosClass::Standard,
        start_offset_s: 0.0,
        config: PipelineConfig {
            window: 4,
            march: MarchParams {
                step: 0.05,
                ..Default::default()
            },
            collect_quality: false,
            collect_traffic: false,
            ..Default::default()
        },
    };
    let mut fleet = Fleet::new(FleetConfig {
        base: ServeConfig {
            admission: AdmissionPolicy {
                max_sessions: 1,
                ..Default::default()
            },
            overload: Some(OverloadControl {
                deadline_slack: 0.5, // SLO deadline lands almost immediately
                brownout: None,      // no ladder: shed at the deadline
                ..Default::default()
            }),
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let intr = Intrinsics::from_fov(24, 24, 0.9);
    let first = fleet
        .submit(Submission::trajectory(spec("holder"), &scene, &model, &traj, intr).at(0.0))
        .unwrap();
    assert!(matches!(first, SubmitOutcome::Admitted(_)));
    let queued = fleet
        .submit(Submission::trajectory(spec("victim"), &scene, &model, &traj, intr).at(0.0))
        .unwrap();
    let SubmitOutcome::Queued(ticket) = queued else {
        panic!("second spec must queue behind max_sessions=1");
    };
    let report = fleet.run().shards.remove(0);
    assert_eq!(fleet.ticket(ticket), Some(TicketState::Shed));
    assert_eq!(report.overload.sheds, 1);
    // Load has drained; the identical spec now admits directly.
    let retry = fleet
        .submit(
            Submission::trajectory(spec("victim"), &scene, &model, &traj, intr)
                .at(report.makespan_s),
        )
        .unwrap();
    assert!(
        matches!(retry, SubmitOutcome::Admitted(_)),
        "resubmitted spec must admit on an idle fleet, got {retry:?}"
    );
    let second = fleet.run();
    assert!(
        second.frames > report.frames,
        "resubmitted session must serve"
    );
}

/// (e) An armed fleet diverts admissions to a sibling shard with headroom
/// before shedding, and the fleet report stays bit-identical across budgets.
#[test]
fn fleet_diverts_before_shedding_and_stays_deterministic() {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(&scene, &grid());
    let traj = Trajectory::orbit(&scene, 5, 30.0);
    let intr = Intrinsics::from_fov(24, 24, 0.9);
    let run_fleet = |budget: usize| {
        let mut fleet = Fleet::new(FleetConfig {
            shards: 2,
            base: armed_cfg(budget, 1),
            ..Default::default()
        })
        .unwrap();
        // Same scene ⇒ same primary shard under scene-hash routing; the
        // second admission must divert to the idle sibling instead of
        // queueing behind max_sessions=1.
        for i in 0..2 {
            let outcome = fleet
                .submit(
                    Submission::trajectory(
                        SessionSpec {
                            name: format!("s{i}"),
                            scene_key: "lego".into(),
                            qos: QosClass::Standard,
                            start_offset_s: 0.002 * i as f64,
                            config: PipelineConfig {
                                window: 4,
                                march: MarchParams {
                                    step: 0.05,
                                    ..Default::default()
                                },
                                collect_quality: true,
                                collect_traffic: false,
                                ..Default::default()
                            },
                        },
                        &scene,
                        &model,
                        &traj,
                        intr,
                    )
                    .at(0.0),
                )
                .unwrap();
            assert!(
                matches!(outcome, SubmitOutcome::Admitted(_)),
                "session {i} should admit (diverted if needed), got {outcome:?}"
            );
        }
        fleet.run()
    };
    let serial = run_fleet(0);
    assert_eq!(serial.diversions, 1, "second admission must divert");
    let shard_diversions: u64 = serial.shards.iter().map(|s| s.overload.diversions).sum();
    let shard_sheds: u64 = serial.shards.iter().map(|s| s.overload.sheds).sum();
    assert_eq!(
        shard_diversions, 1,
        "the primary shard records the diversion"
    );
    assert_eq!(shard_sheds, 0, "diversion avoids the shed");
    for budget in [1, 4] {
        assert_eq!(run_fleet(budget), serial, "budget {budget}: fleet drifted");
    }
}

/// (b)+(a) Underloaded armed replay differs from disarmed only in the
/// overload accounting block — the queue's presence alone moves no frame.
#[test]
fn idle_overload_control_moves_nothing_but_its_own_accounting() {
    let mut model = small_model(4, ArrivalProcess::Uniform);
    model.streaming_frac = 0.0;
    let profile = model.generate(3);
    let assets = TrafficAssets::build(&profile, &grid()).unwrap();
    let armed = replay(&profile, &assets, armed_cfg(0, 64));
    let disarmed = replay(&profile, &assets, ServeConfig::default());
    assert!(
        !armed.report.overload.engaged(),
        "fixture must stay underloaded"
    );
    let mut armed_scrubbed = armed.clone();
    armed_scrubbed.report.overload = OverloadReport::default();
    let mut disarmed_scrubbed = disarmed.clone();
    disarmed_scrubbed.report.overload = OverloadReport::default();
    assert_eq!(
        armed_scrubbed, disarmed_scrubbed,
        "idle overload control must be invisible outside its report"
    );
}
