//! Fleet fault domains and failover determinism. Five contracts:
//!
//! (a) a fleet of one shard with zero shard faults is **byte-identical** to a
//!     bare [`FrameServer`] — the fleet layer's presence alone moves
//!     nothing, fault plan armed or not, overload queue engaged or not;
//! (b) a mid-run [`ShardCrash`](cicero_serve::FaultKind::ShardCrash) drains
//!     the dead shard's live sessions onto survivors and the migrated
//!     session's frames are **bit-identical** to a fault-free run — failover
//!     changes *when* frames serve, never their pixels;
//! (c) the whole [`FleetReport`](cicero_serve::FleetReport) — per-shard
//!     reports, migrations, availability — reproduces bit-for-bit across
//!     host thread budgets {0, 1, 4};
//! (d) a shard that dies with no survivor loses its live sessions: their
//!     unserved frames count against availability and touching them surfaces
//!     [`ServeError::SessionLost`](cicero_serve::ServeError), not a panic;
//! (e) submissions that **queue** on a fleet resolve through fleet-level
//!     tickets to fleet-level ids, a queued stream flushes its buffered poses
//!     through that id — and when their shard dies first, the tickets read
//!     `Shed` with their demand accounted while the shard's admitted sessions
//!     migrate, bit-identically across budgets.

use cicero::pipeline::PipelineConfig;
use cicero::Variant;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::{Intrinsics, Pose, Vec3};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    AdmissionPolicy, FaultKind, FaultPlan, Fleet, FleetConfig, FleetReport, FrameServer,
    OverloadControl, QosClass, ServeConfig, ServeError, ServiceReport, SessionSpec, SessionSummary,
    Submission, SubmitOutcome, TicketState,
};
use std::ops::RangeInclusive;

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

fn spec(name: &str, scene_key: &str, qos: QosClass, offset: f64) -> SessionSpec {
    SessionSpec {
        name: name.into(),
        scene_key: scene_key.into(),
        qos,
        start_offset_s: offset,
        config: cfg(),
    }
}

/// First heartbeat index at which `threshold` consecutive misses declare
/// `shard` dead under `plan`, scanning `horizon` beats — the same consecutive
/// logic the fleet's health model runs, usable to pre-scan seeds.
fn shard_death_beat(plan: &FaultPlan, shard: u64, horizon: u64, threshold: u32) -> Option<u64> {
    let mut misses = 0u32;
    for k in 0..horizon {
        if plan.fires(FaultKind::ShardCrash, shard, k, 0) {
            misses += 1;
            if misses >= threshold {
                return Some(k);
            }
        } else {
            misses = 0;
        }
    }
    None
}

/// (a) Fleet of one, zero shard faults ⇒ byte-for-byte a bare server, both
/// un-armed and with an armed zero-rate plan.
#[test]
fn fleet_of_one_is_byte_identical_to_bare_server() {
    let (lego, lego_model, lego_traj) = assets("lego", 8);
    let (ship, ship_model, ship_traj) = assets("ship", 8);
    let submissions = [
        ("a", "lego", QosClass::Interactive, 0.0),
        ("b", "lego", QosClass::Standard, 0.004),
        ("c", "ship", QosClass::Standard, 0.006),
        ("d", "ship", QosClass::BestEffort, 0.013),
    ];
    for faults in [None, Some(FaultPlan::zero(42))] {
        let serve_cfg = ServeConfig {
            faults,
            ..Default::default()
        };
        let mut bare = FrameServer::new(serve_cfg.clone());
        let mut fleet = Fleet::new(FleetConfig {
            shards: 1,
            base: serve_cfg,
            ..Default::default()
        })
        .unwrap();
        for (name, scene_key, qos, offset) in submissions {
            let s = spec(name, scene_key, qos, offset);
            let (scene, model, traj) = if scene_key == "lego" {
                (&lego, &lego_model, &lego_traj)
            } else {
                (&ship, &ship_model, &ship_traj)
            };
            let k = Intrinsics::from_fov(24, 24, 0.9);
            bare.submit(Submission::trajectory(s.clone(), scene, model, traj, k))
                .unwrap();
            fleet
                .submit(Submission::trajectory(s, scene, model, traj, k))
                .unwrap();
        }
        // A streamed session fed pose-by-pose through both front doors.
        let k = Intrinsics::from_fov(24, 24, 0.9);
        let s = spec("stream", "lego", QosClass::Standard, 0.009);
        let bare_id = bare
            .submit(Submission::stream(
                s.clone(),
                &lego,
                &lego_model,
                lego_traj.fps(),
                k,
            ))
            .unwrap()
            .session()
            .unwrap();
        let fleet_id = fleet
            .submit(Submission::stream(
                s,
                &lego,
                &lego_model,
                lego_traj.fps(),
                k,
            ))
            .unwrap()
            .session()
            .unwrap();
        for pose in lego_traj.poses() {
            bare.push_pose(bare_id, *pose).unwrap();
            fleet.push_pose(fleet_id, *pose).unwrap();
        }
        bare.close_stream(bare_id).unwrap();
        fleet.close_stream(fleet_id).unwrap();
        let oracle = bare.run();
        let report = fleet.run();
        assert_eq!(
            report.shards[0],
            oracle,
            "armed={}: fleet of one drifted from the bare server",
            faults.is_some()
        );
        assert_eq!(report.frames, oracle.frames);
        assert_eq!(report.availability, 1.0);
        assert_eq!(report.shard_crashes, 0);
        assert!(report.migrations.is_empty());
        assert_eq!(report.alive_shards, 1);
    }
}

/// Overload control armed over one session slot per server: whatever arrives
/// while the slot is held queues.
fn one_slot_cfg(budget: usize, deadline_slack: f64, faults: Option<FaultPlan>) -> ServeConfig {
    ServeConfig {
        render_threads: budget,
        faults,
        admission: AdmissionPolicy {
            max_sessions: 1,
            ..Default::default()
        },
        overload: Some(OverloadControl {
            deadline_slack,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// (a) with the queue engaged: five timed submissions of mixed QoS, 10 ms
/// apart, against one session slot — one holds it, four queue. At slack 8.0
/// the queued entries admit as the slot frees (the fits rung); at 2.0 and 0.5
/// SLO admission deadlines arrive first (the brownout rung, which under a
/// session cap ends in a shed). Same outcomes, same ticket resolutions, same
/// report, byte for byte: a fleet of one pumps its queue when a bare server
/// does.
#[test]
fn armed_fleet_of_one_is_byte_identical_with_the_queue_engaged() {
    let (lego, lego_model, lego_traj) = assets("lego", 8);
    let k = Intrinsics::from_fov(24, 24, 0.9);
    let classes = [
        QosClass::Standard,
        QosClass::Interactive,
        QosClass::BestEffort,
        QosClass::Standard,
        QosClass::Interactive,
    ];
    // The figures the fleet's own pump order used to move, up front so that
    // a failure reads as numbers before it reads as two whole reports.
    let headline = |r: &ServiceReport| {
        let o = &r.overload;
        (
            r.makespan_s,
            o.max_queue_wait_s,
            o.goodput_fps,
            r.deadline_misses,
            (o.queue_admits, o.brownout_admits, o.sheds),
        )
    };
    let (mut admits, mut sheds) = (0, 0);
    for slack in [8.0, 2.0, 0.5] {
        let mut bare = FrameServer::new(one_slot_cfg(0, slack, None));
        let mut fleet = Fleet::new(FleetConfig {
            shards: 1,
            base: one_slot_cfg(0, slack, None),
            ..Default::default()
        })
        .unwrap();
        let mut tickets = Vec::new();
        for (i, qos) in classes.into_iter().enumerate() {
            let s = spec(&format!("s{i}"), "lego", qos, 0.01 * i as f64);
            let sub = Submission::trajectory(s, &lego, &lego_model, &lego_traj, k);
            let outcome = bare.submit(sub.clone()).unwrap();
            assert_eq!(
                fleet.submit(sub).unwrap(),
                outcome,
                "slack {slack}: submission {i}"
            );
            if let SubmitOutcome::Queued(ticket) = outcome {
                tickets.push(ticket);
            }
        }
        assert_eq!(tickets.len(), 4, "one holder, four queued");
        let oracle = bare.run();
        let report = fleet.run();
        assert_eq!(
            headline(&report.shards[0]),
            headline(&oracle),
            "slack {slack}: (makespan, max queue wait, goodput, misses, rungs) fleet vs bare"
        );
        assert_eq!(
            report.shards[0], oracle,
            "slack {slack}: armed fleet of one drifted from the bare server"
        );
        for ticket in tickets {
            assert_ne!(bare.ticket(ticket), Some(TicketState::Pending));
            assert_eq!(
                fleet.ticket(ticket),
                bare.ticket(ticket),
                "slack {slack}: ticket {ticket}"
            );
        }
        admits += oracle.overload.queue_admits;
        sheds += oracle.overload.sheds;
    }
    assert!(admits > 0, "the fits rung never fired");
    assert!(sheds > 0, "the deadline rung never fired");
}

/// A seed whose base plan kills shard 0 early (death beat within `beats`:
/// `1..=5` is within the first ~0.3 s at a 0.05 s heartbeat) while shard 1
/// outlives the whole run. Pure hashing — the scan costs microseconds.
fn crash_seed(rate: f64, beats: RangeInclusive<u64>) -> u64 {
    (0..20_000u64)
        .find(|&seed| {
            let mut plan = FaultPlan::zero(seed);
            plan.shard_crash_rate = rate;
            matches!(shard_death_beat(&plan, 0, 24, 1), Some(k) if beats.contains(&k))
                && shard_death_beat(&plan, 1, 24, 1).is_none()
        })
        .expect("some seed kills shard 0 early and spares shard 1")
}

/// A lateral dolly that never revisits a pose cell: 0.1 world units per
/// frame is past the reference cache's 0.05 position quantum, and — unlike
/// a closing orbit — its extrapolated references can never wrap back into
/// the start pose's cell and score a self-hit. The failover fixture needs
/// the victim's hit count pinned at zero so PSNR equality proves pixel
/// equality.
fn dolly(frames: usize) -> Trajectory {
    Trajectory::from_poses(
        (0..frames)
            .map(|i| {
                Pose::look_at(
                    Vec3::new(-0.8 + 0.1 * i as f32, 1.2, -2.6),
                    Vec3::ZERO,
                    Vec3::Y,
                )
            })
            .collect::<Vec<Pose>>(),
        30.0,
    )
}

/// The failover fixture: two shards, the victim session isolated in its own
/// scene on shard 0, a longer-lived bystander on shard 1 (default scene-hash
/// routing: "lego" hashes to shard 0, "ship" to shard 1), and a plan that
/// deterministically kills shard 0 mid-run.
fn failover_fixture(faults: Option<FaultPlan>, budget: usize) -> FleetReport {
    let (lego, lego_model, _) = assets("lego", 12);
    let lego_traj = dolly(12);
    let (ship, ship_model, ship_traj) = assets("ship", 16);
    let mut fleet = Fleet::new(FleetConfig {
        shards: 2,
        base: ServeConfig {
            render_threads: budget,
            faults,
            ..Default::default()
        },
        heartbeat_interval_s: 0.05,
        miss_threshold: 1,
        ..Default::default()
    })
    .unwrap();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    fleet
        .submit(Submission::trajectory(
            spec("victim", "lego", QosClass::Standard, 0.0),
            &lego,
            &lego_model,
            &lego_traj,
            k,
        ))
        .unwrap();
    fleet
        .submit(Submission::trajectory(
            spec("bystander", "ship", QosClass::Standard, 0.004),
            &ship,
            &ship_model,
            &ship_traj,
            k,
        ))
        .unwrap();
    fleet.run()
}

/// The shard whose report summarises session `name`: where it was admitted,
/// or where it resumed after a migration.
fn home_shard(report: &FleetReport, name: &str) -> usize {
    (report.shards.iter())
        .position(|s| s.sessions.iter().any(|s| s.name == name))
        .unwrap_or_else(|| panic!("session {name} has a summary somewhere"))
}

fn find_session<'r>(report: &'r FleetReport, name: &str) -> &'r SessionSummary {
    report
        .shards
        .iter()
        .flat_map(|s| s.sessions.iter())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("session {name} has a summary somewhere"))
}

/// (b) + (c): the killed shard's session resumes on the survivor with
/// bit-identical frames, and the whole fleet report reproduces across
/// budgets.
#[test]
fn shard_crash_migrates_sessions_bit_identically() {
    let mut plan = FaultPlan::zero(crash_seed(0.1, 1..=5));
    plan.shard_crash_rate = 0.1;

    let chaotic = failover_fixture(Some(plan), 0);
    assert_eq!(
        chaotic.shard_crashes, 1,
        "fixture must kill exactly shard 0"
    );
    assert_eq!(chaotic.alive_shards, 1);
    assert_eq!(
        chaotic.lost_sessions, 0,
        "a survivor existed — nothing lost"
    );
    let migration = chaotic
        .migrations
        .iter()
        .find(|m| m.name == "victim")
        .expect("the victim must migrate");
    assert_eq!(migration.from_shard, 0);
    assert_eq!(migration.to_shard, 1);
    assert!(migration.at_s > 0.0);
    assert!(
        migration.time_to_resume_s >= 0.0,
        "the victim must actually resume on the survivor: {migration:?}"
    );
    assert_eq!(
        migration.resumed_s,
        migration.at_s + migration.time_to_resume_s
    );

    // Bit-identical frames: the victim is alone in its scene, so any cache
    // hit is a *self*-hit installing its own rendered frame — equal hit
    // counts mean both runs resolved every warp source identically, and
    // equal PSNR ledgers then mean equal pixels, frame by frame. Latencies
    // may legitimately differ (migration delays service); pixels must not.
    let oracle = failover_fixture(None, 0);
    // Default scene-hash routing put the victim's "lego" on shard 0 and the
    // bystander's "ship" on shard 1.
    assert_eq!(home_shard(&oracle, "victim"), 0);
    assert_eq!(home_shard(&oracle, "bystander"), 1);
    assert_eq!(home_shard(&chaotic, "bystander"), 1);
    let migrated = find_session(&chaotic, "victim");
    let unmigrated = find_session(&oracle, "victim");
    assert_eq!(
        migrated.frames, 12,
        "every victim frame served post-failover"
    );
    assert_eq!(migrated.frames, unmigrated.frames);
    assert_eq!(migrated.cache_hits, unmigrated.cache_hits);
    assert_eq!(
        migrated.mean_psnr_db, unmigrated.mean_psnr_db,
        "migration changed the victim's pixels"
    );
    // The migrated summary lives on the survivor; the dead shard keeps only
    // the frames it served before dying.
    assert!(chaotic.shards[1]
        .sessions
        .iter()
        .any(|s| s.name == "victim"));
    assert!(!chaotic.shards[0]
        .sessions
        .iter()
        .any(|s| s.name == "victim"));
    assert!(chaotic.shards[0].frames < oracle.shards[0].frames);

    // (c) The whole report — records, migrations, availability — is
    // bit-identical at any host thread budget.
    for budget in [1usize, 4] {
        let par = failover_fixture(Some(plan), budget);
        assert_eq!(par, chaotic, "budget {budget}: failover run drifted");
    }
}

/// (d) No survivor: the shard's live sessions are lost, their unserved
/// frames dent availability, and touching them errors instead of panicking.
#[test]
fn last_shard_death_loses_sessions_without_panicking() {
    let seed = (0..20_000u64)
        .find(|&s| {
            let mut plan = FaultPlan::zero(s);
            plan.shard_crash_rate = 0.1;
            matches!(shard_death_beat(&plan, 0, 24, 1), Some(k) if (1..=4).contains(&k))
        })
        .expect("some seed kills shard 0 early");
    let mut plan = FaultPlan::zero(seed);
    plan.shard_crash_rate = 0.1;

    let (lego, lego_model, lego_traj) = assets("lego", 12);
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        base: ServeConfig {
            faults: Some(plan),
            ..Default::default()
        },
        heartbeat_interval_s: 0.05,
        miss_threshold: 1,
        ..Default::default()
    })
    .unwrap();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    let id = fleet
        .submit(Submission::trajectory(
            spec("doomed", "lego", QosClass::Standard, 0.0),
            &lego,
            &lego_model,
            &lego_traj,
            k,
        ))
        .unwrap()
        .session()
        .unwrap();
    let report = fleet.run();
    assert_eq!(report.shard_crashes, 1);
    assert_eq!(report.alive_shards, 0);
    assert_eq!(report.lost_sessions, 1);
    assert!(report.lost_frames > 0, "the doomed session had frames left");
    assert!(
        report.availability < 1.0,
        "lost frames must dent availability: {}",
        report.availability
    );
    assert!(report.migrations.is_empty(), "nothing could adopt");
    // The session's early frames still served and still summarize.
    assert!(report.shards[0].frames < lego_traj.len());
    assert_eq!(report.frames, report.shards[0].frames);
    // Touching the lost session errors; new admissions find no shard.
    assert!(matches!(
        fleet.push_pose(id, lego_traj.poses()[0]),
        Err(ServeError::SessionLost { id: e }) if e == id
    ));
    assert!(matches!(
        fleet.submit(Submission::trajectory(
            spec("late", "lego", QosClass::Standard, 1.0),
            &lego,
            &lego_model,
            &lego_traj,
            k
        )),
        Err(ServeError::FleetDown)
    ));
}

/// What the queue fixture hands back: the fleet (for ticket polls and a
/// second drain), the first drain's report and the five submissions'
/// outcomes.
struct QueueRun<'a> {
    fleet: Fleet<'a>,
    report: FleetReport,
    outcomes: Vec<SubmitOutcome>,
}

/// The fleet queue fixture: two one-slot shards, one scene routed to shard 0,
/// five timed submissions 10 ms apart — the third a best-effort **stream** —
/// then one drain. The first admits on shard 0, the second diverts to shard
/// 1, and with no headroom left anywhere the other three queue on shard 0.
fn queue_fixture<'a>(
    lego: &'a (AnalyticScene, GridModel, Trajectory),
    faults: Option<FaultPlan>,
    budget: usize,
) -> QueueRun<'a> {
    let (scene, model, traj) = lego;
    let mut fleet = Fleet::new(FleetConfig {
        shards: 2,
        base: one_slot_cfg(budget, 8.0, faults),
        heartbeat_interval_s: 0.05,
        miss_threshold: 1,
        ..Default::default()
    })
    .unwrap();
    let k = Intrinsics::from_fov(24, 24, 0.9);
    let classes = [
        QosClass::Standard,
        QosClass::Standard,
        QosClass::BestEffort,
        QosClass::Interactive,
        QosClass::Standard,
    ];
    let outcomes = (classes.into_iter().enumerate())
        .map(|(i, qos)| {
            let s = spec(&format!("s{i}"), "lego", qos, 0.01 * i as f64);
            let sub = if i == 2 {
                Submission::stream(s, scene, model, traj.fps(), k)
            } else {
                Submission::trajectory(s, scene, model, traj, k)
            };
            fleet.submit(sub).unwrap()
        })
        .collect();
    let report = fleet.run();
    QueueRun {
        fleet,
        report,
        outcomes,
    }
}

/// (e) Queued submissions on a fleet: fleet tickets, fleet ids, and a queued
/// stream served in full through its fleet id.
#[test]
fn fleet_queue_resolves_tickets_to_fleet_ids_and_serves_a_queued_stream() {
    let lego = assets("lego", 8);
    let frames = lego.2.len();
    let QueueRun {
        mut fleet,
        report,
        outcomes,
    } = queue_fixture(&lego, None, 0);
    assert_eq!(outcomes[0], SubmitOutcome::Admitted(0));
    assert_eq!(outcomes[1], SubmitOutcome::Admitted(1), "diverted");
    // Default scene-hash routing sends "lego" to shard 0: the holder and all
    // three queued sessions live there, only the diverted one on shard 1.
    for name in ["s0", "s2", "s3", "s4"] {
        assert_eq!(home_shard(&report, name), 0, "{name}");
    }
    assert_eq!(home_shard(&report, "s1"), 1);
    assert_eq!(report.diversions, 1);
    let tickets: Vec<usize> = (outcomes[2..].iter())
        .map(|o| match o {
            SubmitOutcome::Queued(ticket) => *ticket,
            admitted => panic!("no headroom anywhere, yet {admitted:?}"),
        })
        .collect();
    assert_eq!(report.shards[0].overload.enqueued, 3);
    assert_eq!(report.shards[1].overload.enqueued, 0);
    // The first drain admits the queue in priority order as the slot frees:
    // interactive, standard, and last the stream — which has no poses yet,
    // so the drain ends with it admitted and starved. Fleet ids continue the
    // fleet's numbering, whatever shard 0 calls the sessions.
    assert_eq!(report.shards[0].overload.queue_admits, 3);
    assert_eq!(fleet.queued(), 0);
    let ids: Vec<usize> = (tickets.iter())
        .map(|&t| match fleet.ticket(t) {
            Some(TicketState::Admitted(id)) => id,
            other => panic!("ticket {t} should have admitted, got {other:?}"),
        })
        .collect();
    assert_eq!(ids, [4, 2, 3], "stream last, then by class");
    assert_eq!(fleet.session_count(), 5);
    assert_eq!(fleet.ticket(tickets.len()), None, "unknown ticket");
    assert_eq!(find_session(&report, "s2").frames, 0);
    assert_eq!(report.frames, 4 * frames);
    // The client's buffered poses flush through the fleet id.
    for pose in lego.2.poses() {
        fleet.push_pose(ids[0], *pose).unwrap();
    }
    fleet.close_stream(ids[0]).unwrap();
    let served = fleet.run();
    assert_eq!(find_session(&served, "s2").frames, frames);
    assert_eq!(served.frames, 5 * frames);
    assert_eq!(served.shards[0].overload.sheds, 0);
}

/// (e) The same fixture with shard 0 killed while its slot is still held:
/// its queued tickets shed, its admitted session migrates.
#[test]
fn dying_shard_sheds_its_queue_and_migrates_its_sessions() {
    let lego = assets("lego", 8);
    let frames = lego.2.len() as u64;
    // Death at 0.10–0.15 s: the holder (eight frames at 30 fps) is mid-run.
    let mut plan = FaultPlan::zero(crash_seed(0.1, 1..=2));
    plan.shard_crash_rate = 0.1;
    let QueueRun {
        fleet,
        report,
        outcomes,
    } = queue_fixture(&lego, Some(plan), 0);
    assert_eq!(report.shard_crashes, 1);
    assert_eq!(report.alive_shards, 1);
    // Nothing was admitted from the queue before the shard died, so every
    // ticket reads `Shed` and the whole-trajectory entries' frames stay
    // accounted by class (a stream's demand is unknown at submit time).
    for outcome in &outcomes[2..] {
        let SubmitOutcome::Queued(ticket) = *outcome else {
            panic!("no headroom anywhere, yet {outcome:?}");
        };
        assert_eq!(fleet.ticket(ticket), Some(TicketState::Shed));
    }
    let dead = &report.shards[0].overload;
    assert_eq!((dead.queue_admits, dead.sheds), (0, 3));
    assert_eq!(dead.sheds_by_class, [1, 1, 1]);
    assert_eq!(dead.shed_frames_by_class, [frames, frames, 0]);
    // The holder migrates and finishes on the survivor; nothing is lost.
    assert_eq!(report.migrations.len(), 1);
    assert_eq!(report.migrations[0].name, "s0");
    assert_eq!(
        (
            report.migrations[0].from_shard,
            report.migrations[0].to_shard
        ),
        (0, 1)
    );
    assert_eq!(report.lost_sessions, 0);
    assert_eq!(report.frames as u64, 2 * frames);
    for budget in [1usize, 4] {
        let par = queue_fixture(&lego, Some(plan), budget).report;
        assert_eq!(par, report, "budget {budget}: fleet report drifted");
    }
}

/// A malformed fleet shape is refused with a typed error, not a panic: zero
/// shards, a heartbeat interval that is not positive (NaN included), a zero
/// miss threshold.
#[test]
fn fleet_new_refuses_invalid_configs() {
    let bad = [
        FleetConfig {
            shards: 0,
            ..Default::default()
        },
        FleetConfig {
            heartbeat_interval_s: 0.0,
            ..Default::default()
        },
        FleetConfig {
            heartbeat_interval_s: -0.05,
            ..Default::default()
        },
        FleetConfig {
            heartbeat_interval_s: f64::NAN,
            ..Default::default()
        },
        FleetConfig {
            miss_threshold: 0,
            ..Default::default()
        },
    ];
    for cfg in bad {
        let what = (cfg.shards, cfg.heartbeat_interval_s, cfg.miss_threshold);
        assert!(
            matches!(Fleet::new(cfg), Err(ServeError::InvalidConfig { .. })),
            "accepted (shards, heartbeat, threshold) = {what:?}"
        );
    }
    assert!(Fleet::new(FleetConfig::default()).is_ok());
}
