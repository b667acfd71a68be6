//! `policy_baseline` — measures the serving core under each scheduling
//! policy bundle and saves a JSON baseline.
//!
//! ```text
//! cargo run --release -p cicero-bench --bin policy_baseline -- \
//!     [--out results/bench_serve_policies.json] [--frames 10] [--threads 4]
//! ```
//!
//! One fixed fleet (two scenes × four mixed-QoS viewers each, plus an
//! oversized "flood" client the default policy must reject) runs through
//! `cicero-serve` once per policy — default / affinity / degrade /
//! prefetch — over identical baked assets. Recorded per policy:
//!
//! - simulated service quality: throughput, p50/p99 latency, deadline-miss
//!   rate, makespan;
//! - cache economics: hit rate, prefetch issued/hits/wasted;
//! - admission outcomes: sessions admitted/rejected, degradations granted;
//! - host wall-clock (with `host_cores`, without which it is meaningless).
//!
//! Every simulated figure is budget-deterministic, so two hosts disagreeing
//! on anything but `wall_s` indicates a real regression.

use cicero::pipeline::PipelineConfig;
use cicero::{Scenario, Variant};
use cicero_accel::pool::PoolConfig;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    FaultPlan, Fleet, FleetConfig, FrameServer, Policies, QosClass, ServeConfig, SessionSpec,
    Submission,
};
use std::time::Instant;

/// The shard-kill rate of the fleet chaos leg: high enough that the seeded
/// plan reliably kills shards mid-drain (the figure under test is failover,
/// not the no-op path), low enough that survivors remain to adopt.
const SHARD_KILL_RATE: f64 = 0.45;

struct Args {
    out: String,
    faults_out: String,
    fleet_out: String,
    fault_seed: u64,
    frames: usize,
    threads: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "results/bench_serve_policies.json".into(),
        faults_out: "results/bench_serve_faults.json".into(),
        fleet_out: "results/bench_fleet.json".into(),
        fault_seed: 42,
        frames: 10,
        threads: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--out" => args.out = value(),
            "--faults-out" => args.faults_out = value(),
            "--fleet-out" => args.fleet_out = value(),
            "--fault-seed" => args.fault_seed = value().parse().expect("--fault-seed takes a u64"),
            "--frames" => args.frames = value().parse().expect("--frames takes a count"),
            "--threads" => args.threads = value().parse().expect("--threads takes a count"),
            other => panic!(
                "unknown flag {other} \
                 (expected --out/--faults-out/--fleet-out/--fault-seed/--frames/--threads)"
            ),
        }
    }
    assert!(args.frames >= 4, "--frames must be at least 4");
    args
}

fn policies_for(name: &str) -> Policies {
    Policies::by_name(name).unwrap_or_else(|| panic!("unknown policy {name}"))
}

struct SceneAssets {
    name: &'static str,
    scene: AnalyticScene,
    model: GridModel,
    orbit: Trajectory,
    handheld: Trajectory,
}

struct PolicyRun {
    policy: &'static str,
    admitted: usize,
    rejected: usize,
    frames: usize,
    throughput_fps: f64,
    p50_s: f64,
    p99_s: f64,
    deadline_miss_rate: f64,
    makespan_s: f64,
    cache_hit_rate: f64,
    reference_jobs: u64,
    prefetch_jobs: u64,
    prefetch_hits: u64,
    prefetch_wasted: u64,
    degradations: usize,
    wall_s: f64,
    // Chaos-leg accounting (zero / 1.0 on the fault-free leg).
    injected: u64,
    recoveries: u64,
    fallback_warps: u64,
    degraded_rerenders: u64,
    watchdog_grants: u64,
    quarantines: u64,
    time_to_recover_s: f64,
    availability: f64,
}

fn run_policy(
    policy: &'static str,
    assets: &[SceneAssets],
    args: &Args,
    faults: Option<FaultPlan>,
) -> PolicyRun {
    let mut server = FrameServer::new(ServeConfig {
        pool: PoolConfig {
            workers: 4,
            ..Default::default()
        },
        render_threads: args.threads,
        policies: policies_for(policy),
        faults,
        ..Default::default()
    });

    let mut admitted = 0;
    for (si, a) in assets.iter().enumerate() {
        for v in 0..4usize {
            let (qos, scenario, traj): (QosClass, Scenario, &Trajectory) = match v {
                0 => (QosClass::Interactive, Scenario::Local, &a.handheld),
                1 | 2 => (QosClass::Standard, Scenario::Local, &a.orbit),
                _ => (QosClass::BestEffort, Scenario::Remote, &a.orbit),
            };
            let spec = SessionSpec {
                name: format!("{}-{v}", a.name),
                scene_key: a.name.to_string(),
                qos,
                start_offset_s: si as f64 * 0.002 + v as f64 * 0.005,
                config: PipelineConfig {
                    variant: if v % 2 == 0 {
                        Variant::Cicero
                    } else {
                        Variant::SparwFs
                    },
                    scenario,
                    window: 4,
                    march: MarchParams {
                        step: 0.04,
                        ..Default::default()
                    },
                    collect_quality: false,
                    collect_traffic: false,
                    ..Default::default()
                },
            };
            if server
                .submit(Submission::trajectory(
                    spec,
                    &a.scene,
                    &a.model,
                    traj,
                    Intrinsics::from_fov(32, 32, 0.9),
                ))
                .is_ok()
            {
                admitted += 1;
            }
        }
    }

    // The oversized client: 90 fps 256×256 baseline. Reject-at-admission
    // refuses it; the degrade ladder shrinks it until it fits.
    let flood_traj = Trajectory::orbit(&assets[0].scene, args.frames, 90.0);
    if server
        .submit(Submission::trajectory(
            SessionSpec {
                name: "flood".into(),
                scene_key: assets[0].name.to_string(),
                qos: QosClass::Interactive,
                start_offset_s: 0.0,
                config: PipelineConfig {
                    variant: Variant::Baseline,
                    march: MarchParams {
                        step: 0.04,
                        ..Default::default()
                    },
                    collect_quality: false,
                    collect_traffic: false,
                    ..Default::default()
                },
            },
            &assets[0].scene,
            &assets[0].model,
            &flood_traj,
            Intrinsics::from_fov(256, 256, 0.9),
        ))
        .is_ok()
    {
        admitted += 1;
    }

    let wall = Instant::now();
    let report = server.run();
    let wall_s = wall.elapsed().as_secs_f64();
    let lookups = report.cache.hits + report.cache.misses;
    let run = PolicyRun {
        policy,
        admitted,
        rejected: server.admission().rejected(),
        frames: report.frames,
        throughput_fps: report.throughput_fps,
        p50_s: report.p50_latency_s,
        p99_s: report.p99_latency_s,
        deadline_miss_rate: report.deadline_miss_rate,
        makespan_s: report.makespan_s,
        cache_hit_rate: if lookups > 0 {
            report.cache.hits as f64 / lookups as f64
        } else {
            0.0
        },
        reference_jobs: report.reference_jobs,
        prefetch_jobs: report.prefetch_jobs,
        prefetch_hits: report.cache.prefetch_hits,
        prefetch_wasted: report.cache.prefetch_wasted,
        degradations: report.degradations.len(),
        wall_s,
        injected: report.faults.injected(),
        recoveries: report.faults.recoveries(),
        fallback_warps: report.faults.fallback_warps,
        degraded_rerenders: report.faults.degraded_rerenders,
        watchdog_grants: report.faults.watchdog_grants,
        quarantines: report.faults.quarantines,
        time_to_recover_s: report.faults.time_to_recover_s,
        availability: report.faults.availability,
    };
    if run.injected > 0 {
        println!(
            "  {policy:<9}: {:>3} frames, p99 {:>7.3} ms, miss {:>5.1}%, \
             {} injected, {} recoveries ({} fallback-warps, {} rerenders, {} grants), \
             ttr {:.3} ms, availability {:.4}, wall {:.2} s",
            run.frames,
            run.p99_s * 1e3,
            run.deadline_miss_rate * 100.0,
            run.injected,
            run.recoveries,
            run.fallback_warps,
            run.degraded_rerenders,
            run.watchdog_grants,
            run.time_to_recover_s * 1e3,
            run.availability,
            run.wall_s
        );
    } else {
        println!(
            "  {policy:<9}: {:>3} frames, {:>7.1} fps sim, p99 {:>7.3} ms, miss {:>5.1}%, \
             cache {:>5.1}%, prefetch {}/{} ({} wasted), degraded {}, wall {:.2} s",
            run.frames,
            run.throughput_fps,
            run.p99_s * 1e3,
            run.deadline_miss_rate * 100.0,
            run.cache_hit_rate * 100.0,
            run.prefetch_hits,
            run.prefetch_jobs,
            run.prefetch_wasted,
            run.degradations,
            run.wall_s
        );
    }
    run
}

struct FleetRun {
    shards: usize,
    frames: usize,
    throughput_fps: f64,
    p50_s: f64,
    p99_s: f64,
    deadline_miss_rate: f64,
    availability: f64,
    shard_crashes: u64,
    shard_brownouts: u64,
    heartbeat_misses: u64,
    migrations: usize,
    resumed: usize,
    lost_sessions: u64,
    lost_frames: u64,
    mean_time_to_resume_s: f64,
    wall_s: f64,
}

/// One fleet drain under the shard-kill plan: the same mixed-QoS fleet (no
/// flood — admission economics are the policy legs' subject), default
/// policies, `shards` fault domains. The recorded figures are what a
/// deployment actually buys with extra shards: availability and migration
/// time-to-resume under shard loss.
fn run_fleet(shards: usize, assets: &[SceneAssets], args: &Args, plan: FaultPlan) -> FleetRun {
    let mut fleet = Fleet::new(FleetConfig {
        shards,
        base: ServeConfig {
            pool: PoolConfig {
                workers: 4,
                ..Default::default()
            },
            render_threads: args.threads,
            policies: policies_for("default"),
            faults: Some(plan),
            ..Default::default()
        },
        ..Default::default()
    });
    for (si, a) in assets.iter().enumerate() {
        for v in 0..4usize {
            let (qos, scenario, traj): (QosClass, Scenario, &Trajectory) = match v {
                0 => (QosClass::Interactive, Scenario::Local, &a.handheld),
                1 | 2 => (QosClass::Standard, Scenario::Local, &a.orbit),
                _ => (QosClass::BestEffort, Scenario::Remote, &a.orbit),
            };
            let spec = SessionSpec {
                name: format!("{}-{v}", a.name),
                scene_key: a.name.to_string(),
                qos,
                start_offset_s: si as f64 * 0.002 + v as f64 * 0.005,
                config: PipelineConfig {
                    variant: if v % 2 == 0 {
                        Variant::Cicero
                    } else {
                        Variant::SparwFs
                    },
                    scenario,
                    window: 4,
                    march: MarchParams {
                        step: 0.04,
                        ..Default::default()
                    },
                    collect_quality: false,
                    collect_traffic: false,
                    ..Default::default()
                },
            };
            fleet
                .submit(Submission::trajectory(
                    spec,
                    &a.scene,
                    &a.model,
                    traj,
                    Intrinsics::from_fov(32, 32, 0.9),
                ))
                .expect("fleet session admitted");
        }
    }
    let wall = Instant::now();
    let report = fleet.run();
    let wall_s = wall.elapsed().as_secs_f64();
    let resumed = report
        .migrations
        .iter()
        .filter(|m| m.resumed_s >= 0.0)
        .count();
    let mean_ttr = if resumed > 0 {
        report
            .migrations
            .iter()
            .filter(|m| m.time_to_resume_s >= 0.0)
            .map(|m| m.time_to_resume_s)
            .sum::<f64>()
            / resumed as f64
    } else {
        0.0
    };
    let run = FleetRun {
        shards,
        frames: report.frames,
        throughput_fps: report.throughput_fps,
        p50_s: report.p50_latency_s,
        p99_s: report.p99_latency_s,
        deadline_miss_rate: report.deadline_miss_rate,
        availability: report.availability,
        shard_crashes: report.shard_crashes,
        shard_brownouts: report.shard_brownouts,
        heartbeat_misses: report.heartbeat_misses,
        migrations: report.migrations.len(),
        resumed,
        lost_sessions: report.lost_sessions,
        lost_frames: report.lost_frames,
        mean_time_to_resume_s: mean_ttr,
        wall_s,
    };
    println!(
        "  {:>2} shard(s): {:>3} frames, p99 {:>7.3} ms, {} crashes, {} brownouts, \
         {} migrations ({} resumed, mean ttr {:.3} ms), {} lost, availability {:.4}, wall {:.2} s",
        run.shards,
        run.frames,
        run.p99_s * 1e3,
        run.shard_crashes,
        run.shard_brownouts,
        run.migrations,
        run.resumed,
        run.mean_time_to_resume_s * 1e3,
        run.lost_sessions,
        run.availability,
        run.wall_s
    );
    run
}

fn main() {
    let args = parse_args();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "policy_baseline: {} frames/session, {} host thread(s), host cores {}",
        args.frames, args.threads, host_cores
    );

    let assets: Vec<SceneAssets> = ["lego", "ship"]
        .iter()
        .map(|&name| {
            let scene = library::scene_by_name(name).unwrap();
            let model = bake::bake_grid(
                &scene,
                &GridConfig {
                    resolution: 28,
                    ..Default::default()
                },
            );
            let orbit = Trajectory::orbit(&scene, args.frames, 30.0);
            let handheld = Trajectory::handheld(&scene, args.frames, 30.0, 7);
            SceneAssets {
                name,
                scene,
                model,
                orbit,
                handheld,
            }
        })
        .collect();

    let runs: Vec<PolicyRun> = ["default", "affinity", "degrade", "prefetch"]
        .into_iter()
        .map(|p| run_policy(p, &assets, &args, None))
        .collect();

    // Sanity: the bundles actually differentiate.
    let by = |p: &str| runs.iter().find(|r| r.policy == p).unwrap();
    assert!(by("prefetch").prefetch_jobs > 0, "prefetch never engaged");
    assert!(by("degrade").degradations > 0, "degrade never engaged");
    assert!(by("degrade").rejected < by("default").rejected);

    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"policy\": \"{}\", \"admitted\": {}, \"rejected\": {}, \"frames\": {}, \
                 \"throughput_fps\": {:.3}, \"p50_latency_s\": {:.9}, \"p99_latency_s\": {:.9}, \
                 \"deadline_miss_rate\": {:.6}, \"makespan_s\": {:.9}, \"cache_hit_rate\": {:.6}, \
                 \"reference_jobs\": {}, \"prefetch_jobs\": {}, \"prefetch_hits\": {}, \
                 \"prefetch_wasted\": {}, \"degradations\": {}, \"wall_s\": {:.6} }}",
                r.policy,
                r.admitted,
                r.rejected,
                r.frames,
                r.throughput_fps,
                r.p50_s,
                r.p99_s,
                r.deadline_miss_rate,
                r.makespan_s,
                r.cache_hit_rate,
                r.reference_jobs,
                r.prefetch_jobs,
                r.prefetch_hits,
                r.prefetch_wasted,
                r.degradations,
                r.wall_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_policies\",\n  \"schema_version\": 2,\n  \"frames_per_session\": {},\n  \
         \"host_threads\": {},\n  \"host_cores\": {},\n  \"policies\": [\n{}\n  ]\n}}\n",
        args.frames,
        args.threads,
        host_cores,
        entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.out, &json).expect("write baseline");
    println!("wrote {}", args.out);

    // The chaos leg: the same fleet per policy under the standard seeded
    // fault mix. Availability and p99-under-faults are the figures every
    // future scheduler change regresses against.
    println!(
        "chaos leg: seed {}, rate {}",
        args.fault_seed,
        FaultPlan::DEFAULT_RATE
    );
    let chaos: Vec<PolicyRun> = ["default", "affinity", "degrade", "prefetch"]
        .into_iter()
        .map(|p| run_policy(p, &assets, &args, Some(FaultPlan::seeded(args.fault_seed))))
        .collect();
    for r in &chaos {
        assert!(r.injected > 0, "{}: chaos leg injected nothing", r.policy);
        assert!(r.recoveries > 0, "{}: chaos leg never recovered", r.policy);
        assert!(
            r.availability >= 0.99,
            "{}: availability {} under the default fault rate",
            r.policy,
            r.availability
        );
    }
    let entries: Vec<String> = chaos
        .iter()
        .map(|r| {
            format!(
                "    {{ \"policy\": \"{}\", \"frames\": {}, \"p99_latency_s\": {:.9}, \
                 \"deadline_miss_rate\": {:.6}, \"injected\": {}, \"recoveries\": {}, \
                 \"fallback_warps\": {}, \"degraded_rerenders\": {}, \"watchdog_grants\": {}, \
                 \"quarantines\": {}, \"time_to_recover_s\": {:.9}, \"availability\": {:.6}, \
                 \"wall_s\": {:.6} }}",
                r.policy,
                r.frames,
                r.p99_s,
                r.deadline_miss_rate,
                r.injected,
                r.recoveries,
                r.fallback_warps,
                r.degraded_rerenders,
                r.watchdog_grants,
                r.quarantines,
                r.time_to_recover_s,
                r.availability,
                r.wall_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_faults\",\n  \"schema_version\": 2,\n  \"fault_seed\": {},\n  \
         \"fault_rate\": {},\n  \"frames_per_session\": {},\n  \"host_threads\": {},\n  \
         \"host_cores\": {},\n  \"policies\": [\n{}\n  ]\n}}\n",
        args.fault_seed,
        FaultPlan::DEFAULT_RATE,
        args.frames,
        args.threads,
        host_cores,
        entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&args.faults_out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.faults_out, &json).expect("write chaos baseline");
    println!("wrote {}", args.faults_out);

    // The fleet chaos leg: the same workload behind 1/2/4 shard fault
    // domains under a shard-kill plan. One shard means shard loss is fleet
    // loss (availability takes the hit); with survivors, failover migration
    // keeps sessions serving and the time-to-resume is the price paid.
    println!(
        "fleet leg: seed {}, shard-kill rate {}",
        args.fault_seed, SHARD_KILL_RATE
    );
    let mut plan = FaultPlan::seeded(args.fault_seed);
    plan.shard_crash_rate = SHARD_KILL_RATE;
    plan.shard_brownout_rate = FaultPlan::DEFAULT_RATE;
    let fleets: Vec<FleetRun> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| run_fleet(shards, &assets, &args, plan))
        .collect();
    // The kill plan must actually exercise failover somewhere in the sweep,
    // and no multi-shard fleet may lose a session while a survivor stood by.
    assert!(
        fleets.iter().any(|f| f.shard_crashes > 0),
        "shard-kill plan never killed a shard"
    );
    assert!(
        fleets
            .iter()
            .all(|f| f.shards == 1 || f.lost_sessions == 0 || f.shard_crashes as usize >= f.shards),
        "sessions lost despite surviving shards"
    );
    let entries: Vec<String> = fleets
        .iter()
        .map(|f| {
            format!(
                "    {{ \"shards\": {}, \"frames\": {}, \"throughput_fps\": {:.3}, \
                 \"p50_latency_s\": {:.9}, \"p99_latency_s\": {:.9}, \"deadline_miss_rate\": {:.6}, \
                 \"availability\": {:.6}, \"shard_crashes\": {}, \"shard_brownouts\": {}, \
                 \"heartbeat_misses\": {}, \"migrations\": {}, \"resumed\": {}, \
                 \"lost_sessions\": {}, \"lost_frames\": {}, \"mean_time_to_resume_s\": {:.9}, \
                 \"wall_s\": {:.6} }}",
                f.shards,
                f.frames,
                f.throughput_fps,
                f.p50_s,
                f.p99_s,
                f.deadline_miss_rate,
                f.availability,
                f.shard_crashes,
                f.shard_brownouts,
                f.heartbeat_misses,
                f.migrations,
                f.resumed,
                f.lost_sessions,
                f.lost_frames,
                f.mean_time_to_resume_s,
                f.wall_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_fleet\",\n  \"schema_version\": 2,\n  \"fault_seed\": {},\n  \
         \"shard_kill_rate\": {},\n  \"shard_brownout_rate\": {},\n  \"frames_per_session\": {},\n  \
         \"host_threads\": {},\n  \"host_cores\": {},\n  \"fleets\": [\n{}\n  ]\n}}\n",
        args.fault_seed,
        SHARD_KILL_RATE,
        FaultPlan::DEFAULT_RATE,
        args.frames,
        args.threads,
        host_cores,
        entries.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&args.fleet_out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.fleet_out, &json).expect("write fleet baseline");
    println!("wrote {}", args.fleet_out);
}
