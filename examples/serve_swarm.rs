//! `serve_swarm` — a fleet of heterogeneous clients on one SoC pool.
//!
//! Spins up dozens of concurrent sessions across several library scenes —
//! head-tracked interactive viewers, standard screen viewers and best-effort
//! preview exporters, mixing the paper's Local and Remote scenarios — and
//! drains them through the `cicero-serve` batch scheduler. Co-located
//! sessions share reference renders through the pose-quantized cache.
//!
//! ```text
//! cargo run --release --example serve_swarm [-- THREADS] [--policy P] [--stream]
//!                                           [--shards N] [--shard-rate R]
//!                                           [--faults SEED] [--fault-rate R]
//!                                           [--trace T.json] [--metrics M.prom]
//!                                           [--report-json R.json]
//! ```
//!
//! - `THREADS` is the server's total host thread budget (default: the
//!   `RENDER_THREADS` environment variable, then 1): ready sessions step
//!   **concurrently** on the persistent render pool, with the budget
//!   partitioned across each batch. The service report is bit-identical at
//!   any budget — each `digest…:` line below is CI's determinism oracle
//!   between the 1-thread and 4-thread legs; only wall-clock moves.
//! - `--policy <default|affinity|degrade|prefetch|all>` selects the serving
//!   policy bundle (`all` runs each in turn over the same baked assets and
//!   cross-checks them: prefetch must strictly add cache hits without
//!   moving a pixel, degrade must admit the flood the others reject).
//! - `--stream` feeds every session pose-by-pose through the streaming
//!   ingestion API instead of whole trajectories — the digest must not
//!   change, which CI also diffs.
//! - `--shards <n>` serves the swarm through an n-shard [`Fleet`] instead of
//!   a bare [`FrameServer`]: sessions route to shards by scene hash, shards
//!   are heartbeat health-checked when faults are armed, and a dead shard's
//!   sessions fail over to survivors bit-identically. `--shards 1` with no
//!   faults prints a `digest` line byte-identical to the bare server's — CI
//!   diffs that too. Fleet runs add a `fleet_digest…:` line (shard health,
//!   migrations, availability), deterministic at any thread budget.
//! - `--faults <seed>` arms deterministic fault injection (worker crashes,
//!   stragglers, cache corruption; with `--stream` also pose stalls/drops;
//!   with `--shards` also shard crashes/brownouts) at the standard rate mix;
//!   `--fault-rate <r>` overrides the per-decision rate (`0` must be
//!   byte-identical to an un-armed run — CI diffs that too) and
//!   `--shard-rate <r>` overrides just the shard crash/brownout rates (the
//!   chaos leg's shard-kill knob). Chaos digests (`fault_digest…:` lines)
//!   are deterministic at any thread budget, exactly like the fault-free
//!   ones.
//! - `--trace <path>` / `--metrics <path>` enable the telemetry recorder and
//!   write a chrome-trace JSON (load in Perfetto / `chrome://tracing`) and a
//!   Prometheus text snapshot at exit. Telemetry is observe-only: the digest
//!   lines must be byte-identical with and without these flags (CI diffs
//!   them).
//! - `--report-json <path>` serializes the full [`ServiceReport`] (or
//!   [`FleetReport`] under `--shards`) of every policy run to JSON.

use cicero::pipeline::PipelineConfig;
use cicero::{Scenario, Variant};
use cicero_accel::pool::PoolConfig;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    FaultPlan, FaultReport, Fleet, FleetConfig, FleetReport, FrameServer, Policies, QosClass,
    ServeConfig, ServeError, ServiceReport, SessionId, SessionSpec, SessionSummary, Submission,
};
use cicero_telemetry as telemetry;

const SCENES: [&str; 4] = ["lego", "chair", "ship", "hotdog"];
const VIEWERS_PER_SCENE: usize = 6; // 4 scenes × 6 = 24 sessions
const FRAMES: usize = 12;
const FPS: f32 = 30.0;

struct SceneAssets {
    name: &'static str,
    scene: AnalyticScene,
    model: GridModel,
    orbit: Trajectory,
    handheld: Trajectory,
}

struct Args {
    render_threads: usize,
    policy: String,
    stream: bool,
    shards: Option<usize>,
    shard_rate: Option<f64>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    trace: Option<String>,
    metrics: Option<String>,
    report_json: Option<String>,
}

impl Args {
    /// The armed fault plan, if any: `--faults <seed>` at the standard rate
    /// mix, scaled by `--fault-rate` when given, with the shard-fault rates
    /// overridden by `--shard-rate` when given.
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_seed.map(|seed| {
            let mut plan = match self.fault_rate {
                Some(rate) => FaultPlan::with_rate(seed, rate),
                None => FaultPlan::seeded(seed),
            };
            if let Some(rate) = self.shard_rate {
                plan.shard_crash_rate = rate;
                plan.shard_brownout_rate = rate;
            }
            plan
        })
    }
}

/// A CLI mistake is the *user's* error, not a server fault: explain and exit
/// instead of panicking with a backtrace.
fn usage(msg: &str) -> ! {
    eprintln!("serve_swarm: {msg}");
    eprintln!(
        "usage: serve_swarm [THREADS] [--policy P] [--stream] [--shards N] [--shard-rate R] [--faults SEED] [--fault-rate R] [--trace T] [--metrics M] [--report-json R]"
    );
    std::process::exit(2);
}

/// A runtime failure (a rejected serve call, an unwritable output file)
/// surfaces as a message and a nonzero exit — the serve API returns
/// [`ServeError`] everywhere precisely so a client binary never dies on a
/// panic.
fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("serve_swarm: {context}: {e}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut args = Args {
        render_threads: 0,
        policy: "default".into(),
        stream: false,
        shards: None,
        shard_rate: None,
        fault_seed: None,
        fault_rate: None,
        trace: None,
        metrics: None,
        report_json: None,
    };
    let mut threads: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--policy" => {
                args.policy = it.next().unwrap_or_else(|| {
                    usage("--policy takes <default|affinity|degrade|prefetch|all>")
                });
            }
            "--stream" => args.stream = true,
            "--shards" => {
                let n: usize = it
                    .next()
                    .unwrap_or_else(|| usage("--shards takes a shard count"))
                    .parse()
                    .unwrap_or_else(|_| usage("--shards must be a number"));
                if n == 0 {
                    usage("--shards must be at least 1");
                }
                args.shards = Some(n);
            }
            "--shard-rate" => {
                args.shard_rate = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--shard-rate takes a rate in [0,1]"))
                        .parse()
                        .unwrap_or_else(|_| usage("--shard-rate must be a number")),
                );
            }
            "--faults" => {
                args.fault_seed = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--faults takes a seed"))
                        .parse()
                        .unwrap_or_else(|_| usage("--faults seed must be a number")),
                );
            }
            "--fault-rate" => {
                args.fault_rate = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--fault-rate takes a rate in [0,1]"))
                        .parse()
                        .unwrap_or_else(|_| usage("--fault-rate must be a number")),
                );
            }
            "--trace" => {
                args.trace = Some(it.next().unwrap_or_else(|| usage("--trace takes a path")));
            }
            "--metrics" => {
                args.metrics = Some(it.next().unwrap_or_else(|| usage("--metrics takes a path")));
            }
            "--report-json" => {
                args.report_json = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--report-json takes a path")),
                );
            }
            other => {
                if threads.is_some() {
                    usage(&format!("unexpected argument {other}"));
                }
                threads = Some(
                    other
                        .parse()
                        .unwrap_or_else(|_| usage("THREADS must be a number")),
                );
            }
        }
    }
    if args.fault_rate.is_some() && args.fault_seed.is_none() {
        usage("--fault-rate requires --faults <seed>");
    }
    if args.shard_rate.is_some() && (args.fault_seed.is_none() || args.shards.is_none()) {
        usage("--shard-rate requires --shards <n> and --faults <seed>");
    }
    args.render_threads = threads
        .unwrap_or_else(cicero_field::env_render_threads)
        .max(1);
    args
}

fn policies_for(name: &str) -> Policies {
    Policies::by_name(name).unwrap_or_else(|| {
        usage(&format!(
            "unknown policy {name} (default|affinity|degrade|prefetch|all)"
        ))
    })
}

/// The serve backend behind one swarm run: a bare [`FrameServer`], or a
/// [`Fleet`] of them when `--shards` is given. Both take the same
/// [`Submission`], so the swarm loop is written once.
enum Backend<'a> {
    Bare(Box<FrameServer<'a>>),
    Fleet(Box<Fleet<'a>>),
}

impl<'a> Backend<'a> {
    /// Submits to a swarm server, which is never armed with overload
    /// control: the session is admitted now or refused.
    fn submit(&mut self, sub: Submission<'a>) -> Result<SessionId, ServeError> {
        let outcome = match self {
            Backend::Bare(s) => s.submit(sub),
            Backend::Fleet(f) => f.submit(sub),
        }?;
        Ok(outcome.session().expect("nothing queues without a queue"))
    }

    fn push_pose(&mut self, id: SessionId, pose: cicero_math::Pose) -> Result<(), ServeError> {
        match self {
            Backend::Bare(s) => s.push_pose(id, pose),
            Backend::Fleet(f) => f.push_pose(id, pose),
        }
    }

    fn close_stream(&mut self, id: SessionId) -> Result<(), ServeError> {
        match self {
            Backend::Bare(s) => s.close_stream(id),
            Backend::Fleet(f) => f.close_stream(id),
        }
    }

    fn session_count(&self) -> usize {
        match self {
            Backend::Bare(s) => s.session_count(),
            Backend::Fleet(f) => f.session_count(),
        }
    }
}

struct SwarmRun {
    sessions: usize,
    /// The bare server's report, or shard 0's under `--shards 1` (which the
    /// fleet keeps byte-identical). Multi-shard runs report through `fleet`.
    report: ServiceReport,
    fleet: Option<FleetReport>,
    flood_rejected: bool,
    wall_s: f64,
}

impl SwarmRun {
    /// Every per-shard report of this run (one entry for a bare server).
    fn shard_reports(&self) -> &[ServiceReport] {
        match &self.fleet {
            Some(f) => &f.shards,
            None => std::slice::from_ref(&self.report),
        }
    }

    fn throughput_fps(&self) -> f64 {
        match &self.fleet {
            Some(f) => f.throughput_fps,
            None => self.report.throughput_fps,
        }
    }

    /// Fault/recovery accounting summed over every shard:
    /// `(injected, recoveries, availability)`. The availability is the
    /// fleet-wide figure (lost-session frames included) when sharded.
    fn fault_totals(&self) -> (u64, u64, f64) {
        let injected: u64 = self
            .shard_reports()
            .iter()
            .map(|r| r.faults.injected())
            .sum();
        let recoveries: u64 = self
            .shard_reports()
            .iter()
            .map(|r| r.faults.recoveries())
            .sum();
        let availability = match &self.fleet {
            Some(f) => f.availability,
            None => self.report.faults.availability,
        };
        (injected, recoveries, availability)
    }
}

fn run_swarm(
    assets: &[SceneAssets],
    policy: &str,
    render_threads: usize,
    stream: bool,
    faults: Option<FaultPlan>,
    shards: Option<usize>,
) -> SwarmRun {
    let cfg = ServeConfig {
        pool: PoolConfig {
            workers: 6,
            ..Default::default()
        },
        render_threads,
        policies: policies_for(policy),
        faults,
        ..Default::default()
    };
    let mut server = match shards {
        None => Backend::Bare(Box::new(FrameServer::new(cfg))),
        Some(n) => Backend::Fleet(Box::new(Fleet::new(FleetConfig {
            shards: n,
            base: cfg,
            ..Default::default()
        }))),
    };

    // Six viewers per scene: two interactive head-tracked clients on the
    // same handheld path (cache sharing), three standard orbit viewers, one
    // best-effort remote exporter.
    for (si, a) in assets.iter().enumerate() {
        for v in 0..VIEWERS_PER_SCENE {
            let (qos, scenario, traj): (QosClass, Scenario, &Trajectory) = match v {
                0 | 1 => (QosClass::Interactive, Scenario::Local, &a.handheld),
                2 | 3 => (QosClass::Standard, Scenario::Local, &a.orbit),
                4 => (QosClass::Standard, Scenario::Remote, &a.orbit),
                _ => (QosClass::BestEffort, Scenario::Remote, &a.orbit),
            };
            let spec = SessionSpec {
                name: format!("{}-{}-{}", a.name, qos.label(), v),
                scene_key: a.name.to_string(),
                qos,
                // Stagger connections a little within each scene.
                start_offset_s: si as f64 * 0.002 + v as f64 * 0.005,
                config: PipelineConfig {
                    variant: if v % 2 == 0 {
                        Variant::Cicero
                    } else {
                        Variant::SparwFs
                    },
                    scenario,
                    window: if qos == QosClass::Interactive { 4 } else { 6 },
                    march: MarchParams {
                        step: 0.04,
                        ..Default::default()
                    },
                    collect_quality: true,
                    collect_traffic: false,
                    ..Default::default()
                },
            };
            let k = Intrinsics::from_fov(32, 32, 0.9);
            if stream {
                // Streaming ingestion: the same client, feeding its poses
                // one at a time. Fully fed before the drain, so the report
                // must be bit-identical to whole-trajectory submission.
                let id = server
                    .submit(Submission::stream(spec, &a.scene, &a.model, traj.fps(), k))
                    .unwrap_or_else(|e| fail("swarm session rejected", e));
                for pose in traj.poses() {
                    server
                        .push_pose(id, *pose)
                        .unwrap_or_else(|e| fail("streamed pose refused", e));
                }
                server
                    .close_stream(id)
                    .unwrap_or_else(|e| fail("stream close refused", e));
            } else {
                server
                    .submit(Submission::trajectory(spec, &a.scene, &a.model, traj, k))
                    .unwrap_or_else(|e| fail("swarm session rejected", e));
            }
        }
    }

    // Admission control in action: a 90 fps 640×640 baseline flood does not
    // fit next to the committed swarm. The default policy must reject it;
    // the load-adaptive QoS policy instead admits it *degraded* (the ladder
    // lands at 80×80), trading quality for admission. A multi-shard fleet
    // skips the probe: admission is per-shard, so splitting the swarm four
    // ways leaves headroom that could admit the flood at full resolution —
    // a capacity statement, not the admission-control story this probes
    // (and one whose 640×640 full renders would blow the CI smoke budget).
    let flood_traj = Trajectory::orbit(&assets[0].scene, FRAMES, 90.0);
    let flood_rejected = if matches!(shards, Some(n) if n > 1) {
        false
    } else {
        let flood = SessionSpec {
            name: "flood".into(),
            scene_key: "lego".into(),
            qos: QosClass::Interactive,
            start_offset_s: 0.0,
            config: PipelineConfig {
                variant: Variant::Baseline,
                ..Default::default()
            },
        };
        match server.submit(Submission::trajectory(
            flood,
            &assets[0].scene,
            &assets[0].model,
            &flood_traj,
            Intrinsics::from_fov(640, 640, 0.9),
        )) {
            Err(e) => {
                println!("\n[{policy}] admission control: flood session rejected ({e})");
                true
            }
            Ok(id) => {
                // Only the degrading QoS policy may let the flood in — and
                // only in a reduced shape. Anything else blowing the budget
                // here would also blow the CI smoke-test budget with 640×640
                // fulls.
                assert_eq!(policy, "degrade", "flood admitted under {policy}");
                println!("\n[{policy}] admission control: flood session {id} admitted DEGRADED");
                false
            }
        }
    };

    let sessions = server.session_count();
    let wall_start = std::time::Instant::now();
    let (report, fleet) = match server {
        Backend::Bare(mut s) => (s.run(), None),
        Backend::Fleet(mut f) => {
            let fleet = f.run();
            (fleet.shards[0].clone(), Some(fleet))
        }
    };
    let wall_s = wall_start.elapsed().as_secs_f64();
    SwarmRun {
        sessions,
        report,
        fleet,
        flood_rejected,
        wall_s,
    }
}

fn total_hits(reports: &[ServiceReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| r.sessions.iter())
        .map(|s| s.cache_hits)
        .sum()
}

fn psnr_sum(reports: &[ServiceReport]) -> f64 {
    reports
        .iter()
        .flat_map(|r| r.sessions.iter())
        .filter(|s| s.name != "flood") // the degraded flood is extra
        .map(|s| s.mean_psnr_db)
        .sum()
}

fn digest_suffix(policy: &str) -> String {
    if policy == "default" {
        String::new()
    } else {
        format!("[{policy}]")
    }
}

fn print_session_table(sessions: &[SessionSummary]) {
    println!(
        "  {:<24} {:>11} {:>7} {:>10} {:>8} {:>6} {:>6}",
        "session", "qos", "frames", "mean lat", "psnr", "miss", "hits"
    );
    for s in sessions {
        println!(
            "  {:<24} {:>11} {:>7} {:>8.2}ms {:>6.1}dB {:>6} {:>6}",
            s.name,
            s.qos.label(),
            s.frames,
            s.mean_latency_s * 1e3,
            s.mean_psnr_db,
            s.deadline_misses,
            s.cache_hits
        );
    }
}

fn print_run(policy: &str, run: &SwarmRun, verbose: bool, render_threads: usize, armed: bool) {
    let report = &run.report;
    if verbose {
        println!("\nper-session summary:");
        print_session_table(&report.sessions);
    }

    println!("\n[{policy}] aggregate:");
    println!("  sessions                  {}", run.sessions);
    println!("  frames served             {}", report.frames);
    println!("  makespan                  {:.3} s", report.makespan_s);
    println!(
        "  throughput                {:.1} frames/s",
        report.throughput_fps
    );
    println!(
        "  p50 / p99 frame latency   {:.2} / {:.2} ms",
        report.p50_latency_s * 1e3,
        report.p99_latency_s * 1e3
    );
    println!(
        "  deadline misses           {} ({:.1}%)",
        report.deadline_misses,
        report.deadline_miss_rate * 100.0
    );
    println!(
        "  reference cache           {} hits / {} misses ({} pool jobs)",
        report.cache.hits, report.cache.misses, report.reference_jobs
    );
    if report.prefetch_jobs > 0 {
        println!(
            "  prefetch                  {} jobs: {} hits, {} wasted",
            report.prefetch_jobs, report.cache.prefetch_hits, report.cache.prefetch_wasted
        );
    }
    for d in &report.degradations {
        let (w0, w1) = d.degradation.window;
        let ((x0, y0), (x1, y1)) = d.degradation.resolution;
        println!(
            "  degraded                  {}: window {w0}→{w1}, {x0}×{y0}→{x1}×{y1}",
            d.name
        );
    }
    if armed {
        let f = &report.faults;
        println!(
            "  faults                    {} injected ({} crashes, {} stragglers, {} corruptions, {} stalls, {} drops)",
            f.injected(), f.worker_crashes, f.stragglers, f.cache_corruptions, f.pose_stalls, f.pose_drops
        );
        println!(
            "  recoveries                {} ({} retries, {} fallback warps, {} degraded re-renders, {} watchdog grants)",
            f.recoveries(), f.retries, f.fallback_warps, f.degraded_rerenders, f.watchdog_grants
        );
        println!(
            "  availability              {:.4} ({} unrecovered of {} frames, {:.3} s recovering)",
            f.availability, f.unrecovered, report.frames, f.time_to_recover_s
        );
    }
    println!(
        "  pool                      {} workers at {:.0}% utilization",
        report.workers,
        report.pool_utilization * 100.0
    );
    println!(
        "  host                      {} render thread(s): {} frames in {:.2} s wall clock ({:.1} frames/s)",
        render_threads,
        report.frames,
        run.wall_s,
        report.frames as f64 / run.wall_s.max(1e-9)
    );

    // Determinism oracle: every field here is simulated-time state, so the
    // line must be byte-identical at any host thread budget (and under
    // streaming ingestion). CI diffs these digests across 1 vs 4 threads
    // and stream vs whole-trajectory legs.
    let suffix = digest_suffix(policy);
    println!(
        "digest{suffix}: frames={} makespan={:.12} p50={:.12} p99={:.12} misses={} ref_jobs={} prefetch={} degraded={} cache_hits={} psnr_sum={:.9}",
        report.frames,
        report.makespan_s,
        report.p50_latency_s,
        report.p99_latency_s,
        report.deadline_misses,
        report.reference_jobs,
        report.prefetch_jobs,
        report.degradations.len(),
        total_hits(std::slice::from_ref(report)),
        psnr_sum(std::slice::from_ref(report))
    );
    // The chaos leg gets its own digest: same determinism contract, printed
    // only when an injector is armed so fault-free output stays byte-stable.
    if armed {
        print_fault_digest(
            &suffix,
            std::slice::from_ref(report),
            report.faults.availability,
        );
    }
}

/// The chaos digest over one or more shard reports: counters summed, the
/// availability supplied by the caller (per-shard for a bare run, fleet-wide
/// for a sharded one).
fn print_fault_digest(suffix: &str, reports: &[ServiceReport], availability: f64) {
    let sum =
        |field: fn(&FaultReport) -> u64| -> u64 { reports.iter().map(|r| field(&r.faults)).sum() };
    let ttr: f64 = reports.iter().map(|r| r.faults.time_to_recover_s).sum();
    println!(
        "fault_digest{suffix}: injected={} crashes={} stragglers={} corruptions={} stalls={} drops={} retries={} fallback_warps={} fallback_frames={} degraded_rerenders={} quarantines={} watchdog_grants={} unrecovered={} ttr={:.9} availability={:.6}",
        sum(FaultReport::injected),
        sum(|f| f.worker_crashes),
        sum(|f| f.stragglers),
        sum(|f| f.cache_corruptions),
        sum(|f| f.pose_stalls),
        sum(|f| f.pose_drops),
        sum(|f| f.retries),
        sum(|f| f.fallback_warps),
        sum(|f| f.fallback_warp_frames),
        sum(|f| f.degraded_rerenders),
        sum(|f| f.quarantines),
        sum(|f| f.watchdog_grants),
        sum(|f| f.unrecovered),
        ttr,
        availability,
    );
}

/// The multi-shard aggregate printout: fleet-wide figures from the
/// [`FleetReport`], per-shard digest inputs summed over the shard reports.
fn print_fleet_run(
    policy: &str,
    run: &SwarmRun,
    fleet: &FleetReport,
    verbose: bool,
    render_threads: usize,
    armed: bool,
) {
    if verbose {
        for (i, shard) in fleet.shards.iter().enumerate() {
            if shard.sessions.is_empty() {
                continue;
            }
            println!("\nshard {i} per-session summary:");
            print_session_table(&shard.sessions);
        }
    }

    println!("\n[{policy}] fleet aggregate:");
    println!(
        "  shards                    {} ({} alive at exit)",
        fleet.shards.len(),
        fleet.alive_shards
    );
    println!("  sessions                  {}", run.sessions);
    println!("  frames served             {}", fleet.frames);
    println!("  makespan                  {:.3} s", fleet.makespan_s);
    println!(
        "  throughput                {:.1} frames/s",
        fleet.throughput_fps
    );
    println!(
        "  p50 / p99 frame latency   {:.2} / {:.2} ms",
        fleet.p50_latency_s * 1e3,
        fleet.p99_latency_s * 1e3
    );
    println!(
        "  deadline misses           {} ({:.1}%)",
        fleet.deadline_misses,
        fleet.deadline_miss_rate * 100.0
    );
    if armed {
        println!(
            "  shard health              {} heartbeat misses, {} crashes, {} brownouts",
            fleet.heartbeat_misses, fleet.shard_crashes, fleet.shard_brownouts
        );
        for m in &fleet.migrations {
            if m.resumed_s >= 0.0 {
                println!(
                    "  failover                  {}: shard {} → {} at {:.3} s, resumed +{:.3} s",
                    m.name, m.from_shard, m.to_shard, m.at_s, m.time_to_resume_s
                );
            } else {
                println!(
                    "  failover                  {}: shard {} → {} at {:.3} s, never resumed",
                    m.name, m.from_shard, m.to_shard, m.at_s
                );
            }
        }
        if fleet.lost_sessions > 0 {
            println!(
                "  lost                      {} session(s), {} frame(s) — no survivor to adopt",
                fleet.lost_sessions, fleet.lost_frames
            );
        }
        println!("  availability              {:.4}", fleet.availability);
    }
    println!(
        "  host                      {} render thread(s): {} frames in {:.2} s wall clock ({:.1} frames/s)",
        render_threads,
        fleet.frames,
        run.wall_s,
        fleet.frames as f64 / run.wall_s.max(1e-9)
    );

    // Same determinism contract as the bare digest — the fleet report is
    // bit-identical at any host thread budget, so CI diffs these lines
    // across the 1- and 4-thread chaos legs.
    let suffix = digest_suffix(policy);
    println!(
        "digest{suffix}: frames={} makespan={:.12} p50={:.12} p99={:.12} misses={} ref_jobs={} prefetch={} degraded={} cache_hits={} psnr_sum={:.9}",
        fleet.frames,
        fleet.makespan_s,
        fleet.p50_latency_s,
        fleet.p99_latency_s,
        fleet.deadline_misses,
        fleet.shards.iter().map(|r| r.reference_jobs).sum::<u64>(),
        fleet.shards.iter().map(|r| r.prefetch_jobs).sum::<u64>(),
        fleet
            .shards
            .iter()
            .map(|r| r.degradations.len())
            .sum::<usize>(),
        total_hits(&fleet.shards),
        psnr_sum(&fleet.shards)
    );
    if armed {
        print_fault_digest(&suffix, &fleet.shards, fleet.availability);
    }
}

/// The fleet-health digest line: printed for every `--shards` run (any
/// count), bit-stable at any thread budget like the others.
fn print_fleet_digest(policy: &str, fleet: &FleetReport) {
    let resumed = fleet
        .migrations
        .iter()
        .filter(|m| m.resumed_s >= 0.0)
        .count();
    let mean_ttr = if resumed > 0 {
        fleet
            .migrations
            .iter()
            .filter(|m| m.time_to_resume_s >= 0.0)
            .map(|m| m.time_to_resume_s)
            .sum::<f64>()
            / resumed as f64
    } else {
        0.0
    };
    let suffix = digest_suffix(policy);
    println!(
        "fleet_digest{suffix}: shards={} alive={} crashes={} brownouts={} hb_misses={} migrations={} resumed={} lost_sessions={} lost_frames={} mean_ttr={:.9} availability={:.6}",
        fleet.shards.len(),
        fleet.alive_shards,
        fleet.shard_crashes,
        fleet.shard_brownouts,
        fleet.heartbeat_misses,
        fleet.migrations.len(),
        resumed,
        fleet.lost_sessions,
        fleet.lost_frames,
        mean_ttr,
        fleet.availability,
    );
}

fn main() {
    let args = parse_args();
    if args.trace.is_some() || args.metrics.is_some() {
        // A swarm drain emits far more events than the default ring holds;
        // size the per-thread rings to retain the whole run.
        telemetry::enable_with_capacity(1 << 16);
    }
    let policies: Vec<&str> = match args.policy.as_str() {
        "all" => vec!["default", "affinity", "degrade", "prefetch"],
        one => vec![one],
    };
    let faults = args.fault_plan();
    println!("==========================================================");
    println!(
        "serve_swarm: {} sessions over {} scenes, {} render thread(s), policies {:?}{}{}{}",
        SCENES.len() * VIEWERS_PER_SCENE,
        SCENES.len(),
        args.render_threads,
        policies,
        match args.shards {
            Some(n) => format!(", {n}-shard fleet"),
            None => String::new(),
        },
        if args.stream {
            ", streaming ingestion"
        } else {
            ""
        },
        match &faults {
            Some(p) => format!(
                ", faults seed {} rate {} shard rate {}",
                p.seed, p.crash_rate, p.shard_crash_rate
            ),
            None => String::new(),
        }
    );
    println!("==========================================================");

    let assets: Vec<SceneAssets> = SCENES
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
            let orbit = Trajectory::orbit(&scene, FRAMES, FPS);
            let handheld = Trajectory::handheld(&scene, FRAMES, FPS, 7);
            SceneAssets {
                name,
                scene,
                model,
                orbit,
                handheld,
            }
        })
        .collect();

    let mut runs: Vec<(&str, SwarmRun)> = Vec::new();
    for (i, policy) in policies.iter().enumerate() {
        let run = run_swarm(
            &assets,
            policy,
            args.render_threads,
            args.stream,
            faults,
            args.shards,
        );
        assert!(run.sessions >= 24, "swarm must run at least 24 sessions");
        assert!(
            total_hits(run.shard_reports()) >= 1,
            "expected at least one cross-session cache hit"
        );
        assert!(run.throughput_fps() > 0.0);
        if faults.is_some() && args.fault_rate.is_none() && args.shard_rate.is_none() {
            // Acceptance at the standard chaos rate: faults actually fired,
            // the recovery ladder engaged, and the fleet stayed available —
            // for sharded runs the availability is fleet-wide, lost-session
            // frames included.
            let (injected, recoveries, availability) = run.fault_totals();
            assert!(injected > 0, "[{policy}] armed plan never fired");
            assert!(recoveries > 0, "[{policy}] no recovery engaged");
            assert!(
                availability >= 0.99,
                "[{policy}] availability {availability} < 0.99"
            );
        }
        match &run.fleet {
            Some(fleet) if fleet.shards.len() > 1 => {
                print_fleet_run(
                    policy,
                    &run,
                    fleet,
                    i == 0,
                    args.render_threads,
                    faults.is_some(),
                );
            }
            _ => print_run(policy, &run, i == 0, args.render_threads, faults.is_some()),
        }
        if let Some(fleet) = &run.fleet {
            print_fleet_digest(policy, fleet);
        }
        runs.push((policy, run));
    }

    // Cross-policy acceptance checks (only meaningful with several runs).
    // Pixel- and hit-level equalities assume fault-free serving: injected
    // crashes and corruptions legitimately move reference economics, so the
    // chaos leg keeps only the admission-shape checks — and multi-shard
    // fleets skip the flood probe entirely (admission is per-shard).
    let multi_shard = matches!(args.shards, Some(n) if n > 1);
    if let Some((_, default)) = runs.iter().find(|(p, _)| *p == "default") {
        for (policy, run) in &runs {
            match *policy {
                "prefetch" if faults.is_none() => {
                    // Speculation must strictly add cache hits…
                    assert!(
                        total_hits(run.shard_reports()) > total_hits(default.shard_reports()),
                        "prefetch hits {} ≤ default {}",
                        total_hits(run.shard_reports()),
                        total_hits(default.shard_reports())
                    );
                    assert!(run.shard_reports().iter().any(|r| r.prefetch_jobs > 0));
                    // …without moving a single rendered pixel.
                    assert_eq!(
                        psnr_sum(run.shard_reports()),
                        psnr_sum(default.shard_reports()),
                        "prefetch changed rendered frames"
                    );
                }
                "degrade" if !multi_shard => {
                    // The flood the default rejected is admitted, degraded.
                    assert!(default.flood_rejected);
                    assert!(!run.flood_rejected, "degrade policy still rejected");
                    assert!(run
                        .shard_reports()
                        .iter()
                        .any(|r| !r.degradations.is_empty()));
                }
                _ => {}
            }
        }
        println!("\ncross-policy checks OK");
    }

    if let Some(path) = &args.report_json {
        let value = serde::Value::Object(
            runs.iter()
                .map(|(policy, run)| {
                    let report = match &run.fleet {
                        Some(fleet) => serde::Serialize::to_value(fleet),
                        None => serde::Serialize::to_value(&run.report),
                    };
                    (policy.to_string(), report)
                })
                .collect(),
        );
        let json =
            serde_json::to_string_pretty(&value).unwrap_or_else(|e| fail("serialize report", e));
        std::fs::write(path, json).unwrap_or_else(|e| fail("write report json", e));
        println!("report json -> {path}");
    }
    if let Some(path) = &args.trace {
        telemetry::write_chrome_trace(std::path::Path::new(path))
            .unwrap_or_else(|e| fail("write chrome trace", e));
        println!(
            "chrome trace ({} events) -> {path}",
            telemetry::event_count()
        );
    }
    if let Some(path) = &args.metrics {
        telemetry::write_prometheus(std::path::Path::new(path))
            .unwrap_or_else(|e| fail("write prometheus metrics", e));
        println!("prometheus metrics -> {path}");
    }

    let (_, first) = &runs[0];
    println!(
        "\nOK: {} sessions, {} cross-session cache hits",
        first.sessions,
        total_hits(first.shard_reports())
    );
}
