//! `serve_swarm` — a fleet of heterogeneous clients on one SoC pool.
//!
//! Spins up dozens of concurrent sessions across several library scenes —
//! head-tracked interactive viewers, standard screen viewers and best-effort
//! preview exporters, mixing the paper's Local and Remote scenarios — and
//! drains them through the `cicero-serve` batch scheduler. Co-located
//! sessions share reference renders through the pose-quantized cache. The
//! session mix is `examples/swarm_mix.rs`, which `tests/swarm_matrix.rs` (the
//! serve oracle CI runs) drives through every leg this demo can show.
//!
//! ```text
//! cargo run --release --example serve_swarm [-- THREADS] [--policy P] [--faults SEED]
//!                                           [--shards N] [--trace T.json] [--metrics M.prom]
//! ```
//!
//! - `THREADS` is the server's total host thread budget (default 1): ready
//!   sessions step concurrently on the persistent render pool. The service
//!   report is bit-identical at any budget; only wall-clock moves.
//! - `--policy <default|affinity|degrade|prefetch|all>` selects the serving
//!   policy bundle (`all` runs each in turn over the same baked assets).
//! - `--faults <seed>` arms deterministic fault injection (worker crashes,
//!   stragglers, cache corruption; with `--shards` also shard crashes and
//!   brownouts) at the standard rate mix.
//! - `--shards <n>` serves the swarm through an n-shard [`Fleet`] instead of
//!   a bare [`FrameServer`]: sessions route to shards by scene hash, shards
//!   are heartbeat health-checked when faults are armed, and a dead shard's
//!   sessions fail over to survivors bit-identically.
//! - `--trace <path>` / `--metrics <path>` enable the telemetry recorder and
//!   write a chrome-trace JSON (load in Perfetto / `chrome://tracing`) and a
//!   Prometheus text snapshot at exit. Telemetry is observe-only.

#[path = "swarm_mix.rs"]
mod swarm_mix;

use cicero_serve::{FaultPlan, FleetReport, Policies, ServiceReport, SessionSummary};
use cicero_telemetry as telemetry;
use std::path::Path;
use swarm_mix::{Served, SwarmRun};

struct Args {
    render_threads: usize,
    policy: String,
    shards: Option<usize>,
    faults: Option<FaultPlan>,
    trace: Option<String>,
    metrics: Option<String>,
}

/// A CLI mistake is the *user's* error, not a server fault: explain and exit
/// instead of panicking with a backtrace.
fn usage(msg: &str) -> ! {
    eprintln!("serve_swarm: {msg}");
    eprintln!(
        "usage: serve_swarm [THREADS] [--policy P] [--faults SEED] [--shards N] [--trace T] [--metrics M]"
    );
    std::process::exit(2);
}

/// A runtime failure (a rejected serve call, an unwritable output file)
/// surfaces as a message and a nonzero exit — the serve API returns
/// `ServeError` everywhere precisely so a client binary never dies on a
/// panic.
fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("serve_swarm: {context}: {e}");
    std::process::exit(1);
}

fn number<T: std::str::FromStr>(value: Option<String>, what: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{what} must be a number")))
}

fn parse_args() -> Args {
    let mut args = Args {
        render_threads: 0,
        policy: "default".into(),
        shards: None,
        faults: None,
        trace: None,
        metrics: None,
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
            "--shards" => match number(it.next(), "--shards") {
                0 => usage("--shards must be at least 1"),
                n => args.shards = Some(n),
            },
            "--faults" => args.faults = Some(FaultPlan::seeded(number(it.next(), "--faults seed"))),
            "--trace" => {
                args.trace = Some(it.next().unwrap_or_else(|| usage("--trace takes a path")));
            }
            "--metrics" => {
                args.metrics = Some(it.next().unwrap_or_else(|| usage("--metrics takes a path")));
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            other if threads.is_none() => threads = Some(number(Some(other.into()), "THREADS")),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    if args.policy != "all" && Policies::by_name(&args.policy).is_none() {
        usage(&format!(
            "unknown policy {} (default|affinity|degrade|prefetch|all)",
            args.policy
        ));
    }
    args.render_threads = threads.unwrap_or(1).max(1);
    args
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

fn print_bare(report: &ServiceReport, armed: bool) {
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
            "  faults                    {} injected ({} crashes, {} stragglers, {} corruptions)",
            f.injected(),
            f.worker_crashes,
            f.stragglers,
            f.cache_corruptions
        );
        println!(
            "  recoveries                {} ({} retries, {} fallback warps, {} degraded re-renders, {} watchdog grants)",
            f.recoveries(), f.retries, f.fallback_warps, f.degraded_rerenders, f.watchdog_grants
        );
        println!("  availability              {:.4}", f.availability);
    }
    println!(
        "  pool                      {} workers at {:.0}% utilization",
        report.workers,
        report.pool_utilization * 100.0
    );
}

fn print_fleet(fleet: &FleetReport, armed: bool) {
    println!(
        "  shards                    {} ({} alive at exit)",
        fleet.shards.len(),
        fleet.alive_shards
    );
    if armed {
        println!(
            "  shard health              {} heartbeat misses, {} crashes, {} brownouts",
            fleet.heartbeat_misses, fleet.shard_crashes, fleet.shard_brownouts
        );
        for m in &fleet.migrations {
            let resumed = match m.resumed_s >= 0.0 {
                true => format!("resumed +{:.3} s", m.time_to_resume_s),
                false => "never resumed".into(),
            };
            println!(
                "  failover                  {}: shard {} → {} at {:.3} s, {resumed}",
                m.name, m.from_shard, m.to_shard, m.at_s
            );
        }
        if fleet.lost_sessions > 0 {
            println!(
                "  lost                      {} session(s), {} frame(s) — no survivor to adopt",
                fleet.lost_sessions, fleet.lost_frames
            );
        }
        println!("  availability              {:.4}", fleet.availability);
    }
}

fn print_run(policy: &str, run: &SwarmRun, wall_s: f64, verbose: bool, armed: bool) {
    match &run.flood {
        Some(Err(e)) => println!("\n[{policy}] admission control: flood session rejected ({e})"),
        Some(Ok(id)) => println!("\n[{policy}] admission control: flood {id} admitted DEGRADED"),
        None => {}
    }
    if verbose {
        for (i, shard) in run.shard_reports().iter().enumerate() {
            if !shard.sessions.is_empty() {
                println!("\nshard {i} per-session summary:");
                print_session_table(&shard.sessions);
            }
        }
    }
    let (frames, makespan, throughput, p50, p99, misses, miss_rate) = match &run.served {
        Served::Bare(r) => (
            r.frames,
            r.makespan_s,
            r.throughput_fps,
            r.p50_latency_s,
            r.p99_latency_s,
            r.deadline_misses,
            r.deadline_miss_rate,
        ),
        Served::Fleet(f) => (
            f.frames,
            f.makespan_s,
            f.throughput_fps,
            f.p50_latency_s,
            f.p99_latency_s,
            f.deadline_misses,
            f.deadline_miss_rate,
        ),
    };
    println!("\n[{policy}] aggregate:");
    println!("  sessions                  {}", run.sessions);
    println!("  frames served             {frames}");
    println!("  makespan                  {makespan:.3} s");
    println!("  throughput                {throughput:.1} frames/s");
    println!(
        "  p50 / p99 frame latency   {:.2} / {:.2} ms",
        p50 * 1e3,
        p99 * 1e3
    );
    println!(
        "  deadline misses           {misses} ({:.1}%)",
        miss_rate * 100.0
    );
    println!("  cross-session cache hits  {}", run.cache_hits());
    match &run.served {
        Served::Bare(r) => print_bare(r, armed),
        Served::Fleet(f) => print_fleet(f, armed),
    }
    println!(
        "  host                      {frames} frames in {wall_s:.2} s wall clock ({:.1} frames/s)",
        frames as f64 / wall_s.max(1e-9)
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
        "all" => swarm_mix::POLICIES.to_vec(),
        one => vec![one],
    };
    println!(
        "serve_swarm: {} sessions over {} scenes, {} render thread(s), policies {policies:?}{}{}",
        swarm_mix::SCENES.len() * swarm_mix::VIEWERS_PER_SCENE,
        swarm_mix::SCENES.len(),
        args.render_threads,
        args.shards
            .map_or(String::new(), |n| format!(", {n}-shard fleet")),
        args.faults
            .map_or(String::new(), |p| format!(", faults seed {}", p.seed)),
    );

    let assets = swarm_mix::bake_assets();
    for (i, policy) in policies.iter().enumerate() {
        let wall = std::time::Instant::now();
        let run = swarm_mix::run_swarm(
            &assets,
            policy,
            args.render_threads,
            false,
            args.faults,
            args.shards,
        )
        .unwrap_or_else(|e| fail("swarm session rejected", e));
        let wall_s = wall.elapsed().as_secs_f64();
        print_run(policy, &run, wall_s, i == 0, args.faults.is_some());
    }

    if let Some(path) = &args.trace {
        telemetry::write_chrome_trace(Path::new(path))
            .unwrap_or_else(|e| fail("write chrome trace", e));
        println!(
            "chrome trace ({} events) -> {path}",
            telemetry::event_count()
        );
    }
    if let Some(path) = &args.metrics {
        telemetry::write_prometheus(Path::new(path))
            .unwrap_or_else(|e| fail("write prometheus metrics", e));
        println!("prometheus metrics -> {path}");
    }
}
