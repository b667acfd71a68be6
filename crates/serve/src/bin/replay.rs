//! `replay` — deterministic traffic replay.
//!
//! ```text
//! cargo run --release -p cicero-serve --bin replay -- generate \
//!     [--out traffic.profile] [--seed 42] [--sessions 16] [--duration 0.4] \
//!     [--arrivals uniform|diurnal|flash] [--streaming 0.25]
//! cargo run --release -p cicero-serve --bin replay -- replay \
//!     --profile traffic.profile [--threads 0] [--disarmed] \
//!     [--max-sessions 2] [--queue-cap 32] [--slack 8.0] [--report-json R] \
//!     [--trace T.json] [--metrics M.prom]
//! ```
//!
//! `generate` dumps a versioned [`TrafficProfile`] from the seeded model;
//! `replay` steps a fleet of one ([`run_replay`]) from a profile file —
//! open-loop session arrivals, closed-loop pose streams, backpressure
//! honored with seeded retries — and prints what the clients and the
//! overload queue saw. A server configuration the fleet refuses (a NaN or
//! negative `--slack`) fails the run with its reason. Every figure is simulated time, so the
//! outcome is bit-identical at any `--threads` value; `tests/swarm_matrix.rs`
//! holds the replay legs CI runs to that (and prints their digest lines).
//! `--trace` / `--metrics` arm the telemetry recorder for the replay and
//! write a chrome-trace JSON (load in Perfetto / `chrome://tracing`) and a
//! Prometheus text snapshot; telemetry is observe-only.

use cicero_field::GridConfig;
use cicero_math::Intrinsics;
use cicero_serve::{
    run_replay, AdmissionPolicy, ArrivalProcess, OverloadControl, ReplayOptions, ServeConfig,
    TrafficAssets, TrafficModel, TrafficProfile,
};
use cicero_telemetry as telemetry;
use std::path::Path;
use std::time::Instant;

/// A CLI mistake is the *user's* error, not a harness fault: explain and
/// exit instead of panicking with a backtrace.
fn usage(msg: &str) -> ! {
    eprintln!("replay: {msg}");
    eprintln!(
        "usage: replay generate [--out F] [--seed N] [--sessions N] [--duration S] [--arrivals A] [--streaming F]\n\
         \x20      replay replay --profile F [--threads N] [--disarmed] [--max-sessions N] [--queue-cap N] [--slack X] [--report-json R]\n\
         \x20                    [--trace T] [--metrics M]"
    );
    std::process::exit(2);
}

/// A runtime failure (an unreadable profile, an unwritable output) surfaces
/// as a message and a nonzero exit, never a panic.
fn fail(context: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("replay: {context}: {e}");
    std::process::exit(1);
}

fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage(&format!("missing value for {flag}")))
}

/// The next value parsed as a `T`, or a usage error saying it takes `what`.
fn parsed<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    flag_value(it, flag)
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes {what}")))
}

fn cmd_generate(mut it: impl Iterator<Item = String>) {
    let mut out = "traffic.profile".to_string();
    let mut seed = 42u64;
    let mut sessions = 16usize;
    let mut duration = 0.4f64;
    let mut arrivals = ArrivalProcess::Uniform;
    let mut streaming = 0.25f64;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = flag_value(&mut it, "--out"),
            "--seed" => seed = parsed(&mut it, "--seed", "a u64"),
            "--sessions" => sessions = parsed(&mut it, "--sessions", "a count"),
            "--duration" => duration = parsed(&mut it, "--duration", "seconds"),
            "--arrivals" => {
                arrivals = match flag_value(&mut it, "--arrivals").as_str() {
                    "uniform" => ArrivalProcess::Uniform,
                    "diurnal" => ArrivalProcess::Diurnal { peak_boost: 3.0 },
                    "flash" => ArrivalProcess::FlashCrowd {
                        at_frac: 0.3,
                        width_frac: 0.1,
                        crowd_frac: 0.85,
                    },
                    other => usage(&format!("unknown arrival process {other:?}")),
                }
            }
            "--streaming" => streaming = parsed(&mut it, "--streaming", "a fraction"),
            other => usage(&format!("unknown generate flag {other}")),
        }
    }
    let model = TrafficModel {
        sessions,
        duration_s: duration,
        arrivals,
        scenes: ["lego", "chair", "ship", "hotdog"]
            .map(String::from)
            .to_vec(),
        zipf_s: 1.0,
        qos_mix: [2.0, 2.0, 1.0],
        streaming_frac: streaming,
        frames: 5,
        base_fps: 30.0,
        fps_jitter: 0.1,
    };
    // The user's input: a law the model refuses is a usage error.
    if let Err(e) = model.check() {
        usage(&e);
    }
    let profile = model.generate(seed);
    if let Err(e) = std::fs::write(&out, profile.to_text()) {
        fail(&format!("writing {out}"), e);
    }
    println!(
        "generated {out}: {} sessions over {:.3}s (seed {seed})",
        profile.sessions.len(),
        profile.duration_s
    );
}

fn cmd_replay(mut it: impl Iterator<Item = String>) {
    let mut profile_path: Option<String> = None;
    let mut threads = 0usize;
    let mut disarmed = false;
    let mut max_sessions = 2usize;
    let mut queue_cap = 32usize;
    let mut slack = 8.0f64;
    let mut report_json: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut metrics: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--profile" => profile_path = Some(flag_value(&mut it, "--profile")),
            "--threads" => threads = parsed(&mut it, "--threads", "a count"),
            "--disarmed" => disarmed = true,
            "--max-sessions" => max_sessions = parsed(&mut it, "--max-sessions", "a count"),
            "--queue-cap" => queue_cap = parsed(&mut it, "--queue-cap", "a count"),
            "--slack" => slack = parsed(&mut it, "--slack", "a factor"),
            "--report-json" => report_json = Some(flag_value(&mut it, "--report-json")),
            "--trace" => trace = Some(flag_value(&mut it, "--trace")),
            "--metrics" => metrics = Some(flag_value(&mut it, "--metrics")),
            other => usage(&format!("unknown replay flag {other}")),
        }
    }
    let Some(path) = profile_path else {
        usage("replay mode needs --profile FILE");
    };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("reading {path}"), e));
    let profile =
        TrafficProfile::parse(&text).unwrap_or_else(|e| fail(&format!("parsing {path}"), e));
    let grid = GridConfig {
        resolution: 24,
        ..Default::default()
    };
    let assets =
        TrafficAssets::build(&profile, &grid).unwrap_or_else(|e| fail("baking profile assets", e));
    let cfg = ServeConfig {
        render_threads: threads,
        admission: AdmissionPolicy {
            max_sessions,
            ..Default::default()
        },
        overload: (!disarmed).then_some(OverloadControl {
            queue_capacity: queue_cap,
            deadline_slack: slack,
            ..Default::default()
        }),
        ..Default::default()
    };
    let opts = ReplayOptions {
        cfg,
        client_seed: profile.seed,
        intrinsics: Intrinsics::from_fov(24, 24, 0.9),
        ..Default::default()
    };
    if trace.is_some() || metrics.is_some() {
        // A replay emits far more events than the default ring holds; size
        // the per-thread rings to retain the whole run.
        telemetry::enable_with_capacity(1 << 16);
    }
    let wall = Instant::now();
    let out = run_replay(&profile, &assets, &opts).unwrap_or_else(|e| fail("replay", e));
    let (r, c, o) = (&out.report, &out.client, &out.report.overload);
    println!(
        "replayed {path}: {} sessions, {} frames in {:.3}s simulated ({:.3}s wall, {} scenes)",
        profile.sessions.len(),
        r.frames,
        r.makespan_s,
        wall.elapsed().as_secs_f64(),
        assets.scene_count(),
    );
    println!(
        "  goodput {:.1} frames/s; on time: interactive {:.3}, standard {:.3}, best-effort {:.3}",
        out.goodput_fps, out.attainment[0], out.attainment[1], out.attainment[2]
    );
    println!(
        "  clients: {} submitted, {} admitted, {} queued, {} rejected, {} retries, {} abandoned",
        c.submitted, c.admitted, c.queued, c.rejected, c.retries, c.abandoned
    );
    println!(
        "  overload: {} enqueued, {} queue admits, {} brownout admits, {} sheds, {} pushed back, queue peak {}",
        o.enqueued, o.queue_admits, o.brownout_admits, o.sheds, o.backpressure, o.queue_peak
    );
    if let Some(path) = report_json {
        let json = serde_json::to_string_pretty(&out)
            .unwrap_or_else(|e| fail("serializing replay outcome", e));
        if let Err(e) = std::fs::write(&path, json) {
            fail(&format!("writing {path}"), e);
        }
        println!("wrote {path}");
    }
    if let Some(path) = trace {
        telemetry::write_chrome_trace(Path::new(&path))
            .unwrap_or_else(|e| fail(&format!("writing {path}"), e));
        println!(
            "chrome trace ({} events) -> {path}",
            telemetry::event_count()
        );
    }
    if let Some(path) = metrics {
        telemetry::write_prometheus(Path::new(&path))
            .unwrap_or_else(|e| fail(&format!("writing {path}"), e));
        println!("prometheus metrics -> {path}");
    }
}

fn main() {
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("generate") => cmd_generate(it),
        Some("replay") => cmd_replay(it),
        Some(other) => usage(&format!("unknown mode {other}")),
        None => usage("missing mode"),
    }
}
