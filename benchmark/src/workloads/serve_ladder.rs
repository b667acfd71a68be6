//! `serve_ladder`: where the service's SLOs break.
//!
//! `run_replay` of seeded `TrafficModel` profiles at seven frozen offered
//! rates against **one** simulated worker with overload control armed.
//! Session arrivals are open loop (simulated instants, so the generator
//! cannot lag), pose streams closed loop. `serve` (admission, queue,
//! scheduler, cache) does the deciding and the 24×24 frames are tiny, so
//! this is the scheduler-bound workload and the only one whose simulated
//! metrics mean *capacity*: `field` or `sparw` changes may move its host
//! `frames_per_s` but must leave every simulated number bit-identical.
//!
//! The default 4-worker pool only echoes the offered rate back up to 128
//! sessions/s (the 252.127 fps plateau of the older fleet and policy
//! benches); one worker puts the knee inside the ladder.

use super::{below_floor, best_of, repeat_setup, timed_passes, Ctx, Emitter, EndToEnd, FOV};
use crate::host::HostClock;
use crate::spec::LADDER_RATES;
use crate::stats::{knee, median, mix, Digest};
use crate::trace::Tracer;
use cicero_accel::{PoolConfig, SocConfig};
use cicero_field::GridConfig;
use cicero_math::Intrinsics;
use cicero_serve::{
    run_replay, AdmissionPolicy, ArrivalProcess, LoadAdaptiveDegrade, OverloadControl, Policies,
    RefCacheConfig, ReplayOptions, ReplayOutcome, ServeConfig, TrafficAssets, TrafficModel,
    TrafficProfile,
};

/// On-time share a rung must hold to count as within capacity.
const SLO_SHARE: f64 = 0.85;
/// Per-session mean PSNR floor of the quality replay, dB.
const PSNR_FLOOR_DB: f64 = 15.0;
const TAG_PROFILE: u64 = 100;
const TAG_CLIENT: u64 = 2;

struct Size {
    /// Arrival window, simulated seconds.
    duration_s: f64,
    frames_per_session: u32,
    px: usize,
    grid: usize,
}

fn size(smoke: bool) -> Size {
    Size {
        duration_s: if smoke { 0.125 } else { 1.0 },
        frames_per_session: 8,
        px: 24,
        grid: 24,
    }
}

fn traffic_model(sz: &Size, rate: u32) -> TrafficModel {
    TrafficModel {
        sessions: (rate as f64 * sz.duration_s).round() as usize,
        duration_s: sz.duration_s,
        arrivals: ArrivalProcess::Uniform,
        scenes: vec![
            "lego".into(),
            "chair".into(),
            "ship".into(),
            "hotdog".into(),
        ],
        zipf_s: 1.0,
        qos_mix: [2.0, 2.0, 1.0],
        streaming_frac: 0.25,
        frames: sz.frames_per_session,
        base_fps: 30.0,
        fps_jitter: 0.1,
    }
}

/// One simulated worker, overload control armed, serial stepping.
fn serve_config() -> ServeConfig {
    ServeConfig {
        pool: PoolConfig {
            workers: 1,
            soc: SocConfig::default(),
        },
        cache: RefCacheConfig {
            capacity: 128,
            pos_quantum: 0.05,
            rot_quantum: 0.02,
        },
        admission: AdmissionPolicy {
            max_sessions: 256,
            max_utilization: 0.85,
            full_s_per_pixel: 3.0e-6,
            target_s_per_pixel: 2.0e-7,
        },
        policies: Policies::default(),
        lookahead: None,
        render_threads: 0,
        faults: None,
        overload: Some(OverloadControl {
            queue_capacity: 16,
            deadline_slack: 0.5,
            min_retry_s: 0.05,
            brownout: Some(LoadAdaptiveDegrade {
                max_window: 24,
                min_resolution: 64,
            }),
        }),
    }
}

fn replay_options(seed: u64, px: usize, collect_quality: bool) -> ReplayOptions {
    ReplayOptions {
        cfg: serve_config(),
        client_seed: mix(seed, TAG_CLIENT),
        max_retries: 3,
        intrinsics: Intrinsics::from_fov(px, px, FOV),
        window: 4,
        collect_quality,
    }
}

struct Rung {
    rate: u32,
    profile: TrafficProfile,
    assets: TrafficAssets,
}

/// One replay of one rung.
struct Replay {
    outcome: Option<ReplayOutcome>,
    /// Wall time of the replay.
    secs: f64,
    /// Mean of the host slowdown read before and after it.
    slowdown: f64,
}

impl Replay {
    fn served(&self) -> u64 {
        self.outcome.as_ref().map_or(0, |o| o.report.frames as u64)
    }
}

fn offered(o: &ReplayOutcome) -> u64 {
    o.offered_frames.iter().sum()
}

fn ontime(o: &ReplayOutcome) -> u64 {
    o.ontime_frames.iter().sum()
}

fn ontime_share(o: &ReplayOutcome) -> f64 {
    ontime(o) as f64 / offered(o).max(1) as f64
}

/// Everything simulated about a replay that two runs must agree on.
fn outcome_digest(d: &mut Digest, o: &ReplayOutcome) {
    let r = &o.report;
    d.word(r.frames as u64);
    for v in [
        r.makespan_s,
        r.throughput_fps,
        r.p50_latency_s,
        r.p99_latency_s,
        r.pool_utilization,
        r.overload.max_queue_wait_s,
        o.goodput_fps,
    ] {
        d.f64(v);
    }
    let c = &o.client;
    for w in [
        r.deadline_misses,
        r.cache.hits,
        r.cache.misses,
        r.reference_jobs,
        r.overload.enqueued,
        r.overload.queue_admits,
        r.overload.brownout_admits,
        r.overload.sheds,
        r.overload.backpressure,
        r.overload.queue_peak,
        c.submitted,
        c.admitted,
        c.queued,
        c.queue_admitted,
        c.shed,
        c.rejected,
        c.backpressured,
        c.retries,
        c.abandoned,
        c.poses_pushed,
    ] {
        d.word(w);
    }
    for k in 0..3 {
        d.word(o.offered_frames[k]);
        d.word(o.ontime_frames[k]);
    }
    for rec in &r.records {
        d.word(rec.session as u64);
        d.word(rec.frame_index as u64);
        d.f64(rec.completion_s);
    }
}

/// Conservation on one outcome: on-time ≤ served ≤ offered, and every
/// submitted session was admitted, queued, rejected or abandoned.
fn conserved(o: &ReplayOutcome, sessions: usize) -> bool {
    let c = &o.client;
    ontime(o) <= o.report.frames as u64
        && o.report.frames as u64 <= offered(o)
        && c.submitted == sessions as u64
        && c.submitted == c.admitted + c.queued + c.rejected + c.abandoned
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Emitter) {
    let sz = size(ctx.smoke);
    let mut host = HostClock::default();
    out.header(
        "size",
        format_args!(
            "rates {LADDER_RATES:?} sessions/s x {} s simulated, {} frames/session, {}x{} px, grid {}^3, 4 scenes Zipf 1.0, QoS 2:2:1, 25% streaming, 1 worker, queue 16, slack 0.5, brownout on",
            sz.duration_s, sz.frames_per_session, sz.px, sz.px, sz.grid
        ),
    );
    let grid = GridConfig {
        resolution: sz.grid,
        channels: 12,
        bytes_per_channel: 2,
    };
    let opts = replay_options(ctx.seed, sz.px, false);

    // Set-up: generate the profiles, bake their assets, one warm-up replay.
    let mut build_s = Vec::new();
    let (ladder, setup_s) = repeat_setup(ctx.setup_reps(), &mut host, |host| {
        let profiles: Vec<TrafficProfile> = LADDER_RATES
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                traffic_model(&sz, rate).generate(mix(ctx.seed, TAG_PROFILE + i as u64))
            })
            .collect();
        let (assets, secs) = host.time(|| {
            profiles
                .iter()
                .map(|p| TrafficAssets::build(p, &grid).expect("library scenes only"))
                .collect::<Vec<_>>()
        });
        build_s.push(secs);
        let ladder: Vec<Rung> = LADDER_RATES
            .iter()
            .zip(profiles)
            .zip(assets)
            .map(|((&rate, profile), assets)| Rung {
                rate,
                profile,
                assets,
            })
            .collect();
        run_replay(&ladder[0].profile, &ladder[0].assets, &opts).expect("warm-up replay");
        ladder
    });

    // The timed phase: whole ladder passes while they fit.
    out.plan(ladder.len());
    let ladder_pass = |tr: &mut Tracer, host: &mut HostClock| -> Vec<Replay> {
        let mut before = host.slowdown();
        ladder
            .iter()
            .map(|rung| {
                let (result, secs) = tr.time("serve.run_replay", rung.rate as u64, || {
                    run_replay(&rung.profile, &rung.assets, &opts)
                });
                let after = host.slowdown();
                let slowdown = (before + after) / 2.0;
                before = after;
                Replay {
                    outcome: result.ok(),
                    secs,
                    slowdown,
                }
            })
            .collect()
    };
    let mut untraced_fps = None;
    if ctx.trace {
        tr.set_recording(false);
        let pass = ladder_pass(tr, &mut host);
        tr.set_recording(true);
        untraced_fps = Some(fps(&pass));
    }
    let seconds = if ctx.trace { 0.0 } else { ctx.seconds };
    let passes = timed_passes(seconds, |_| ladder_pass(tr, &mut host));

    let digest_of = |pass: &[Replay]| {
        let mut d = Digest::default();
        for o in pass.iter().filter_map(|r| r.outcome.as_ref()) {
            outcome_digest(&mut d, o);
        }
        d
    };
    let digest = digest_of(&passes[0]);
    out.check(
        "passes_repeat_exactly",
        passes.iter().all(|p| digest_of(p) == digest),
        format_args!("{} passes", passes.len()),
    );

    // A rung whose replay returns `Err`, or breaks conservation, fails whole.
    let mut failed = 0;
    for pass in &passes {
        for (rung, replay) in ladder.iter().zip(pass) {
            let ok = replay
                .outcome
                .as_ref()
                .is_some_and(|o| conserved(o, rung.profile.sessions.len()));
            if !ok {
                failed += 1;
                out.check(
                    "rung_conserved",
                    false,
                    format_args!("r{} errored or broke conservation", rung.rate),
                );
            }
        }
    }
    let attempted = passes.len() * ladder.len();
    out.ops(attempted, failed);
    if failed > 0 {
        // Nothing below is meaningful without every rung.
        out.digest(digest);
        return;
    }
    let first: Vec<&ReplayOutcome> = passes[0]
        .iter()
        .map(|r| r.outcome.as_ref().expect("checked above"))
        .collect();
    let rung_of = |rate: u32| {
        let i = LADDER_RATES
            .iter()
            .position(|&r| r == rate)
            .expect("ladder rate");
        first[i]
    };

    let rates: Vec<f64> = LADDER_RATES.iter().map(|&r| r as f64).collect();
    let shares: Vec<f64> = first.iter().map(|o| ontime_share(o)).collect();
    let (lowest, highest) = (shares[0], shares[shares.len() - 1]);
    out.check(
        "ladder_saturates",
        ctx.smoke || (lowest >= SLO_SHARE && highest < SLO_SHARE),
        format_args!(
            "on-time share {lowest:.3} at r{} and {highest:.3} at r{}",
            LADDER_RATES[0],
            LADDER_RATES[LADDER_RATES.len() - 1]
        ),
    );
    out.header(
        "ladder on-time shares",
        format_args!("{shares:.3?} at {LADDER_RATES:?}"),
    );
    out.metric(
        "capacity_sessions_per_s",
        knee(&rates, &shares, SLO_SHARE).unwrap_or(0.0),
        ladder.len(),
    );
    out.metric("goodput_fps", rung_of(768).goodput_fps, 1);
    out.metric(
        "sim_p99_latency_ms",
        rung_of(256).report.p99_latency_s * 1e3,
        rung_of(256).report.frames,
    );

    if ctx.trace {
        for (rate, o) in LADDER_RATES.iter().zip(&first) {
            let n = offered(o) as usize;
            out.metric(
                &format!("serve.ladder.ontime_share.r{rate}"),
                ontime_share(o),
                n,
            );
            out.metric(
                &format!("serve.ladder.goodput_fps.r{rate}"),
                o.goodput_fps,
                n,
            );
        }
        let knee_rung = rung_of(256);
        let cache = &knee_rung.report.cache;
        out.metric(
            "serve.cache.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            (cache.hits + cache.misses) as usize,
        );
        out.metric(
            "serve.scheduler.pool_utilization",
            knee_rung.report.pool_utilization,
            1,
        );
        out.metric(
            "serve.scheduler.reference_jobs_per_session",
            knee_rung.report.reference_jobs as f64 / knee_rung.report.sessions.len().max(1) as f64,
            knee_rung.report.sessions.len(),
        );
        let top = rung_of(768);
        out.metric(
            "serve.overload.shed_share",
            top.report.overload.sheds as f64 / top.client.submitted.max(1) as f64,
            top.client.submitted as usize,
        );
        out.metric(
            "serve.overload.queue_peak",
            top.report.overload.queue_peak as f64,
            1,
        );
        // Arrivals are simulated instants handed to `submit_at`, so the
        // generator cannot run late; recorded so that a wall-clock driven
        // generator, if one replaces it, has a figure to be compared with.
        out.metric("serve.replay.generator_lag_s", 0.0, 1);
        out.metric(
            "serve.assets.build_s",
            build_s.last().copied().unwrap_or(0.0),
            ladder.len(),
        );
        let traced_fps = fps(&passes[0]);
        let untraced_fps = untraced_fps.expect("measured above");
        out.header(
            "bench.trace.overhead_share basis",
            format_args!("{traced_fps:.2} traced vs {untraced_fps:.2} untraced frames/s over one ladder pass"),
        );
        out.metric(
            "bench.trace.overhead_share",
            1.0 - traced_fps / untraced_fps,
            ladder.len(),
        );
        traffic_probes(ctx, tr, &mut host, out, &sz, &ladder);
    } else {
        // Quality of what is served: one untimed replay of the lowest rung
        // with PSNR collection on.
        let quality = run_replay(
            &ladder[0].profile,
            &ladder[0].assets,
            &replay_options(ctx.seed, sz.px, true),
        )
        .expect("quality replay");
        let (mut mse, mut frames, mut below) = (0.0, 0usize, 0usize);
        for s in &quality.report.sessions {
            if s.frames == 0 {
                continue;
            }
            if below_floor(s.mean_psnr_db, PSNR_FLOOR_DB) {
                below += 1;
            }
            mse += s.frames as f64 * 10f64.powf(-s.mean_psnr_db / 10.0);
            frames += s.frames;
        }
        out.check(
            "psnr_floor",
            below == 0,
            format_args!("{below} sessions below {PSNR_FLOOR_DB} dB"),
        );
        let total_offered: u64 = first.iter().map(|o| offered(o)).sum();
        let total_ontime: u64 = first.iter().map(|o| ontime(o)).sum();
        // Each rung's best replay time over the passes, reference-host
        // seconds.
        let secs: Vec<Vec<f64>> = passes
            .iter()
            .map(|p| p.iter().map(|r| r.secs / r.slowdown).collect())
            .collect();
        let best_s = best_of(secs.iter().map(Vec::as_slice));
        let served: Vec<u64> = passes[0].iter().map(Replay::served).collect();
        let slowdowns: Vec<f64> = passes.iter().flatten().map(|r| r.slowdown).collect();
        out.header(
            "wall",
            format_args!(
                "{:.2} frames/s over all passes before normalisation, host slowdown {:.3}",
                passes.iter().flatten().map(Replay::served).sum::<u64>() as f64
                    / passes.iter().flatten().map(|r| r.secs).sum::<f64>(),
                median(&slowdowns)
            ),
        );
        EndToEnd {
            setup_s,
            op_ms: best_s
                .iter()
                .zip(&served)
                .map(|(s, &n)| s * 1e3 / n.max(1) as f64)
                .collect(),
            frames_per_s: served.iter().sum::<u64>() as f64 / best_s.iter().sum::<f64>(),
            good_share: total_ontime as f64 / total_offered as f64,
            psnr_db: -10.0 * (mse / frames.max(1) as f64).log10(),
            psnr_n: frames,
        }
        .emit(out);
    }
    out.digest(digest);
}

/// Served frames per host second over one ladder pass.
fn fps(pass: &[Replay]) -> f64 {
    pass.iter().map(Replay::served).sum::<u64>() as f64 / pass.iter().map(|r| r.secs).sum::<f64>()
}

/// Host cost of the traffic front end, and of scheduling versus rendering:
/// the same profile replayed at 8×8 (scheduler cost) and 32×32 (the
/// difference is rendering).
fn traffic_probes(
    ctx: &Ctx,
    tr: &mut Tracer,
    host: &mut HostClock,
    out: &mut Emitter,
    sz: &Size,
    ladder: &[Rung],
) {
    let open = tr.begin("probe.serve.traffic", 0);
    let top = ladder.last().expect("non-empty ladder");
    let sessions = top.profile.sessions.len();
    let model = traffic_model(sz, top.rate);
    let (mut generate_us, mut parse_us) = (Vec::new(), Vec::new());
    let mut round_trips = true;
    for rep in 0..9u64 {
        let ((profile, _), secs) = host.time(|| {
            tr.time("serve.traffic.generate", rep, || {
                model.generate(mix(ctx.seed, rep))
            })
        });
        generate_us.push(secs * 1e6 / sessions as f64);
        let (text, _) = tr.time("serve.traffic.to_text", rep, || profile.to_text());
        let ((parsed, _), secs) =
            host.time(|| tr.time("serve.traffic.parse", rep, || TrafficProfile::parse(&text)));
        parse_us.push(secs * 1e6 / sessions as f64);
        round_trips &= parsed.is_ok_and(|p| p == profile);
    }
    out.check(
        "profile_text_round_trips",
        round_trips,
        "parse(to_text(p)) == p",
    );
    out.metric(
        "serve.traffic.generate.us_per_session",
        median(&generate_us),
        generate_us.len(),
    );
    out.metric(
        "serve.traffic.parse.us_per_session",
        median(&parse_us),
        parse_us.len(),
    );

    let rung = &ladder[1];
    for px in [8usize, 32] {
        let opts = replay_options(ctx.seed, px, false);
        let ((result, _), secs) = host.time(|| {
            tr.time("serve.run_replay.sized", px as u64, || {
                run_replay(&rung.profile, &rung.assets, &opts)
            })
        });
        let served = result.map_or(0, |o| o.report.frames);
        out.metric(
            &format!("serve.replay.us_per_frame_{px}px"),
            secs * 1e6 / served.max(1) as f64,
            served,
        );
    }
    tr.end(open);
}
