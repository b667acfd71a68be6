//! The serve oracle, in one process: the swarm and the traffic replay under
//! every budget, ingestion mode, kernel cap, fault plan and fleet shape CI
//! checks, over one set of baked assets, with whole reports compared by `==`.
//!
//! ```text
//! cargo test --release -p cicero --test swarm_matrix -- --ignored --nocapture
//! ```
//!
//! `#[ignore]`d in the debug suite: one four-policy swarm leg takes ~28 s
//! unoptimised, the whole matrix a few seconds in release. Legs run in order
//! in one test (the kernel cap and the telemetry recorder are process-wide),
//! and each prints its `digest` / `fault_digest` / `fleet_digest` /
//! `replay_digest` / `overload_digest` lines under an `== <leg>` header:
//! `grep '^==\|digest'` of two commits' runs is the mechanical diff. Every
//! assertion message starts with `[<leg>]`.
//!
//! - The swarm (`tests/swarm_mix.rs`: 24 sessions over 4 scenes plus a
//!   flood probe) under the four policy bundles at budget 1 — the oracle —
//!   then at budget 4, streamed pose by pose, capped to the portable
//!   kernels and with telemetry armed: each report equals the oracle's.
//! - Seeded chaos at budgets 1 and 4 (equal), and a zero-rate armed plan
//!   (equal to the unarmed oracle).
//! - A 4-shard fleet under a shard-kill plan at budgets 1 and 4 (equal), and
//!   a fleet of one per policy (its shard equal to the bare oracle).
//! - The cross-policy checks on the oracle.
//! - A uniform replay profile at budgets 1 and 4 (equal), armed but
//!   underloaded ≡ disarmed; a flash crowd at budgets 1 and 4 (equal).

#[path = "swarm_mix.rs"]
mod swarm_mix;

use cicero_field::simd::{self, Backend};
use cicero_field::GridConfig;
use cicero_math::Intrinsics;
use cicero_serve::{
    run_replay, AdmissionPolicy, ArrivalProcess, FaultPlan, FaultReport, FleetReport,
    OverloadControl, OverloadReport, QosClass, ReplayOptions, ReplayOutcome, ServeConfig,
    ServiceReport, TrafficAssets, TrafficModel, TrafficProfile,
};
use cicero_telemetry as telemetry;
use std::collections::BTreeSet;
use std::time::Instant;
use swarm_mix::{bake_assets, run_swarm, SceneAssets, Served, SwarmRun, POLICIES};

/// The shard-kill rate of the fleet chaos leg: high enough that the seeded
/// plan kills shards mid-drain (the leg tests failover, not the no-op path),
/// low enough that survivors remain to adopt.
const SHARD_KILL_RATE: f64 = 0.45;

#[test]
#[ignore = "release-speed oracle: cargo test --release -p cicero --test swarm_matrix -- --ignored --nocapture"]
fn swarm_matrix() {
    let wall = Instant::now();
    let assets = bake_assets();
    let oracle = policy_legs(&assets);
    chaos_legs(&assets, &oracle);
    fleet_legs(&assets, &oracle);
    cross_policy_checks(&oracle);
    replay_legs();
    println!("swarm matrix: {:.2} s wall", wall.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------------------
// The swarm
// ---------------------------------------------------------------------------

/// One swarm leg: `policies` in turn at `threads`, each run's digest lines
/// printed and its floors asserted.
fn swarm_leg(
    leg: &str,
    assets: &[SceneAssets],
    policies: &[&str],
    threads: usize,
    stream: bool,
    faults: Option<FaultPlan>,
    shards: Option<usize>,
) -> Vec<SwarmRun> {
    println!("== {leg}");
    let wall = Instant::now();
    let runs: Vec<SwarmRun> = policies
        .iter()
        .map(|&policy| {
            let run = run_swarm(assets, policy, threads, stream, faults, shards)
                .unwrap_or_else(|e| panic!("[{leg}] {policy}: swarm session refused: {e}"));
            print_digests(policy, &run, faults.is_some());
            assert!(
                run.sessions >= swarm_mix::SCENES.len() * swarm_mix::VIEWERS_PER_SCENE,
                "[{leg}] {policy}: {} sessions, the swarm is 24",
                run.sessions
            );
            assert!(
                run.cache_hits() >= 1,
                "[{leg}] {policy}: no cross-session cache hit"
            );
            let throughput = match &run.served {
                Served::Bare(r) => r.throughput_fps,
                Served::Fleet(f) => f.throughput_fps,
            };
            assert!(throughput > 0.0, "[{leg}] {policy}: nothing served");
            if let Some(flood) = &run.flood {
                // Only the degrading QoS policy lets the 640×640 flood in.
                assert_eq!(
                    flood.is_ok(),
                    policy == "degrade",
                    "[{leg}] {policy}: flood admission {flood:?}"
                );
            }
            run
        })
        .collect();
    println!("   {:.2} s wall", wall.elapsed().as_secs_f64());
    runs
}

/// Every run of `runs` served exactly what the same policy's run in `want`
/// served.
fn assert_same(leg: &str, want_leg: &str, runs: &[SwarmRun], want: &[SwarmRun]) {
    for ((policy, run), want) in POLICIES.iter().zip(runs).zip(want) {
        assert!(
            run.served == want.served,
            "[{leg}] {policy}: report differs from {want_leg}'s (digests above)"
        );
    }
}

/// The four policies fault-free: budget 1 is the oracle; budget 4, streamed
/// ingestion, the portable kernel cap and armed telemetry must each
/// reproduce it whole.
fn policy_legs(assets: &[SceneAssets]) -> Vec<SwarmRun> {
    let oracle = swarm_leg("policies budget 1", assets, &POLICIES, 1, false, None, None);
    let leg = "policies budget 4";
    let parallel = swarm_leg(leg, assets, &POLICIES, 4, false, None, None);
    assert_same(leg, "the oracle", &parallel, &oracle);
    let leg = "policies streamed";
    let streamed = swarm_leg(leg, assets, &POLICIES, 4, true, None, None);
    assert_same(leg, "the oracle", &streamed, &oracle);

    let leg = "policies portable kernels";
    let widest = simd::dispatched();
    simd::set_backend_cap(Backend::Portable);
    assert_eq!(simd::backend(), "portable", "[{leg}] the cap did not take");
    let portable = swarm_leg(leg, assets, &POLICIES, 4, false, None, None);
    simd::set_backend_cap(widest);
    assert_same(leg, "the oracle", &portable, &oracle);

    let leg = "telemetry armed";
    telemetry::reset();
    telemetry::enable_with_capacity(1 << 16);
    let traced = swarm_leg(leg, assets, &POLICIES, 4, false, None, None);
    telemetry::disable();
    assert_same(leg, "the oracle", &traced, &oracle);
    let trace = parse_json(&telemetry::chrome_trace())
        .unwrap_or_else(|e| panic!("[{leg}] the chrome trace is not JSON: {e}"));
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("[{leg}] the chrome trace has no traceEvents array");
    };
    let cats: BTreeSet<&str> = events
        .iter()
        .filter(|e| matches!(e.get("ph"), Some(Json::Str(ph)) if ph == "X" || ph == "i"))
        .filter_map(|e| match e.get("cat") {
            Some(Json::Str(cat)) => Some(cat.as_str()),
            _ => None,
        })
        .collect();
    for layer in ["field", "core", "serve"] {
        assert!(
            cats.contains(layer),
            "[{leg}] no span or instant from the {layer} layer: {cats:?}"
        );
    }
    assert!(
        !telemetry::prometheus_text().trim().is_empty(),
        "[{leg}] empty Prometheus snapshot"
    );
    telemetry::reset();
    oracle
}

/// The four policies under the seeded fault mix: budget-deterministic, the
/// recovery ladder engaged, availability held; a zero-rate plan is the
/// unarmed oracle.
fn chaos_legs(assets: &[SceneAssets], oracle: &[SwarmRun]) {
    let plan = Some(FaultPlan::seeded(42));
    let leg = "chaos budget 1";
    let serial = swarm_leg(leg, assets, &POLICIES, 1, false, plan, None);
    for (policy, run) in POLICIES.iter().zip(&serial) {
        let faults = &run.shard_reports()[0].faults;
        assert!(
            faults.injected() > 0,
            "[{leg}] {policy}: the plan never fired"
        );
        assert!(
            faults.recoveries() > 0,
            "[{leg}] {policy}: no recovery engaged"
        );
        assert!(
            faults.availability >= 0.99,
            "[{leg}] {policy}: availability {} < 0.99",
            faults.availability
        );
    }
    let leg = "chaos budget 4";
    let parallel = swarm_leg(leg, assets, &POLICIES, 4, false, plan, None);
    assert_same(leg, "chaos budget 1", &parallel, &serial);
    let leg = "chaos zero rate";
    let zero_rate = Some(FaultPlan::zero(42));
    let zero = swarm_leg(leg, assets, &POLICIES, 4, false, zero_rate, None);
    assert_same(leg, "the oracle", &zero, oracle);
}

/// A 4-shard fleet under a shard-kill plan kills shards and loses no
/// session, budget-deterministically; a fleet of one is the bare server.
fn fleet_legs(assets: &[SceneAssets], oracle: &[SwarmRun]) {
    let mut plan = FaultPlan::seeded(42);
    plan.shard_crash_rate = SHARD_KILL_RATE;
    plan.shard_brownout_rate = SHARD_KILL_RATE;
    let plan = Some(plan);
    let kill = |leg, threads| {
        let mut runs = swarm_leg(leg, assets, &["default"], threads, false, plan, Some(4));
        runs.remove(0)
    };
    let leg = "fleet shard-kill budget 1";
    let serial = kill(leg, 1);
    let Served::Fleet(fleet) = &serial.served else {
        unreachable!("a sharded run reports a fleet")
    };
    assert!(fleet.shard_crashes > 0, "[{leg}] the plan killed no shard");
    assert_eq!(
        fleet.lost_sessions, 0,
        "[{leg}] sessions lost while survivors stood by"
    );
    let leg = "fleet shard-kill budget 4";
    let Served::Fleet(parallel) = kill(leg, 4).served else {
        unreachable!("a sharded run reports a fleet")
    };
    assert!(
        idle_scrubbed(&parallel) == idle_scrubbed(fleet),
        "[{leg}] fleet report differs from fleet shard-kill budget 1's"
    );

    let leg = "fleet of one";
    let one = swarm_leg(leg, assets, &POLICIES, 1, false, None, Some(1));
    for ((policy, run), bare) in POLICIES.iter().zip(&one).zip(oracle) {
        assert!(
            run.shard_reports() == bare.shard_reports(),
            "[{leg}] {policy}: shard 0 differs from the bare server's report"
        );
    }
}

/// `fleet` with the latency percentiles of every shard that served nothing
/// zeroed: a percentile of no frames is NaN, which `==` never calls equal.
/// (Scene-hash routing sends none of the swarm's four scenes to shard 1.)
fn idle_scrubbed(fleet: &FleetReport) -> FleetReport {
    let mut fleet = fleet.clone();
    for shard in fleet.shards.iter_mut().filter(|s| s.records.is_empty()) {
        shard.p50_latency_s = 0.0;
        shard.p99_latency_s = 0.0;
    }
    fleet
}

/// The bundles against each other on the oracle: prefetch adds cache hits
/// without moving a pixel, degrade admits the flood the default rejects.
fn cross_policy_checks(oracle: &[SwarmRun]) {
    let by = |name: &str| &oracle[POLICIES.iter().position(|p| *p == name).unwrap()];
    let (default, prefetch, degrade) = (by("default"), by("prefetch"), by("degrade"));
    let report = |run: &SwarmRun| run.shard_reports()[0].clone();
    assert!(
        prefetch.cache_hits() > default.cache_hits(),
        "[cross-policy] prefetch hits {} ≤ default {}",
        prefetch.cache_hits(),
        default.cache_hits()
    );
    assert!(
        report(prefetch).prefetch_jobs > 0,
        "[cross-policy] prefetch never engaged"
    );
    assert_eq!(
        psnr_sum(prefetch.shard_reports()),
        psnr_sum(default.shard_reports()),
        "[cross-policy] prefetch changed rendered frames"
    );
    assert!(
        default.flood.as_ref().is_some_and(Result::is_err),
        "[cross-policy] the default policy admitted the flood"
    );
    assert!(
        degrade.flood.as_ref().is_some_and(Result::is_ok),
        "[cross-policy] degrade still rejected the flood"
    );
    assert!(
        !report(degrade).degradations.is_empty(),
        "[cross-policy] degrade never degraded"
    );
    println!("cross-policy checks OK");
}

// ---------------------------------------------------------------------------
// Traffic replay
// ---------------------------------------------------------------------------

/// `replay generate`'s model: 5-frame sessions over the swarm's scenes, a
/// quarter of them streamed.
fn profile(
    seed: u64,
    sessions: usize,
    duration_s: f64,
    arrivals: ArrivalProcess,
) -> TrafficProfile {
    let profile = TrafficModel {
        sessions,
        duration_s,
        arrivals,
        scenes: swarm_mix::SCENES.map(String::from).to_vec(),
        zipf_s: 1.0,
        qos_mix: [2.0, 2.0, 1.0],
        streaming_frac: 0.25,
        frames: 5,
        base_fps: 30.0,
        fps_jitter: 0.1,
    }
    .generate(seed);
    let text = profile.to_text();
    assert_eq!(
        TrafficProfile::parse(&text).as_ref(),
        Ok(&profile),
        "profile text round trip"
    );
    profile
}

/// One replay as `replay replay` runs it (24×24 frames over 24³ grids),
/// with quality collected so that the outcome compares by `==` (an
/// uncollected PSNR is NaN).
fn replay(
    profile: &TrafficProfile,
    assets: &TrafficAssets,
    threads: usize,
    max_sessions: usize,
    overload: Option<OverloadControl>,
) -> ReplayOutcome {
    let cfg = ServeConfig {
        render_threads: threads,
        admission: AdmissionPolicy {
            max_sessions,
            ..Default::default()
        },
        overload,
        ..Default::default()
    };
    let opts = ReplayOptions {
        cfg,
        client_seed: profile.seed,
        intrinsics: Intrinsics::from_fov(24, 24, 0.9),
        collect_quality: true,
        ..Default::default()
    };
    run_replay(profile, assets, &opts).expect("replay absorbs backpressure and rejections")
}

fn replay_leg(
    leg: &str,
    profile: &TrafficProfile,
    assets: &TrafficAssets,
    threads: usize,
    max_sessions: usize,
    overload: Option<OverloadControl>,
) -> ReplayOutcome {
    println!("== {leg}");
    let out = replay(profile, assets, threads, max_sessions, overload);
    print_replay_digests(&out);
    out
}

fn replay_legs() {
    let grid = GridConfig {
        resolution: 24,
        ..Default::default()
    };
    let uniform = profile(42, 12, 0.3, ArrivalProcess::Uniform);
    let assets = TrafficAssets::build(&uniform, &grid).expect("library scenes");
    let armed = Some(OverloadControl::default());
    let serial = replay_leg("replay uniform budget 1", &uniform, &assets, 1, 64, armed);
    let leg = "replay uniform budget 4";
    assert!(
        replay_leg(leg, &uniform, &assets, 4, 64, armed) == serial,
        "[{leg}] outcome differs from replay uniform budget 1's"
    );
    // Armed but never engaged, the queue moves nothing but its own
    // accounting: the overload block is the one field compared apart (the
    // armed one prices goodput, the disarmed one is the default).
    let leg = "replay uniform disarmed";
    let mut disarmed = replay_leg(leg, &uniform, &assets, 4, 64, None);
    assert!(
        !serial.report.overload.engaged(),
        "[{leg}] the uniform profile engaged the queue"
    );
    assert_eq!(
        disarmed.report.overload,
        OverloadReport::default(),
        "[{leg}] disarmed accounting"
    );
    let mut armed_idle = serial.clone();
    armed_idle.report.overload = OverloadReport::default();
    disarmed.report.overload = OverloadReport::default();
    assert!(
        disarmed == armed_idle,
        "[{leg}] outcome differs from the armed run's"
    );

    let flash = profile(
        11,
        16,
        0.4,
        ArrivalProcess::FlashCrowd {
            at_frac: 0.3,
            width_frac: 0.1,
            crowd_frac: 0.85,
        },
    );
    let assets = TrafficAssets::build(&flash, &grid).expect("library scenes");
    let crowd = Some(OverloadControl {
        queue_capacity: 6,
        deadline_slack: 2.0,
        ..Default::default()
    });
    let leg = "flash budget 1";
    let serial = replay_leg(leg, &flash, &assets, 1, 2, crowd);
    assert!(
        serial.report.overload.sheds > 0,
        "[{leg}] the crowd forced no shed"
    );
    assert!(
        serial.report.frames > 0,
        "[{leg}] shedding collapsed service"
    );
    let interactive = serial.attainment[QosClass::Interactive.priority() as usize];
    assert!(interactive > 0.0, "[{leg}] no interactive frame on time");
    let leg = "flash budget 4";
    assert!(
        replay_leg(leg, &flash, &assets, 4, 2, crowd) == serial,
        "[{leg}] outcome differs from flash budget 1's"
    );
}

// ---------------------------------------------------------------------------
// Digest lines: every figure is simulated time, so each line is byte-equal
// at any thread budget and across commits that do not change serving.
// ---------------------------------------------------------------------------

fn suffix(policy: &str) -> String {
    match policy {
        "default" => String::new(),
        other => format!("[{other}]"),
    }
}

/// Mean-PSNR sum over every session but the flood (degrade's extra).
fn psnr_sum(reports: &[ServiceReport]) -> f64 {
    reports
        .iter()
        .flat_map(|r| &r.sessions)
        .filter(|s| s.name != "flood")
        .map(|s| s.mean_psnr_db)
        .sum()
}

/// `digest`, then `fault_digest` when a plan is armed and `fleet_digest`
/// for a fleet: the aggregate figures are the fleet's own, the rest summed
/// over shards.
fn print_digests(policy: &str, run: &SwarmRun, armed: bool) {
    let s = suffix(policy);
    let shards = run.shard_reports();
    let (frames, makespan, p50, p99, misses, availability) = match &run.served {
        Served::Bare(r) => (
            r.frames,
            r.makespan_s,
            r.p50_latency_s,
            r.p99_latency_s,
            r.deadline_misses,
            r.faults.availability,
        ),
        Served::Fleet(f) => (
            f.frames,
            f.makespan_s,
            f.p50_latency_s,
            f.p99_latency_s,
            f.deadline_misses,
            f.availability,
        ),
    };
    let sum = |field: fn(&ServiceReport) -> u64| -> u64 { shards.iter().map(field).sum() };
    println!(
        "digest{s}: frames={frames} makespan={makespan:.12} p50={p50:.12} p99={p99:.12} misses={misses} ref_jobs={} prefetch={} degraded={} cache_hits={} psnr_sum={:.9}",
        sum(|r| r.reference_jobs),
        sum(|r| r.prefetch_jobs),
        sum(|r| r.degradations.len() as u64),
        run.cache_hits(),
        psnr_sum(shards)
    );
    if armed {
        let sum = |field: fn(&FaultReport) -> u64| -> u64 {
            shards.iter().map(|r| field(&r.faults)).sum()
        };
        let ttr: f64 = shards.iter().map(|r| r.faults.time_to_recover_s).sum();
        println!(
            "fault_digest{s}: injected={} crashes={} stragglers={} corruptions={} stalls={} drops={} retries={} fallback_warps={} fallback_frames={} degraded_rerenders={} quarantines={} watchdog_grants={} unrecovered={} ttr={ttr:.9} availability={availability:.6}",
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
        );
    }
    if let Served::Fleet(f) = &run.served {
        let resumed: Vec<f64> = f
            .migrations
            .iter()
            .filter(|m| m.resumed_s >= 0.0)
            .map(|m| m.time_to_resume_s)
            .collect();
        let mean_ttr = if resumed.is_empty() {
            0.0
        } else {
            resumed.iter().sum::<f64>() / resumed.len() as f64
        };
        println!(
            "fleet_digest{s}: shards={} alive={} crashes={} brownouts={} hb_misses={} migrations={} resumed={} lost_sessions={} lost_frames={} mean_ttr={mean_ttr:.9} availability={:.6}",
            f.shards.len(),
            f.alive_shards,
            f.shard_crashes,
            f.shard_brownouts,
            f.heartbeat_misses,
            f.migrations.len(),
            resumed.len(),
            f.lost_sessions,
            f.lost_frames,
            f.availability,
        );
    }
}

fn print_replay_digests(out: &ReplayOutcome) {
    let r = &out.report;
    println!(
        "replay_digest: frames={} makespan={:.12} p50={:.12} p99={:.12} misses={} goodput={:.12} attain_i={:.12} attain_s={:.12} attain_b={:.12} submitted={} admitted={} queued={} retries={} abandoned={} poses={}",
        r.frames,
        r.makespan_s,
        r.p50_latency_s,
        r.p99_latency_s,
        r.deadline_misses,
        out.goodput_fps,
        out.attainment[0],
        out.attainment[1],
        out.attainment[2],
        out.client.submitted,
        out.client.admitted,
        out.client.queued,
        out.client.retries,
        out.client.abandoned,
        out.client.poses_pushed,
    );
    let o = &r.overload;
    println!(
        "overload_digest: enqueued={} queue_admits={} brownout_admits={} sheds={} sheds_i={} sheds_s={} sheds_b={} backpressure={} diversions={} queue_peak={} max_wait={:.12} goodput={:.12}",
        o.enqueued,
        o.queue_admits,
        o.brownout_admits,
        o.sheds,
        o.sheds_by_class[0],
        o.sheds_by_class[1],
        o.sheds_by_class[2],
        o.backpressure,
        o.diversions,
        o.queue_peak,
        o.max_queue_wait_s,
        o.goodput_fps,
    );
}

// ---------------------------------------------------------------------------
// Just enough JSON to hold the chrome trace to its format: objects, arrays,
// strings and numbers (what `telemetry::chrome_trace` emits). The workspace's
// `serde_json` shim only writes.
// ---------------------------------------------------------------------------

enum Json {
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut r = Reader { s: text, i: 0 };
    let value = r.value()?;
    r.skip_ws();
    match r.i == r.s.len() {
        true => Ok(value),
        false => Err(format!("trailing bytes at {}", r.i)),
    }
}

struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    /// Consumes `b` (after whitespace) if it is next.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(format!("expected {:?} at byte {}", b as char, self.i)),
        }
    }

    /// The items of an array or object up to `close`, each read by `item`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat(b'{') {
            return Ok(Json::Obj(self.items(b'}', |r| {
                let key = r.string()?;
                r.expect(b':')?;
                Ok((key, r.value()?))
            })?));
        }
        if self.eat(b'[') {
            return Ok(Json::Arr(self.items(b']', Self::value)?));
        }
        if self.peek() == Some(b'"') {
            return Ok(Json::Str(self.string()?));
        }
        let start = self.i;
        while self.peek().is_some_and(|b| b"+-.0123456789eE".contains(&b)) {
            self.i += 1;
        }
        match self.s[start..self.i].parse::<f64>() {
            Ok(_) => Ok(Json::Num),
            Err(_) => Err(format!("expected a value at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut chars = self.s[self.i..].chars();
        while let Some(c) = chars.next() {
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match esc {
                        '"' | '\\' | '/' => esc,
                        'n' => '\n',
                        't' => '\t',
                        'u' => {
                            let hex: String = chars.by_ref().take(4).collect();
                            self.i += 4;
                            u32::from_str_radix(&hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    });
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}
