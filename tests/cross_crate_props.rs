//! Property-based tests on cross-crate invariants (proptest).

use cicero::{warp_frame, WarpOptions};
use cicero_math::{Camera, Intrinsics, Pose, Vec3};
use cicero_mem::{belady_misses, DramConfig, DramSim, LruCache, MVoxelConfig, MVoxelPartition};
use cicero_scene::ground_truth::render_frame;
use cicero_scene::volume::MarchParams;
use cicero_scene::{Material, RadianceSource, SceneBuilder, Shape};
use proptest::prelude::*;

fn small_scene(radius: f32) -> cicero_scene::AnalyticScene {
    SceneBuilder::new("prop")
        .object(
            Shape::Sphere { radius },
            Vec3::ZERO,
            Material::solid(Vec3::ONE),
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Composited radiance never exceeds the sources' maximum and the
    /// transmittance stays within [0, 1].
    #[test]
    fn volume_rendering_bounds(
        radius in 0.2f32..1.2,
        ox in -0.5f32..0.5,
        oy in -0.5f32..0.5,
    ) {
        let scene = small_scene(radius);
        let ray = cicero_math::Ray::new(Vec3::new(ox, oy, -4.0), Vec3::Z);
        let r = scene.march(&ray, &MarchParams::default());
        prop_assert!(r.transmittance >= 0.0 && r.transmittance <= 1.0);
        // Radiance is bounded by the brightest shading possible (~emissive +
        // ambient + diffuse + specular ≤ ~2) plus background.
        prop_assert!(r.color.max_element() <= 3.0);
        prop_assert!(r.color.min_element() >= 0.0);
        if r.depth_t.is_finite() {
            // Depth lies within the ray's bounds crossing.
            let (t0, t1) = scene.bounds().intersect(&ray).unwrap();
            prop_assert!(r.depth_t >= t0 - 1e-3 && r.depth_t <= t1 + 1e-3);
        }
    }

    /// Warping conserves pixel classification: every target pixel is counted
    /// exactly once, and identity warps never disocclude.
    #[test]
    fn warp_partition_property(dx in -0.3f32..0.3, dy in -0.15f32..0.15) {
        let scene = small_scene(0.8);
        let k = Intrinsics::from_fov(32, 32, 0.9);
        let cam0 = Camera::new(k, Pose::look_at(Vec3::new(0.0, 0.2, -3.0), Vec3::ZERO, Vec3::Y));
        let cam1 = Camera::new(
            k,
            Pose::look_at(Vec3::new(dx, 0.2 + dy, -3.0), Vec3::ZERO, Vec3::Y),
        );
        let reference = render_frame(&scene, &cam0, &MarchParams::default());
        let result = warp_frame(&reference, &cam0, &cam1, scene.background(), &WarpOptions::default());
        let s = result.stats();
        prop_assert_eq!(s.total, (32 * 32) as u64);
        prop_assert_eq!(s.total, s.warped + s.disoccluded + s.void_pixels + s.rejected);
        // Mask agrees with stats.
        let mask_count = result.render_mask().iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(mask_count, s.disoccluded + s.rejected);
    }

    /// The Belady oracle never misses more than LRU on the same trace.
    #[test]
    fn belady_dominates_lru(seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D) % 64
        };
        let trace: Vec<u64> = (0..600).map(|_| next()).collect();
        let opt = belady_misses(&trace, 16);
        let mut lru = LruCache::new(16 * 64, 64, 16);
        for &l in &trace {
            lru.access(l * 64);
        }
        prop_assert!(opt.misses <= lru.stats().misses);
        // Both policies at least pay the compulsory misses.
        let distinct = {
            let mut v = trace.clone();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        prop_assert!(opt.misses >= distinct.min(16));
    }

    /// `LruCache` answers hit or miss exactly as a per-set recency list kept
    /// the obvious way does — direct-mapped, one 16-way set and shapes in
    /// between — on streams that repeat the previous line a quarter of the
    /// time (a gather's pattern) and overflow every set.
    #[test]
    fn lru_cache_matches_a_naive_recency_list(
        shape in 0usize..4,
        stream in prop::collection::vec((0u64..96, 0u64..64, 0u32..4), 1..400),
    ) {
        let (sets, ways) = [(8usize, 1usize), (1, 16), (4, 16), (2, 3)][shape];
        let mut cache = LruCache::new((sets * ways * 64) as u64, 64, ways);
        let mut recency: Vec<Vec<u64>> = vec![Vec::new(); sets];
        let mut previous = 0;
        for (i, &(line, offset, repeat)) in stream.iter().enumerate() {
            let line = if repeat == 0 { previous } else { line };
            previous = line;
            let set = &mut recency[line as usize % sets];
            let found = set.iter().position(|&l| l == line);
            if let Some(at) = found {
                set.remove(at);
            }
            set.insert(0, line);
            set.truncate(ways);
            prop_assert_eq!(
                cache.access(line * 64 + offset),
                found.is_some(),
                "access {} (line {}) of {} sets x {} ways", i, line, sets, ways
            );
        }
        let hits = cache.stats().hits;
        prop_assert_eq!(hits + cache.stats().misses, stream.len() as u64);
    }

    /// DRAM accounting: bytes moved ≥ bytes asked for, and a pure stream is
    /// never slower than the same bytes random.
    #[test]
    fn dram_accounting_invariants(reads in prop::collection::vec((0u64..1_000_000, 1u32..200), 1..60)) {
        let mut random_sim = DramSim::new(DramConfig::default());
        let mut stream_sim = DramSim::new(DramConfig::default());
        let mut total: u64 = 0;
        for &(addr, bytes) in &reads {
            random_sim.read(addr * 7919, bytes);
            total += bytes as u64;
        }
        stream_sim.read_streaming(total);
        prop_assert!(random_sim.stats().total_bytes() >= random_sim.stats().useful_bytes);
        prop_assert!(stream_sim.time_seconds() <= random_sim.time_seconds() + 1e-12);
        prop_assert!(stream_sim.energy_joules() <= random_sim.energy_joules() + 1e-15);
    }

    /// MVoxel partitions cover every vertex exactly once.
    #[test]
    fn mvoxel_partition_is_total(
        nx in 1u32..40,
        ny in 1u32..40,
        nz in 1u32..40,
        dim in 1u32..12,
    ) {
        let part = MVoxelPartition::new(
            [nx, ny, nz],
            MVoxelConfig { dims: [dim, dim, dim] },
            16,
        );
        let mut per_block = vec![0u64; part.mvoxel_count()];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    per_block[part.mvoxel_of_vertex([x, y, z])] += 1;
                }
            }
        }
        for (id, &count) in per_block.iter().enumerate() {
            prop_assert_eq!(count, part.vertex_count(id), "block {}", id);
        }
        let total: u64 = per_block.iter().sum();
        prop_assert_eq!(total, (nx as u64) * (ny as u64) * (nz as u64));
    }
}

// ---------------------------------------------------------------------------
// Keyed-draw machinery (shared by FaultPlan and the traffic generators)
// ---------------------------------------------------------------------------

use cicero_serve::{keyed_draw, keyed_unit, FaultKind, FaultPlan};

const ALL_KINDS: [FaultKind; 7] = [
    FaultKind::WorkerCrash,
    FaultKind::Straggler,
    FaultKind::CacheCorruption,
    FaultKind::PoseStall,
    FaultKind::PoseDrop,
    FaultKind::ShardCrash,
    FaultKind::ShardBrownout,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A keyed draw is a pure function of `(seed, tag, key)`: asking the
    /// same question twice — in any order, from any thread — returns the
    /// same answer, and the unit draw always lands in `[0, 1)`.
    #[test]
    fn keyed_draws_are_idempotent_and_unit_bounded(
        seed in 0u64..u64::MAX,
        tag in 0u64..256,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
    ) {
        prop_assert_eq!(keyed_draw(seed, tag, a, b, c), keyed_draw(seed, tag, a, b, c));
        let u = keyed_unit(seed, tag, a, b, c);
        prop_assert_eq!(u, keyed_unit(seed, tag, a, b, c));
        prop_assert!((0.0..1.0).contains(&u));
    }

    /// `FaultPlan::fires` is idempotent and **rate-monotone**: every
    /// decision that fires at a lower rate still fires at any higher rate
    /// under the same seed (the threshold moves, the draw does not), with
    /// rate 0 never firing and rate 1 always firing.
    #[test]
    fn fault_fires_is_idempotent_and_rate_monotone(
        seed in 0u64..u64::MAX,
        lo in 0.0f64..1.0,
        hi in 0.0f64..1.0,
        a in 0u64..64,
        b in 0u64..64,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let low = FaultPlan::with_rate(seed, lo);
        let high = FaultPlan::with_rate(seed, hi);
        for kind in ALL_KINDS {
            let fired = low.fires(kind, a, b, 0);
            prop_assert_eq!(fired, low.fires(kind, a, b, 0));
            if fired {
                prop_assert!(
                    high.fires(kind, a, b, 0),
                    "{}: fired at rate {} but not at {}",
                    kind.label(), lo, hi
                );
            }
            prop_assert!(!FaultPlan::with_rate(seed, 0.0).fires(kind, a, b, 0));
            // `with_rate` keeps pose drops at rate/4, so rate 4 is the
            // point where every kind's effective rate saturates at 1.
            prop_assert!(FaultPlan::with_rate(seed, 4.0).fires(kind, a, b, 0));
        }
    }

    /// Seed sensitivity: two different seeds disagree on at least one draw
    /// in a small key window — schedules are decorrelated, not shifted
    /// copies of each other.
    #[test]
    fn keyed_draws_are_seed_sensitive(
        seed in 0u64..u64::MAX,
        delta in 1u64..1_000_000,
        tag in 0u64..256,
    ) {
        let other = seed.wrapping_add(delta);
        let differs = (0u64..64).any(|k| keyed_draw(seed, tag, k, 0, 0) != keyed_draw(other, tag, k, 0, 0));
        prop_assert!(differs, "seeds {} and {} agree on 64 consecutive draws", seed, other);
    }

    /// Tag separation: the domains sharing one seed (fault tags 1–7,
    /// traffic tags 101+) never alias — distinct tags give distinct
    /// streams over a small key window.
    #[test]
    fn keyed_draw_tags_are_domain_separated(
        seed in 0u64..u64::MAX,
        a in 0u64..u64::MAX,
    ) {
        let tags = [1u64, 2, 3, 4, 5, 6, 7, 101, 102, 103, 104, 105, 106, 107];
        for (i, &ta) in tags.iter().enumerate() {
            for &tb in &tags[i + 1..] {
                let differs = (0u64..16).any(|k| {
                    keyed_draw(seed, ta, a.wrapping_add(k), 0, 0)
                        != keyed_draw(seed, tb, a.wrapping_add(k), 0, 0)
                });
                prop_assert!(differs, "tags {} and {} alias under seed {}", ta, tb, seed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The traffic-profile boundary: untrusted text in, a profile or a typed error
// out
// ---------------------------------------------------------------------------

use cicero_serve::{ArrivalProcess, TrafficError, TrafficModel, TrafficProfile};

/// A traffic model over the library's first scenes, every knob drawn from
/// one of the inputs.
fn traffic_model(sessions: usize, shape: (u64, f64, f64, f64), frames: u32) -> TrafficModel {
    let (arrivals, duration_s, mix, frac) = shape;
    let all = ["lego", "chair", "ship", "hotdog", "drums"];
    TrafficModel {
        sessions,
        duration_s,
        arrivals: match arrivals {
            0 => ArrivalProcess::Uniform,
            1 => ArrivalProcess::Diurnal {
                peak_boost: 4.0 * frac,
            },
            _ => ArrivalProcess::FlashCrowd {
                at_frac: frac,
                width_frac: 0.05 + 0.2 * mix,
                crowd_frac: mix,
            },
        },
        scenes: all[..1 + sessions % all.len()]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        zipf_s: 2.0 * mix,
        qos_mix: [mix, 1.0 - mix, frac],
        streaming_frac: frac,
        frames,
        base_fps: 15.0 + 60.0 * frac as f32,
        fps_jitter: 0.3 * mix,
    }
}

/// Parses `text` and requires the only two ways out: a profile, or a
/// parse error. A panic fails the property through the shim's unwind
/// guard.
fn parse_is_total(text: &str) {
    let parsed = TrafficProfile::parse(text);
    assert!(
        matches!(parsed, Ok(_) | Err(TrafficError::Parse { .. })),
        "{parsed:?} from {text:?}"
    );
}

/// Replacement tokens that probe each value parser's edges.
const NASTY: [&str; 14] = [
    "",
    "=",
    "4294967295",
    "1e-30",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "NaN",
    "-inf",
    "1e309",
    "session",
    "name=",
    "qos=platinum",
    "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes — bare, or after a valid header whose `sessions` line
    /// they complete — parse to a profile or a parse error, never a panic.
    #[test]
    fn profile_parse_never_panics_on_random_bytes(
        bytes in prop::collection::vec(0u16..256, 0..200),
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let noise = String::from_utf8_lossy(&bytes);
        parse_is_total(&noise);
        parse_is_total(&format!(
            "cicero-traffic-profile v1\nseed 1\nduration_s 1.0\nsessions {noise}"
        ));
    }

    /// One token of a generated profile's text deleted, duplicated or
    /// replaced — whole, or only its value after `=` — parses to a profile
    /// or a parse error, never a panic.
    #[test]
    fn profile_parse_never_panics_on_token_mutations(
        seed in 0u64..u64::MAX,
        sessions in 1usize..12,
        pick in 0usize..10_000,
        edit in (0u64..4, 0usize..NASTY.len()),
    ) {
        let model = traffic_model(sessions, (seed % 3, 1.0, 0.5, 0.25), 6);
        let text = model.generate(seed).to_text();
        let mut lines: Vec<Vec<String>> = (text.lines())
            .map(|l| l.split_whitespace().map(String::from).collect())
            .collect();
        let tokens: usize = lines.iter().map(Vec::len).sum();
        let (mut at, (op, nasty)) = (pick % tokens, edit);
        let line = (lines.iter_mut())
            .find(|l| {
                let here = at < l.len();
                if !here {
                    at -= l.len();
                }
                here
            })
            .expect("the pick lands on a token");
        let nasty = NASTY[nasty].to_string();
        match op {
            0 => {
                line.remove(at);
            }
            1 => {
                let twin = line[at].clone();
                line.insert(at, twin);
            }
            2 => line[at] = nasty,
            _ => {
                let key = line[at].split('=').next().unwrap_or("").to_string();
                line[at] = format!("{key}={nasty}");
            }
        }
        let mutated: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        parse_is_total(&mutated.join("\n"));
    }

    /// A declared session count of any magnitude is a claim checked against
    /// the session lines present — the profile when it is true, a parse
    /// error when it is not — and never an allocation size.
    #[test]
    fn profile_parse_checks_any_declared_count(
        seed in 0u64..u64::MAX,
        sessions in 1usize..6,
        claim in (0u64..u64::MAX, 0u32..64),
    ) {
        let profile = traffic_model(sessions, (seed % 3, 1.0, 0.5, 0.25), 6).generate(seed);
        let count = claim.0 >> claim.1;
        let text = profile.to_text().replacen(
            &format!("\nsessions {sessions}\n"),
            &format!("\nsessions {count}\n"),
            1,
        );
        let parsed = TrafficProfile::parse(&text);
        if count == sessions as u64 {
            prop_assert_eq!(parsed, Ok(profile));
        } else {
            prop_assert!(matches!(parsed, Err(TrafficError::Parse { .. })), "{parsed:?}");
        }
    }

    /// Every generated profile's text parses back to the same profile, bit
    /// for bit, across arrival processes, mixes and sizes.
    #[test]
    fn generated_profiles_round_trip_through_text(
        seed in 0u64..u64::MAX,
        sessions in 1usize..40,
        shape in (0u64..3, 0.05f64..8.0, 0.0f64..1.0, 0.0f64..1.0),
        frames in 1u32..40,
    ) {
        let profile = traffic_model(sessions, shape, frames).generate(seed);
        let parsed = TrafficProfile::parse(&profile.to_text());
        prop_assert_eq!(parsed, Ok(profile));
    }
}

// ---------------------------------------------------------------------------
// The pose boundary: what a client may push, refused as typed errors at the
// fleet and survived (no panic, no hang) by a bare session.
// ---------------------------------------------------------------------------

use cicero::{PipelineConfig, PipelineSession, Variant};
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Quat;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    Fleet, FleetConfig, QosClass, ServeError, SessionSpec, Submission, SubmitOutcome,
};

/// Coordinates a pose feed can carry: NaN, ±∞, a subnormal, ±1e30, and
/// plain values.
const POSE_EDGES: [f32; 8] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    1e30,
    -1e30,
    0.0,
    0.5,
];

/// The pose `base` with its position component `axis` (0–2) or rotation
/// component `axis - 3` (3–6: w, x, y, z) replaced by `v`; `axis` 7 zeroes
/// the quaternion.
fn nasty_pose(base: Pose, axis: usize, v: f32) -> Pose {
    let mut pose = base;
    match axis {
        0 => pose.position.x = v,
        1 => pose.position.y = v,
        2 => pose.position.z = v,
        3 => pose.rotation.w = v,
        4 => pose.rotation.x = v,
        5 => pose.rotation.y = v,
        6 => pose.rotation.z = v,
        _ => {
            pose.rotation = Quat {
                w: 0.0,
                x: 0.0,
                y: 0.0,
                z: 0.0,
            }
        }
    }
    pose
}

/// Whether `Fleet::push_pose` must refuse `pose`.
fn refusable(pose: &Pose) -> bool {
    let q = pose.rotation;
    let finite = pose.position.is_finite() && [q.w, q.x, q.y, q.z].iter().all(|c| c.is_finite());
    !finite || [q.w, q.x, q.y, q.z] == [0.0; 4]
}

fn pose_assets() -> (AnalyticScene, GridModel, Trajectory) {
    let scene = library::scene_by_name("lego").unwrap();
    let model = bake::bake_grid(
        &scene,
        &GridConfig {
            resolution: 12,
            ..Default::default()
        },
    );
    let traj = Trajectory::orbit(&scene, 6, 30.0);
    (scene, model, traj)
}

fn pose_cfg(variant: Variant) -> PipelineConfig {
    PipelineConfig {
        variant,
        window: 2,
        march: MarchParams {
            step: 0.05,
            ..Default::default()
        },
        collect_quality: true,
        collect_traffic: true,
        ..Default::default()
    }
}

/// Steps a bare 12×12 streaming session over `traj` with every pose passed
/// through `edit`, quality and traffic collection on, to the end of its
/// stream; returns the number of steps.
fn step_bare_session(
    scene: &AnalyticScene,
    model: &GridModel,
    traj: &Trajectory,
    variant: Variant,
    edit: impl Fn(usize, Pose) -> Pose,
) -> usize {
    let k = Intrinsics::from_fov(12, 12, 0.9);
    let mut session =
        PipelineSession::new_streaming(scene, model, traj.fps(), k, &pose_cfg(variant));
    for (i, pose) in traj.poses().iter().enumerate() {
        session.push_pose(edit(i, *pose));
    }
    session.close_stream();
    let mut steps = 0;
    while session.step().is_some() {
        steps += 1;
    }
    steps
}

/// A stream whose every rotation is `Quat { w: NaN, .. }`: each ray's
/// direction is NaN, and the slab test once gave such a ray the interval
/// `[0, ∞)`, which every marcher stepped through without end.
#[test]
fn nan_rotation_stream_steps_to_its_end() {
    let (scene, model, traj) = pose_assets();
    for variant in [Variant::Baseline, Variant::Cicero] {
        let nan_w = |_, pose| nasty_pose(pose, 3, f32::NAN);
        let steps = step_bare_session(&scene, &model, &traj, variant, nan_w);
        assert_eq!(steps, traj.len(), "{variant:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Fleet::push_pose` refuses a non-finite position, a non-finite
    /// rotation or a zero quaternion as `ServeError::InvalidPose`, and takes
    /// everything else (subnormal and 1e30 coordinates included).
    #[test]
    fn fleet_refuses_non_finite_poses(
        axis in 0usize..8,
        edge in 0usize..8,
        at in 0usize..6,
    ) {
        let (scene, model, traj) = pose_assets();
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        let spec = SessionSpec {
            name: "s".into(),
            scene_key: "lego".into(),
            qos: QosClass::Standard,
            start_offset_s: 0.0,
            config: pose_cfg(Variant::Cicero),
        };
        let k = Intrinsics::from_fov(12, 12, 0.9);
        let sub = Submission::stream(spec, &scene, &model, traj.fps(), k);
        let Ok(SubmitOutcome::Admitted(id)) = fleet.submit(sub) else {
            panic!("admission");
        };
        for (i, pose) in traj.poses().iter().enumerate() {
            let pose = if i == at { nasty_pose(*pose, axis, POSE_EDGES[edge]) } else { *pose };
            let pushed = fleet.push_pose(id, pose);
            if refusable(&pose) {
                prop_assert!(
                    matches!(pushed, Err(ServeError::InvalidPose { id: got, .. }) if got == id),
                    "{pose:?}: {pushed:?}"
                );
            } else {
                prop_assert_eq!(pushed, Ok(()));
            }
        }
        fleet.close_stream(id).unwrap();
        fleet.run();
    }

    /// A bare streaming session fed any such pose, with quality and traffic
    /// collection on, steps to the end of its stream: no panic, no hang.
    #[test]
    fn bare_session_survives_any_pose(
        axis in 0usize..8,
        edge in 0usize..8,
        at in 0usize..6,
        cicero in 0u8..2,
    ) {
        let (scene, model, traj) = pose_assets();
        let variant = if cicero == 1 { Variant::Cicero } else { Variant::Baseline };
        let edit = |i, pose| if i == at { nasty_pose(pose, axis, POSE_EDGES[edge]) } else { pose };
        let steps = step_bare_session(&scene, &model, &traj, variant, edit);
        prop_assert_eq!(steps, traj.len());
    }
}
