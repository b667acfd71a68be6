//! The swarm session mix: 24 sessions over 4 library scenes and one flood
//! probe, submitted through a [`Fleet`].
//!
//! A module of `tests/swarm_matrix.rs` (the serve oracle), which includes it
//! by `#[path]`.

use cicero::pipeline::PipelineConfig;
use cicero::{Scenario, Variant};
use cicero_accel::pool::PoolConfig;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::Intrinsics;
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory};
use cicero_serve::{
    FaultPlan, Fleet, FleetConfig, FleetReport, Policies, QosClass, ServeConfig, ServeError,
    SessionId, SessionSpec, Submission,
};

pub const SCENES: [&str; 4] = ["lego", "chair", "ship", "hotdog"];
pub const VIEWERS_PER_SCENE: usize = 6; // 4 scenes × 6 = 24 sessions
pub const POLICIES: [&str; 4] = ["default", "affinity", "degrade", "prefetch"];
const FRAMES: usize = 12;
const FPS: f32 = 30.0;

pub struct SceneAssets {
    name: &'static str,
    scene: AnalyticScene,
    model: GridModel,
    orbit: Trajectory,
    handheld: Trajectory,
}

/// Bakes one 28³ grid model per scene, with its orbit and handheld paths.
pub fn bake_assets() -> Vec<SceneAssets> {
    SCENES
        .iter()
        .map(|&name| {
            let scene = library::scene_by_name(name).expect("library scene");
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
        .collect()
}

pub struct SwarmRun {
    /// Sessions admitted, the flood included when it got in.
    pub sessions: usize,
    pub report: FleetReport,
    /// The flood probe's admission: `None` on a multi-shard fleet, which
    /// skips it.
    pub flood: Option<Result<SessionId, ServeError>>,
}

impl SwarmRun {
    /// Cross-session reference-cache hits over every shard.
    pub fn cache_hits(&self) -> u64 {
        self.report
            .shards
            .iter()
            .flat_map(|r| &r.sessions)
            .map(|s| s.cache_hits)
            .sum()
    }
}

/// Submits to a swarm fleet, which is never armed with overload control:
/// the session is admitted now or refused.
fn admit<'a>(fleet: &mut Fleet<'a>, sub: Submission<'a>) -> Result<SessionId, ServeError> {
    let outcome = fleet.submit(sub)?;
    Ok(outcome.session().expect("nothing queues without a queue"))
}

/// Serves the swarm once under the policy bundle `policy` (a
/// [`Policies::by_name`] name) at host thread budget `render_threads`:
/// whole trajectories, or pose by pose through the streaming API when
/// `stream`; on a fleet of `shards`.
pub fn run_swarm(
    assets: &[SceneAssets],
    policy: &str,
    render_threads: usize,
    stream: bool,
    faults: Option<FaultPlan>,
    shards: usize,
) -> Result<SwarmRun, ServeError> {
    let cfg = ServeConfig {
        pool: PoolConfig {
            workers: 6,
            ..Default::default()
        },
        render_threads,
        policies: Policies::by_name(policy).expect("a known policy name"),
        faults,
        ..Default::default()
    };
    let mut fleet = Fleet::new(FleetConfig {
        shards,
        base: cfg,
        ..Default::default()
    })?;

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
                // The same client feeding its poses one at a time, fully fed
                // before the drain.
                let id = admit(
                    &mut fleet,
                    Submission::stream(spec, &a.scene, &a.model, traj.fps(), k),
                )?;
                for pose in traj.poses() {
                    fleet.push_pose(id, *pose)?;
                }
                fleet.close_stream(id)?;
            } else {
                admit(
                    &mut fleet,
                    Submission::trajectory(spec, &a.scene, &a.model, traj, k),
                )?;
            }
        }
    }

    // Admission control in action: a 90 fps 640×640 baseline flood does not
    // fit next to the committed swarm. Only the load-adaptive QoS policy
    // admits it, *degraded* (the ladder lands at 80×80). A multi-shard fleet
    // skips the probe: admission is per-shard, so splitting the swarm leaves
    // headroom that could admit the flood at full resolution — a capacity
    // statement, not the admission-control story this probes.
    let flood_traj = Trajectory::orbit(&assets[0].scene, FRAMES, 90.0);
    let flood = (shards == 1).then(|| {
        admit(
            &mut fleet,
            Submission::trajectory(
                SessionSpec {
                    name: "flood".into(),
                    scene_key: "lego".into(),
                    qos: QosClass::Interactive,
                    start_offset_s: 0.0,
                    config: PipelineConfig {
                        variant: Variant::Baseline,
                        ..Default::default()
                    },
                },
                &assets[0].scene,
                &assets[0].model,
                &flood_traj,
                Intrinsics::from_fov(640, 640, 0.9),
            ),
        )
    });

    Ok(SwarmRun {
        sessions: fleet.session_count(),
        report: fleet.run(),
        flood,
    })
}
