//! Deterministic traffic profiles and the replay harness.
//!
//! A [`TrafficProfile`] is a **versioned, plain-text** record of a serving
//! workload: session arrivals, QoS mix, scene popularity and pose-stream
//! cadences. A [`TrafficModel`] *generates* one from a seed (Zipf scene
//! popularity, diurnal or flash-crowd arrival processes, jittered cadences)
//! or [`TrafficProfile::parse`] reads one back from text, and they replay
//! identically either way: [`run_replay`] drives a server with open-loop
//! session arrivals and closed-loop pose streaming, emitting a
//! [`ReplayOutcome`] whose [`ServiceReport`] obeys the standing contract:
//! **same profile, same seed ⇒ bit-identical report at any host thread
//! budget**.
//!
//! # Draw machinery
//!
//! Every random-looking decision is a keyed idempotent draw over the
//! profile seed — [`keyed_unit`](crate::fault::keyed_unit)`(seed, TAG,
//! session, k, _)` — the exact machinery behind
//! [`FaultPlan::fires`](crate::FaultPlan::fires), with generator tags
//! (101+) disjoint from the fault tags (1–7). Generating a profile twice,
//! replaying it twice, or replaying it at a different host budget cannot
//! diverge: there is no RNG state to advance, only keys to hash.
//!
//! # Replay semantics
//!
//! Arrivals are **open-loop**: sessions submit at their recorded offsets
//! regardless of how overloaded the server is (that is the point — overload
//! control, not admission-time luck, decides what happens). Pose streams are
//! **closed-loop**: a streaming client buffers poses while its submission
//! waits in the pending-admission queue and flushes them once its ticket
//! admits. Backpressure ([`ServeError::Overloaded`]) is honored with seeded
//! retry/backoff; every retry instant is itself a keyed draw, so the retry
//! storm replays bit-identically too.

use crate::error::ServeError;
use crate::fault::{keyed_draw, keyed_unit};
use crate::overload::{Feed, Submission, SubmitOutcome, TicketId, TicketState};
use crate::report::{class_tally, rate, ServiceReport};
use crate::scheduler::{FrameServer, ServeConfig};
use crate::session::{QosClass, SessionId, SessionSpec};
use cicero::pipeline::PipelineConfig;
use cicero_field::{bake, GridConfig, GridModel};
use cicero_math::{Intrinsics, Pose};
use cicero_scene::volume::MarchParams;
use cicero_scene::{library, AnalyticScene, Trajectory, TrajectoryKind};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Draw tags for the traffic generator and replay client, disjoint from the
/// [`FaultKind`](crate::FaultKind) tags (1–7) so a traffic profile and a
/// fault plan sharing one seed stay decorrelated.
const TAG_ARRIVAL: u64 = 101;
const TAG_SCENE: u64 = 102;
const TAG_QOS: u64 = 103;
const TAG_STREAM: u64 = 104;
const TAG_CADENCE: u64 = 105;
const TAG_RETRY: u64 = 106;
const TAG_TRAJ: u64 = 107;

/// Camera-path kind of a recorded session, replayed via
/// [`Trajectory::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Smooth orbit (screen viewers, exporters).
    Orbit,
    /// Handheld 6-DoF shake (head-tracked clients); the session's
    /// `path_seed` drives the shake phases.
    Handheld,
    /// Far-to-near dolly.
    FlyThrough,
}

impl PathKind {
    /// Stable text-format label.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::Orbit => "orbit",
            PathKind::Handheld => "handheld",
            PathKind::FlyThrough => "flythrough",
        }
    }

    /// Parses a [`label`](Self::label) back; `None` for unknown labels.
    pub fn from_label(s: &str) -> Option<PathKind> {
        match s {
            "orbit" => Some(PathKind::Orbit),
            "handheld" => Some(PathKind::Handheld),
            "flythrough" => Some(PathKind::FlyThrough),
            _ => None,
        }
    }

    fn to_trajectory_kind(self) -> TrajectoryKind {
        match self {
            PathKind::Orbit => TrajectoryKind::Orbit,
            PathKind::Handheld => TrajectoryKind::Handheld,
            PathKind::FlyThrough => TrajectoryKind::FlyThrough,
        }
    }
}

// Hand impl: the derive shim only handles named-field structs, not enums.
impl Serialize for PathKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// One session of a [`TrafficProfile`]: everything the replay driver needs
/// to reconstruct the client bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficSession {
    /// Session name (whitespace-free; the text format is space-delimited).
    pub name: String,
    /// Library scene name ([`library::scene_by_name`]).
    pub scene: String,
    /// QoS class.
    pub qos: QosClass,
    /// Arrival (submission) instant, simulated seconds.
    pub start_s: f64,
    /// Frames the client wants served (for streaming sessions: poses the
    /// client will push).
    pub frames: u32,
    /// Client frame rate.
    pub fps: f32,
    /// Whether the client streams poses one at a time (closed-loop) instead
    /// of submitting a whole trajectory.
    pub streaming: bool,
    /// Camera-path kind.
    pub path: PathKind,
    /// Seed for seed-controlled paths (handheld shake phases).
    pub path_seed: u64,
}

/// Why a traffic profile failed to parse or resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficError {
    /// The text did not conform to the versioned format.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A session references a scene the library does not know.
    UnknownScene {
        /// The unresolvable scene name.
        name: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Parse { line, msg } => {
                write!(f, "traffic profile parse error at line {line}: {msg}")
            }
            TrafficError::UnknownScene { name } => write!(f, "unknown library scene {name:?}"),
        }
    }
}

impl std::error::Error for TrafficError {}

/// A versioned traffic trace: the complete client-side workload of one
/// serving run, in a plain-text format that round-trips exactly
/// ([`to_text`](Self::to_text) / [`parse`](Self::parse)).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficProfile {
    /// The seed the profile was generated from — also the default client
    /// seed (retry jitter) at replay.
    pub seed: u64,
    /// Nominal trace duration, simulated seconds (arrivals fall within it).
    pub duration_s: f64,
    /// The sessions, in arrival order.
    pub sessions: Vec<TrafficSession>,
}

impl TrafficProfile {
    /// Serializes to the versioned plain-text format:
    ///
    /// ```text
    /// cicero-traffic-profile v1
    /// seed 42
    /// duration_s 8.0
    /// sessions 2
    /// session name=c000-lego-interactive scene=lego qos=interactive start_s=0.25 frames=12 fps=30.0 streaming=true path=handheld path_seed=7
    /// session ...
    /// ```
    ///
    /// Floats print in shortest-round-trip form and parse back exactly, so
    /// `parse(to_text(p)) == p` bit-for-bit.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("cicero-traffic-profile v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("duration_s {:?}\n", self.duration_s));
        out.push_str(&format!("sessions {}\n", self.sessions.len()));
        for s in &self.sessions {
            out.push_str(&format!(
                "session name={} scene={} qos={} start_s={:?} frames={} fps={:?} streaming={} path={} path_seed={}\n",
                sanitize(&s.name),
                sanitize(&s.scene),
                s.qos.label(),
                s.start_s,
                s.frames,
                s.fps,
                s.streaming,
                s.path.label(),
                s.path_seed,
            ));
        }
        out
    }

    /// Parses the text format produced by [`to_text`](Self::to_text).
    ///
    /// # Errors
    ///
    /// [`TrafficError::Parse`] with the offending line on any malformed
    /// header, unknown version, missing field or unparsable value.
    pub fn parse(text: &str) -> Result<TrafficProfile, TrafficError> {
        let err = |line: usize, msg: &str| TrafficError::Parse {
            line,
            msg: msg.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (n, header) = lines.next().ok_or_else(|| err(1, "empty profile"))?;
        if header.trim() != "cicero-traffic-profile v1" {
            return Err(err(n + 1, "expected header `cicero-traffic-profile v1`"));
        }
        let mut scalar = |key: &str| -> Result<(usize, String), TrafficError> {
            let (n, line) = lines
                .next()
                .ok_or_else(|| err(0, &format!("missing `{key}` line")))?;
            let rest = line
                .strip_prefix(key)
                .ok_or_else(|| err(n + 1, &format!("expected `{key} <value>`")))?;
            Ok((n + 1, rest.trim().to_string()))
        };
        let (n, seed) = scalar("seed")?;
        let seed: u64 = seed.parse().map_err(|_| err(n, "seed must be a u64"))?;
        let (n, duration) = scalar("duration_s")?;
        let duration_s: f64 = duration
            .parse()
            .map_err(|_| err(n, "duration_s must be a float"))?;
        let (n, count) = scalar("sessions")?;
        let count: usize = count
            .parse()
            .map_err(|_| err(n, "sessions must be a count"))?;
        let mut sessions = Vec::with_capacity(count);
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let body = line
                .strip_prefix("session ")
                .ok_or_else(|| err(n + 1, "expected `session key=value ...`"))?;
            sessions.push(parse_session(n + 1, body)?);
        }
        if sessions.len() != count {
            return Err(err(
                4,
                &format!("declared {count} sessions but found {}", sessions.len()),
            ));
        }
        Ok(TrafficProfile {
            seed,
            duration_s,
            sessions,
        })
    }

    /// Client-demanded frames per QoS class, indexed by
    /// [`QosClass::priority`] — the offered-load denominator behind
    /// client-side SLO attainment.
    pub fn offered_frames_by_class(&self) -> [u64; 3] {
        let mut offered = [0u64; 3];
        for s in &self.sessions {
            offered[s.qos.priority() as usize] += s.frames as u64;
        }
        offered
    }
}

/// The text format is whitespace-delimited; recorded names must not smuggle
/// separators in.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == '=' {
                '-'
            } else {
                c
            }
        })
        .collect()
}

fn parse_session(line: usize, body: &str) -> Result<TrafficSession, TrafficError> {
    let err = |msg: String| TrafficError::Parse { line, msg };
    let mut name = None;
    let mut scene = None;
    let mut qos = None;
    let mut start_s = None;
    let mut frames = None;
    let mut fps = None;
    let mut streaming = None;
    let mut path = None;
    let mut path_seed = None;
    for field in body.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| err(format!("field {field:?} is not key=value")))?;
        match key {
            "name" => name = Some(value.to_string()),
            "scene" => scene = Some(value.to_string()),
            "qos" => {
                qos = Some(
                    QosClass::from_label(value)
                        .ok_or_else(|| err(format!("unknown qos class {value:?}")))?,
                )
            }
            "start_s" => {
                start_s = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| err(format!("start_s {value:?} is not a float")))?,
                )
            }
            "frames" => {
                frames = Some(
                    value
                        .parse::<u32>()
                        .map_err(|_| err(format!("frames {value:?} is not a u32")))?,
                )
            }
            "fps" => {
                fps = Some(
                    value
                        .parse::<f32>()
                        .map_err(|_| err(format!("fps {value:?} is not a float")))?,
                )
            }
            "streaming" => {
                streaming = Some(
                    value
                        .parse::<bool>()
                        .map_err(|_| err(format!("streaming {value:?} is not a bool")))?,
                )
            }
            "path" => {
                path = Some(
                    PathKind::from_label(value)
                        .ok_or_else(|| err(format!("unknown path kind {value:?}")))?,
                )
            }
            "path_seed" => {
                path_seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| err(format!("path_seed {value:?} is not a u64")))?,
                )
            }
            other => return Err(err(format!("unknown field {other:?}"))),
        }
    }
    Ok(TrafficSession {
        name: name.ok_or_else(|| err("missing name".into()))?,
        scene: scene.ok_or_else(|| err("missing scene".into()))?,
        qos: qos.ok_or_else(|| err("missing qos".into()))?,
        start_s: start_s.ok_or_else(|| err("missing start_s".into()))?,
        frames: frames.ok_or_else(|| err("missing frames".into()))?,
        fps: fps.ok_or_else(|| err("missing fps".into()))?,
        streaming: streaming.ok_or_else(|| err("missing streaming".into()))?,
        path: path.ok_or_else(|| err("missing path".into()))?,
        path_seed: path_seed.ok_or_else(|| err("missing path_seed".into()))?,
    })
}

/// The session-arrival process of a [`TrafficModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Arrivals uniform over the trace duration.
    Uniform,
    /// A raised-cosine daily peak mixed over the uniform base: density
    /// `∝ 1 + peak_boost·(1 − cos(2πt/T))/2`.
    Diurnal {
        /// Peak density boost over the uniform base (0 = uniform).
        peak_boost: f64,
    },
    /// A flash crowd: `crowd_frac` of sessions arrive inside a burst window,
    /// the rest uniformly.
    FlashCrowd {
        /// Burst center, as a fraction of the duration.
        at_frac: f64,
        /// Burst width, as a fraction of the duration.
        width_frac: f64,
        /// Fraction of sessions belonging to the burst.
        crowd_frac: f64,
    },
}

impl ArrivalProcess {
    /// Maps two unit draws to an arrival instant in `[0, duration_s]` by
    /// inverse-CDF (deterministic bisection for the raised-cosine
    /// component) — no RNG state, so arrival `i` depends only on its draws.
    fn sample(&self, u: f64, v: f64, duration_s: f64) -> f64 {
        let x = match *self {
            ArrivalProcess::Uniform => u,
            ArrivalProcess::Diurnal { peak_boost } => {
                let w = (peak_boost / 2.0) / (1.0 + peak_boost / 2.0);
                if v < w {
                    // Invert F(x) = x − sin(2πx)/(2π) on [0,1].
                    let f = |x: f64| x - (std::f64::consts::TAU * x).sin() / std::f64::consts::TAU;
                    let (mut lo, mut hi) = (0.0f64, 1.0f64);
                    for _ in 0..52 {
                        let mid = 0.5 * (lo + hi);
                        if f(mid) < u {
                            lo = mid;
                        } else {
                            hi = mid;
                        }
                    }
                    0.5 * (lo + hi)
                } else {
                    u
                }
            }
            ArrivalProcess::FlashCrowd {
                at_frac,
                width_frac,
                crowd_frac,
            } => {
                if v < crowd_frac {
                    (at_frac + (u - 0.5) * width_frac).clamp(0.0, 1.0)
                } else {
                    u
                }
            }
        };
        x * duration_s
    }
}

/// A deterministic traffic generator: shape knobs plus
/// [`generate`](Self::generate)`(seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    /// Sessions to generate.
    pub sessions: usize,
    /// Trace duration (arrival window), simulated seconds.
    pub duration_s: f64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Candidate scene names; popularity is Zipf over this order.
    pub scenes: Vec<String>,
    /// Zipf exponent of scene popularity (0 = uniform).
    pub zipf_s: f64,
    /// QoS mix weights, indexed by [`QosClass::priority`]
    /// (interactive, standard, best-effort). Normalized internally.
    pub qos_mix: [f64; 3],
    /// Fraction of sessions using streaming (closed-loop) pose ingestion.
    pub streaming_frac: f64,
    /// Nominal frames per session; jittered ±25% per session.
    pub frames: u32,
    /// Nominal client frame rate.
    pub base_fps: f32,
    /// Cadence jitter: each session's fps is scaled by
    /// `1 ± fps_jitter·(2u−1)`.
    pub fps_jitter: f64,
}

impl Default for TrafficModel {
    fn default() -> Self {
        TrafficModel {
            sessions: 24,
            duration_s: 1.0,
            arrivals: ArrivalProcess::Uniform,
            scenes: vec![
                "lego".into(),
                "chair".into(),
                "ship".into(),
                "hotdog".into(),
            ],
            zipf_s: 1.0,
            qos_mix: [2.0, 3.0, 1.0],
            streaming_frac: 0.25,
            frames: 12,
            base_fps: 30.0,
            fps_jitter: 0.1,
        }
    }
}

impl TrafficModel {
    /// Generates the profile for `seed`. Pure: same model + same seed ⇒
    /// byte-identical profile, every draw keyed and idempotent.
    ///
    /// # Panics
    ///
    /// Panics if the model has no sessions, no scenes, a non-positive
    /// duration or an all-zero QoS mix.
    pub fn generate(&self, seed: u64) -> TrafficProfile {
        assert!(self.sessions > 0, "traffic model needs sessions");
        assert!(!self.scenes.is_empty(), "traffic model needs scenes");
        assert!(self.duration_s > 0.0, "duration must be positive");
        let qos_total: f64 = self.qos_mix.iter().sum();
        assert!(qos_total > 0.0, "qos mix must have weight somewhere");

        // Zipf popularity over the scene list: weight 1/(k+1)^s.
        let zipf: Vec<f64> = (0..self.scenes.len())
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.zipf_s))
            .collect();
        let zipf_total: f64 = zipf.iter().sum();

        let mut sessions: Vec<TrafficSession> = (0..self.sessions as u64)
            .map(|i| {
                let start_s = self.arrivals.sample(
                    keyed_unit(seed, TAG_ARRIVAL, i, 0, 0),
                    keyed_unit(seed, TAG_ARRIVAL, i, 1, 0),
                    self.duration_s,
                );
                let scene_idx =
                    pick_weighted(keyed_unit(seed, TAG_SCENE, i, 0, 0), &zipf, zipf_total);
                let qos_idx =
                    pick_weighted(keyed_unit(seed, TAG_QOS, i, 0, 0), &self.qos_mix, qos_total);
                let qos = match qos_idx {
                    0 => QosClass::Interactive,
                    1 => QosClass::Standard,
                    _ => QosClass::BestEffort,
                };
                let streaming = keyed_unit(seed, TAG_STREAM, i, 0, 0) < self.streaming_frac;
                let fps = self.base_fps
                    * (1.0 + self.fps_jitter * (2.0 * keyed_unit(seed, TAG_CADENCE, i, 0, 0) - 1.0))
                        as f32;
                let frames = ((self.frames as f64
                    * (0.75 + 0.5 * keyed_unit(seed, TAG_CADENCE, i, 1, 0)))
                .round() as u32)
                    .max(1);
                let path = match qos {
                    QosClass::Interactive => PathKind::Handheld,
                    QosClass::Standard => PathKind::Orbit,
                    QosClass::BestEffort => {
                        if keyed_unit(seed, TAG_TRAJ, i, 1, 0) < 0.5 {
                            PathKind::FlyThrough
                        } else {
                            PathKind::Orbit
                        }
                    }
                };
                let scene = self.scenes[scene_idx].clone();
                TrafficSession {
                    name: format!("c{i:03}-{scene}-{}", qos.label()),
                    scene,
                    qos,
                    start_s,
                    frames,
                    fps,
                    streaming,
                    path,
                    path_seed: keyed_draw(seed, TAG_TRAJ, i, 0, 0),
                }
            })
            .collect();
        // Arrival order, ties by generation index (names differ, so the sort
        // is total and stable-by-construction).
        sessions.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.name.cmp(&b.name)));
        TrafficProfile {
            seed,
            duration_s: self.duration_s,
            sessions,
        }
    }
}

/// Inverse-CDF pick over unnormalized weights.
fn pick_weighted(u: f64, weights: &[f64], total: f64) -> usize {
    let target = u * total;
    let mut cum = 0.0;
    for (i, w) in weights.iter().enumerate() {
        cum += w;
        if target < cum {
            return i;
        }
    }
    weights.len() - 1
}

/// Owned scene/model/trajectory assets backing one profile's replay. The
/// borrowed-asset serving contract ([`FrameServer`] sessions borrow their
/// scenes) means these must outlive the server; build them once and hand
/// them to [`run_replay`].
pub struct TrafficAssets {
    /// Unique `(name, scene, baked model)` triples, in first-use order.
    scenes: Vec<(String, AnalyticScene, GridModel)>,
    /// Per-session trajectory, parallel to the profile's sessions.
    trajectories: Vec<Trajectory>,
    /// Per-session index into [`scenes`](Self::scenes).
    scene_of: Vec<usize>,
}

impl TrafficAssets {
    /// Bakes every scene the profile references and regenerates every
    /// session's trajectory.
    ///
    /// # Errors
    ///
    /// [`TrafficError::UnknownScene`] if a session names a scene the
    /// [`library`] does not know.
    pub fn build(profile: &TrafficProfile, grid: &GridConfig) -> Result<Self, TrafficError> {
        let mut scenes: Vec<(String, AnalyticScene, GridModel)> = Vec::new();
        let mut trajectories = Vec::with_capacity(profile.sessions.len());
        let mut scene_of = Vec::with_capacity(profile.sessions.len());
        for s in &profile.sessions {
            let idx = match scenes.iter().position(|(n, _, _)| n == &s.scene) {
                Some(idx) => idx,
                None => {
                    let scene = library::scene_by_name(&s.scene).ok_or_else(|| {
                        TrafficError::UnknownScene {
                            name: s.scene.clone(),
                        }
                    })?;
                    let model = bake::bake_grid(&scene, grid);
                    scenes.push((s.scene.clone(), scene, model));
                    scenes.len() - 1
                }
            };
            let frames = s.frames.max(1) as usize;
            trajectories.push(Trajectory::generate(
                &scenes[idx].1,
                frames,
                s.fps,
                s.path.to_trajectory_kind(),
                s.path_seed,
            ));
            scene_of.push(idx);
        }
        Ok(TrafficAssets {
            scenes,
            trajectories,
            scene_of,
        })
    }

    /// Unique scenes baked for this profile.
    pub fn scene_count(&self) -> usize {
        self.scenes.len()
    }

    /// Whether these assets hold one trajectory per session of `profile`,
    /// each session's on the scene it names.
    fn fit(&self, profile: &TrafficProfile) -> bool {
        self.trajectories.len() == profile.sessions.len()
            && profile
                .sessions
                .iter()
                .zip(&self.scene_of)
                .all(|(s, &idx)| self.scenes[idx].0 == s.scene)
    }
}

/// Replay knobs: the server configuration plus the client model.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// The server under test. Arm [`ServeConfig::overload`] here; `None`
    /// replays against historical admit-or-reject behavior.
    pub cfg: ServeConfig,
    /// Client-side draw seed (retry jitter). Use the profile's own seed for
    /// the canonical replay.
    pub client_seed: u64,
    /// Resubmissions a backpressured client attempts before giving up.
    pub max_retries: u32,
    /// Camera intrinsics for every session.
    pub intrinsics: Intrinsics,
    /// Warp window for interactive sessions (others get `window + 2`).
    pub window: usize,
    /// Collect per-frame quality (PSNR) in session summaries. Off by
    /// default — replay is a scheduling harness — but bit-identity tests
    /// turn it on, both for the stronger check (PSNR equality ⇒ pixels
    /// match) and because an uncollected summary reports `NaN` PSNR, which
    /// `PartialEq` correctly refuses to call equal.
    pub collect_quality: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            cfg: ServeConfig::default(),
            client_seed: 0,
            max_retries: 3,
            intrinsics: Intrinsics::from_fov(32, 32, 0.9),
            window: 4,
            collect_quality: false,
        }
    }
}

/// Client-side accounting of one replay: what the simulated clients
/// experienced, complementing the server's [`ServiceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ClientStats {
    /// Submission attempts (first tries; retries count separately).
    pub submitted: u64,
    /// Sessions admitted immediately at submission.
    pub admitted: u64,
    /// Sessions that entered the pending-admission queue.
    pub queued: u64,
    /// Queued sessions eventually admitted (full fidelity or browned out).
    pub queue_admitted: u64,
    /// Queued sessions shed by the server.
    pub shed: u64,
    /// Hard admission rejections (reject-only baseline; no queue to enter).
    pub rejected: u64,
    /// [`ServeError::Overloaded`] backpressure responses received.
    pub backpressured: u64,
    /// Resubmissions after backpressure (seeded jittered backoff).
    pub retries: u64,
    /// Sessions abandoned after exhausting retries.
    pub abandoned: u64,
    /// Poses pushed into admitted streams (buffered ones included once
    /// flushed).
    pub poses_pushed: u64,
}

/// The result of one [`run_replay`]: the server's report plus the client
/// view and the offered-vs-attained SLO accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReplayOutcome {
    /// The server's service report (bit-identical at any host budget).
    pub report: ServiceReport,
    /// What the clients saw.
    pub client: ClientStats,
    /// Client-demanded frames per QoS class (the profile's offered load).
    pub offered_frames: [u64; 3],
    /// Frames served on time per QoS class.
    pub ontime_frames: [u64; 3],
    /// Client-side SLO attainment: `ontime / offered` per class (1.0 where
    /// nothing was offered). Unlike the server-side
    /// [`OverloadReport::slo_attainment`](crate::report::OverloadReport),
    /// this charges rejected and abandoned sessions too — the figure a
    /// reject-only baseline must be compared on.
    pub attainment: [f64; 3],
    /// On-time frames per second of makespan, client view.
    pub goodput_fps: f64,
}

/// Where one replayed client stands with the server.
#[derive(Clone, Copy)]
enum ClientState {
    /// Submitted and admitted; streaming sessions push poses directly.
    Admitted(SessionId),
    /// Waiting in the pending-admission queue; streaming poses buffer.
    Waiting(TicketId),
    /// Rejected, shed, or abandoned after retries.
    Dropped,
    /// Not yet submitted (or between backpressure retries).
    Idle,
}

/// One replayed client.
struct Client {
    state: ClientState,
    /// Poses a streaming client produced while its submission waited.
    buffered: Vec<Pose>,
    /// The stream's close came due and has not been delivered yet.
    close_due: bool,
}

/// One scheduled replay event.
#[derive(Clone, Copy)]
enum Event {
    /// Submit session `s` (attempt > 0 = post-backpressure retry).
    Submit { s: usize, attempt: u32 },
    /// Push pose `k` of streaming session `s`.
    Pose { s: usize, k: usize },
    /// Close streaming session `s`'s pose feed.
    Close { s: usize },
}

/// Deterministic time-ordered event queue: min-heap on
/// `(time bits, insertion seq)` — f64 `to_bits` orders non-negative floats
/// (infinity included) correctly, and the seq makes ties replay in insertion
/// order. A time that is not a number is no event time:
/// [`FrameServer::submit`] refuses the submission that would carry it.
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: Vec<Event>,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
        }
    }

    fn push(&mut self, t: f64, e: Event) {
        let seq = self.events.len() as u64;
        self.events.push(e);
        self.heap.push(Reverse((t.to_bits(), seq)));
    }

    fn peek_time(&self) -> Option<f64> {
        self.heap
            .peek()
            .map(|Reverse((bits, _))| f64::from_bits(*bits))
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        let Reverse((bits, seq)) = self.heap.pop()?;
        Some((f64::from_bits(bits), self.events[seq as usize]))
    }
}

/// One replay in flight: the server under test, the clients driving it and
/// the events they have scheduled.
struct Replay<'p> {
    profile: &'p TrafficProfile,
    assets: &'p TrafficAssets,
    opts: &'p ReplayOptions,
    server: FrameServer<'p>,
    queue: EventQueue,
    clients: Vec<Client>,
    stats: ClientStats,
}

/// Replays `profile` against a fresh [`FrameServer`] built from
/// `opts.cfg`: open-loop session arrivals, closed-loop pose streaming,
/// seeded retry/backoff under backpressure. Same profile + same options ⇒
/// bit-identical [`ReplayOutcome`] at any host thread budget.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] if `assets` were not built from `profile`
/// (a different session count, or a session's scene differs). Otherwise
/// propagates any [`ServeError`] the replay client cannot absorb
/// (admission rejections, backpressure and shed tickets are absorbed and
/// counted; everything else — a malformed profile session the server
/// refuses as [`ServeError::InvalidSubmission`], or a harness bug — is
/// surfaced to the caller).
pub fn run_replay(
    profile: &TrafficProfile,
    assets: &TrafficAssets,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, ServeError> {
    if !assets.fit(profile) {
        return Err(ServeError::InvalidConfig {
            reason: "assets must be built from this profile",
        });
    }
    let mut replay = Replay {
        profile,
        assets,
        opts,
        server: FrameServer::new(opts.cfg.clone()),
        queue: EventQueue::new(),
        clients: Vec::with_capacity(profile.sessions.len()),
        stats: ClientStats::default(),
    };
    for (s, sess) in profile.sessions.iter().enumerate() {
        replay.clients.push(Client {
            state: ClientState::Idle,
            buffered: Vec::new(),
            close_due: false,
        });
        let submit = Event::Submit { s, attempt: 0 };
        replay.queue.push(sess.start_s.max(0.0), submit);
    }
    replay.drive()?;
    replay.server.release_drained_loads();
    Ok(replay.outcome())
}

impl<'p> Replay<'p> {
    /// Interleaves client events with the server's drain steps in simulated
    /// time order until neither has anything left.
    fn drive(&mut self) -> Result<(), ServeError> {
        loop {
            let t_round = self.server.next_ready_s();
            match self.queue.peek_time() {
                Some(te) if te <= t_round => {
                    let (t, event) = self.queue.pop().expect("peeked event pops");
                    match event {
                        Event::Submit { s, attempt } => self.on_submit(s, attempt, t)?,
                        Event::Pose { s, k } => self.on_pose(s, k)?,
                        Event::Close { s } => {
                            self.clients[s].close_due = true;
                            self.settle(s)?;
                        }
                    }
                }
                _ if t_round.is_finite() => {
                    self.server.drain_step();
                }
                _ => {
                    // No events left and nothing ready. First settle the
                    // clients whose tickets resolved during rounds: flushing
                    // buffered poses may make new work ready. Otherwise
                    // entries may still wait on their SLO deadlines, and the
                    // drain step advances to the earliest.
                    let mut progressed = false;
                    for s in 0..self.clients.len() {
                        progressed |= self.settle(s)?;
                    }
                    if !progressed && self.server.drain_step().is_none() {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// The [`SessionSpec`] profile session `s` submits.
    fn spec_of(&self, s: usize) -> SessionSpec {
        let sess = &self.profile.sessions[s];
        let window = self.opts.window;
        SessionSpec {
            name: sess.name.clone(),
            scene_key: sess.scene.clone(),
            qos: sess.qos,
            start_offset_s: sess.start_s,
            config: PipelineConfig {
                window: if sess.qos == QosClass::Interactive {
                    window
                } else {
                    window + 2
                },
                march: MarchParams {
                    step: 0.04,
                    ..Default::default()
                },
                collect_quality: self.opts.collect_quality,
                collect_traffic: false,
                ..Default::default()
            },
        }
    }

    /// Client `s` submits at `t` (attempt > 0: a retry after backpressure).
    fn on_submit(&mut self, s: usize, attempt: u32, t: f64) -> Result<(), ServeError> {
        let sess = &self.profile.sessions[s];
        let (_, scene, model) = &self.assets.scenes[self.assets.scene_of[s]];
        let feed = if sess.streaming {
            Feed::Stream { fps: sess.fps }
        } else {
            Feed::Trajectory(&self.assets.trajectories[s])
        };
        if attempt == 0 {
            self.stats.submitted += 1;
        }
        let outcome = self.server.submit(Submission {
            spec: self.spec_of(s),
            scene,
            model,
            feed,
            intrinsics: self.opts.intrinsics,
            at_s: t,
        });
        self.clients[s].state = match outcome {
            Ok(SubmitOutcome::Admitted(id)) => {
                self.stats.admitted += 1;
                ClientState::Admitted(id)
            }
            Ok(SubmitOutcome::Queued(ticket)) => {
                self.stats.queued += 1;
                ClientState::Waiting(ticket)
            }
            Err(ServeError::Overloaded { retry_after_s }) if attempt < self.opts.max_retries => {
                self.stats.backpressured += 1;
                self.stats.retries += 1;
                // Seeded jitter decorrelates the retry storm without an RNG
                // to advance.
                let jitter = keyed_unit(
                    self.opts.client_seed,
                    TAG_RETRY,
                    s as u64,
                    attempt as u64,
                    0,
                );
                let retry = Event::Submit {
                    s,
                    attempt: attempt + 1,
                };
                self.queue.push(t + retry_after_s * (1.0 + jitter), retry);
                ClientState::Idle
            }
            Err(ServeError::Overloaded { .. }) => {
                self.stats.backpressured += 1;
                self.stats.abandoned += 1;
                ClientState::Dropped
            }
            Err(ServeError::Admission(_)) => {
                self.stats.rejected += 1;
                ClientState::Dropped
            }
            Err(e) => return Err(e),
        };
        if sess.streaming && outcome.is_ok() {
            self.schedule_stream(s, t);
        }
        Ok(())
    }

    /// Schedules the pose cadence and close of streaming session `s`
    /// starting at its submission instant: pose `k` at `t + k/fps +
    /// jitter_k` with jitter under half an interval (cadence wobble can
    /// never reorder poses), close one interval after the last pose.
    fn schedule_stream(&mut self, s: usize, t: f64) {
        let sess = &self.profile.sessions[s];
        let interval = 1.0 / sess.fps as f64;
        let frames = sess.frames.max(1) as usize;
        for k in 0..frames {
            let wobble = keyed_unit(self.opts.client_seed, TAG_CADENCE, s as u64, k as u64, 1);
            let at = t + k as f64 * interval + 0.4 * interval * wobble;
            self.queue.push(at, Event::Pose { s, k });
        }
        let close_at = t + frames as f64 * interval + interval;
        self.queue.push(close_at, Event::Close { s });
    }

    /// Streaming client `s` produces pose `k`: pushed if admitted, buffered
    /// while its ticket is pending.
    fn on_pose(&mut self, s: usize, k: usize) -> Result<(), ServeError> {
        self.settle(s)?;
        let pose = self.assets.trajectories[s].poses()[k];
        match self.clients[s].state {
            ClientState::Admitted(id) => {
                self.server.push_pose(id, pose)?;
                self.stats.poses_pushed += 1;
            }
            ClientState::Waiting(_) => self.clients[s].buffered.push(pose),
            _ => {}
        }
        Ok(())
    }

    /// Brings client `s` up to date with the server: if its ticket resolved,
    /// flush the buffered poses and mark it admitted — or dropped, if it was
    /// shed; then deliver the stream close if one is due. Returns whether the
    /// client was admitted just now.
    fn settle(&mut self, s: usize) -> Result<bool, ServeError> {
        let client = &mut self.clients[s];
        let mut admitted_now = false;
        if let ClientState::Waiting(ticket) = client.state {
            match self.server.ticket(ticket) {
                Some(TicketState::Admitted(id)) => {
                    for pose in client.buffered.drain(..) {
                        self.server.push_pose(id, pose)?;
                        self.stats.poses_pushed += 1;
                    }
                    client.state = ClientState::Admitted(id);
                    admitted_now = true;
                }
                Some(TicketState::Shed) => {
                    client.state = ClientState::Dropped;
                    client.buffered.clear();
                }
                _ => {}
            }
        }
        if let (ClientState::Admitted(id), true) = (client.state, client.close_due) {
            self.server.close_stream(id)?;
            client.close_due = false;
        }
        Ok(admitted_now)
    }

    /// The server's report plus the client-side view of it.
    fn outcome(self) -> ReplayOutcome {
        // Queued outcomes resolve server-side whether or not a client polled
        // its ticket again, so the authoritative counts come from the report.
        let report = self.server.report();
        let mut client = self.stats;
        client.queue_admitted = report.overload.queue_admits + report.overload.brownout_admits;
        client.shed = report.overload.sheds;
        // Client-side SLO attainment against offered (not admitted) load.
        let offered_frames = self.profile.offered_frames_by_class();
        let (_, ontime_frames) = class_tally(&report.sessions, &report.records);
        let attainment = std::array::from_fn(|c| {
            if offered_frames[c] == 0 {
                1.0
            } else {
                ontime_frames[c] as f64 / offered_frames[c] as f64
            }
        });
        let ontime_total: u64 = ontime_frames.iter().sum();
        ReplayOutcome {
            goodput_fps: rate(ontime_total as f64, report.makespan_s),
            report,
            client,
            offered_frames,
            ontime_frames,
            attainment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> TrafficModel {
        TrafficModel {
            sessions: 8,
            duration_s: 0.5,
            scenes: vec!["lego".into(), "chair".into()],
            frames: 4,
            ..Default::default()
        }
    }

    #[test]
    fn generate_is_pure_and_seed_sensitive() {
        let m = tiny_model();
        let a = m.generate(42);
        let b = m.generate(42);
        let c = m.generate(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.sessions.len(), 8);
        for w in a.sessions.windows(2) {
            assert!(w[0].start_s <= w[1].start_s, "arrival order");
        }
    }

    #[test]
    fn profile_text_round_trips_exactly() {
        let p = tiny_model().generate(7);
        let text = p.to_text();
        let q = TrafficProfile::parse(&text).expect("well-formed profile parses");
        assert_eq!(p, q);
        // And the re-serialization is byte-identical.
        assert_eq!(text, q.to_text());
    }

    #[test]
    fn parse_rejects_malformed_profiles() {
        assert!(matches!(
            TrafficProfile::parse(""),
            Err(TrafficError::Parse { .. })
        ));
        assert!(matches!(
            TrafficProfile::parse(
                "cicero-traffic-profile v2\nseed 1\nduration_s 1.0\nsessions 0\n"
            ),
            Err(TrafficError::Parse { line: 1, .. })
        ));
        let bad_qos = "cicero-traffic-profile v1\nseed 1\nduration_s 1.0\nsessions 1\nsession name=a scene=lego qos=platinum start_s=0.0 frames=1 fps=30.0 streaming=false path=orbit path_seed=0\n";
        assert!(matches!(
            TrafficProfile::parse(bad_qos),
            Err(TrafficError::Parse { line: 5, .. })
        ));
        let missing = "cicero-traffic-profile v1\nseed 1\nduration_s 1.0\nsessions 1\nsession name=a scene=lego qos=standard\n";
        assert!(TrafficProfile::parse(missing).is_err());
        let wrong_count = "cicero-traffic-profile v1\nseed 1\nduration_s 1.0\nsessions 3\n";
        assert!(TrafficProfile::parse(wrong_count).is_err());
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let mut m = tiny_model();
        m.sessions = 64;
        m.arrivals = ArrivalProcess::FlashCrowd {
            at_frac: 0.5,
            width_frac: 0.1,
            crowd_frac: 0.8,
        };
        let p = m.generate(3);
        let in_burst = p
            .sessions
            .iter()
            .filter(|s| (s.start_s / m.duration_s - 0.5).abs() <= 0.05 + 1e-9)
            .count();
        assert!(
            in_burst >= 64 / 2,
            "expected a crowd in the burst window, got {in_burst}/64"
        );
    }

    #[test]
    fn diurnal_is_deterministic_and_in_range() {
        let arr = ArrivalProcess::Diurnal { peak_boost: 3.0 };
        for i in 0..64u64 {
            let u = keyed_unit(9, TAG_ARRIVAL, i, 0, 0);
            let v = keyed_unit(9, TAG_ARRIVAL, i, 1, 0);
            let t1 = arr.sample(u, v, 10.0);
            let t2 = arr.sample(u, v, 10.0);
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert!((0.0..=10.0).contains(&t1));
        }
    }

    #[test]
    fn zipf_prefers_earlier_scenes() {
        let mut m = tiny_model();
        m.sessions = 200;
        m.zipf_s = 1.4;
        let p = m.generate(11);
        let first = p.sessions.iter().filter(|s| s.scene == "lego").count();
        let second = p.sessions.iter().filter(|s| s.scene == "chair").count();
        assert!(
            first > second,
            "zipf head scene should dominate: {first} vs {second}"
        );
    }

    #[test]
    fn assets_reject_unknown_scenes() {
        let mut p = tiny_model().generate(1);
        p.sessions[0].scene = "atlantis".into();
        match TrafficAssets::build(&p, &GridConfig::default()) {
            Err(TrafficError::UnknownScene { name }) => assert_eq!(name, "atlantis"),
            Err(other) => panic!("expected UnknownScene, got {other:?}"),
            Ok(_) => panic!("expected UnknownScene, got assets"),
        }
    }

    #[test]
    fn replay_refuses_assets_built_for_another_profile() {
        let grid = GridConfig {
            resolution: 8,
            ..Default::default()
        };
        let p = tiny_model().generate(3);
        let mut fewer = p.clone();
        fewer.sessions.pop();
        let mut moved = p.clone();
        moved.sessions[0].scene = if p.sessions[0].scene == "lego" {
            "chair".into()
        } else {
            "lego".into()
        };
        for other in [fewer, moved] {
            let assets = TrafficAssets::build(&other, &grid).expect("library scenes");
            match run_replay(&p, &assets, &ReplayOptions::default()) {
                Err(ServeError::InvalidConfig { reason }) => {
                    assert_eq!(reason, "assets must be built from this profile")
                }
                Err(e) => panic!("expected InvalidConfig, got {e:?}"),
                Ok(_) => panic!("expected InvalidConfig, got an outcome"),
            }
        }
    }

    #[test]
    fn offered_frames_index_by_priority() {
        let p = TrafficProfile {
            seed: 0,
            duration_s: 1.0,
            sessions: vec![
                TrafficSession {
                    name: "a".into(),
                    scene: "lego".into(),
                    qos: QosClass::Interactive,
                    start_s: 0.0,
                    frames: 3,
                    fps: 30.0,
                    streaming: false,
                    path: PathKind::Orbit,
                    path_seed: 0,
                },
                TrafficSession {
                    name: "b".into(),
                    scene: "lego".into(),
                    qos: QosClass::BestEffort,
                    start_s: 0.1,
                    frames: 5,
                    fps: 30.0,
                    streaming: true,
                    path: PathKind::Orbit,
                    path_seed: 0,
                },
            ],
        };
        assert_eq!(p.offered_frames_by_class(), [3, 0, 5]);
    }
}
