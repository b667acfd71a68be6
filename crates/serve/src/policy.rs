//! The policy layer: every scheduling *decision* the frame server makes,
//! extracted behind five traits so deployments can swap strategy without
//! touching the scheduler's plumbing.
//!
//! - [`PlacementPolicy`] — which simulated worker runs a job,
//! - [`QosPolicy`] — what happens at admission when the pool is loaded,
//! - [`PrefetchPolicy`] — whether idle simulated capacity renders future
//!   references speculatively,
//! - [`RecoveryPolicy`] — how a failed reference render is retried, falls
//!   back or is given up on (consulted only under an armed fault plan),
//! - [`ShardRoutingPolicy`] — which [`Fleet`](crate::Fleet) shard owns a
//!   session, at admission and at failover.
//!
//! The first four ride the [`Policies`] bundle on
//! [`ServeConfig`](crate::ServeConfig), which defaults to implementations
//! that reproduce the historical hard-coded behavior **bit-for-bit**
//! ([`LeastLoaded`], [`RejectAtAdmission`], [`NoPrefetch`],
//! [`RetryWithBackoff`]); routing rides
//! [`FleetConfig::routing`](crate::FleetConfig::routing) and defaults to
//! [`SceneHashRouting`].
//!
//! # Determinism contract
//!
//! Policies run inside a simulated-time scheduler whose entire
//! [`ServiceReport`](crate::ServiceReport) must be bit-identical at any host
//! thread budget. Every implementation must therefore decide from
//! **simulated state only**:
//!
//! 1. Inputs are limited to what the trait hands over: the job description,
//!    the [`WorkerPool`] clocks, the admission ledger, demand-job counts.
//!    Never consult wall-clock time, host parallelism
//!    (`ServeConfig::render_threads`, `available_parallelism`), random
//!    number generators, or ambient global state.
//! 2. Be a pure function of those inputs. Interior-mutable caches are fine
//!    only if they cannot change decisions (memoization of a deterministic
//!    function).
//! 3. Hash deterministically. If a decision hashes a key (see
//!    [`SceneAffinity`]), use a fixed-seed hash like [`fnv1a`] — seeded
//!    `std::collections` hashers differ between processes.
//!
//! Adding a new policy is: implement the trait (stateless struct, `Debug +
//! Send + Sync`), obey the rules above, and hand it to the bundle via
//! [`Policies::with_placement`] (or the sibling builders). The
//! budget-determinism test in `tests/parallel_determinism.rs` should then be
//! extended to cover it — equality of the full report across budgets is the
//! cheapest proof a policy kept the contract.

use crate::admission::{AdmissionController, AdmissionError};
use crate::session::{SessionId, SessionSpec};
use cicero::Variant;
use cicero_accel::pool::WorkerPool;
use cicero_math::Intrinsics;
use std::fmt;
use std::sync::Arc;

/// FNV-1a over `bytes`: the fixed-seed hash policies must use when a
/// decision keys off a string (process-seeded hashers would break replay
/// determinism).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// What kind of work a placement decision is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// An off-stream reference render (cache miss batched to the pool).
    Reference,
    /// A displayed target frame (warp + sparse render, or a full render).
    Target,
    /// A speculative reference render issued by the prefetch policy.
    Prefetch,
}

/// One placement decision's context.
#[derive(Debug, Clone, Copy)]
pub struct PlacementJob<'a> {
    /// What the job is.
    pub kind: JobKind,
    /// The session the job belongs to.
    pub session: SessionId,
    /// The session's scene key (model-residency affinity target).
    pub scene_key: &'a str,
    /// Simulated time the job becomes runnable.
    pub ready_at_s: f64,
}

/// Decides which simulated [`WorkerPool`] worker executes a job.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// Returns the index of the worker to bill `job` to.
    fn place(&self, job: &PlacementJob<'_>, pool: &WorkerPool) -> usize;
}

/// Default placement: the worker that becomes idle soonest (ties to the
/// lowest index) — exactly the scheduler's historical behavior.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn place(&self, _job: &PlacementJob<'_>, pool: &WorkerPool) -> usize {
        pool.least_loaded()
    }
}

/// Scene-affinity placement: the pool is split into `lanes` contiguous
/// worker groups and every job of a scene lands in that scene's lane
/// (least-loaded within it). This models NeRF **weight residency** — a
/// worker serving one scene keeps that scene's model hot in its memory
/// hierarchy, so co-locating a scene's sessions and reference renders on one
/// lane is what a deployment with per-worker model caches would do
/// (ROADMAP "smarter batching"; Potamoi's unified streaming takes the same
/// position).
#[derive(Debug, Clone, Copy)]
pub struct SceneAffinity {
    /// Number of worker lanes the pool is partitioned into (clamped to the
    /// pool size).
    pub lanes: usize,
}

impl Default for SceneAffinity {
    fn default() -> Self {
        SceneAffinity { lanes: 2 }
    }
}

impl PlacementPolicy for SceneAffinity {
    fn place(&self, job: &PlacementJob<'_>, pool: &WorkerPool) -> usize {
        let lanes = self.lanes.clamp(1, pool.len());
        let lane = (fnv1a(job.scene_key.as_bytes()) % lanes as u64) as usize;
        // Contiguous partition: the first `extra` lanes get one more worker.
        let per = pool.len() / lanes;
        let extra = pool.len() % lanes;
        let start = lane * per + lane.min(extra);
        let width = per + usize::from(lane < extra);
        (start..start + width)
            .min_by(|&a, &b| {
                pool.workers()[a]
                    .free_at()
                    .total_cmp(&pool.workers()[b].free_at())
            })
            .expect("lanes are never empty")
    }
}

// ---------------------------------------------------------------------------
// QoS / admission
// ---------------------------------------------------------------------------

/// What a [`QosPolicy`] traded away to admit a session.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Degradation {
    /// Warping window: (requested, granted). Stretching the window amortizes
    /// each expensive reference render over more warped targets — less pool
    /// load, more warp error.
    pub window: (usize, usize),
    /// Frame resolution in pixels: ((requested w, h), (granted w, h)).
    pub resolution: ((usize, usize), (usize, usize)),
}

/// A successful admission decision.
#[derive(Debug, Clone)]
pub struct QosAdmission {
    /// The session spec as granted (possibly degraded).
    pub spec: SessionSpec,
    /// The intrinsics as granted (possibly downsampled).
    pub intrinsics: Intrinsics,
    /// Load committed against the admission ledger.
    pub est_load: f64,
    /// What was degraded, if anything.
    pub degradation: Option<Degradation>,
}

/// Decides whether (and in what shape) a session is admitted.
pub trait QosPolicy: fmt::Debug + Send + Sync {
    /// Admits `spec` at `intrinsics`/`fps`, possibly degraded, committing
    /// the returned load to `ctl`; or rejects with the controller's error.
    fn admit(
        &self,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
        ctl: &mut AdmissionController,
    ) -> Result<QosAdmission, AdmissionError>;
}

/// Default QoS: admit as requested or reject — the historical behavior of
/// [`AdmissionController::admit`], unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct RejectAtAdmission;

impl QosPolicy for RejectAtAdmission {
    fn admit(
        &self,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
        ctl: &mut AdmissionController,
    ) -> Result<QosAdmission, AdmissionError> {
        let est_load = ctl.admit(spec, intrinsics, fps)?;
        Ok(QosAdmission {
            spec: spec.clone(),
            intrinsics,
            est_load,
            degradation: None,
        })
    }
}

/// Load-adaptive QoS: under load, degrade quality instead of rejecting
/// (ROADMAP "dynamic QoS"). The ladder tries, gentlest first:
///
/// 1. the session as requested,
/// 2. progressively stretched warping windows (×2 per rung up to
///    [`max_window`](Self::max_window); more targets amortize each reference
///    render, cutting the full-render share of the load estimate),
/// 3. at the longest window, progressively halved resolution (down to
///    [`min_resolution`](Self::min_resolution) on the shorter side).
///
/// The first rung that fits the admission ledger is granted and the
/// [`Degradation`] recorded in the
/// [`ServiceReport`](crate::ServiceReport::degradations); if nothing fits
/// the most-degraded rung's counting rejection is returned, so an overloaded
/// fleet still saturates gracefully.
#[derive(Debug, Clone, Copy)]
pub struct LoadAdaptiveDegrade {
    /// Longest warping window a session may be stretched to.
    pub max_window: usize,
    /// Smallest granted width/height, in pixels.
    pub min_resolution: usize,
}

impl Default for LoadAdaptiveDegrade {
    fn default() -> Self {
        LoadAdaptiveDegrade {
            max_window: 24,
            min_resolution: 64,
        }
    }
}

impl QosPolicy for LoadAdaptiveDegrade {
    fn admit(
        &self,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
        ctl: &mut AdmissionController,
    ) -> Result<QosAdmission, AdmissionError> {
        // (window, downsample factor) rungs, gentlest first. Baseline
        // sessions have no warping window to stretch.
        let mut rungs: Vec<(usize, usize)> = vec![(spec.config.window, 1)];
        if spec.config.variant != Variant::Baseline {
            let mut w = spec.config.window.max(1);
            while w < self.max_window {
                w = (w * 2).min(self.max_window);
                rungs.push((w, 1));
            }
        }
        let widest = rungs.last().expect("rungs never empty").0;
        let mut f = 2usize;
        while intrinsics.width / f >= self.min_resolution
            && intrinsics.height / f >= self.min_resolution
        {
            rungs.push((widest, f));
            f *= 2;
        }

        for (i, &(window, factor)) in rungs.iter().enumerate() {
            let mut granted = spec.clone();
            granted.config.window = window;
            let k = intrinsics.downsampled(factor);
            let load = ctl.estimate_load(&granted, k, fps);
            if !ctl.would_fit(load) && i + 1 < rungs.len() {
                continue;
            }
            // First fitting rung — or the last one, whose counting admit
            // produces the same rejection accounting as the default policy.
            let est_load = ctl.admit(&granted, k, fps)?;
            let degradation = (i > 0).then_some(Degradation {
                window: (spec.config.window, window),
                resolution: ((intrinsics.width, intrinsics.height), (k.width, k.height)),
            });
            return Ok(QosAdmission {
                spec: granted,
                intrinsics: k,
                est_load,
                degradation,
            });
        }
        unreachable!("the ladder always contains the as-requested rung")
    }
}

// ---------------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------------

/// Decides how much speculative reference rendering a dispatch round may do.
///
/// The scheduler enumerates prefetch candidates (each live session's
/// upcoming off-stream references beyond the demand horizon, not yet cached
/// or planned) in session-id order and issues the first
/// [`budget`](Self::budget) of them. Prefetched renders go into the shared
/// [`RefCache`](crate::RefCache) **without** being installed into their
/// session, so the later demand lookup scores an ordinary (accounted) hit —
/// hit/waste accounting lives in
/// [`RefCacheStats`](crate::RefCacheStats).
pub trait PrefetchPolicy: fmt::Debug + Send + Sync {
    /// Extra frames of reference lookahead (beyond the demand horizon) to
    /// scan for candidates; `0` disables prefetch entirely and the scheduler
    /// skips candidate collection.
    fn extra_horizon(&self, window: usize) -> usize;

    /// Number of speculative renders this dispatch round may issue, given
    /// the round's demand-job count. Must depend on **simulated state only**
    /// (never the host thread budget), so reports stay bit-identical at any
    /// budget.
    fn budget(&self, demand_jobs: usize, pool: &WorkerPool) -> usize;
}

/// Default prefetch: none — the historical demand-only scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetch;

impl PrefetchPolicy for NoPrefetch {
    fn extra_horizon(&self, _window: usize) -> usize {
        0
    }

    fn budget(&self, _demand_jobs: usize, _pool: &WorkerPool) -> usize {
        0
    }
}

/// Idle-worker prefetch: when a round's demand jobs leave simulated workers
/// without a reference to render, fill them with the **next** window's
/// predicted references (ROADMAP "cache policies"). The budget is
/// `pool workers − demand jobs` — a simulated-occupancy notion, so the
/// decision is identical at every host thread budget.
#[derive(Debug, Clone, Copy)]
pub struct IdleWorkerPrefetch {
    /// How many windows past the demand horizon to predict into.
    pub windows: usize,
}

impl Default for IdleWorkerPrefetch {
    fn default() -> Self {
        IdleWorkerPrefetch { windows: 1 }
    }
}

impl PrefetchPolicy for IdleWorkerPrefetch {
    fn extra_horizon(&self, window: usize) -> usize {
        self.windows * window.max(1)
    }

    fn budget(&self, demand_jobs: usize, pool: &WorkerPool) -> usize {
        pool.len().saturating_sub(demand_jobs)
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// How the server recovers from injected (or, eventually, real) faults —
/// the policy side of [`crate::fault`].
///
/// The recovery **ladder** for a failed reference render, gentlest first:
///
/// 1. retry on a fresh worker after [`backoff_s`](Self::backoff_s), up to
///    [`max_attempts`](Self::max_attempts) total attempts (the crashed
///    worker is quarantined for [`quarantine_s`](Self::quarantine_s));
/// 2. warp from the **best stale cached reference** within the pose-error
///    radius ([`stale_pos_radius`](Self::stale_pos_radius) /
///    [`stale_rot_radius`](Self::stale_rot_radius)) — Cicero's warping math
///    tolerates bounded pose error, which makes stale references a valid
///    degraded warp source exactly the way `LoadAdaptiveDegrade` makes
///    stretched windows a valid degraded schedule;
/// 3. a final guaranteed (degraded) re-render when nothing is in radius.
///
/// Target frames retry without rungs 2–3 (their pixels exist host-side; a
/// crash only costs simulated time), and a per-frame **watchdog** converts
/// fault-caused deadline overruns within
/// [`watchdog_slack_s`](Self::watchdog_slack_s) into accounted grants
/// instead of silent misses.
///
/// Implementations obey the same determinism contract as every other policy
/// here: decisions are pure functions of the inputs handed over — never
/// wall-clock, host parallelism or ambient state.
pub trait RecoveryPolicy: fmt::Debug + Send + Sync {
    /// Total render attempts (including the first) before falling back.
    fn max_attempts(&self) -> u32;

    /// Deterministic backoff before retry number `attempt` (1-based, the
    /// attempt that just failed), given the job's priced duration.
    fn backoff_s(&self, attempt: u32, base_duration_s: f64) -> f64;

    /// Largest position error (world units) a stale reference may have from
    /// the intended pose and still serve as a fallback warp source.
    fn stale_pos_radius(&self) -> f32;

    /// Largest rotation error (radians) a stale fallback reference may have.
    fn stale_rot_radius(&self) -> f32;

    /// How long a crashed worker stays out of rotation, given the failed
    /// job's priced duration.
    fn quarantine_s(&self, base_duration_s: f64) -> f64;

    /// Deadline slack within which the watchdog converts a fault-affected
    /// overrun into a grant, given the session's frame interval.
    fn watchdog_slack_s(&self, frame_interval_s: f64) -> f64;
}

/// Default recovery: bounded retries with exponential backoff, then the
/// stale-warp / degraded-re-render ladder.
#[derive(Debug, Clone, Copy)]
pub struct RetryWithBackoff {
    /// Total attempts including the first.
    pub max_attempts: u32,
    /// Backoff = `base_duration · factor · 2^(attempt−1)`.
    pub backoff_factor: f64,
    /// Stale-fallback position radius, world units.
    pub stale_pos_radius: f32,
    /// Stale-fallback rotation radius, radians.
    pub stale_rot_radius: f32,
    /// Quarantine = `base_duration · quarantine_factor`.
    pub quarantine_factor: f64,
    /// Watchdog slack in frame intervals past the deadline.
    pub watchdog_slack_frames: f64,
}

impl Default for RetryWithBackoff {
    fn default() -> Self {
        RetryWithBackoff {
            max_attempts: 3,
            backoff_factor: 0.5,
            stale_pos_radius: 0.75,
            stale_rot_radius: 0.6,
            quarantine_factor: 4.0,
            watchdog_slack_frames: 8.0,
        }
    }
}

impl RecoveryPolicy for RetryWithBackoff {
    fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    fn backoff_s(&self, attempt: u32, base_duration_s: f64) -> f64 {
        base_duration_s * self.backoff_factor * f64::from(1u32 << (attempt - 1).min(16))
    }

    fn stale_pos_radius(&self) -> f32 {
        self.stale_pos_radius
    }

    fn stale_rot_radius(&self) -> f32 {
        self.stale_rot_radius
    }

    fn quarantine_s(&self, base_duration_s: f64) -> f64 {
        base_duration_s * self.quarantine_factor
    }

    fn watchdog_slack_s(&self, frame_interval_s: f64) -> f64 {
        frame_interval_s * self.watchdog_slack_frames
    }
}

// ---------------------------------------------------------------------------
// Shard routing (fleet)
// ---------------------------------------------------------------------------

/// One shard's state, as a [`ShardRoutingPolicy`] sees it. Candidates are
/// always presented in ascending shard order and contain **alive** shards
/// only.
#[derive(Debug, Clone, Copy)]
pub struct ShardCandidate {
    /// The shard's index in the fleet.
    pub shard: usize,
    /// Worker occupancy committed on the shard's admission ledger.
    pub committed_load: f64,
    /// The shard's admissible capacity (workers × max-utilization).
    pub capacity: f64,
    /// Sessions currently resident on the shard.
    pub sessions: usize,
    /// Failover only: pose error (position, world units) of the warmest
    /// compatible reference in this shard's cache to the migrating session's
    /// next needed pose, via [`RefCache::best_within`](crate::RefCache::best_within).
    /// `None` at admission, or when the shard's cache has nothing in radius.
    pub warm_pos_error: Option<f32>,
}

/// Decides which [`Fleet`](crate::Fleet) shard owns a session — at admission
/// and again at failover, when a dead shard's sessions resume on survivors.
///
/// Same determinism contract as every other policy: decide from the
/// presented candidates only (simulated state), hash with [`fnv1a`], return
/// the `shard` field of one of the candidates. A routing decision changes
/// *placement*, never pixels — a migrated session replays its remaining
/// schedule bit-identically wherever it lands.
pub trait ShardRoutingPolicy: fmt::Debug + Send + Sync {
    /// Shard for a newly admitted session. `candidates` is never empty.
    fn admit(&self, scene_key: &str, candidates: &[ShardCandidate]) -> usize;

    /// Shard to resume a drained session on; `candidates` excludes the dead
    /// shard and is never empty. The default prefers cache warmth (smallest
    /// `warm_pos_error`), then the least committed load, then the lowest
    /// shard index — all total-ordered, so ties cannot flap.
    fn failover(&self, scene_key: &str, candidates: &[ShardCandidate]) -> usize {
        let _ = scene_key;
        candidates
            .iter()
            .min_by(|a, b| {
                let wa = a.warm_pos_error.unwrap_or(f32::INFINITY);
                let wb = b.warm_pos_error.unwrap_or(f32::INFINITY);
                wa.total_cmp(&wb)
                    .then(a.committed_load.total_cmp(&b.committed_load))
                    .then(a.shard.cmp(&b.shard))
            })
            .expect("failover candidates are never empty")
            .shard
    }
}

/// Default routing: a session lands on `fnv1a(scene_key) % shards`, so every
/// session of one scene shares a shard — the fleet-level analogue of
/// [`SceneAffinity`]'s model-weight residency, and the placement that makes
/// the reference cache actually shareable. Failover uses the default
/// warmth-first rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct SceneHashRouting;

impl ShardRoutingPolicy for SceneHashRouting {
    fn admit(&self, scene_key: &str, candidates: &[ShardCandidate]) -> usize {
        candidates[(fnv1a(scene_key.as_bytes()) % candidates.len() as u64) as usize].shard
    }
}

/// Load-balancing routing: a session lands on the alive shard with the most
/// spare committed capacity (capacity − committed load; ties to the lowest
/// shard index). Spreads one scene across shards — better load spread,
/// colder caches.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedRouting;

impl ShardRoutingPolicy for LeastLoadedRouting {
    fn admit(&self, _scene_key: &str, candidates: &[ShardCandidate]) -> usize {
        candidates
            .iter()
            .min_by(|a, b| {
                let spare_a = a.capacity - a.committed_load;
                let spare_b = b.capacity - b.committed_load;
                spare_b.total_cmp(&spare_a).then(a.shard.cmp(&b.shard))
            })
            .expect("admission candidates are never empty")
            .shard
    }
}

// ---------------------------------------------------------------------------
// Bundle
// ---------------------------------------------------------------------------

/// The server's policy bundle, carried by
/// [`ServeConfig`](crate::ServeConfig). Defaults reproduce the historical
/// hard-coded scheduler bit-for-bit.
#[derive(Debug, Clone)]
pub struct Policies {
    /// Worker placement for references, targets and prefetches.
    pub placement: Arc<dyn PlacementPolicy>,
    /// Admission-time QoS strategy.
    pub qos: Arc<dyn QosPolicy>,
    /// Speculative reference rendering.
    pub prefetch: Arc<dyn PrefetchPolicy>,
    /// Fault recovery (retry / fallback / watchdog). Only consulted when
    /// [`ServeConfig::faults`](crate::ServeConfig::faults) arms an injector,
    /// so swapping it is a no-op on fault-free runs.
    pub recovery: Arc<dyn RecoveryPolicy>,
}

impl Default for Policies {
    fn default() -> Self {
        Policies {
            placement: Arc::new(LeastLoaded),
            qos: Arc::new(RejectAtAdmission),
            prefetch: Arc::new(NoPrefetch),
            recovery: Arc::new(RetryWithBackoff::default()),
        }
    }
}

impl Policies {
    /// The bundle a CLI-facing policy name denotes — one non-default
    /// implementation swapped in per name, default parameters. The single
    /// source of truth for `serve_swarm --policy` and the swarm matrix's
    /// legs (`tests/swarm_matrix.rs`); `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Policies> {
        match name {
            "default" => Some(Policies::default()),
            "affinity" => Some(Policies::default().with_placement(SceneAffinity::default())),
            "degrade" => Some(Policies::default().with_qos(LoadAdaptiveDegrade::default())),
            "prefetch" => Some(Policies::default().with_prefetch(IdleWorkerPrefetch::default())),
            _ => None,
        }
    }

    /// Replaces the placement policy.
    pub fn with_placement(mut self, p: impl PlacementPolicy + 'static) -> Self {
        self.placement = Arc::new(p);
        self
    }

    /// Replaces the QoS policy.
    pub fn with_qos(mut self, q: impl QosPolicy + 'static) -> Self {
        self.qos = Arc::new(q);
        self
    }

    /// Replaces the prefetch policy.
    pub fn with_prefetch(mut self, p: impl PrefetchPolicy + 'static) -> Self {
        self.prefetch = Arc::new(p);
        self
    }

    /// Replaces the recovery policy.
    pub fn with_recovery(mut self, r: impl RecoveryPolicy + 'static) -> Self {
        self.recovery = Arc::new(r);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QosClass;
    use cicero::PipelineConfig;
    use cicero_accel::pool::PoolConfig;

    fn spec(window: usize) -> SessionSpec {
        SessionSpec {
            name: "t".into(),
            scene_key: "lego".into(),
            qos: QosClass::Standard,
            start_offset_s: 0.0,
            config: PipelineConfig {
                window,
                ..Default::default()
            },
        }
    }

    #[test]
    fn least_loaded_matches_pool_choice() {
        let mut pool = WorkerPool::new(PoolConfig {
            workers: 3,
            ..Default::default()
        });
        pool.assign(0, 0.0, 5.0);
        pool.assign(1, 0.0, 1.0);
        let job = PlacementJob {
            kind: JobKind::Target,
            session: 0,
            scene_key: "lego",
            ready_at_s: 0.0,
        };
        assert_eq!(LeastLoaded.place(&job, &pool), pool.least_loaded());
    }

    #[test]
    fn scene_affinity_is_sticky_and_lane_local() {
        let mut pool = WorkerPool::new(PoolConfig {
            workers: 6,
            ..Default::default()
        });
        let policy = SceneAffinity { lanes: 2 };
        let job = |scene: &'static str| PlacementJob {
            kind: JobKind::Reference,
            session: 0,
            scene_key: scene,
            ready_at_s: 0.0,
        };
        // Repeated placements of one scene stay within one 3-worker lane,
        // regardless of load elsewhere.
        let first = policy.place(&job("lego"), &pool);
        let lane = first / 3;
        for _ in 0..8 {
            let w = policy.place(&job("lego"), &pool);
            assert_eq!(w / 3, lane, "scene hopped lanes");
            pool.assign(w, 0.0, 1.0);
        }
        // A pool-wide least-loaded choice would have drifted to the other
        // lane, which is still completely idle.
        let other_lane_start = (1 - lane) * 3;
        assert!(pool.workers()[other_lane_start].busy_seconds() == 0.0);
    }

    #[test]
    fn degrade_prefers_window_stretch_then_resolution() {
        let policy = LoadAdaptiveDegrade {
            max_window: 16,
            min_resolution: 32,
        };
        let k = Intrinsics::from_fov(128, 128, 0.9);
        // Capacity that fits the session only after degradation.
        let mut ctl = AdmissionController::new(
            crate::AdmissionPolicy {
                max_utilization: 0.2,
                ..Default::default()
            },
            1,
            10.0,
        );
        let adm = policy.admit(&spec(4), k, 30.0, &mut ctl).unwrap();
        let d = adm.degradation.expect("session must degrade to fit");
        assert!(d.window.1 > d.window.0 || d.resolution.1 .0 < d.resolution.0 .0);
        assert_eq!(adm.spec.config.window, d.window.1);
        assert!(ctl.committed_load() > 0.0);
        // The granted shape fits what the controller admitted.
        assert!(adm.est_load <= ctl.capacity());
    }

    #[test]
    fn degrade_rejects_when_even_the_floor_does_not_fit() {
        let policy = LoadAdaptiveDegrade {
            max_window: 8,
            min_resolution: 64,
        };
        let k = Intrinsics::from_fov(128, 128, 0.9);
        let mut ctl = AdmissionController::new(
            crate::AdmissionPolicy {
                max_utilization: 1e-6,
                ..Default::default()
            },
            1,
            10.0,
        );
        assert!(matches!(
            policy.admit(&spec(4), k, 30.0, &mut ctl),
            Err(AdmissionError::Saturated { .. })
        ));
        assert_eq!(ctl.rejected(), 1);
    }

    #[test]
    fn idle_worker_prefetch_budget_is_simulated_state_only() {
        let pool = WorkerPool::new(PoolConfig {
            workers: 4,
            ..Default::default()
        });
        let p = IdleWorkerPrefetch::default();
        assert_eq!(p.budget(0, &pool), 4);
        assert_eq!(p.budget(3, &pool), 1);
        assert_eq!(p.budget(9, &pool), 0);
        assert_eq!(p.extra_horizon(6), 6);
        assert_eq!(NoPrefetch.budget(0, &pool), 0);
    }

    #[test]
    fn scene_hash_routing_is_sticky_and_in_range() {
        let candidates: Vec<ShardCandidate> = (0..4)
            .map(|shard| ShardCandidate {
                shard,
                committed_load: shard as f64,
                capacity: 5.1,
                sessions: 0,
                warm_pos_error: None,
            })
            .collect();
        for scene in ["lego", "chair", "ship", "hotdog"] {
            let first = SceneHashRouting.admit(scene, &candidates);
            assert!(candidates.iter().any(|c| c.shard == first));
            for _ in 0..4 {
                assert_eq!(SceneHashRouting.admit(scene, &candidates), first);
            }
        }
        // Least-loaded admission picks the sparest shard (0 here).
        assert_eq!(LeastLoadedRouting.admit("lego", &candidates), 0);
    }

    #[test]
    fn default_failover_prefers_warmth_then_load_then_id() {
        let c = |shard, committed_load, warm| ShardCandidate {
            shard,
            committed_load,
            capacity: 5.1,
            sessions: 1,
            warm_pos_error: warm,
        };
        // Warmth beats load.
        let got = SceneHashRouting.failover("lego", &[c(0, 0.0, None), c(2, 4.0, Some(0.3))]);
        assert_eq!(got, 2);
        // Equal warmth: least committed load.
        let got = SceneHashRouting.failover("lego", &[c(0, 2.0, Some(0.5)), c(1, 1.0, Some(0.5))]);
        assert_eq!(got, 1);
        // Full tie: lowest shard id.
        let got = SceneHashRouting.failover("lego", &[c(3, 1.0, Some(0.5)), c(1, 1.0, Some(0.5))]);
        assert_eq!(got, 1);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_monotonic() {
        let r = RetryWithBackoff::default();
        assert!(r.max_attempts() >= 1);
        assert!(r.backoff_s(1, 0.1) > 0.0);
        assert!(r.backoff_s(1, 0.1) < r.backoff_s(2, 0.1));
        assert_eq!(r.backoff_s(2, 0.1), r.backoff_s(2, 0.1));
        assert!(r.quarantine_s(0.1) > 0.0);
        assert!(r.watchdog_slack_s(1.0 / 30.0) > 0.0);
        assert!(r.stale_pos_radius() > 0.0 && r.stale_rot_radius() > 0.0);
    }
}
