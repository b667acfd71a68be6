//! The fleet — the one public way to serve sessions: N independent shard
//! servers behind one router, with shard-level fault domains, a
//! health-checked failover path, and **bit-identical** session migration.
//! Most deployments run a fleet of one (`FleetConfig::default()` with a
//! [`base`](FleetConfig::base) server configuration).
//!
//! # Why shards
//!
//! One shard (the crate-private `FrameServer` of [`crate::scheduler`]) is
//! one fault domain: a single simulated pool, cache and admission ledger. A deployment that must survive machine loss splits
//! capacity into shards that fail independently — the serving analogue of
//! the paper's multi-SoC scaling argument, applied to *availability* instead
//! of throughput. The [`Fleet`] owns the shards, routes each session to one
//! at admission (by scene hash or load; see [`ShardRouting`]), and
//! interleaves their scheduling rounds on one global simulated timeline.
//!
//! # Health model
//!
//! With an armed [`FaultPlan`](crate::FaultPlan), every shard is
//! heartbeat-checked each [`FleetConfig::heartbeat_interval_s`] of simulated
//! time. A heartbeat miss is a keyed idempotent draw —
//! `fires(ShardCrash, shard, heartbeat index, 0)` against the **base** plan
//! — so the health timeline is bit-identical at any host thread budget, like
//! everything else in this crate. [`FleetConfig::miss_threshold`]
//! *consecutive* misses declare the shard dead; a single missed beat
//! (network blip) merely resets on the next healthy one.
//! `fires(ShardBrownout, …)` instead stalls the shard's whole pool for
//! [`brownout_s`](crate::FaultPlan::brownout_s): the shard survives, its
//! frames run late. The per-shard servers draw their *own* worker/cache/pose
//! faults against shard-decorrelated seeds
//! ([`FaultPlan::for_shard`](crate::FaultPlan::for_shard)), so chaos is not
//! mirrored across shards — while shard 0 keeps the base seed, so a fleet
//! of one draws exactly the base plan's worker/cache/pose faults.
//!
//! # Failover and migration determinism
//!
//! When a shard dies, its live sessions drain and resume on survivors. The
//! contract is **bit-identity**: a migrated session replays its remaining
//! schedule from its current position and produces exactly the frames it
//! would have produced unmigrated. That holds because pixels depend only on
//! the session's own pipeline state (which travels with it) — the
//! destination shard changes *when* frames are served (a
//! [`resume floor`](crate::session) at the failover time, new worker
//! clocks), never *what* is rendered. The router may peek survivor cache
//! warmth ([`RefCache::best_within`](crate::RefCache::best_within)) to pick
//! the destination, but the peek only steers placement; nothing is
//! installed.
//!
//! Sessions whose shard dies with **no** survivor are *lost*: their
//! already-served frames stay in the dead shard's report, their unserved
//! remainder counts against [`FleetReport::availability`].
//!
//! # One global timeline
//!
//! The fleet's drain is one step, looped by [`Fleet::run`] and by
//! [`run_replay`](crate::run_replay) between client events: pick the shard
//! whose next batch is earliest (pre-dispatch readiness lower bound; ties to
//! the lowest shard index), process every heartbeat due at or before that
//! time in `(time, shard)` order, then run one drain step on the earliest
//! alive shard. A shard therefore never serves a batch whose readiness
//! estimate lies at or after its declared death; the actual batch may
//! *complete* later (dispatch extends past the estimate), which is the usual
//! crash-consistency window — frames in flight at the death instant were
//! already irrevocably priced. Deterministic either way.
//!
//! With armed [`OverloadControl`](crate::OverloadControl) the shard's drain
//! step pumps its queue at its round's dispatch instant; the fleet then
//! pumps the **sibling** shards' queues at that same instant, so capacity
//! that drained elsewhere admits queued work without waiting for that
//! shard's own next round.
//!
//! # One numbering
//!
//! Session ids and tickets are the fleet's, and only the fleet's: a shard
//! admitting, queueing or shedding writes the outcome into the fleet's
//! ledger at that moment, so sessions are numbered in admission order
//! fleet-wide and every ticket resolves the instant its shard decides it. A
//! session keeps its id when it migrates: its shard's frame records, its
//! summary, its [`MigrationRecord`], its telemetry and its fault draws all
//! name it by the number [`Fleet::submit`] or [`Fleet::ticket`] handed out.
//! A fleet of one therefore numbers exactly as its shard alone would, and
//! without shard faults serves exactly what its shard alone would.

use crate::error::ServeError;
use crate::fault::{FaultKind, FaultPlan};
use crate::overload::{Submission, SubmitOutcome, TicketId, TicketState};
use crate::policy::{ShardCandidate, ShardRouting};
use crate::report::{rate, ServiceReport, Totals};
use crate::scheduler::{FrameServer, ServeConfig};
use crate::session::{SessionId, SessionSpec};
use cicero_math::{Intrinsics, Pose};
use cicero_telemetry as telemetry;
use serde::Serialize;

/// Fleet shape and health-model knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent shard servers (≥ 1).
    pub shards: usize,
    /// Per-shard server configuration. Every shard gets an identical copy,
    /// except that an armed [`ServeConfig::faults`] plan is re-seeded per
    /// shard via [`FaultPlan::for_shard`] (shard 0 unchanged).
    pub base: ServeConfig,
    /// Session→shard routing, at admission and failover.
    pub routing: ShardRouting,
    /// Simulated seconds between health checks of each shard.
    pub heartbeat_interval_s: f64,
    /// Consecutive heartbeat misses that declare a shard dead.
    pub miss_threshold: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            base: ServeConfig::default(),
            routing: ShardRouting::SceneHash,
            heartbeat_interval_s: 0.05,
            miss_threshold: 2,
        }
    }
}

/// One failover migration: a session drained from a dead shard and resumed
/// on a survivor.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MigrationRecord {
    /// The session's id, the same before and after the move.
    pub session: SessionId,
    /// The session's human-readable name.
    pub name: String,
    /// The shard that died.
    pub from_shard: usize,
    /// The surviving shard that adopted the session.
    pub to_shard: usize,
    /// Simulated time the source shard was declared dead.
    pub at_s: f64,
    /// Completion time of the session's first frame on the destination, or
    /// `-1.0` if it never served there (starved stream, or the destination
    /// died too).
    pub resumed_s: f64,
    /// `resumed_s - at_s`, or `-1.0` if the session never resumed.
    pub time_to_resume_s: f64,
}

/// The fleet-wide service report: per-shard [`ServiceReport`]s plus
/// aggregates and the failover ledger. Bit-identical at any host thread
/// budget, like the per-shard reports it is built from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Per-shard reports, in shard order (dead shards included — their
    /// records end at the death time).
    pub shards: Vec<ServiceReport>,
    /// Frames served fleet-wide.
    pub frames: usize,
    /// Latest completion across all shards, simulated seconds.
    pub makespan_s: f64,
    /// `frames / makespan_s`.
    pub throughput_fps: f64,
    /// Median frame latency over every record fleet-wide.
    pub p50_latency_s: f64,
    /// 99th-percentile frame latency fleet-wide.
    pub p99_latency_s: f64,
    /// Deadline misses fleet-wide.
    pub deadline_misses: u64,
    /// `deadline_misses / frames`.
    pub deadline_miss_rate: f64,
    /// Fraction of client-expected frames that were served and recovered:
    /// `1 − (unrecovered + lost) / (served + lost)`. Watchdog-granted
    /// fault overruns count as available; frames of lost sessions and
    /// beyond-slack overruns do not.
    pub availability: f64,
    /// Shards declared dead.
    pub shard_crashes: u64,
    /// Whole-shard brownouts injected.
    pub shard_brownouts: u64,
    /// Heartbeat misses drawn (including the ones that killed shards).
    pub heartbeat_misses: u64,
    /// Admissions diverted off their primary shard to a sibling with
    /// immediate headroom — the fleet's **divert before shed** leg of the
    /// overload ladder. Always zero without an armed
    /// [`OverloadControl`](crate::OverloadControl) on the base config.
    pub diversions: u64,
    /// Every failover migration, in occurrence order.
    pub migrations: Vec<MigrationRecord>,
    /// Sessions lost because their shard died with no survivor.
    pub lost_sessions: u64,
    /// Client-expected frames those lost sessions never served.
    pub lost_frames: u64,
    /// Shards still alive at the end of the run.
    pub alive_shards: usize,
}

/// The fleet's one numbering, written by its shards: each session's home
/// shard and each queued submission's state, indexed by the session id and
/// ticket the fleet hands out. A shard numbers a session here when it
/// admits it and a ticket when it queues a submission, and resolves the
/// ticket when it admits or sheds the entry.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Session id → home shard; `None` once the session is lost.
    pub(crate) homes: Vec<Option<usize>>,
    /// Ticket → its resolution.
    pub(crate) tickets: Vec<TicketState>,
}

impl Ledger {
    /// Numbers a session just admitted on `shard`.
    pub(crate) fn admit(&mut self, shard: usize) -> SessionId {
        self.homes.push(Some(shard));
        self.homes.len() - 1
    }

    /// Numbers a submission just queued, pending.
    pub(crate) fn enqueue(&mut self) -> TicketId {
        self.tickets.push(TicketState::Pending);
        self.tickets.len() - 1
    }

    /// Resolution state of `ticket`; `None` for tickets never issued.
    pub(crate) fn ticket(&self, ticket: TicketId) -> Option<TicketState> {
        self.tickets.get(ticket).copied()
    }
}

/// A sharded fleet of frame servers on one simulated timeline — the
/// crate's front door.
///
/// Sessions are submitted to the fleet, which routes them to a shard and
/// hands back the session's one id (see the module docs' "One numbering");
/// pose ingestion and stream close follow the session to wherever failover
/// moved it. See the module docs for the health and migration model, and
/// [`crate::scheduler`] for what one shard does with its sessions.
pub struct Fleet<'a> {
    cfg: FleetConfig,
    servers: Vec<FrameServer<'a>>,
    ledger: Ledger,
    alive: Vec<bool>,
    /// Heartbeats already processed per shard (dead shards stop beating).
    hb_count: Vec<u64>,
    /// Consecutive misses per shard; reset by every healthy beat.
    misses: Vec<u32>,
    migrations: Vec<MigrationRecord>,
    diversions: u64,
    heartbeat_misses: u64,
    shard_crashes: u64,
    shard_brownouts: u64,
    lost_sessions: u64,
    lost_frames: u64,
}

impl<'a> Fleet<'a> {
    /// Builds the fleet: `cfg.shards` independent servers, each with its
    /// shard-decorrelated fault plan.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] if `cfg.shards` is zero, the heartbeat
    /// interval is not positive (NaN included), the miss threshold is zero,
    /// the base server has no worker, or an armed
    /// [`OverloadControl`](crate::OverloadControl)'s deadline slack or retry
    /// hint base is negative or NaN.
    pub fn new(cfg: FleetConfig) -> Result<Self, ServeError> {
        let invalid = |reason| Err(ServeError::InvalidConfig { reason });
        if cfg.shards == 0 {
            return invalid("a fleet needs at least one shard");
        }
        if cfg.heartbeat_interval_s.is_nan() || cfg.heartbeat_interval_s <= 0.0 {
            return invalid("heartbeat interval must be positive");
        }
        if cfg.miss_threshold == 0 {
            return invalid("miss threshold must be at least 1");
        }
        if cfg.base.pool.workers == 0 {
            return invalid("a shard needs at least one worker");
        }
        if let Some(ov) = &cfg.base.overload {
            let negative = |x: f64| x.is_nan() || x < 0.0;
            if negative(ov.deadline_slack) {
                return invalid("overload deadline slack must be a non-negative number");
            }
            if negative(ov.min_retry_s) {
                return invalid("overload retry hint base must be a non-negative number");
            }
        }
        let servers = (0..cfg.shards)
            .map(|i| {
                let mut shard_cfg = cfg.base.clone();
                shard_cfg.faults = cfg.base.faults.map(|p| p.for_shard(i));
                FrameServer::new(shard_cfg, i)
            })
            .collect();
        Ok(Fleet {
            servers,
            ledger: Ledger::default(),
            alive: vec![true; cfg.shards],
            hb_count: vec![0; cfg.shards],
            misses: vec![0; cfg.shards],
            migrations: Vec::new(),
            diversions: 0,
            heartbeat_misses: 0,
            shard_crashes: 0,
            shard_brownouts: 0,
            lost_sessions: 0,
            lost_frames: 0,
            cfg,
        })
    }

    /// Shards still alive.
    pub fn alive_shards(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Sessions admitted so far (including lost ones).
    pub fn session_count(&self) -> usize {
        self.ledger.homes.len()
    }

    /// The alive shards as routing candidates, in ascending shard order.
    /// `warmth` optionally probes each shard's reference cache for the given
    /// `(cache key, intrinsics, pose)` — failover only; admission passes
    /// `None` because a fresh session has no position yet.
    fn candidates(&self, warmth: Option<(&str, Intrinsics, &Pose)>) -> Vec<ShardCandidate> {
        let recovery = &self.cfg.base.policies.recovery;
        (0..self.cfg.shards)
            .filter(|&i| self.alive[i])
            .map(|i| {
                let server = &self.servers[i];
                let warm_pos_error = warmth.and_then(|(key, intrinsics, pose)| {
                    server
                        .cache()
                        .best_within(
                            key,
                            intrinsics,
                            pose,
                            recovery.stale_pos_radius,
                            recovery.stale_rot_radius,
                        )
                        .map(|hit| (hit.pose.position - pose.position).length())
                });
                ShardCandidate {
                    shard: i,
                    committed_load: server.admission().committed_load(),
                    capacity: server.admission().capacity(),
                    warm_pos_error,
                }
            })
            .collect()
    }

    /// Routes a new session to an alive shard, or [`ServeError::FleetDown`].
    fn route_admission(&self, scene_key: &str) -> Result<usize, ServeError> {
        let candidates = self.candidates(None);
        if candidates.is_empty() {
            return Err(ServeError::FleetDown);
        }
        Ok(self.cfg.routing.admit(scene_key, &candidates))
    }

    /// The fleet's **divert before shed** step: if the primary shard has no
    /// immediate headroom but an alive sibling does, route the admission to
    /// the least-loaded such sibling (ties to the lowest shard index) instead
    /// of queueing on the primary. Only engages with an armed
    /// [`OverloadControl`](crate::OverloadControl); otherwise the routing
    /// policy's choice stands unchanged.
    fn divert_target(
        &mut self,
        primary: usize,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
    ) -> usize {
        if self.cfg.base.overload.is_none()
            || self.servers[primary].direct_fit(spec, intrinsics, fps)
        {
            return primary;
        }
        // The least-loaded alive shard with immediate headroom — never the
        // primary, which just failed that test.
        let headroom = self.least(|i| {
            let server = &self.servers[i];
            (server.direct_fit(spec, intrinsics, fps)).then(|| server.admission().committed_load())
        });
        let Some((_, dest)) = headroom else {
            return primary; // no headroom anywhere: queue/shed on the primary
        };
        self.diversions += 1;
        self.servers[primary].note_diversion();
        telemetry::instant(
            telemetry::Phase::OverloadDivert,
            dest as u64,
            primary as u64,
        );
        telemetry::add(telemetry::Counter::OverloadDiversions, 1);
        dest
    }

    /// Submits a session: validate → route → divert → the shard's submit
    /// (see [`crate::overload`]). The routing policy picks a primary shard;
    /// with armed overload control the fleet adds one rung to the ladder,
    /// **divert before shed**: if the primary has no immediate headroom but
    /// a sibling does, the admission goes there rather than queueing.
    /// Otherwise the primary's queue / shed / backpressure
    /// semantics apply: what does not fit is queued (armed), or admitted,
    /// degraded or rejected on the spot by the QoS policy (disarmed). Under a
    /// [`LoadAdaptiveDegrade`](crate::LoadAdaptiveDegrade) QoS policy the
    /// granted shape may differ from the requested one — the trade is
    /// recorded in
    /// [`ServiceReport::degradations`](crate::ServiceReport::degradations).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSubmission`] for a malformed submission;
    /// [`ServeError::Overloaded`] when the queue is full and this request is
    /// the worst SLO risk — resubmit [`at`](Submission::at) the embedded retry
    /// hint; admission errors (e.g. the hard session cap) pass through
    /// unchanged; [`ServeError::FleetDown`] when every shard is dead.
    pub fn submit(&mut self, sub: Submission<'a>) -> Result<SubmitOutcome, ServeError> {
        sub.validate()?;
        let primary = self.route_admission(&sub.spec.scene_key)?;
        let shard = self.divert_target(primary, &sub.spec, sub.intrinsics, sub.feed.fps());
        self.servers[shard].submit(sub, &mut self.ledger)
    }

    /// Resolution state of a queued-submission ticket; `None` for unknown
    /// tickets. `Admitted` carries the session's id, usable with
    /// [`push_pose`](Self::push_pose) / [`close_stream`](Self::close_stream)
    /// wherever failover later moves the session.
    pub fn ticket(&self, ticket: TicketId) -> Option<TicketState> {
        self.ledger.ticket(ticket)
    }

    /// Pending-admission queue depth summed across alive shards.
    pub fn queued(&self) -> usize {
        (0..self.cfg.shards)
            .filter(|&i| self.alive[i])
            .map(|i| self.servers[i].queued())
            .sum()
    }

    /// The shard session `id` lives on now.
    fn home(&self, id: SessionId) -> Result<usize, ServeError> {
        match self.ledger.homes.get(id) {
            None => Err(ServeError::UnknownSession { id }),
            Some(None) => Err(ServeError::SessionLost { id }),
            Some(&Some(shard)) => Ok(shard),
        }
    }

    /// Feeds one pose to a streaming session, following it to wherever
    /// failover moved it. Errors with [`ServeError::SessionLost`] if its
    /// shard died with no survivor, and with [`ServeError::InvalidPose`]
    /// (before the session sees it) for a pose with a non-finite position,
    /// a non-finite rotation or a zero quaternion.
    pub fn push_pose(&mut self, id: SessionId, pose: Pose) -> Result<(), ServeError> {
        let shard = self.home(id)?;
        if let Some(reason) = pose_fault(&pose) {
            return Err(ServeError::InvalidPose { id, reason });
        }
        self.servers[shard].push_pose(id, pose)
    }

    /// Closes a streaming session's pose feed (idempotent), following the
    /// session like [`push_pose`](Self::push_pose).
    pub fn close_stream(&mut self, id: SessionId) -> Result<(), ServeError> {
        let shard = self.home(id)?;
        self.servers[shard].close_stream(id)
    }

    /// The alive shard with the least `key`, and that key (ties to the
    /// lowest shard index). Shards whose key is `None` do not compete.
    fn least(&self, key: impl Fn(usize) -> Option<f64>) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for i in (0..self.cfg.shards).filter(|&i| self.alive[i]) {
            if let Some(k) = key(i) {
                if best.is_none_or(|(least, _)| k < least) {
                    best = Some((k, i));
                }
            }
        }
        best
    }

    /// Earliest pre-dispatch batch readiness among alive shards, with the
    /// owning shard. `None` when no alive shard can serve.
    pub(crate) fn earliest_ready(&self) -> Option<(f64, usize)> {
        self.least(|i| Some(self.servers[i].next_ready_s()).filter(|t| t.is_finite()))
    }

    /// Processes every heartbeat due at or before `until_s`, in
    /// `(time, shard)` order. Only called with an armed fault plan.
    fn process_heartbeats(&mut self, plan: &FaultPlan, until_s: f64) {
        loop {
            // The earliest pending beat among alive shards. Equal-time beats
            // (the common case — one shared interval) process in ascending
            // shard order.
            let due = self.least(|i| {
                let at = (self.hb_count[i] + 1) as f64 * self.cfg.heartbeat_interval_s;
                (at <= until_s).then_some(at)
            });
            let Some((at, shard)) = due else { break };
            let k = self.hb_count[shard];
            self.hb_count[shard] += 1;
            if plan.fires(FaultKind::ShardBrownout, shard as u64, k, 0) {
                self.servers[shard].brownout(at + plan.brownout_s);
                self.shard_brownouts += 1;
                telemetry::instant(telemetry::Phase::ShardBrownout, shard as u64, k);
                telemetry::add(telemetry::Counter::ShardBrownouts, 1);
            }
            if plan.fires(FaultKind::ShardCrash, shard as u64, k, 0) {
                self.misses[shard] += 1;
                self.heartbeat_misses += 1;
                telemetry::instant(telemetry::Phase::HeartbeatMiss, shard as u64, k);
                telemetry::add(telemetry::Counter::HeartbeatMisses, 1);
                if self.misses[shard] >= self.cfg.miss_threshold {
                    self.kill_shard(shard, at);
                }
            } else {
                self.misses[shard] = 0;
            }
        }
    }

    /// Declares `shard` dead at `at_s` and fails its live sessions over to
    /// survivors (or marks them lost when there are none).
    fn kill_shard(&mut self, shard: usize, at_s: f64) {
        self.alive[shard] = false;
        self.shard_crashes += 1;
        // Queued (never-admitted) submissions die with the shard: shed them
        // so their tickets resolve and their demand stays accounted. Live
        // sessions migrate below instead.
        self.servers[shard].shed_queue(&mut self.ledger);
        if !self.alive.contains(&true) {
            // Nothing can adopt: leave the sessions resident (their served
            // frames still summarize in the dead shard's report) and charge
            // the unserved remainder against availability.
            let live = self.servers[shard].sessions.iter();
            let mut lost = 0;
            for sess in live.filter(|s| !s.pipe.is_done()) {
                lost += 1;
                self.lost_frames += (sess.pipe.len() - sess.pipe.cursor()) as u64;
                self.ledger.homes[sess.id] = None;
            }
            self.lost_sessions += lost;
            telemetry::instant(telemetry::Phase::ShardCrash, shard as u64, lost);
            telemetry::add(telemetry::Counter::ShardCrashes, 1);
            return;
        }
        let taken = self.servers[shard].take_live_sessions();
        telemetry::instant(
            telemetry::Phase::ShardCrash,
            shard as u64,
            taken.len() as u64,
        );
        telemetry::add(telemetry::Counter::ShardCrashes, 1);
        for sess in taken {
            // Probe survivors' cache warmth at the session's next *unmade*
            // reference pose — the first render the destination will owe it.
            // A peek only: nothing is installed, so routing cannot change
            // pixels.
            let horizon = sess.spec.config.window.max(1);
            let probe = sess
                .pipe
                .upcoming_references(horizon)
                .first()
                .map(|&r| sess.pipe.reference_pose(r));
            let candidates = self.candidates(
                probe
                    .as_ref()
                    .map(|pose| (sess.cache_key.as_str(), sess.pipe.intrinsics(), pose)),
            );
            let dest = ShardRouting::failover(&candidates);
            debug_assert!(self.alive[dest], "routing must pick an alive candidate");
            let (id, name) = (sess.id, sess.spec.name.clone());
            self.servers[dest].adopt_session(sess, at_s);
            self.ledger.homes[id] = Some(dest);
            telemetry::instant(telemetry::Phase::SessionMigrate, id as u64, shard as u64);
            telemetry::add(telemetry::Counter::SessionMigrations, 1);
            self.migrations.push(MigrationRecord {
                session: id,
                name,
                from_shard: shard,
                to_shard: dest,
                at_s,
                resumed_s: -1.0,
                time_to_resume_s: -1.0,
            });
        }
    }

    /// One step of the fleet's drain, given `ready` — the
    /// [`earliest_ready`](Self::earliest_ready) its caller just read: process
    /// every heartbeat due by then (deaths migrate sessions *before* the step
    /// runs), run one drain step on the earliest still-alive shard — or, with
    /// every admitted batch drained, on the shard holding the earliest queued
    /// SLO admission deadline — and pump the siblings' queues at the instant
    /// it acted. Returns that instant, or `None` when nothing moved: the
    /// fleet is drained.
    ///
    /// The one loop body: [`run`](Self::run) and
    /// [`run_replay`](crate::run_replay) both step through here.
    pub(crate) fn step(&mut self, ready: Option<(f64, usize)>) -> Option<f64> {
        let mut pick = ready;
        if let (Some(plan), Some((t, _))) = (self.cfg.base.faults, ready) {
            self.process_heartbeats(&plan, t);
            // Heartbeats may have killed the picked shard or shifted
            // readiness by adopting sessions elsewhere; re-pick among the
            // alive shards. Readiness only moves *forward* of the death time
            // processed above, so the re-pick is deterministic.
            pick = self.earliest_ready();
        }
        // With no shard ready and no queue, nothing steps. A shard's own
        // round would have found nothing either: a session that cannot step
        // has no planned frame, so no reference to dispatch.
        let (_, target) = pick.or_else(|| self.least(|i| self.servers[i].queue_frontier_s()))?;
        let t = self.servers[target].drain_step(&mut self.ledger)?;
        for i in (0..self.cfg.shards).filter(|&i| i != target && self.alive[i]) {
            self.servers[i].pump_overload(t, &mut self.ledger);
        }
        Some(t)
    }

    /// Drains every session fleet-wide — and, with armed overload control,
    /// every queued submission — and produces the [`FleetReport`].
    ///
    /// Steps interleave shard rounds on one global simulated timeline (see
    /// the module docs). The fleet lives on that timeline: on a reused fleet
    /// (submit → run → submit → run) worker clocks, cache contents and
    /// session summaries carry over, and the report covers the fleet's whole
    /// lifetime. Sessions step in ready batches, concurrently on the host
    /// render pool when [`ServeConfig::render_threads`] grants a budget; the
    /// report is bit-identical at any budget.
    pub fn run(&mut self) -> FleetReport {
        while self.step(self.earliest_ready()).is_some() {}
        for server in &mut self.servers {
            server.release_drained_loads();
        }
        self.report()
    }

    fn report(&self) -> FleetReport {
        let shards: Vec<ServiceReport> = self.servers.iter().map(|s| s.report()).collect();
        let totals = Totals::of(shards.iter().flat_map(|r| r.records.iter()));
        let unrecovered: u64 = shards.iter().map(|r| r.faults.unrecovered).sum();
        let expected = totals.frames as u64 + self.lost_frames;
        let mut migrations = self.migrations.clone();
        for m in &mut migrations {
            // A session leaves a shard only when the shard dies, so it never
            // returns to one: every record the destination holds for it
            // postdates the migration.
            let resumed = shards[m.to_shard]
                .records
                .iter()
                .filter(|r| r.session == m.session)
                .map(|r| r.completion_s)
                .fold(f64::INFINITY, f64::min);
            if resumed.is_finite() {
                m.resumed_s = resumed;
                m.time_to_resume_s = resumed - m.at_s;
            }
        }
        FleetReport {
            frames: totals.frames,
            makespan_s: totals.makespan_s,
            throughput_fps: totals.throughput_fps,
            p50_latency_s: totals.p50_latency_s,
            p99_latency_s: totals.p99_latency_s,
            deadline_misses: totals.deadline_misses,
            deadline_miss_rate: totals.deadline_miss_rate,
            availability: 1.0 - rate((unrecovered + self.lost_frames) as f64, expected as f64),
            shard_crashes: self.shard_crashes,
            shard_brownouts: self.shard_brownouts,
            heartbeat_misses: self.heartbeat_misses,
            diversions: self.diversions,
            migrations,
            lost_sessions: self.lost_sessions,
            lost_frames: self.lost_frames,
            alive_shards: self.alive_shards(),
            shards,
        }
    }
}

/// Why `pose` cannot place a camera, if it cannot: every coordinate
/// must be finite and the rotation not the zero quaternion.
fn pose_fault(pose: &Pose) -> Option<&'static str> {
    let q = pose.rotation;
    let q = [q.w, q.x, q.y, q.z];
    if !pose.position.is_finite() {
        Some("non-finite position")
    } else if !q.iter().all(|c| c.is_finite()) {
        Some("non-finite rotation")
    } else if q == [0.0; 4] {
        Some("zero quaternion")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    //! A fleet of one against its own shard driven alone (`Solo`, the shard
    //! with a ledger of its own): the fleet layer's presence moves nothing, fault plan
    //! armed or not, overload queue engaged or not — and its ids are the
    //! shard's.

    use super::*;
    use crate::overload::OverloadControl;
    use crate::policy::LoadAdaptiveDegrade;
    use crate::report::OverloadReport;
    use crate::scheduler::tests::Solo;
    use crate::session::QosClass;
    use cicero::pipeline::PipelineConfig;
    use cicero::Variant;
    use cicero_field::{bake, GridConfig, GridModel};
    use cicero_scene::volume::MarchParams;
    use cicero_scene::{library, AnalyticScene, Trajectory};

    fn assets(name: &str) -> (AnalyticScene, GridModel, Trajectory) {
        let scene = library::scene_by_name(name).unwrap();
        let grid = GridConfig {
            resolution: 24,
            ..Default::default()
        };
        let model = bake::bake_grid(&scene, &grid);
        let traj = Trajectory::orbit(&scene, 8, 30.0);
        (scene, model, traj)
    }

    fn spec(name: &str, scene_key: &str, qos: QosClass, offset: f64) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            scene_key: scene_key.into(),
            qos,
            start_offset_s: offset,
            config: PipelineConfig {
                variant: Variant::Cicero,
                window: 4,
                march: MarchParams {
                    step: 0.05,
                    ..Default::default()
                },
                collect_quality: true, // PSNR equality ⇒ frames match too
                collect_traffic: false,
                ..Default::default()
            },
        }
    }

    fn one<'a>(base: ServeConfig) -> Fleet<'a> {
        Fleet::new(FleetConfig {
            base,
            ..Default::default()
        })
        .unwrap()
    }

    /// Overload control armed over `max_sessions` session slots per server.
    fn slots_cfg(max_sessions: usize, deadline_slack: f64) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.admission.max_sessions = max_sessions;
        cfg.overload = Some(OverloadControl {
            deadline_slack,
            ..Default::default()
        });
        cfg
    }

    /// Submits `sub` to the shard alone and to the fleet of one: the same
    /// outcome, ids and tickets included.
    fn submit_both<'a>(
        bare: &mut Solo<'a>,
        fleet: &mut Fleet<'a>,
        sub: Submission<'a>,
    ) -> SubmitOutcome {
        let outcome = bare.submit(sub.clone()).unwrap();
        assert_eq!(fleet.submit(sub), Ok(outcome));
        outcome
    }

    /// Fleet of one, zero shard faults ⇒ byte-for-byte its shard alone, both
    /// un-armed and with an armed zero-rate plan, a stream fed pose by pose
    /// included.
    #[test]
    fn fleet_of_one_is_byte_identical_to_bare_server() {
        let (lego, lego_model, traj) = assets("lego");
        let (ship, ship_model, _) = assets("ship");
        let k = Intrinsics::from_fov(24, 24, 0.9);
        let submissions = [
            ("a", "lego", QosClass::Interactive, 0.0),
            ("b", "lego", QosClass::Standard, 0.004),
            ("c", "ship", QosClass::Standard, 0.006),
            ("d", "ship", QosClass::BestEffort, 0.013),
        ];
        for faults in [None, Some(FaultPlan::zero(42))] {
            let cfg = ServeConfig {
                faults,
                ..Default::default()
            };
            let (mut bare, mut fleet) = (Solo::new(cfg.clone()), one(cfg));
            for (name, scene_key, qos, offset) in submissions {
                let s = spec(name, scene_key, qos, offset);
                let (scene, model) = match scene_key {
                    "lego" => (&lego, &lego_model),
                    _ => (&ship, &ship_model),
                };
                let sub = Submission::trajectory(s, scene, model, &traj, k);
                submit_both(&mut bare, &mut fleet, sub);
            }
            let s = spec("stream", "lego", QosClass::Standard, 0.009);
            let sub = Submission::stream(s, &lego, &lego_model, traj.fps(), k);
            let id = submit_both(&mut bare, &mut fleet, sub).session().unwrap();
            for pose in traj.poses() {
                bare.push_pose(id, *pose).unwrap();
                fleet.push_pose(id, *pose).unwrap();
            }
            bare.close_stream(id).unwrap();
            fleet.close_stream(id).unwrap();
            let (oracle, report) = (bare.run(), fleet.run());
            let armed = faults.is_some();
            assert_eq!(report.shards[0], oracle, "armed={armed}: fleet drifted");
            assert_eq!((report.frames, report.availability), (oracle.frames, 1.0));
            assert_eq!((report.shard_crashes, report.alive_shards), (0, 1));
            assert!(report.migrations.is_empty());
        }
    }

    /// The same with the queue engaged: five timed submissions of mixed QoS,
    /// 10 ms apart, against one session slot — one holds it, four queue. At
    /// slack 8.0 the queued entries admit as the slot frees (the fits rung);
    /// at 2.0 and 0.5 SLO admission deadlines arrive first (the brownout
    /// rung, which under a session cap ends in a shed). Same outcomes, same
    /// ticket resolutions, same report, byte for byte.
    #[test]
    fn armed_fleet_of_one_is_byte_identical_with_the_queue_engaged() {
        let (lego, lego_model, traj) = assets("lego");
        let k = Intrinsics::from_fov(24, 24, 0.9);
        use QosClass::{BestEffort, Interactive, Standard};
        let classes = [Standard, Interactive, BestEffort, Standard, Interactive];
        // The figures the fleet's own pump order used to move, up front so
        // that a failure reads as numbers before it reads as two reports.
        let headline = |r: &ServiceReport| {
            let o = &r.overload;
            let rungs = (o.queue_admits, o.brownout_admits, o.sheds);
            (
                r.makespan_s,
                o.max_queue_wait_s,
                o.goodput_fps,
                r.deadline_misses,
                rungs,
            )
        };
        let (mut admits, mut sheds) = (0, 0);
        for slack in [8.0, 2.0, 0.5] {
            let mut bare = Solo::new(slots_cfg(1, slack));
            let mut fleet = one(slots_cfg(1, slack));
            let mut tickets = Vec::new();
            for (i, qos) in classes.into_iter().enumerate() {
                let s = spec(&format!("s{i}"), "lego", qos, 0.01 * i as f64);
                let sub = Submission::trajectory(s, &lego, &lego_model, &traj, k);
                if let SubmitOutcome::Queued(t) = submit_both(&mut bare, &mut fleet, sub) {
                    tickets.push(t);
                }
            }
            assert_eq!(tickets.len(), 4, "one holder, four queued");
            let (oracle, report) = (bare.run(), fleet.run());
            let what = "(makespan, max queue wait, goodput, misses, rungs)";
            assert_eq!(
                headline(&report.shards[0]),
                headline(&oracle),
                "{slack}: {what}"
            );
            assert_eq!(report.shards[0], oracle, "slack {slack}: fleet drifted");
            for t in tickets {
                assert_ne!(bare.ticket(t), Some(TicketState::Pending));
                assert_eq!(fleet.ticket(t), bare.ticket(t), "slack {slack}: ticket {t}");
            }
            admits += oracle.overload.queue_admits;
            sheds += oracle.overload.sheds;
        }
        assert!(admits > 0, "the fits rung never fired");
        assert!(sheds > 0, "the deadline rung never fired");
    }

    /// Every fleet id a fleet of one hands out — at submission or through a
    /// ticket — names the same session in its shard's report, however the
    /// shard's pump orders admissions: two queued entries admitted by one
    /// pump (priority order, not ticket order), and a queued entry browned
    /// out by the pump of the submission that is then admitted beside it.
    #[test]
    fn fleet_ids_follow_shard_admission_order() {
        let (lego, lego_model, traj) = assets("lego");
        let check = |cfg: ServeConfig, clients: &[(&str, QosClass, f64, usize)]| {
            let mut fleet = one(cfg);
            let outcomes: Vec<(&str, SubmitOutcome)> = (clients.iter())
                .map(|&(name, qos, at_s, px)| {
                    let (s, k) = (
                        spec(name, "lego", qos, at_s),
                        Intrinsics::from_fov(px, px, 0.9),
                    );
                    let sub = Submission::trajectory(s, &lego, &lego_model, &traj, k);
                    (name, fleet.submit(sub).unwrap())
                })
                .collect();
            let mut report = fleet.run();
            for (name, outcome) in outcomes {
                let id = match outcome {
                    SubmitOutcome::Admitted(id) => id,
                    SubmitOutcome::Queued(t) => match fleet.ticket(t) {
                        Some(TicketState::Admitted(id)) => id,
                        other => panic!("{name}: ticket {t} resolved {other:?}"),
                    },
                };
                let summary = report.shards[0].sessions.iter().find(|s| s.id == id);
                assert_eq!(
                    summary.map(|s| s.name.as_str()),
                    Some(name),
                    "fleet id {id}"
                );
            }
            report.shards.swap_remove(0).overload
        };
        use QosClass::{BestEffort, Interactive, Standard};
        // Two slots, two holders batched together; the queue holds best
        // effort, standard and interactive, and the holders' joint drain
        // frees both slots at one pump: interactive, then standard.
        let queue = [
            ("h0", Standard, 0.0, 24),
            ("h1", Standard, 0.001, 24),
            ("best", BestEffort, 0.002, 24),
            ("standard", Standard, 0.003, 24),
            ("interactive", Interactive, 0.004, 24),
        ];
        assert_eq!(check(slots_cfg(2, 8.0), &queue).queue_admits, 3);
        // A load-bound shard: the holder leaves no room for a second
        // full-size session, which queues; a tiny client arriving past that
        // entry's SLO deadline pumps it in, browned out, and then fits
        // itself.
        let mut cfg = slots_cfg(8, 0.5);
        cfg.pool.workers = 1;
        cfg.admission.max_utilization = 0.02;
        cfg.overload.as_mut().unwrap().brownout = Some(LoadAdaptiveDegrade {
            max_window: 32,
            min_resolution: 8,
        });
        let late = [
            ("holder", Standard, 0.0, 24),
            ("queued", Standard, 0.001, 24),
            ("tiny", Standard, 0.5, 4),
        ];
        let overload = check(cfg, &late);
        assert_eq!((overload.enqueued, overload.brownout_admits), (1, 1));
    }

    /// One row per client-controlled field the door checks, on a fleet of
    /// one and of two: a typed refusal, and nothing admitted, queued or
    /// counted — on any shard's admission ledger either.
    #[test]
    fn malformed_submissions_are_refused_at_the_door() {
        let (scene, model, traj) = assets("lego");
        let empty = Trajectory::streaming(30.0);
        let k = Intrinsics::from_fov(16, 16, 0.9);
        let spec = spec("client", "lego", QosClass::Standard, 0.0);
        let good = || Submission::trajectory(spec.clone(), &scene, &model, &traj, k);
        let stream = |fps| Submission::stream(spec.clone(), &scene, &model, fps, k);
        let with = |edit: fn(&mut Submission<'_>)| {
            let mut sub = good();
            edit(&mut sub);
            sub
        };
        let table = [
            ("zero fps", stream(0.0)),
            ("negative fps", stream(-30.0)),
            ("NaN fps", stream(f32::NAN)),
            ("infinite fps", stream(f32::INFINITY)),
            (
                "empty trajectory",
                Submission::trajectory(spec.clone(), &scene, &model, &empty, k),
            ),
            ("zero window", with(|s| s.spec.config.window = 0)),
            (
                "zero-area intrinsics",
                with(|s| s.intrinsics = Intrinsics::new(0, 16, 12.0)),
            ),
            ("NaN start", with(|s| s.spec.start_offset_s = f64::NAN)),
            ("infinite instant", good().at(f64::INFINITY)),
        ];
        let base = ServeConfig {
            overload: Some(OverloadControl::default()),
            ..Default::default()
        };
        for (what, sub) in table {
            for shards in [1, 2] {
                let base = base.clone();
                let mut fleet = Fleet::new(FleetConfig {
                    shards,
                    base,
                    ..Default::default()
                })
                .unwrap();
                let refused = fleet.submit(sub.clone());
                let typed = matches!(refused, Err(ServeError::InvalidSubmission { .. }));
                assert!(typed, "{what}: {refused:?}");
                assert_eq!((fleet.session_count(), fleet.queued()), (0, 0), "{what}");
                for ledger in fleet.servers.iter().map(FrameServer::admission) {
                    assert_eq!((ledger.admitted(), ledger.rejected()), (0, 0), "{what}");
                }
                let report = fleet.run();
                assert_eq!((report.frames, report.diversions), (0, 0), "{what}");
                for shard in &report.shards {
                    assert_eq!(shard.overload, OverloadReport::default(), "{what}");
                }
            }
        }
        // A baseline session has no warping window to get wrong.
        let baseline = with(|s| {
            s.spec.config.variant = Variant::Baseline;
            s.spec.config.window = 0;
        });
        assert_eq!(one(base).submit(baseline), Ok(SubmitOutcome::Admitted(0)));
    }
}
