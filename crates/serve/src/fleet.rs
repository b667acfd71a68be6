//! The fleet: N independent [`FrameServer`] shards behind one router, with
//! shard-level fault domains, a health-checked failover path, and
//! **bit-identical** session migration.
//!
//! # Why shards
//!
//! One [`FrameServer`] is one fault domain: a single simulated pool, cache
//! and admission ledger. A deployment that must survive machine loss splits
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
//! mirrored across shards — while shard 0 keeps the base seed, which makes a
//! fleet of one byte-identical to a bare server under the same plan.
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
//! [`Fleet::run`] repeatedly picks the shard whose next batch is earliest
//! (pre-dispatch readiness lower bound; ties to the lowest shard index),
//! processes every heartbeat due at or before that time in
//! `(time, shard)` order, then runs one drain step — the very step
//! [`FrameServer::run`] loops over — on the earliest alive shard. A shard
//! therefore never serves a batch whose readiness estimate lies at or after
//! its declared death; the actual batch may *complete* later (dispatch
//! extends past the estimate), which is the usual crash-consistency window —
//! frames in flight at the death instant were already irrevocably priced.
//! Deterministic either way.
//!
//! With armed [`OverloadControl`](crate::OverloadControl) the step pumps the
//! picked shard's queue at its round's dispatch instant, exactly as a bare
//! server does; the fleet then pumps the **sibling** shards' queues at that
//! same instant (capacity that drained elsewhere admits queued work without
//! waiting for that shard's own next round) and pulls ticket resolutions up
//! to fleet level. A fleet of one has no siblings and is a bare server.

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
    /// Number of independent [`FrameServer`] shards (≥ 1).
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
    /// Fleet-level session id.
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

/// A sharded fleet of [`FrameServer`]s on one simulated timeline.
///
/// Sessions are submitted to the fleet, which routes them to a shard and
/// hands back a **fleet-level** id; pose ingestion and stream close follow
/// the session to wherever failover moved it. See the module docs for the
/// health and migration model.
pub struct Fleet<'a> {
    cfg: FleetConfig,
    servers: Vec<FrameServer<'a>>,
    alive: Vec<bool>,
    /// Heartbeats already processed per shard (dead shards stop beating).
    hb_count: Vec<u64>,
    /// Consecutive misses per shard; reset by every healthy beat.
    misses: Vec<u32>,
    /// Fleet session id → current `(shard, local id)`; `None` = lost.
    homes: Vec<Option<(usize, SessionId)>>,
    names: Vec<String>,
    migrations: Vec<MigrationRecord>,
    /// Destination `(shard, local id)` per migration record, for resolving
    /// `resumed_s` against the destination's frame records at report time.
    migration_dest: Vec<(usize, SessionId)>,
    /// Fleet ticket → the shard and shard-local ticket holding it.
    ticket_homes: Vec<(usize, TicketId)>,
    /// Session names for queued submissions, applied at admission.
    ticket_names: Vec<String>,
    /// Fleet-level ticket resolutions; `Admitted` carries the **fleet** id.
    ticket_states: Vec<TicketState>,
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
    /// interval is not positive (NaN included), or the miss threshold is
    /// zero.
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
        let servers = (0..cfg.shards)
            .map(|i| {
                let mut shard_cfg = cfg.base.clone();
                shard_cfg.faults = cfg.base.faults.map(|p| p.for_shard(i));
                FrameServer::new(shard_cfg)
            })
            .collect();
        Ok(Fleet {
            servers,
            alive: vec![true; cfg.shards],
            hb_count: vec![0; cfg.shards],
            misses: vec![0; cfg.shards],
            homes: Vec::new(),
            names: Vec::new(),
            migrations: Vec::new(),
            migration_dest: Vec::new(),
            ticket_homes: Vec::new(),
            ticket_names: Vec::new(),
            ticket_states: Vec::new(),
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

    /// Fleet-level sessions admitted so far (including lost ones).
    pub fn session_count(&self) -> usize {
        self.homes.len()
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

    /// Records a freshly admitted session's home, returning its fleet id.
    fn register(&mut self, shard: usize, local: SessionId, name: String) -> SessionId {
        self.homes.push(Some((shard, local)));
        self.names.push(name);
        self.homes.len() - 1
    }

    /// Rewrites a shard-local error's session id to the fleet-level `id` the
    /// caller used, so fleet errors never leak shard-local numbering.
    fn globalize(e: ServeError, id: SessionId) -> ServeError {
        match e {
            ServeError::UnknownSession { .. } => ServeError::UnknownSession { id },
            ServeError::NotStreaming { .. } => ServeError::NotStreaming { id },
            ServeError::StreamClosed { .. } => ServeError::StreamClosed { id },
            ServeError::SessionMigrated { .. } => ServeError::SessionMigrated { id },
            ServeError::SessionLost { .. } => ServeError::SessionLost { id },
            other => other,
        }
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

    /// Pulls shard-local ticket resolutions up to fleet level, registering a
    /// fleet session id for every freshly admitted queued submission. Runs
    /// wherever a pump can have run — after every submission and every drain
    /// step, and so before any shard death is processed: every admitted
    /// session has a fleet id when failover drains its shard.
    fn reconcile_tickets(&mut self) {
        for t in 0..self.ticket_homes.len() {
            if self.ticket_states[t] != TicketState::Pending {
                continue;
            }
            let (shard, local_ticket) = self.ticket_homes[t];
            match self.servers[shard].ticket(local_ticket) {
                Some(TicketState::Admitted(local)) => {
                    let name = self.ticket_names[t].clone();
                    let global = self.register(shard, local, name);
                    self.ticket_states[t] = TicketState::Admitted(global);
                }
                Some(TicketState::Shed) => self.ticket_states[t] = TicketState::Shed,
                _ => {}
            }
        }
    }

    /// Submits a session: route → divert → the shard's
    /// [`submit`](FrameServer::submit) → register. The routing policy picks a
    /// primary shard; with armed overload control the fleet adds one rung to
    /// the ladder, **divert before shed**: if the primary has no immediate
    /// headroom but a sibling does, the admission goes there rather than
    /// queueing. Otherwise the primary's queue / shed / backpressure
    /// semantics apply. Returned ids and tickets are **fleet-level**.
    ///
    /// # Errors
    ///
    /// Everything [`FrameServer::submit`] returns, and
    /// [`ServeError::FleetDown`] when every shard is dead.
    pub fn submit(&mut self, sub: Submission<'a>) -> Result<SubmitOutcome, ServeError> {
        sub.validate()?;
        let primary = self.route_admission(&sub.spec.scene_key)?;
        let shard = self.divert_target(primary, &sub.spec, sub.intrinsics, sub.feed.fps());
        let name = sub.spec.name.clone();
        let outcome = self.servers[shard]
            .submit(sub)
            .map(|outcome| match outcome {
                SubmitOutcome::Admitted(local) => {
                    SubmitOutcome::Admitted(self.register(shard, local, name))
                }
                SubmitOutcome::Queued(local_ticket) => {
                    self.ticket_homes.push((shard, local_ticket));
                    self.ticket_names.push(name);
                    self.ticket_states.push(TicketState::Pending);
                    SubmitOutcome::Queued(self.ticket_homes.len() - 1)
                }
            });
        // The shard's submit pumps its queue first, whatever it then answers
        // the newcomer; surface any queued admissions that unlocked.
        self.reconcile_tickets();
        outcome
    }

    /// Resolution state of a fleet-level queued-submission ticket; `None`
    /// for unknown tickets. `Admitted` carries the **fleet** session id,
    /// usable with [`push_pose`](Self::push_pose) /
    /// [`close_stream`](Self::close_stream) wherever failover later moves
    /// the session.
    pub fn ticket(&self, ticket: TicketId) -> Option<TicketState> {
        self.ticket_states.get(ticket).copied()
    }

    /// Pending-admission queue depth summed across alive shards.
    pub fn queued(&self) -> usize {
        (0..self.cfg.shards)
            .filter(|&i| self.alive[i])
            .map(|i| self.servers[i].queued())
            .sum()
    }

    /// Resolves a fleet session id to its current home shard.
    fn home(&self, id: SessionId) -> Result<(usize, SessionId), ServeError> {
        match self.homes.get(id) {
            None => Err(ServeError::UnknownSession { id }),
            Some(None) => Err(ServeError::SessionLost { id }),
            Some(&Some(home)) => Ok(home),
        }
    }

    /// Feeds one pose to a streaming session, following it to wherever
    /// failover moved it. Errors with [`ServeError::SessionLost`] if its
    /// shard died with no survivor.
    pub fn push_pose(&mut self, id: SessionId, pose: Pose) -> Result<(), ServeError> {
        let (shard, local) = self.home(id)?;
        self.servers[shard]
            .push_pose(local, pose)
            .map_err(|e| Self::globalize(e, id))
    }

    /// Closes a streaming session's pose feed (idempotent), following the
    /// session like [`push_pose`](Self::push_pose).
    pub fn close_stream(&mut self, id: SessionId) -> Result<(), ServeError> {
        let (shard, local) = self.home(id)?;
        self.servers[shard]
            .close_stream(local)
            .map_err(|e| Self::globalize(e, id))
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
    fn earliest_ready(&self) -> Option<(f64, usize)> {
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
        self.servers[shard].shed_queue();
        self.reconcile_tickets();
        let has_survivor = self.alive.iter().any(|&a| a);
        // Fleet-session ids of this shard's residents, by local id.
        let residents: Vec<(SessionId, SessionId)> = self
            .homes
            .iter()
            .enumerate()
            .filter_map(|(global, home)| match home {
                Some((s, local)) if *s == shard => Some((*local, global)),
                _ => None,
            })
            .collect();
        if !has_survivor {
            // Nothing can adopt: leave the sessions resident (their served
            // frames still summarize in the dead shard's report) and charge
            // the unserved remainder against availability.
            let mut lost: Vec<SessionId> = Vec::new();
            for &(local, global) in &residents {
                let sess = self.servers[shard].session(local);
                if !sess.pipe.is_done() {
                    lost.push(global);
                    self.lost_frames += (sess.pipe.len() - sess.pipe.cursor()) as u64;
                }
            }
            self.lost_sessions += lost.len() as u64;
            telemetry::instant(
                telemetry::Phase::ShardCrash,
                shard as u64,
                lost.len() as u64,
            );
            telemetry::add(telemetry::Counter::ShardCrashes, 1);
            for global in lost {
                self.homes[global] = None;
            }
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
            let global = residents
                .iter()
                .find(|&&(local, _)| local == sess.id)
                .map(|&(_, global)| global)
                .expect("every resident session has a fleet id");
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
            let local = self.servers[dest].adopt_session(sess, at_s);
            self.homes[global] = Some((dest, local));
            telemetry::instant(
                telemetry::Phase::SessionMigrate,
                global as u64,
                shard as u64,
            );
            telemetry::add(telemetry::Counter::SessionMigrations, 1);
            self.migrations.push(MigrationRecord {
                session: global,
                name: self.names[global].clone(),
                from_shard: shard,
                to_shard: dest,
                at_s,
                resumed_s: -1.0,
                time_to_resume_s: -1.0,
            });
            self.migration_dest.push((dest, local));
        }
    }

    /// Drains every session fleet-wide and produces the [`FleetReport`].
    ///
    /// The loop interleaves shard drain steps on one global simulated
    /// timeline: pick the shard whose next batch is earliest, process every
    /// heartbeat due by then (deaths migrate sessions *before* the step
    /// runs), then run [`FrameServer::run`]'s own step on the earliest
    /// still-alive shard and pump the siblings' queues at the instant it
    /// acted. With one shard and no shard faults this is exactly
    /// [`FrameServer::run`] — byte-for-byte, queue engaged or not.
    pub fn run(&mut self) -> FleetReport {
        let plan = self.cfg.base.faults;
        loop {
            if let (Some(plan), Some((t, _))) = (&plan, self.earliest_ready()) {
                self.process_heartbeats(plan, t);
            }
            // Heartbeats may have killed the picked shard or shifted
            // readiness by adopting sessions elsewhere; re-pick among the
            // alive shards. Readiness only moves *forward* of the death time
            // processed above, so the re-pick is deterministic. With every
            // admitted batch drained, the shard holding the earliest queued
            // SLO admission deadline steps: its drain step advances there.
            let pick = self
                .earliest_ready()
                .or_else(|| self.least(|i| self.servers[i].queue_frontier_s()));
            let Some((_, target)) = pick else { break };
            let Some(t) = self.servers[target].drain_step() else {
                break;
            };
            for i in (0..self.cfg.shards).filter(|&i| i != target) {
                if self.alive[i] {
                    self.servers[i].pump_overload(t);
                }
            }
            self.reconcile_tickets();
        }
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
        for (m, &(dest, local)) in migrations.iter_mut().zip(&self.migration_dest) {
            // The destination assigned a fresh local id at adoption, so every
            // record under it postdates the migration.
            let resumed = shards[dest]
                .records
                .iter()
                .filter(|r| r.session == local)
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
