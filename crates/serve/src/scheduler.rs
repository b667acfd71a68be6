//! The frame server — one shard of a [`Fleet`](crate::Fleet): the
//! simulated-time event loop multiplexing many sessions over the SoC pool,
//! one **round** at a time. Crate-private; sessions reach it only through
//! the fleet, which owns its shards and drives their rounds.
//!
//! # A round is four stages
//!
//! Time is simulated: each frame's cost comes from the session's
//! [`SocModel`] pricing, and the [`WorkerPool`] tracks per-worker
//! availability. `FrameServer::run_round` is the list, and each stage's
//! documentation states the determinism rule it obeys:
//!
//! 1. `dispatch_references` — **batches reference renders** (plan →
//!    prefetch → host render → commit, in `dispatch.rs`): for each session
//!    it looks one warping window ahead
//!    ([`PipelineSession::upcoming_references`](cicero::pipeline::PipelineSession::upcoming_references));
//!    pending references are resolved from the shared [`RefCache`] when a
//!    co-located session already rendered a nearby pose (including one
//!    planned earlier *in the same batch*), and the remaining misses are
//!    rendered together on the host render pool, then committed across the
//!    simulated workers — generalizing the single-client reference/target
//!    overlap of Fig. 10/11b to a fleet;
//! 2. `ready_batch` — **picks the target frames**: every session whose next
//!    frame is ready (client arrival reached, warp source available) within
//!    half a frame interval of the earliest one, ordered by QoS priority,
//!    then earliest deadline, then session id;
//! 3. `step_batch` — **renders them** on the host, concurrently when the
//!    thread budget allows;
//! 4. `commit_batch` — **bills them** in batch order: each frame's
//!    un-amortized service time goes to the placement policy's worker,
//!    priced on *that worker's* SoC, so a pool of faster or slower hardware
//!    than the clients assumed actually changes the timeline.
//!
//! Jobs are placed, priced and (under an armed fault plan) recovered by
//! `recovery.rs`, the same way for reference renders and target frames.
//! `FrameServer::drain_step` wraps a round with the overload queue's pump
//! ([`crate::overload`]); the fleet's step is its only caller, and
//! [`Fleet::run`](crate::Fleet::run) and [`run_replay`](crate::run_replay)
//! loop over that step.
//!
//! # Host concurrency
//!
//! Batch membership, ordering and all simulated bookkeeping depend only on
//! simulated time — never on host threads — while the *execution* of a
//! batch (pixel rendering and warping) fans out across the persistent
//! [`RenderPool`]: with a host thread budget of `T`
//! ([`ServeConfig::render_threads`]) a batch of `B` sessions steps on
//! `min(B, T)` concurrent drivers, each session's own passes using
//! `T / min(B, T)` lanes. Frames, statistics and the entire
//! [`ServiceReport`](crate::ServiceReport) are therefore **bit-identical at
//! any budget**;
//! concurrency moves wall-clock only. `tests/parallel_determinism.rs`
//! enforces exactly this.
//!
//! Reference renders for *remote*-scenario sessions are priced at
//! workstation speed (`SocConfig::remote.speedup_over_mobile`), matching the
//! paper's remote accounting; everything else runs at SoC speed.

use crate::admission::{AdmissionController, AdmissionPolicy};
use crate::cache::{CachedReference, RefCache, RefCacheConfig};
use crate::error::ServeError;
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::fleet::Ledger;
use crate::overload::{OverloadControl, OverloadState};
use crate::policy::{JobKind, Policies};
use crate::recovery::{Job, SimCtx};
use crate::report::{DegradationRecord, FrameRecord};
use crate::session::{ServeSession, SessionId, SessionManager};
use cicero::pipeline::SessionStep;
use cicero::schedule::FramePlan;
use cicero_accel::pool::{PoolConfig, WorkerPool};
use cicero_accel::soc::SocModel;
use cicero_field::pool::RenderPool;
use cicero_math::Pose;
use cicero_telemetry as telemetry;

/// Frame-server configuration.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Worker-pool shape.
    pub pool: PoolConfig,
    /// Reference-cache shape.
    pub cache: RefCacheConfig,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// The scheduling policy bundle (placement / QoS / prefetch /
    /// recovery). Defaults reproduce the historical hard-coded scheduler
    /// bit-for-bit; see [`crate::policy`] for the determinism contract every
    /// policy obeys.
    pub policies: Policies,
    /// Reference lookahead in frames; `None` uses each session's warping
    /// window — references are extrapolated from the *previous* window's
    /// poses, so looking further ahead would use client poses that have not
    /// arrived yet.
    pub lookahead: Option<usize>,
    /// The server's **total host thread budget**. `0` steps sessions
    /// serially, each with its own `PipelineConfig::render_threads`; any
    /// other value enables concurrent session stepping on the persistent
    /// render pool: a ready batch of `B` sessions runs on `min(B, budget)`
    /// drivers and the budget is partitioned evenly across them (each
    /// session's tile/warp passes get `budget / min(B, budget)` lanes), so
    /// a deployment saturates its machine regardless of what clients asked
    /// for. Wall-clock only: frames, statistics and the whole service
    /// report are bit-identical at any value.
    pub render_threads: usize,
    /// Arms deterministic fault injection (see [`crate::fault`]). `None`
    /// serves fault-free; a plan whose rates are all zero is byte-identical
    /// to `None`. Faults and recoveries obey the same determinism contract
    /// as everything else: bit-identical reports at any host thread budget.
    pub faults: Option<FaultPlan>,
    /// Arms SLO-aware overload control (see [`OverloadControl`]): a
    /// [`submit`](crate::Fleet::submit) that does not fit is queued instead
    /// of rejected. `None` keeps admit-or-reject; an armed server whose
    /// queue never engages serves byte-for-byte the same frames.
    pub overload: Option<OverloadControl>,
}

/// One shard: a multi-session frame-serving engine over borrowed scene
/// assets. Scenes, baked models and trajectories are owned by the caller and
/// must outlive the fleet; sessions borrow them. Its sessions and tickets
/// are numbered in the fleet's `Ledger`, which every call that can admit,
/// queue or shed is handed.
pub(crate) struct FrameServer<'a> {
    // Crate-visible, not public: the server's stages and its report live in
    // sibling modules (`overload`, `dispatch`, `report`).
    pub(crate) cfg: ServeConfig,
    /// This shard's index in its fleet: the home it writes to the ledger.
    pub(crate) shard: usize,
    pub(crate) pool: WorkerPool,
    pub(crate) cache: RefCache,
    pub(crate) admission: AdmissionController,
    pub(crate) sessions: SessionManager<'a>,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) overload: Option<OverloadState<'a>>,
    pub(crate) reference_jobs: u64,
    pub(crate) prefetch_jobs: u64,
    pub(crate) degradations: Vec<DegradationRecord>,
    pub(crate) records: Vec<FrameRecord>,
}

/// One member of a ready batch: which session steps, when its frame became
/// ready, and the keys the batch is ordered by.
#[derive(Clone, Copy)]
struct Ready {
    session: SessionId,
    ready_s: f64,
    priority: u8,
    deadline_s: f64,
}

/// One stepped frame awaiting its bill: the pre-step snapshot (arrival,
/// plan) travels with the host result, so the commit never re-derives state
/// from a stepped session.
struct Stepped {
    ready: Ready,
    frame_index: usize,
    arrival_s: f64,
    plan: Option<FramePlan>,
    step: SessionStep,
}

impl<'a> FrameServer<'a> {
    /// Creates empty shard `shard`. The fleet has checked `cfg`.
    pub(crate) fn new(cfg: ServeConfig, shard: usize) -> Self {
        FrameServer {
            shard,
            pool: WorkerPool::new(cfg.pool),
            cache: RefCache::new(cfg.cache),
            admission: AdmissionController::new(
                cfg.admission,
                cfg.pool.workers,
                cfg.pool.soc.remote.speedup_over_mobile,
            ),
            sessions: SessionManager::new(),
            injector: cfg.faults.map(FaultInjector::new),
            overload: cfg.overload.map(OverloadState::new),
            reference_jobs: 0,
            prefetch_jobs: 0,
            degradations: Vec::new(),
            records: Vec::new(),
            cfg,
        }
    }

    /// The admission controller (for load inspection).
    pub(crate) fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Feeds one pose to a streaming session. Errors for whole-trajectory
    /// sessions, closed streams, or unknown ids.
    ///
    /// With an armed [`FaultPlan`](ServeConfig::faults) the pose may be
    /// injected-dropped (lost in flight — the session serves one fewer
    /// frame; still `Ok`) or stalled (delivered, but shifting the session's
    /// later arrivals and deadlines by the accumulated delay).
    pub(crate) fn push_pose(&mut self, id: SessionId, pose: Pose) -> Result<(), ServeError> {
        let sess = self.sessions.streaming_mut(id, false)?;
        if let Some(inj) = &mut self.injector {
            let attempt = sess.pose_pushes;
            sess.pose_pushes += 1;
            if inj.fires(FaultKind::PoseDrop, sess.id as u64, attempt, 0) {
                inj.report.pose_drops += 1;
                telemetry::instant(telemetry::Phase::FaultInject, sess.id as u64, attempt);
                telemetry::add(telemetry::Counter::FaultsInjected, 1);
                return Ok(());
            }
            let stall_s = if inj.fires(FaultKind::PoseStall, sess.id as u64, attempt, 0) {
                inj.report.pose_stalls += 1;
                telemetry::instant(telemetry::Phase::FaultInject, sess.id as u64, attempt);
                telemetry::add(telemetry::Counter::FaultsInjected, 1);
                inj.plan().stall_s
            } else {
                0.0
            };
            sess.note_ingest_delay(stall_s);
        }
        sess.pipe.push_pose(pose);
        sess.sync_ref_slots();
        Ok(())
    }

    /// Closes a streaming session's pose feed (idempotent). The session
    /// drains fully on the next drain. Errors for whole-trajectory sessions
    /// or unknown ids.
    pub(crate) fn close_stream(&mut self, id: SessionId) -> Result<(), ServeError> {
        let sess = self.sessions.streaming_mut(id, true)?;
        sess.pipe.close_stream();
        sess.sync_ref_slots();
        Ok(())
    }

    /// Splits the server into the simulated-side state a commit pass bills
    /// against and the sessions it bills for.
    pub(crate) fn sim(&mut self) -> (SimCtx<'_>, &mut SessionManager<'a>) {
        let sim = SimCtx {
            pool: &mut self.pool,
            cache: &mut self.cache,
            injector: self.injector.as_mut(),
            placement: self.cfg.policies.placement,
            recovery: self.cfg.policies.recovery,
            reference_jobs: &mut self.reference_jobs,
            records: &mut self.records,
        };
        (sim, &mut self.sessions)
    }

    /// Readiness time of a session's next frame: client arrival (floored by
    /// the resume floor, a no-op on sessions never queued or migrated),
    /// gated by the availability of its warp source. A starved streaming
    /// session — next pose not yet pushed, or its warping window not yet
    /// fully planned — is never ready.
    fn ready_time(sess: &ServeSession<'_>) -> f64 {
        if !sess.pipe.can_step() {
            return f64::INFINITY;
        }
        let arrival = sess.next_arrival_s();
        match sess.pipe.next_plan() {
            Some(FramePlan::Warp { ref_index }) => {
                arrival.max(sess.ref_ready[ref_index].unwrap_or(arrival))
            }
            _ => arrival,
        }
    }

    /// Lower bound on the next round's dispatch time: the minimum
    /// [`ready_time`](Self::ready_time) over live sessions *before* that
    /// round's references are dispatched (reference gating can only push
    /// readiness later). Infinite when no session can serve — exactly when
    /// [`run_round`](Self::run_round) would return `None`. The fleet uses
    /// this to order shard rounds on the global simulated timeline and to
    /// gate heartbeat processing; the replay harness to interleave rounds
    /// with client events.
    pub(crate) fn next_ready_s(&self) -> f64 {
        self.sessions
            .iter()
            .filter(|s| !s.pipe.is_done())
            .map(Self::ready_time)
            .fold(f64::INFINITY, f64::min)
    }

    /// Runs one scheduling round — the four stages of the module docs — and
    /// returns the batch's dispatch-readiness time, or `None` when no
    /// session can serve (all drained, or every streaming session starved).
    pub(crate) fn run_round(&mut self) -> Option<f64> {
        self.dispatch_references();
        let (dispatch_s, batch) = self.ready_batch()?;
        let stepped = self.step_batch(&batch);
        self.commit_batch(dispatch_s, stepped);
        Some(dispatch_s)
    }

    /// Stage two: the ready batch and its dispatch instant — everyone within
    /// half a frame interval of the earliest-ready frame, ordered by QoS
    /// priority, deadline, id. `None` when nothing is ready.
    ///
    /// **Membership and order depend only on simulated time**: each live
    /// session's ready time is computed once, here, and travels with the
    /// batch. The batching epsilon is recomputed from the current session
    /// set each round: identical every round on a fixed set, and correctly
    /// reflecting sessions adopted mid-run on a fleet shard.
    fn ready_batch(&self) -> Option<(f64, Vec<Ready>)> {
        let mut batch: Vec<Ready> = self
            .sessions
            .iter()
            .filter(|s| !s.pipe.is_done())
            .map(|s| Ready {
                session: s.id,
                ready_s: Self::ready_time(s),
                priority: s.spec.qos.priority(),
                deadline_s: s.deadline_s(s.pipe.cursor()),
            })
            .filter(|r| r.ready_s.is_finite())
            .collect();
        let dispatch_s = batch.iter().map(|r| r.ready_s).reduce(f64::min)?;
        let shortest_interval_s = self.sessions.iter().map(|s| s.frame_interval_s);
        let eps = 0.5 * shortest_interval_s.fold(f64::INFINITY, f64::min).max(1e-9);
        batch.retain(|r| r.ready_s <= dispatch_s + eps);
        batch.sort_by(|a, b| {
            (a.priority.cmp(&b.priority))
                .then(a.deadline_s.total_cmp(&b.deadline_s))
                .then(a.session.cmp(&b.session))
        });
        Some((dispatch_s, batch))
    }

    /// Stage three: steps every batch member's pipeline on the host —
    /// concurrently when the budget allows, partitioning the host threads
    /// evenly across the drivers — and returns the results in batch order.
    ///
    /// **Host threads decide who steps what, never what a step produces**: a
    /// step reads and writes its own session only, and nothing simulated is
    /// touched here.
    fn step_batch(&mut self, batch: &[Ready]) -> Vec<Stepped> {
        let budget = self.cfg.render_threads;
        let drivers = batch.len().min(budget).max(1);
        let ids: Vec<SessionId> = batch.iter().map(|r| r.session).collect();
        let mut entries: Vec<(&mut ServeSession<'a>, Ready, Option<Stepped>)> =
            (self.sessions.many_mut(&ids).into_iter().zip(batch))
                .map(|(sess, &ready)| {
                    if budget >= 1 {
                        sess.pipe.set_render_threads((budget / drivers).max(1));
                    }
                    (sess, ready, None)
                })
                .collect();
        let lanes = RenderPool::global().checkout(drivers - 1);
        lanes.run_items(entries.iter_mut(), |_, entries| {
            for (sess, ready, stepped) in entries {
                let frame_index = sess.pipe.cursor();
                *stepped = Some(Stepped {
                    ready: *ready,
                    frame_index,
                    arrival_s: sess.arrival_s(frame_index),
                    plan: sess.pipe.next_plan(),
                    step: sess.pipe.step().expect("session not done"),
                });
            }
        });
        (entries.into_iter())
            .map(|(_, _, stepped)| stepped.expect("every batch entry stepped"))
            .collect()
    }

    /// Stage four: pricing, faults, records and telemetry for a stepped
    /// batch dispatched at `dispatch_s`.
    ///
    /// **Sequential, in batch order, on the simulated timeline** — identical
    /// whether the steps ran serially or fanned out.
    fn commit_batch(&mut self, dispatch_s: f64, stepped: Vec<Stepped>) {
        let (mut sim, sessions) = self.sim();
        let batch_jobs = stepped.len() as u64;
        let mut batch_end = dispatch_s;
        for st in stepped {
            let sess = &mut sessions[st.ready.session];
            // A frame is fault-affected if its own job faults or its warp
            // source was fault-delayed — only those frames are eligible for
            // watchdog accounting.
            let tainted = matches!(
                st.plan,
                Some(FramePlan::Warp { ref_index }) if sess.ref_faulted[ref_index]
            );
            // Target frames retry in place: the ladder never runs out (see
            // `crash_ladder`), so there is no fallback rung to handle.
            let job = Job::new(JobKind::Target, sess, st.frame_index);
            let price = |soc: &SocModel| sess.pipe.service_time_on(soc, &st.step);
            let ladder = sim.crash_ladder(&job, st.ready.ready_s, &price);
            let (span, straggled) = sim.execute(&job, ladder.at_s, &price);
            let affected = tainted || ladder.crashed || straggled;
            if let Some(FramePlan::FullRender { ref_index }) = st.plan {
                publish_in_stream(&mut sim, sess, ref_index, span.end_s, affected);
            }
            telemetry::sim_span(
                telemetry::Phase::ServeFrame,
                span.worker as u32,
                span.start_s,
                span.end_s,
                sess.id as u64,
                st.frame_index as u64,
            );
            telemetry::add(telemetry::Counter::ServeFrames, 1);
            batch_end = batch_end.max(span.end_s);
            let record = FrameRecord {
                session: sess.id,
                frame_index: st.frame_index,
                arrival_s: st.arrival_s,
                start_s: span.start_s,
                completion_s: span.end_s,
                deadline_s: st.ready.deadline_s,
                worker: span.worker,
                full_render: st.step.outcome.full_render,
            };
            if record.missed_deadline() {
                sess.deadline_misses += 1;
                if affected {
                    sim.watchdog(sess.frame_interval_s, &record);
                }
            }
            sess.latencies.push(record.latency_s());
            sess.record_outcome(&st.step.outcome);
            sim.records.push(record);
        }
        // One scheduler-track span per ready batch: dispatch readiness to
        // last completion, sized by its job count.
        telemetry::sim_span(
            telemetry::Phase::ServeBatch,
            telemetry::SIM_SCHEDULER_TRACK,
            dispatch_s,
            batch_end,
            batch_jobs,
            0,
        );
        telemetry::add(telemetry::Counter::ServeBatches, 1);
        telemetry::observe(telemetry::Hist::ServeBatchJobs, batch_jobs);
    }

    /// One step of the drain: serve one round and pump the overload queue at
    /// that round's dispatch instant; when nothing is ready, advance to the
    /// earliest queued SLO admission deadline and pump there, so that every
    /// queued entry is eventually admitted, browned out or shed. Returns the
    /// instant the step acted at, or `None` when nothing moved — the server
    /// is drained. A server whose queue is empty (every disarmed one) runs
    /// exactly the round.
    ///
    /// The only place a round meets the queue, called only by the fleet's
    /// step.
    pub(crate) fn drain_step(&mut self, ledger: &mut Ledger) -> Option<f64> {
        if let Some(t) = self.run_round() {
            self.pump_overload(t, ledger);
            return Some(t);
        }
        let t = self.queue_frontier_s()?;
        let before = self.queued();
        self.pump_overload(t, ledger);
        // At the frontier the earliest-deadline entry always admits, browns
        // out or sheds; the check only stops a hypothetical no-progress loop
        // from hanging.
        (self.queued() < before || self.next_ready_s().is_finite()).then_some(t)
    }

    /// Hands drained sessions' committed capacity back to admission, so a
    /// reused server can admit new work.
    pub(crate) fn release_drained_loads(&mut self) {
        for sess in self.sessions.iter_mut() {
            if sess.pipe.is_done() && !sess.load_released {
                sess.load_released = true;
                self.admission.release(sess.est_load);
            }
        }
    }

    /// Stalls the shard's entire simulated pool until `until_s` — an
    /// injected [`FaultKind::ShardBrownout`]: every worker's clock is pushed
    /// to at least the brownout end, so in-flight and subsequent jobs run
    /// late but nothing is lost.
    pub(crate) fn brownout(&mut self, until_s: f64) {
        for worker in 0..self.pool.len() {
            self.pool.quarantine(worker, until_s);
        }
    }

    /// Removes every live (undrained) session for failover, in id order,
    /// leaving their slots permanently vacant. Already-served frames stay in
    /// this server's records; the sessions carry their own quality/latency
    /// ledgers with them.
    pub(crate) fn take_live_sessions(&mut self) -> Vec<ServeSession<'a>> {
        let ids: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|s| !s.pipe.is_done())
            .map(|s| s.id)
            .collect();
        ids.into_iter()
            .map(|id| self.sessions.take(id).expect("live session is resident"))
            .collect()
    }

    /// Adopts a session migrated from a dead shard. The session keeps its
    /// id, pipeline position, installed references and quality/latency
    /// ledgers; it gets a resume floor at the failover time (it cannot serve
    /// before its old home died), and its load is force-committed — failover
    /// does not re-run admission, because dropping an already-admitted
    /// session to enforce a capacity bound would be strictly worse than
    /// running hot.
    pub(crate) fn adopt_session(&mut self, mut sess: ServeSession<'a>, at_s: f64) {
        sess.resume_floor_s = at_s;
        self.admission.force_commit(sess.est_load);
        self.sessions.insert(sess);
    }

    /// The reference cache (fleet failover peeks survivor warmth here).
    pub(crate) fn cache(&self) -> &RefCache {
        &self.cache
    }
}

/// An in-stream reference render publishes its availability — to the session
/// itself and, like off-stream references, to the shared cache so co-located
/// sessions reaching the same pose later skip the render.
fn publish_in_stream(
    sim: &mut SimCtx<'_>,
    sess: &mut ServeSession<'_>,
    ref_index: usize,
    available_at_s: f64,
    faulted: bool,
) {
    sess.ref_ready[ref_index] = Some(available_at_s);
    if faulted {
        sess.ref_faulted[ref_index] = true;
    }
    if let Some(workload) = sess.pipe.reference_workload().cloned() {
        let frame = sess
            .pipe
            .reference_frame(ref_index)
            .expect("in-stream reference was just materialized");
        let cached = CachedReference {
            pose: sess.pipe.reference_pose(ref_index),
            frame,
            workload,
            available_at_s,
        };
        sim.cache
            .insert(&sess.cache_key, sess.pipe.intrinsics(), cached);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::ServiceReport;
    use crate::session::{QosClass, SessionSpec};
    use crate::{Policies, Submission, SubmitOutcome, TicketId, TicketState};
    use cicero::pipeline::PipelineConfig;
    use cicero_field::{bake, GridConfig, GridModel};
    use cicero_math::Intrinsics;
    use cicero_scene::library;
    use cicero_scene::volume::MarchParams;
    use cicero_scene::{AnalyticScene, Trajectory};

    /// A shard driven alone, holding the ledger a fleet would — the shard as
    /// its unit tests and the fleet-of-one oracles in `fleet.rs` drive it.
    /// Everything but submitting, draining and ticket polls goes straight to
    /// the shard.
    pub(crate) struct Solo<'a> {
        server: FrameServer<'a>,
        ledger: Ledger,
    }

    impl<'a> Solo<'a> {
        pub(crate) fn new(cfg: ServeConfig) -> Self {
            Solo {
                server: FrameServer::new(cfg, 0),
                ledger: Ledger::default(),
            }
        }

        pub(crate) fn submit(&mut self, sub: Submission<'a>) -> Result<SubmitOutcome, ServeError> {
            self.server.submit(sub, &mut self.ledger)
        }

        pub(crate) fn ticket(&self, ticket: TicketId) -> Option<TicketState> {
            self.ledger.ticket(ticket)
        }

        /// Drains the shard and reports it.
        pub(crate) fn run(&mut self) -> ServiceReport {
            while self.server.drain_step(&mut self.ledger).is_some() {}
            self.server.release_drained_loads();
            self.server.report()
        }
    }

    impl<'a> std::ops::Deref for Solo<'a> {
        type Target = FrameServer<'a>;

        fn deref(&self) -> &FrameServer<'a> {
            &self.server
        }
    }

    impl<'a> std::ops::DerefMut for Solo<'a> {
        fn deref_mut(&mut self) -> &mut FrameServer<'a> {
            &mut self.server
        }
    }

    type Assets = (AnalyticScene, GridModel, Trajectory);

    fn assets() -> Assets {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 24,
                ..Default::default()
            },
        );
        let traj = Trajectory::orbit(&scene, 8, 30.0);
        (scene, model, traj)
    }

    fn fast_cfg() -> PipelineConfig {
        PipelineConfig {
            window: 4,
            march: MarchParams {
                step: 0.05,
                ..Default::default()
            },
            collect_quality: false,
            collect_traffic: false,
            ..Default::default()
        }
    }

    fn spec(name: &str, qos: QosClass, offset: f64) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            scene_key: "lego".into(),
            qos,
            start_offset_s: offset,
            config: fast_cfg(),
        }
    }

    /// `spec` over the fixture's scene, model and trajectory at 24².
    fn sub(fx: &Assets, spec: SessionSpec) -> Submission<'_> {
        let k = Intrinsics::from_fov(24, 24, 0.9);
        Submission::trajectory(spec, &fx.0, &fx.1, &fx.2, k)
    }

    fn server<'a>(edit: impl FnOnce(&mut ServeConfig)) -> Solo<'a> {
        let mut cfg = ServeConfig::default();
        edit(&mut cfg);
        Solo::new(cfg)
    }

    #[test]
    fn co_located_sessions_share_references() {
        let fx = assets();
        let mut server = server(|c| c.pool.workers = 2);
        server
            .submit(sub(&fx, spec("a", QosClass::Standard, 0.0)))
            .unwrap();
        server
            .submit(sub(&fx, spec("b", QosClass::Standard, 0.01)))
            .unwrap();
        let report = server.run();
        assert_eq!(report.frames, 16);
        // Identical trajectories: session b warps from a's cached references.
        assert!(
            report.cache.hits >= 1,
            "expected cache hits, got {:?}",
            report.cache
        );
        let b = &report.sessions[1];
        assert!(b.cache_hits >= 1);
        // Shared references mean fewer reference jobs than 2 sessions' worth.
        assert!(report.reference_jobs < 2 * report.sessions[0].frames as u64);
        assert!(report.throughput_fps > 0.0);
        assert!(report.p99_latency_s >= report.p50_latency_s);
    }

    #[test]
    fn report_latencies_are_consistent() {
        let fx = assets();
        let mut server = server(|c| c.pool.workers = 1);
        server
            .submit(sub(&fx, spec("a", QosClass::Interactive, 0.0)))
            .unwrap();
        let report = server.run();
        assert_eq!(report.frames, fx.2.len());
        for r in &report.records {
            assert!(r.completion_s > r.start_s);
            assert!(r.start_s >= r.arrival_s - 1e-12);
            assert!(r.latency_s() > 0.0);
        }
        // Frames of one session complete in trajectory order.
        let mut last = f64::NEG_INFINITY;
        for r in &report.records {
            assert!(r.completion_s >= last);
            last = r.completion_s;
        }
        assert!(report.pool_utilization > 0.0 && report.pool_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn quality_collection_flows_into_summaries() {
        let fx = assets();
        let mut server = server(|_| {});
        let mut q = spec("q", QosClass::Standard, 0.0);
        q.config.collect_quality = true;
        server.submit(sub(&fx, q)).unwrap();
        let report = server.run();
        assert!(report.sessions[0].mean_psnr_db.is_finite());
        assert!(report.sessions[0].mean_psnr_db > 10.0);
    }

    #[test]
    fn drained_sessions_release_admission_capacity() {
        let fx = assets();
        let mut server = server(|c| c.admission.max_sessions = 1);
        server
            .submit(sub(&fx, spec("first", QosClass::Standard, 0.0)))
            .unwrap();
        let too_many = spec("too-many", QosClass::Standard, 0.0);
        assert!(server.submit(sub(&fx, too_many)).is_err());
        server.run();
        // The drained session handed its slot and load back.
        server
            .submit(sub(&fx, spec("second", QosClass::Standard, 0.0)))
            .expect("capacity released after run()");
        assert!(server.admission().committed_load() > 0.0);
    }

    #[test]
    fn mismatched_render_configs_do_not_share_references() {
        let fx = assets();
        let coarse = spec("coarse", QosClass::Standard, 0.0);
        let mut fine = spec("fine", QosClass::Standard, 0.01);
        fine.config.march = MarchParams {
            step: 0.02,
            ..Default::default()
        };
        // Solo baselines: any hits are same-session reuse (an in-stream
        // reference landing within a pose quantum of a later extrapolated
        // one), which mismatched configs do not affect.
        let solo_hits = |s: &SessionSpec| {
            let mut server = server(|_| {});
            server.submit(sub(&fx, s.clone())).unwrap();
            server.run().sessions[0].cache_hits
        };
        let coarse_solo = solo_hits(&coarse);
        let fine_solo = solo_hits(&fine);

        let mut server = server(|_| {});
        server.submit(sub(&fx, coarse)).unwrap();
        server.submit(sub(&fx, fine)).unwrap();
        let report = server.run();
        // Same scene_key, different march parameters: the frames are not
        // interchangeable, so co-locating the two sessions must not produce
        // a single hit beyond their solo baselines.
        assert_eq!(report.sessions[0].cache_hits, coarse_solo);
        assert_eq!(report.sessions[1].cache_hits, fine_solo);
        assert_eq!(report.cache.hits, coarse_solo + fine_solo);
    }

    #[test]
    fn pool_hardware_speed_changes_the_timeline() {
        let fx = assets();
        let run_with = |scale: f64| {
            let mut server = server(|c| {
                let pool = &mut c.pool;
                pool.workers = 2;
                pool.soc.gpu.peak_flops *= scale;
                pool.soc.gpu.random_txn_per_sec *= scale;
                pool.soc.gpu.sram_txn_per_sec *= scale;
                pool.soc.gpu.kernel_overhead_s /= scale;
                pool.soc.npu.clock_hz *= scale;
            });
            server
                .submit(sub(&fx, spec("a", QosClass::Standard, 0.0)))
                .unwrap();
            server.run()
        };
        let slow = run_with(0.25);
        let fast = run_with(4.0);
        // Frames are billed at the executing worker's SoC speed, so pool
        // hardware actually moves the reported timeline.
        assert!(
            slow.sessions[0].mean_latency_s > fast.sessions[0].mean_latency_s,
            "slow pool {} vs fast pool {}",
            slow.sessions[0].mean_latency_s,
            fast.sessions[0].mean_latency_s
        );
    }

    #[test]
    fn reused_server_reports_lifetime_consistently() {
        let fx = assets();
        let mut server = server(|c| c.admission.max_sessions = 1);
        server
            .submit(sub(&fx, spec("first", QosClass::Standard, 0.0)))
            .unwrap();
        let r1 = server.run();
        server
            .submit(sub(&fx, spec("second", QosClass::Standard, 0.0)))
            .unwrap();
        let r2 = server.run();
        // One simulated timeline: the second report covers both runs and its
        // halves agree with each other.
        assert_eq!(r2.frames, 2 * fx.2.len());
        assert_eq!(r2.records.len(), r2.frames);
        assert_eq!(r2.sessions.len(), 2);
        assert_eq!(
            r2.sessions.iter().map(|s| s.frames).sum::<usize>(),
            r2.frames
        );
        assert!(r2.makespan_s >= r1.makespan_s);
        assert!(r2.pool_utilization > 0.0 && r2.pool_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn render_threads_override_keeps_the_timeline_bit_identical() {
        let fx = assets();
        let run_with = |render_threads: usize| {
            let mut server = server(|c| c.render_threads = render_threads);
            server
                .submit(sub(&fx, spec("a", QosClass::Standard, 0.0)))
                .unwrap();
            server.run()
        };
        let seq = run_with(0);
        let par = run_with(3);
        // Parallelism is wall-clock only: the simulated service timeline and
        // every report field must match exactly.
        assert_eq!(par.frames, seq.frames);
        assert_eq!(par.makespan_s, seq.makespan_s);
        assert_eq!(par.p99_latency_s, seq.p99_latency_s);
        assert_eq!(
            par.sessions[0].mean_latency_s,
            seq.sessions[0].mean_latency_s
        );
    }

    #[test]
    fn degrade_policy_admits_what_default_rejects_and_reports_it() {
        let fx = assets();
        // Capacity for roughly one-and-a-bit sessions as requested.
        let tight = |c: &mut ServeConfig| c.admission.max_utilization = 0.006;
        fn submit_all<'a>(server: &mut Solo<'a>, fx: &'a Assets) -> usize {
            let offsets = [0.0, 0.004, 0.009, 0.013].into_iter().enumerate();
            (offsets.filter(|&(i, offset)| {
                let s = spec(&format!("s{i}"), QosClass::Standard, offset);
                server.submit(sub(fx, s)).is_ok()
            }))
            .count()
        }

        let mut default_server = server(tight);
        let default_admitted = submit_all(&mut default_server, &fx);
        let default_rejected = default_server.admission().rejected();
        assert!(
            default_rejected >= 1,
            "fixture must overload the default policy"
        );

        let mut degrade_server = server(|c| {
            tight(c);
            c.policies = Policies {
                qos: Some(crate::policy::LoadAdaptiveDegrade {
                    max_window: 32,
                    min_resolution: 8,
                }),
                ..Default::default()
            };
        });
        let degrade_admitted = submit_all(&mut degrade_server, &fx);
        // The whole point: quality trades for admission on an overloaded
        // fleet — strictly fewer rejections at equal capacity.
        assert!(
            degrade_server.admission().rejected() < default_rejected,
            "degrade rejected {} vs default {}",
            degrade_server.admission().rejected(),
            default_rejected
        );
        assert!(degrade_admitted > default_admitted);
        let report = degrade_server.run();
        assert!(
            !report.degradations.is_empty(),
            "granted trades must be visible in the report"
        );
        for d in &report.degradations {
            let (from, to) = d.degradation.window;
            let ((w0, h0), (w1, h1)) = d.degradation.resolution;
            assert!(to > from || (w1 < w0 && h1 < h0), "no-op degradation");
            // Degraded sessions still served their whole trajectory.
            assert_eq!(report.sessions[d.session].frames, fx.2.len());
        }
    }

    #[test]
    fn prefetch_policy_increases_cache_hits_without_changing_frames() {
        let (scene, model, _) = assets();
        // Long enough that windows from frame 9 on carry genuinely
        // extrapolated (non-degenerate) reference poses — those are the
        // entries only a prefetch can publish ahead of demand.
        let traj = Trajectory::orbit(&scene, 14, 30.0);
        let fx = (scene, model, traj);
        let run_with = |policies: Policies| {
            let mut server = server(|c| c.policies = policies);
            for (i, offset) in [0.0, 0.007].into_iter().enumerate() {
                let mut s = spec(&format!("s{i}"), QosClass::Standard, offset);
                s.config.collect_quality = true; // PSNR equality ⇒ frames match
                server.submit(sub(&fx, s)).unwrap();
            }
            server.run()
        };
        let default = run_with(Policies::default());
        let prefetched = run_with(Policies {
            prefetch: Some(crate::policy::IdleWorkerPrefetch::default()),
            ..Default::default()
        });

        assert!(prefetched.prefetch_jobs > 0, "prefetch never engaged");
        assert!(prefetched.cache.prefetch_hits > 0, "speculation never paid");
        let hits = |r: &ServiceReport| r.sessions.iter().map(|s| s.cache_hits).sum::<u64>();
        assert!(
            hits(&prefetched) > hits(&default),
            "prefetch {} vs default {} hits",
            hits(&prefetched),
            hits(&default)
        );
        // Not a single rendered pixel may move: prefetched entries hold the
        // exact scheduled poses, so every session's MSE-averaged PSNR (a
        // function of all its frames) must be bit-identical.
        for (a, b) in default.sessions.iter().zip(&prefetched.sessions) {
            assert_eq!(a.mean_psnr_db, b.mean_psnr_db, "session {}", a.id);
            assert_eq!(a.frames, b.frames);
        }
        // Waste accounting stays consistent with issuance.
        let c = prefetched.cache;
        assert!(c.prefetch_hits + c.prefetch_wasted >= 1);
        assert!(c.prefetch_inserts as i64 >= c.prefetch_wasted as i64);
        assert_eq!(c.prefetch_inserts, prefetched.prefetch_jobs);
    }

    #[test]
    fn affinity_policy_confines_a_scene_to_one_lane() {
        let fx = assets();
        let mut server = server(|c| {
            c.pool.workers = 4;
            c.policies.placement = crate::policy::SceneAffinity { lanes: 2 };
        });
        for (i, offset) in [0.0, 0.005, 0.012].into_iter().enumerate() {
            let s = spec(&format!("s{i}"), QosClass::Standard, offset);
            server.submit(sub(&fx, s)).unwrap();
        }
        let report = server.run();
        // Two lanes of two workers: every frame of the single scene must
        // land in exactly one of them (model-weight residency).
        let lanes: std::collections::HashSet<usize> =
            report.records.iter().map(|r| r.worker / 2).collect();
        assert_eq!(lanes.len(), 1, "scene spread across lanes: {lanes:?}");
        assert_eq!(report.frames, 3 * fx.2.len());
    }

    #[test]
    fn interactive_sessions_win_contended_ties() {
        let fx = assets();
        // One worker, two identical sessions, same offsets: priority decides.
        let mut server = server(|c| c.pool.workers = 1);
        server
            .submit(sub(&fx, spec("slow", QosClass::BestEffort, 0.0)))
            .unwrap();
        let fast = spec("fast", QosClass::Interactive, 0.0);
        let fast = server.submit(sub(&fx, fast)).unwrap().session().unwrap();
        let report = server.run();
        let s = &report.sessions;
        assert!(
            s[fast].mean_latency_s <= s[0].mean_latency_s,
            "interactive {} vs best-effort {}",
            s[fast].mean_latency_s,
            s[0].mean_latency_s
        );
    }
}
