//! The shard's side of the front door — one [`Submission`] through
//! [`Fleet::submit`](crate::Fleet::submit) lands in its shard's `submit` —
//! and the SLO-aware overload queue behind it.
//!
//! Every decision about a queued entry is written once: an entry is
//! **admitted** by `FrameServer::admit_queued` (the fits and the brownout
//! rungs differ only in the admission they hand it and the counter it bumps)
//! or **shed** by `OverloadState::shed` (queue overflow, a refused
//! admission, a missed SLO deadline without a ladder, a dying shard). A
//! disarmed server runs the same `submit` with a queue that is never there:
//! what does not fit is admitted, degraded or rejected by the QoS policy on
//! the spot. Each of those moments writes the fleet's ledger: an admission
//! numbers the session, a queued entry numbers its ticket, and the entry's
//! admission or shed resolves it.
//!
//! All decisions depend only on simulated time and queue contents, so armed
//! reports keep the standing contract: bit-identical at any host thread
//! budget.

use crate::admission::AdmissionError;
use crate::error::ServeError;
use crate::fleet::Ledger;
use crate::policy::{LoadAdaptiveDegrade, QosAdmission};
use crate::report::{DegradationRecord, OverloadReport};
use crate::scheduler::FrameServer;
use crate::session::{ServeSession, SessionId, SessionSpec};
use cicero::pipeline::PipelineSession;
use cicero::Variant;
use cicero_field::NerfModel;
use cicero_math::Intrinsics;
use cicero_scene::{AnalyticScene, Trajectory};
use cicero_telemetry as telemetry;

/// SLO-aware overload control: a bounded pending-admission queue with
/// deadline-aware shedding, explicit backpressure and an optional brownout
/// ladder, armed via [`ServeConfig::overload`](crate::ServeConfig::overload).
///
/// When [`submit`](crate::Fleet::submit) cannot admit a session immediately it
/// is **queued** rather than rejected; queued submissions admit in (QoS
/// priority, arrival) order as drained sessions free capacity. A queued
/// submission whose SLO admission deadline arrives before capacity does is
/// admitted through the `brownout` degradation ladder (stretched window /
/// halved resolution) — or **shed** when the ladder is absent or even its
/// floor does not fit. When the queue itself overflows, the entry
/// **predicted to miss its SLO** (least slack; not the newest arrival) is
/// shed; if that is the incoming request it gets explicit backpressure —
/// [`ServeError::Overloaded`] with a retry hint — instead of a queue slot.
#[derive(Debug, Clone, Copy)]
pub struct OverloadControl {
    /// Pending-admission queue capacity; `0` degenerates to backpressure on
    /// every submission that cannot admit immediately.
    pub queue_capacity: usize,
    /// SLO admission deadline, in multiples of the class deadline: a queued
    /// submission must start within
    /// `deadline_frames × frame_interval × deadline_slack` of its requested
    /// start or it is browned out / shed.
    pub deadline_slack: f64,
    /// Base of the backpressure retry hint:
    /// `retry_after_s = min_retry_s × (1 + queue depth)`.
    pub min_retry_s: f64,
    /// Degradation ladder for queued submissions at their SLO deadline.
    /// `None` sheds instead of browning out.
    pub brownout: Option<LoadAdaptiveDegrade>,
}

impl Default for OverloadControl {
    fn default() -> Self {
        OverloadControl {
            queue_capacity: 32,
            deadline_slack: 8.0,
            min_retry_s: 0.05,
            brownout: Some(LoadAdaptiveDegrade::default()),
        }
    }
}

/// Handle for a queued submission, resolved by
/// [`Fleet::ticket`](crate::Fleet::ticket).
pub type TicketId = usize;

/// What [`Fleet::submit`](crate::Fleet::submit) did with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted immediately; the session serves from its requested start.
    Admitted(SessionId),
    /// Queued behind the overload controller; poll
    /// [`ticket`](crate::Fleet::ticket) after each run for the resolution.
    Queued(TicketId),
}

impl SubmitOutcome {
    /// The admitted session id, if admission was immediate — always, on a
    /// fleet without armed [`OverloadControl`].
    pub fn session(&self) -> Option<SessionId> {
        match self {
            SubmitOutcome::Admitted(id) => Some(*id),
            SubmitOutcome::Queued(_) => None,
        }
    }
}

/// Resolution state of a queued submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketState {
    /// Still waiting in the pending-admission queue.
    Pending,
    /// Admitted (possibly degraded through the brownout ladder) as this
    /// session.
    Admitted(SessionId),
    /// Shed: the server predicted the session would miss its SLO and
    /// dropped it. Resubmitting later is allowed.
    Shed,
}

/// What a submission feeds the pipeline once admitted.
#[derive(Debug, Clone, Copy)]
pub enum Feed<'a> {
    /// A whole-trajectory session.
    Trajectory(&'a Trajectory),
    /// A streaming session at a nominal frame rate: poses arrive one at a
    /// time via [`push_pose`](crate::Fleet::push_pose) after admission, and
    /// [`close_stream`](crate::Fleet::close_stream) marks the feed complete.
    Stream {
        /// Nominal client frame rate.
        fps: f32,
    },
}

impl Feed<'_> {
    /// The client's frame rate.
    pub(crate) fn fps(&self) -> f64 {
        match *self {
            Feed::Trajectory(traj) => traj.fps() as f64,
            Feed::Stream { fps } => fps as f64,
        }
    }

    /// Frames the session will demand — the shed-demand figure. Zero for a
    /// stream: unknown at submit time.
    fn frames(&self) -> u64 {
        match self {
            Feed::Trajectory(traj) => traj.len() as u64,
            Feed::Stream { .. } => 0,
        }
    }
}

/// One session submission: the only argument of
/// [`Fleet::submit`](crate::Fleet::submit). Scenes, baked models and
/// trajectories are borrowed and must outlive the fleet.
#[derive(Clone)]
pub struct Submission<'a> {
    /// What the client asks for.
    pub spec: SessionSpec,
    /// The scene the session renders.
    pub scene: &'a AnalyticScene,
    /// Its baked model.
    pub model: &'a dyn NerfModel,
    /// Where the poses come from.
    pub feed: Feed<'a>,
    /// Requested camera intrinsics.
    pub intrinsics: Intrinsics,
    /// The client's submission instant on the simulated timeline: when the
    /// queue is pumped for it and what its queue wait and SLO admission
    /// deadline are measured from. The constructors set it to
    /// `spec.start_offset_s`; see [`at`](Self::at).
    pub at_s: f64,
}

impl<'a> Submission<'a> {
    /// A session over a complete trajectory, submitted at its requested
    /// start.
    pub fn trajectory(
        spec: SessionSpec,
        scene: &'a AnalyticScene,
        model: &'a dyn NerfModel,
        traj: &'a Trajectory,
        intrinsics: Intrinsics,
    ) -> Self {
        Submission {
            at_s: spec.start_offset_s,
            spec,
            scene,
            model,
            feed: Feed::Trajectory(traj),
            intrinsics,
        }
    }

    /// A **streaming** session at a nominal `fps`, submitted at its requested
    /// start. Admission happens at submission; feeding a captured trajectory
    /// pose-by-pose and closing before [`run`](crate::Fleet::run) produces a
    /// service report **bit-identical** to submitting it whole. A client
    /// whose submission was [`Queued`](SubmitOutcome::Queued) buffers its
    /// poses until the ticket resolves to [`TicketState::Admitted`].
    pub fn stream(
        spec: SessionSpec,
        scene: &'a AnalyticScene,
        model: &'a dyn NerfModel,
        fps: f32,
        intrinsics: Intrinsics,
    ) -> Self {
        Submission {
            at_s: spec.start_offset_s,
            spec,
            scene,
            model,
            feed: Feed::Stream { fps },
            intrinsics,
        }
    }

    /// Moves the submission instant: a client that arrives at `now_s`, not
    /// when it asked to start — a retry after backpressure, a late join.
    pub fn at(mut self, now_s: f64) -> Self {
        self.at_s = now_s;
        self
    }

    /// Checks every field a client controls.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let fps = self.feed.fps();
        let cfg = &self.spec.config;
        let reason = if !(fps.is_finite() && fps > 0.0) {
            "fps must be positive and finite"
        } else if matches!(self.feed, Feed::Trajectory(traj) if traj.is_empty()) {
            "trajectory is empty"
        } else if cfg.window == 0 && cfg.variant != Variant::Baseline {
            "warping window must be at least 1"
        } else if self.intrinsics.pixel_count() == 0 {
            "intrinsics have zero area"
        } else if !(self.spec.start_offset_s.is_finite() && self.at_s.is_finite()) {
            "start offset and submission instant must be finite"
        } else {
            return Ok(());
        };
        Err(ServeError::InvalidSubmission { reason })
    }
}

/// One pending-admission queue entry.
pub(crate) struct QueuedSubmission<'a> {
    sub: Submission<'a>,
    /// The entry's ticket, which also orders entries by arrival.
    ticket: TicketId,
    /// Latest simulated start that still meets the class SLO (with the
    /// configured slack); past it the entry browns out or sheds.
    deadline_to_start_s: f64,
}

impl QueuedSubmission<'_> {
    /// Slack to the SLO admission deadline at `now`; the least-slack entry
    /// is the shedding victim.
    fn slack_s(&self, now: f64) -> f64 {
        self.deadline_to_start_s - now
    }
}

/// Live overload-control state: the armed knobs, the pending queue and the
/// running counters.
pub(crate) struct OverloadState<'a> {
    ctl: OverloadControl,
    queue: Vec<QueuedSubmission<'a>>,
    pub(crate) report: OverloadReport,
}

impl<'a> OverloadState<'a> {
    pub(crate) fn new(ctl: OverloadControl) -> Self {
        OverloadState {
            ctl,
            queue: Vec::new(),
            report: OverloadReport::default(),
        }
    }

    /// The shedding victim among queued entries at `now`: least slack, ties
    /// to the lower QoS class, then to the newest arrival. `None` on an
    /// empty queue.
    fn victim(&self, now: f64) -> Option<usize> {
        (0..self.queue.len()).min_by(|&i, &j| {
            let (a, b) = (&self.queue[i], &self.queue[j]);
            a.slack_s(now)
                .total_cmp(&b.slack_s(now))
                .then(b.sub.spec.qos.priority().cmp(&a.sub.spec.qos.priority()))
                .then(b.ticket.cmp(&a.ticket))
        })
    }

    /// Sheds one entry already removed from the queue: its ticket resolves,
    /// its demand stays accounted. The only way an entry is ever shed.
    fn shed(&mut self, q: &QueuedSubmission<'a>, ledger: &mut Ledger) {
        let class = q.sub.spec.qos.priority() as usize;
        ledger.tickets[q.ticket] = TicketState::Shed;
        self.report.sheds += 1;
        self.report.sheds_by_class[class] += 1;
        self.report.shed_frames_by_class[class] += q.sub.feed.frames();
        telemetry::add(telemetry::Counter::OverloadSheds, 1);
        telemetry::instant(
            telemetry::Phase::OverloadShed,
            q.ticket as u64,
            class as u64,
        );
    }
}

impl<'a> FrameServer<'a> {
    /// Submits a session the fleet has validated and routed here: admitted
    /// now, queued, or refused — the semantics
    /// [`Fleet::submit`](crate::Fleet::submit) documents. On a server without
    /// armed [`OverloadControl`] the outcome is always
    /// [`SubmitOutcome::Admitted`] or an admission error.
    pub(crate) fn submit(
        &mut self,
        sub: Submission<'a>,
        ledger: &mut Ledger,
    ) -> Result<SubmitOutcome, ServeError> {
        let (fps, now_s) = (sub.feed.fps(), sub.at_s);
        // Freshly drained capacity admits queued work *before* the newcomer:
        // the queue is a FIFO per priority, not a stack.
        self.pump_overload(now_s, ledger);
        let direct = self.direct_fit(&sub.spec, sub.intrinsics, fps);
        let Some(ov) = self.overload.as_mut().filter(|_| !direct) else {
            let adm = self.admit(ledger, &sub.spec, sub.intrinsics, fps)?;
            return Ok(SubmitOutcome::Admitted(
                self.install_session(adm, &sub, ledger),
            ));
        };
        let ctl = ov.ctl;
        // The SLO admission deadline: the session must *start* within the
        // slack-scaled class deadline of its requested start (floored at the
        // submission instant — queueing cannot owe time before the client
        // even asked).
        let deadline_to_start_s = sub.spec.start_offset_s.max(now_s)
            + sub.spec.qos.deadline_frames() * (1.0 / fps) * ctl.deadline_slack;
        let class = sub.spec.qos.priority();
        if ov.queue.len() >= ctl.queue_capacity {
            // Overflow: shed the entry predicted to miss its SLO — the least
            // slack across the queue *and* the incoming request (same
            // tie-breaks as `victim`: the incoming request is the newest
            // arrival, so a full tie spares the queued entry). None on a
            // zero-capacity queue.
            let victim = ov.victim(now_s).filter(|&v| {
                let q = &ov.queue[v];
                (deadline_to_start_s - now_s)
                    .total_cmp(&q.slack_s(now_s))
                    .then(q.sub.spec.qos.priority().cmp(&class))
                    .is_gt()
            });
            let Some(v) = victim else {
                ov.report.backpressure += 1;
                telemetry::add(telemetry::Counter::OverloadBackpressure, 1);
                return Err(ServeError::Overloaded {
                    retry_after_s: ctl.min_retry_s * (1.0 + ov.queue.len() as f64),
                });
            };
            let q = ov.queue.remove(v);
            ov.shed(&q, ledger);
        }
        let ticket = ledger.enqueue();
        let depth = ov.queue.len();
        ov.report.enqueued += 1;
        ov.report.queue_depth_hist[OverloadReport::depth_bucket(depth)] += 1;
        ov.report.queue_peak = ov.report.queue_peak.max(depth as u64 + 1);
        telemetry::instant(
            telemetry::Phase::OverloadEnqueue,
            ticket as u64,
            class as u64,
        );
        telemetry::add(telemetry::Counter::OverloadEnqueued, 1);
        telemetry::observe(telemetry::Hist::OverloadQueueDepth, depth as u64);
        ov.queue.push(QueuedSubmission {
            sub,
            ticket,
            deadline_to_start_s,
        });
        Ok(SubmitOutcome::Queued(ticket))
    }

    /// Pending-admission queue depth (0 without armed overload control).
    pub(crate) fn queued(&self) -> usize {
        self.overload.as_ref().map_or(0, |ov| ov.queue.len())
    }

    /// Whether this server would admit `spec` immediately — empty queue and
    /// capacity headroom. Side-effect free: `submit`'s own test, and the
    /// fleet's diversion probe.
    pub(crate) fn direct_fit(&self, spec: &SessionSpec, intrinsics: Intrinsics, fps: f64) -> bool {
        self.queued() == 0
            && self
                .admission
                .would_fit(self.admission.estimate_load(spec, intrinsics, fps))
    }

    /// Runs a submission through `ladder` — or, without one, admits it as
    /// requested: server-side thread override, then admit / degrade /
    /// reject.
    fn admit_with(
        &mut self,
        ladder: Option<&LoadAdaptiveDegrade>,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
    ) -> Result<QosAdmission, AdmissionError> {
        let mut spec = spec.clone();
        if self.cfg.render_threads > 0 {
            // Server-side override: the host's parallelism budget belongs to
            // the deployment, not the client. This is only the initial lane
            // count — the scheduler re-partitions the budget across each
            // concurrently stepping batch. Bit-identical output, so this
            // never affects cache sharing or reported quality.
            spec.config.render_threads = self.cfg.render_threads;
        }
        let Some(ladder) = ladder else {
            let est_load = self.admission.admit(&spec, intrinsics, fps)?;
            return Ok(QosAdmission {
                spec,
                intrinsics,
                est_load,
                degradation: None,
            });
        };
        ladder.admit(&spec, intrinsics, fps, &mut self.admission)
    }

    /// [`admit_with`](Self::admit_with) the server's own QoS policy, tracing
    /// a refusal under the id the session would have taken.
    fn admit(
        &mut self,
        ledger: &Ledger,
        spec: &SessionSpec,
        intrinsics: Intrinsics,
        fps: f64,
    ) -> Result<QosAdmission, AdmissionError> {
        let qos = self.cfg.policies.qos;
        let decision = self.admit_with(qos.as_ref(), spec, intrinsics, fps);
        if decision.is_err() {
            telemetry::instant(
                telemetry::Phase::Reject,
                ledger.homes.len() as u64,
                spec.qos.priority() as u64,
            );
            telemetry::add(telemetry::Counter::Rejected, 1);
        }
        decision
    }

    /// Builds the pipeline of an admitted (possibly degraded) submission,
    /// numbers the session in the ledger and returns its id.
    fn install_session(
        &mut self,
        adm: QosAdmission,
        sub: &Submission<'a>,
        ledger: &mut Ledger,
    ) -> SessionId {
        let QosAdmission {
            spec,
            intrinsics,
            est_load,
            degradation,
        } = adm;
        let mut pipe = match sub.feed {
            Feed::Trajectory(traj) => {
                PipelineSession::new(sub.scene, sub.model, traj, intrinsics, &spec.config)
            }
            Feed::Stream { fps } => {
                PipelineSession::new_streaming(sub.scene, sub.model, fps, intrinsics, &spec.config)
            }
        };
        let id = ledger.admit(self.shard);
        // Frame spans of this session's pipeline now carry its serve id.
        pipe.set_telemetry_id(id as u64);
        let class = spec.qos.priority() as u64;
        telemetry::instant(telemetry::Phase::Admit, id as u64, class);
        telemetry::add(telemetry::Counter::Admitted, 1);
        if let Some(degradation) = degradation {
            telemetry::instant(
                telemetry::Phase::Degrade,
                id as u64,
                degradation.window.1 as u64,
            );
            telemetry::add(telemetry::Counter::Degraded, 1);
            self.degradations.push(DegradationRecord {
                session: id,
                name: spec.name.clone(),
                degradation,
            });
        }
        let sess = ServeSession::new(id, spec, pipe, sub.feed.fps(), est_load);
        self.sessions.insert(sess);
        id
    }

    /// Drains the pending-admission queue at simulated instant `now_s`, in
    /// (QoS priority, arrival) order: entries that fit admit at full
    /// fidelity; entries at their SLO admission deadline brown out through
    /// the configured ladder (or shed without one); the rest keep waiting.
    /// A no-op on an empty queue — and therefore on every disarmed or
    /// underloaded server.
    pub(crate) fn pump_overload(&mut self, now_s: f64, ledger: &mut Ledger) {
        // The state steps out of `self` while entries are admitted *into*
        // `self`; nothing on the admission path looks at it.
        let Some(mut ov) = self.overload.take_if(|ov| !ov.queue.is_empty()) else {
            return;
        };
        // Drained sessions hand their capacity back before the queue pumps.
        self.release_drained_loads();
        ov.queue
            .sort_by_key(|q| (q.sub.spec.qos.priority(), q.ticket));
        for q in std::mem::take(&mut ov.queue) {
            let (spec, k, fps) = (&q.sub.spec, q.sub.intrinsics, q.sub.feed.fps());
            let est = self.admission.estimate_load(spec, k, fps);
            if self.admission.would_fit(est) {
                // The capacity probe passed, but a hard limit (the session
                // cap) may still refuse: then the entry sheds.
                let adm = self.admit(ledger, spec, k, fps).ok();
                self.admit_queued(&mut ov, q, adm, now_s, ledger, |r| &mut r.queue_admits);
            } else if now_s >= q.deadline_to_start_s {
                // SLO deadline reached before capacity: brownout before
                // shed, shed before serving predictably-late frames.
                let ladder = ov.ctl.brownout;
                let adm = ladder.and_then(|l| self.admit_with(Some(&l), spec, k, fps).ok());
                self.admit_queued(&mut ov, q, adm, now_s, ledger, |r| &mut r.brownout_admits);
            } else {
                ov.queue.push(q);
            }
        }
        self.overload = Some(ov);
    }

    /// Resolves one queued entry that a pump rung decided on: installed from
    /// `admission` — counted on the rung's `counter` — or shed when the rung
    /// had none to give. The only way a queued entry is ever admitted.
    fn admit_queued(
        &mut self,
        ov: &mut OverloadState<'a>,
        q: QueuedSubmission<'a>,
        admission: Option<QosAdmission>,
        now_s: f64,
        ledger: &mut Ledger,
        counter: fn(&mut OverloadReport) -> &mut u64,
    ) {
        let Some(adm) = admission else {
            return ov.shed(&q, ledger);
        };
        let id = self.install_session(adm, &q.sub, ledger);
        // A queued session cannot serve before it was admitted; late
        // admission shows up as latency.
        self.sessions[id].resume_floor_s = now_s;
        ledger.tickets[q.ticket] = TicketState::Admitted(id);
        *counter(&mut ov.report) += 1;
        ov.report.max_queue_wait_s = ov.report.max_queue_wait_s.max(now_s - q.sub.at_s);
    }

    /// Records a fleet diversion *off* this shard: the fleet found it had no
    /// immediate headroom and routed the admission to a sibling instead. A
    /// no-op without armed overload control.
    pub(crate) fn note_diversion(&mut self) {
        if let Some(ov) = self.overload.as_mut() {
            ov.report.diversions += 1;
        }
    }

    /// Sheds every pending queue entry — the shard is dying and nothing will
    /// ever pump its queue again. Admitted sessions are *not* touched (they
    /// migrate through [`take_live_sessions`](Self::take_live_sessions)).
    pub(crate) fn shed_queue(&mut self, ledger: &mut Ledger) {
        if let Some(ov) = self.overload.as_mut() {
            for q in std::mem::take(&mut ov.queue) {
                ov.shed(&q, ledger);
            }
        }
    }

    /// Earliest SLO admission deadline across the pending queue — the
    /// simulated instant the drain step advances to when every admitted
    /// session has drained but submissions still wait. `None` when nothing
    /// is queued.
    pub(crate) fn queue_frontier_s(&self) -> Option<f64> {
        let queue = &self.overload.as_ref()?.queue;
        queue
            .iter()
            .map(|q| q.deadline_to_start_s)
            .min_by(f64::total_cmp)
    }
}
