//! Placing, pricing and — under an armed [`FaultPlan`](crate::FaultPlan) —
//! recovering one simulated job: the mechanism side of
//! [`RetryWithBackoff`]. Reference renders and target frames go through the
//! same [`crash_ladder`](SimCtx::crash_ladder) and the same
//! [`execute`](SimCtx::execute); they differ only in their draw-key domain,
//! their pricing, and in what the caller does when attempts run out.
//!
//! Everything here runs at the scheduler's sequential commit seams, in plan
//! or batch order, and every fault decision is a keyed idempotent draw — so
//! the timeline it produces is bit-identical at any host thread budget, and
//! without an armed injector it is exactly place → price → assign.

use crate::cache::{CachedReference, RefCache};
use crate::fault::{FallbackRecord, FaultInjector, FaultKind};
use crate::policy::{JobKind, RetryWithBackoff, SceneAffinity};
use crate::report::FrameRecord;
use crate::session::{ServeSession, SessionId};
use cicero_accel::pool::{JobSpan, WorkerPool};
use cicero_accel::soc::SocModel;
use cicero_math::Pose;
use cicero_telemetry as telemetry;
use std::sync::Arc;

/// One job on the simulated timeline, as placement and the fault draws key
/// it.
pub(crate) struct Job<'j> {
    pub(crate) kind: JobKind,
    pub(crate) session: SessionId,
    pub(crate) scene_key: &'j str,
    /// Reference slot for reference and prefetch renders, frame index for
    /// target frames.
    pub(crate) item: u64,
}

impl<'j> Job<'j> {
    pub(crate) fn new(kind: JobKind, sess: &'j ServeSession<'_>, item: usize) -> Self {
        Job {
            kind,
            session: sess.id,
            scene_key: &sess.spec.scene_key,
            item: item as u64,
        }
    }

    /// Low bits of the draw key: job kinds never share a fault draw.
    fn domain(&self) -> u64 {
        match self.kind {
            JobKind::Reference => 0,
            JobKind::Target => 1,
            JobKind::Prefetch => 2,
        }
    }
}

/// How a job came out of the [`crash_ladder`](SimCtx::crash_ladder).
pub(crate) struct Ladder {
    /// When the surviving attempt may dispatch — or, out of attempts, when
    /// the last crashed one did.
    pub(crate) at_s: f64,
    /// Whether any attempt crashed.
    pub(crate) crashed: bool,
    /// Out of attempts: when the last crashed attempt ended. Never set for a
    /// target frame, whose final attempt is not drawn.
    pub(crate) exhausted_at_s: Option<f64>,
}

/// The simulated-side state both commit sites — reference renders and target
/// frames — bill against, borrowed from the server for one commit pass.
pub(crate) struct SimCtx<'s> {
    pub(crate) pool: &'s mut WorkerPool,
    pub(crate) cache: &'s mut RefCache,
    pub(crate) injector: Option<&'s mut FaultInjector>,
    pub(crate) placement: SceneAffinity,
    pub(crate) recovery: RetryWithBackoff,
    pub(crate) reference_jobs: &'s mut u64,
    pub(crate) records: &'s mut Vec<FrameRecord>,
}

impl SimCtx<'_> {
    /// Draws `job`'s attempts from `at_s` until one survives or they run
    /// out. **One crashed attempt** = place, bill the plan's crash fraction
    /// of the priced duration, quarantine the worker through its respawn
    /// window, count, trace. **A retry** = the policy's backoff after the
    /// crash, count, trace. A prefetch gets one attempt (speculation is not
    /// worth chasing), everything else the policy's
    /// [`max_attempts`](RetryWithBackoff::max_attempts); a target frame's last
    /// attempt always succeeds — its pixels exist host-side, a crash only
    /// costs simulated time. Each attempt draws independently on its keyed
    /// `(session, item, attempt | domain)` triple.
    pub(crate) fn crash_ladder(
        &mut self,
        job: &Job<'_>,
        mut at_s: f64,
        price: &dyn Fn(&SocModel) -> f64,
    ) -> Ladder {
        let max_attempts = match job.kind {
            JobKind::Prefetch => 1,
            _ => u64::from(self.recovery.max_attempts),
        };
        let (session, item) = (job.session as u64, job.item);
        let mut attempt: u64 = 1;
        let mut exhausted_at_s = None;
        loop {
            let last = attempt >= max_attempts;
            let key = (attempt << 2) | job.domain();
            let armed = self.injector.as_deref();
            if (last && job.kind == JobKind::Target)
                || !armed.is_some_and(|inj| inj.fires(FaultKind::WorkerCrash, session, item, key))
            {
                break;
            }
            let worker = self.placement.place(job.scene_key, self.pool);
            let duration = price(&self.pool.workers()[worker].soc);
            let Some(inj) = self.injector.as_deref_mut() else {
                break; // unreachable: nothing fires on a disarmed server
            };
            let failed = self
                .pool
                .assign(worker, at_s, duration * inj.plan().crash_fraction);
            let respawn_s = failed.end_s + self.recovery.quarantine_s(duration);
            self.pool.quarantine(worker, respawn_s);
            inj.report.worker_crashes += 1;
            inj.report.quarantines += 1;
            inj.report.respawns += 1;
            telemetry::instant(telemetry::Phase::FaultInject, session, item);
            telemetry::add(telemetry::Counter::FaultsInjected, 1);
            telemetry::instant(telemetry::Phase::Quarantine, worker as u64, 0);
            telemetry::add(telemetry::Counter::Quarantines, 1);
            if last {
                exhausted_at_s = Some(failed.end_s);
                break;
            }
            let backoff = self.recovery.backoff_s(attempt as u32, duration);
            inj.report.retries += 1;
            inj.report.time_to_recover_s += (failed.end_s - at_s) + backoff;
            telemetry::instant(telemetry::Phase::FaultRetry, session, item);
            telemetry::add(telemetry::Counter::FaultRetries, 1);
            at_s = failed.end_s + backoff;
            attempt += 1;
        }
        if attempt > 1 {
            telemetry::observe(telemetry::Hist::RetryAttempts, attempt - 1);
        }
        Ladder {
            at_s,
            crashed: attempt > 1 || exhausted_at_s.is_some(),
            exhausted_at_s,
        }
    }

    /// Runs the attempt that completes: place, price on *that worker's* SoC,
    /// one straggler draw, bill. Returns the span and whether it straggled.
    pub(crate) fn execute(
        &mut self,
        job: &Job<'_>,
        at_s: f64,
        price: &dyn Fn(&SocModel) -> f64,
    ) -> (JobSpan, bool) {
        let worker = self.placement.place(job.scene_key, self.pool);
        let mut duration = price(&self.pool.workers()[worker].soc);
        let mut straggled = false;
        if let Some(inj) = self.injector.as_deref_mut() {
            let (session, item) = (job.session as u64, job.item);
            if inj.fires(FaultKind::Straggler, session, item, job.domain()) {
                duration *= inj.plan().straggler_factor;
                inj.report.stragglers += 1;
                straggled = true;
                telemetry::instant(telemetry::Phase::FaultInject, session, item);
                telemetry::add(telemetry::Counter::FaultsInjected, 1);
            }
        }
        (self.pool.assign(worker, at_s, duration), straggled)
    }

    /// A demand reference render out of attempts (last dispatched at `at_s`,
    /// crashed at `failed_end_s`). Rung two: the best stale cached reference
    /// within the policy's pose-error radius — Cicero's warping tolerates
    /// bounded pose error, so a nearby stale entry is a valid degraded warp
    /// source — returned for the caller to install. Rung three, `None`:
    /// nothing in radius, the caller owes one final guaranteed (degraded)
    /// re-render.
    pub(crate) fn out_of_attempts(
        &mut self,
        sess: &ServeSession<'_>,
        r: usize,
        pose: &Pose,
        at_s: f64,
        failed_end_s: f64,
    ) -> Option<Arc<CachedReference>> {
        let inj = self.injector.as_deref_mut()?;
        let hit = self.cache.best_within(
            &sess.cache_key,
            sess.pipe.intrinsics(),
            pose,
            self.recovery.stale_pos_radius,
            self.recovery.stale_rot_radius,
        );
        inj.report.time_to_recover_s += failed_end_s - at_s;
        telemetry::instant(telemetry::Phase::FaultFallback, sess.id as u64, r as u64);
        telemetry::add(telemetry::Counter::FaultFallbacks, 1);
        match &hit {
            Some(hit) => {
                let frames = sess.pipe.reference_consumers(r);
                inj.report.fallback_warps += 1;
                inj.report.fallback_warp_frames += frames as u64;
                inj.report.fallbacks.push(FallbackRecord {
                    session: sess.id,
                    ref_index: r,
                    pos_error: (hit.pose.position - pose.position).length(),
                    rot_error: hit.pose.rotation.angle_to(pose.rotation),
                    frames,
                });
            }
            None => inj.report.degraded_rerenders += 1,
        }
        hit
    }

    /// The per-frame watchdog, for a fault-affected frame that missed its
    /// deadline: an overrun within the policy's slack becomes an accounted
    /// grant instead of a silent miss; beyond it the frame counts against
    /// availability. Deadline-miss statistics are untouched either way —
    /// grants are accounting, not forgiveness.
    pub(crate) fn watchdog(&mut self, frame_interval_s: f64, record: &FrameRecord) {
        let Some(inj) = self.injector.as_deref_mut() else {
            return;
        };
        let slack = self.recovery.watchdog_slack_s(frame_interval_s);
        if record.completion_s <= record.deadline_s + slack {
            inj.report.watchdog_grants += 1;
            telemetry::instant(
                telemetry::Phase::WatchdogGrant,
                record.session as u64,
                record.frame_index as u64,
            );
            telemetry::add(telemetry::Counter::WatchdogGrants, 1);
        } else {
            inj.report.unrecovered += 1;
        }
    }
}
