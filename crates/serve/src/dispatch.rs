//! Reference dispatch, the first stage of a scheduling round: resolve or
//! render every reference needed within the lookahead horizon, as one batch.
//!
//! Four steps keep the simulated timeline independent of host concurrency:
//! **plan** (sequential, session-id order) resolves cache hits and dedupes
//! same-cell requests planned within this batch; **prefetch** lets the
//! policy fill idle *simulated* workers with the next window's predicted
//! references; **render** executes the missing full renders concurrently on
//! the host render pool; **commit** (sequential, plan order) prices each
//! render on a simulated worker, publishes it to the cache and installs it —
//! bit-identical bookkeeping at any host thread budget.

use crate::cache::{CacheKey, CachedReference, RefCache};
use crate::fault::FaultKind;
use crate::policy::JobKind;
use crate::recovery::{Job, SimCtx};
use crate::scheduler::FrameServer;
use crate::session::{ServeSession, SessionId};
use cicero_accel::soc::{FrameKind, SocModel};
use cicero_accel::FrameWorkload;
use cicero_field::pool::RenderPool;
use cicero_math::Pose;
use cicero_scene::ground_truth::Frame;
use cicero_telemetry as telemetry;
use std::collections::HashSet;
use std::sync::Arc;

/// One planned full reference render.
struct RefJob {
    sess: SessionId,
    r: usize,
    kind: JobKind,
    pose: Pose,
    dispatch_at: f64,
    rendered: Option<(Frame, FrameWorkload)>,
}

/// What one dispatch round planned.
#[derive(Default)]
struct Plan {
    /// Misses that became render jobs, in plan order.
    jobs: Vec<RefJob>,
    /// Misses whose quantized cell was already planned this batch: they
    /// defer to the producer's commit.
    deferred: Vec<(SessionId, usize)>,
    /// Cells with a render planned this batch.
    pending: HashSet<CacheKey>,
    /// Demand references requested this batch (jobs and deferred).
    requested: HashSet<(SessionId, usize)>,
}

impl Plan {
    /// The cell a fresh render of `sess`'s reference `r` would be cached
    /// under, and whether a render planned earlier this batch already covers
    /// it (under either quaternion sign, like a cache lookup).
    fn cell_of(&self, cache: &RefCache, sess: &ServeSession<'_>, r: usize) -> (CacheKey, bool) {
        let pose = sess.pipe.reference_pose(r);
        let cell = |sign| cache.cell(&sess.cache_key, sess.pipe.intrinsics(), &pose, sign);
        let fresh = cell(1.0);
        let planned = self.pending.contains(&fresh) || self.pending.contains(&cell(-1.0));
        (fresh, planned)
    }

    fn push(&mut self, sess: &ServeSession<'_>, r: usize, kind: JobKind, cell: CacheKey) {
        self.pending.insert(cell);
        self.jobs.push(RefJob {
            sess: sess.id,
            r,
            kind,
            pose: sess.pipe.reference_pose(r),
            dispatch_at: sess.next_arrival_s(),
            rendered: None,
        });
    }
}

/// Simulated duration of a reference render priced on `soc` — the worker
/// that executes it: SoC speed locally, workstation speed for remote
/// sessions.
fn reference_duration(sess: &ServeSession<'_>, soc: &SocModel, w: &FrameWorkload) -> f64 {
    let cfg = &sess.spec.config;
    let pixels = sess.pipe.intrinsics().pixel_count() as u64;
    soc.price(cfg.scenario, cfg.variant, pixels, FrameKind::Reference(w))
        .time_s
}

impl<'a> FrameServer<'a> {
    /// Stage one of a round: plan → prefetch → host render → commit (see the
    /// module docs). Plan and commit are sequential in session-id and plan
    /// order; only the renders between them fan out across host threads.
    pub(crate) fn dispatch_references(&mut self) {
        let mut plan = self.plan_references();
        self.plan_prefetch(&mut plan);
        self.render_references(&mut plan.jobs);
        self.commit_references(plan);
    }

    /// Plan: hits install immediately; a miss whose quantized cell was
    /// already planned this batch defers to the producer's commit; the rest
    /// become render jobs.
    fn plan_references(&mut self) -> Plan {
        let lookahead = self.cfg.lookahead;
        let (mut sim, sessions) = self.sim();
        let mut plan = Plan::default();
        for sess in sessions.iter_mut().filter(|s| !s.pipe.is_done()) {
            let horizon = lookahead.unwrap_or(sess.spec.config.window.max(1));
            for r in sess.pipe.upcoming_references(horizon) {
                // A cell already planned this batch cannot be in the cache
                // (its producer's lookup just missed), so checking `pending`
                // first is semantically free — and it keeps the stats equal
                // to serial dispatch: the deferred sharer's only counted
                // lookup is the hit it scores at commit time.
                let (cell, planned) = plan.cell_of(sim.cache, sess, r);
                if planned {
                    plan.deferred.push((sess.id, r));
                } else {
                    detect_corruption(&mut sim, sess, r);
                    if install_hit(&mut sim, sess, r) {
                        continue;
                    }
                    plan.push(sess, r, JobKind::Reference, cell);
                }
                plan.requested.insert((sess.id, r));
            }
        }
        plan
    }

    /// Prefetch: when demand underfills the *simulated* pool, the policy may
    /// fill idle workers with the next window's predicted references.
    /// Candidates are scanned in session-id order past the demand horizon;
    /// `peek` probes keep demand hit/miss statistics untouched. The budget
    /// is a function of simulated state only, so prefetch decisions are
    /// bit-identical at any host thread budget.
    fn plan_prefetch(&mut self, plan: &mut Plan) {
        let Some(prefetch) = self.cfg.policies.prefetch else {
            return;
        };
        let mut remaining = prefetch.budget(plan.jobs.len(), &self.pool);
        if remaining == 0 {
            return;
        }
        'sessions: for sess in self.sessions.iter().filter(|s| !s.pipe.is_done()) {
            let window = sess.spec.config.window.max(1);
            let extra = prefetch.extra_horizon(window);
            if extra == 0 {
                continue;
            }
            let horizon = self.cfg.lookahead.unwrap_or(window) + extra;
            for r in sess.pipe.upcoming_references(horizon) {
                if plan.requested.contains(&(sess.id, r)) {
                    continue; // already a demand job this round
                }
                let (cell, planned) = plan.cell_of(&self.cache, sess, r);
                let pose = sess.pipe.reference_pose(r);
                if planned
                    || self
                        .cache
                        .peek(&sess.cache_key, sess.pipe.intrinsics(), &pose)
                {
                    continue; // someone is (or has) rendered this cell
                }
                plan.push(sess, r, JobKind::Prefetch, cell);
                self.prefetch_jobs += 1;
                telemetry::add(telemetry::Counter::ServePrefetchJobs, 1);
                remaining -= 1;
                if remaining == 0 {
                    break 'sessions;
                }
            }
        }
    }

    /// Render: the expensive full renders, fanned out across the host render
    /// pool (each render's own tile passes use the session's lane count, so
    /// nested checkouts divide whatever is left of the budget). Host threads
    /// decide who renders what, never what is rendered.
    fn render_references(&mut self, jobs: &mut [RefJob]) {
        let budget = self.cfg.render_threads;
        let drivers = jobs.len().min(budget).max(1);
        if budget >= 1 {
            for job in jobs.iter() {
                self.sessions[job.sess]
                    .pipe
                    .set_render_threads((budget / drivers).max(1));
            }
        }
        let lanes = RenderPool::global().checkout(drivers - 1);
        lanes.run_items(jobs.iter_mut(), |_, jobs| {
            for job in jobs {
                job.rendered = Some(self.sessions[job.sess].pipe.render_reference(job.r));
            }
        });
    }

    /// Commit: deterministic plan order, then resolve the deferred same-batch
    /// sharers against the now-published entries.
    fn commit_references(&mut self, plan: Plan) {
        let (mut sim, sessions) = self.sim();
        for job in plan.jobs {
            commit_reference(&mut sim, &mut sessions[job.sess], job);
        }
        for (id, r) in plan.deferred {
            let sess = &mut sessions[id];
            if install_hit(&mut sim, sess, r) {
                continue;
            }
            // The producing entry was evicted between commit and resolve
            // (tiny cache capacity): fall back to an own render.
            let job = RefJob {
                sess: id,
                r,
                kind: JobKind::Reference,
                pose: sess.pipe.reference_pose(r),
                dispatch_at: sess.next_arrival_s(),
                rendered: Some(sess.pipe.render_reference(r)),
            };
            commit_reference(&mut sim, sess, job);
        }
    }
}

/// Corruption is detected at the plan's demand lookup: the resident entry
/// for `sess`'s reference `r` is invalidated, and the ordinary miss path
/// renders a fresh replacement.
fn detect_corruption(sim: &mut SimCtx<'_>, sess: &ServeSession<'_>, r: usize) {
    let Some(inj) = sim.injector.as_deref_mut() else {
        return;
    };
    let pose = sess.pipe.reference_pose(r);
    if inj.fires(FaultKind::CacheCorruption, sess.id as u64, r as u64, 0)
        && (sim.cache).invalidate(&sess.cache_key, sess.pipe.intrinsics(), &pose)
    {
        inj.report.cache_corruptions += 1;
        telemetry::instant(telemetry::Phase::FaultInject, sess.id as u64, r as u64);
        telemetry::add(telemetry::Counter::FaultsInjected, 1);
    }
}

/// One counted cache lookup of `sess`'s reference `r`; a hit installs and is
/// credited to the session.
fn install_hit(sim: &mut SimCtx<'_>, sess: &mut ServeSession<'_>, r: usize) -> bool {
    let pose = sess.pipe.reference_pose(r);
    let hit = (sim.cache).lookup(&sess.cache_key, sess.pipe.intrinsics(), &pose);
    if let Some(hit) = &hit {
        sess.install_cached(r, hit, hit.available_at_s);
        sess.cache_hits += 1;
    }
    hit.is_some()
}

/// Prices, caches and installs one freshly rendered reference — the commit
/// half of a reference job, always executed in deterministic plan order on
/// the simulated timeline.
///
/// Demand renders (`JobKind::Reference`) install into the session and
/// publish to the cache. Speculative renders (`JobKind::Prefetch`) publish to
/// the cache **only** — the owning session's later demand lookup then scores
/// an ordinary, accounted hit, which keeps prefetch economics visible in the
/// report.
///
/// With an armed injector the job first climbs the shared
/// [`crash_ladder`](SimCtx::crash_ladder). Out of attempts, a crashed
/// prefetch is simply abandoned (dispatched, so still accounted, but nothing
/// is published), and a demand render falls to
/// [`out_of_attempts`](SimCtx::out_of_attempts): warp from a stale cached
/// reference, or one final guaranteed re-render committed normally.
fn commit_reference(sim: &mut SimCtx<'_>, sess: &mut ServeSession<'_>, job: RefJob) {
    let RefJob { r, kind, pose, .. } = job;
    let (frame, workload) = job.rendered.expect("job was rendered");
    let task = Job::new(kind, sess, r);
    let price = |soc: &SocModel| reference_duration(sess, soc, &workload);
    *sim.reference_jobs += 1;
    let ladder = sim.crash_ladder(&task, job.dispatch_at, &price);
    let mut at_s = ladder.at_s;
    if let Some(failed_end_s) = ladder.exhausted_at_s {
        if kind == JobKind::Prefetch {
            return;
        }
        if let Some(hit) = sim.out_of_attempts(sess, r, &pose, at_s, failed_end_s) {
            sess.install_cached(r, &hit, failed_end_s.max(hit.available_at_s));
            sess.ref_faulted[r] = true;
            return;
        }
        at_s = failed_end_s;
    }
    let (span, straggled) = sim.execute(&task, at_s, &price);
    telemetry::sim_span(
        telemetry::Phase::ServeReference,
        span.worker as u32,
        span.start_s,
        span.end_s,
        sess.id as u64,
        r as u64,
    );
    telemetry::add(telemetry::Counter::ServeReferenceJobs, 1);
    let frame = Arc::new(frame);
    let cached = CachedReference {
        pose,
        frame: frame.clone(),
        workload: workload.clone(),
        available_at_s: span.end_s,
    };
    if kind == JobKind::Prefetch {
        sim.cache
            .insert_prefetched(&sess.cache_key, sess.pipe.intrinsics(), cached);
        return;
    }
    sim.cache
        .insert(&sess.cache_key, sess.pipe.intrinsics(), cached);
    sess.pipe.install_reference(r, pose, frame, workload);
    sess.ref_ready[r] = Some(span.end_s);
    if ladder.crashed || straggled {
        sess.ref_faulted[r] = true;
    }
}
