//! Client sessions: what a tenant asks the frame server to render, and the
//! [`SessionManager`] that owns the admitted fleet.

use crate::cache::CachedReference;
use crate::error::ServeError;
use cicero::pipeline::{PipelineConfig, PipelineSession};
use cicero::FrameOutcome;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Identifies an admitted session: the number the [`Fleet`](crate::Fleet)
/// hands out at admission (directly, or through a resolved ticket), in
/// admission order fleet-wide. Frame records, session summaries, migration
/// records and the fleet's calls all name the session by it, on whichever
/// shard it lives, before and after a migration.
pub type SessionId = usize;

/// Quality-of-service class, setting the frame-deadline budget and the
/// tie-breaking priority in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Head-tracked, latency-critical clients (VR/AR): tight deadlines,
    /// highest priority.
    Interactive,
    /// Screen viewers: a few frames of slack.
    Standard,
    /// Offline consumers (preview export, thumbnailing): generous deadlines,
    /// lowest priority.
    BestEffort,
}

impl QosClass {
    /// Deadline budget in frame intervals: a frame due at `t` must complete
    /// by `t + budget × frame_interval`.
    pub fn deadline_frames(self) -> f64 {
        match self {
            QosClass::Interactive => 1.5,
            QosClass::Standard => 4.0,
            QosClass::BestEffort => 24.0,
        }
    }

    /// Scheduler priority; lower wins ties.
    pub fn priority(self) -> u8 {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::BestEffort => 2,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::BestEffort => "best-effort",
        }
    }

    /// Parses a [`label`](Self::label) back; `None` for unknown labels.
    /// Round-trips exactly — the traffic-profile text format depends on it.
    pub fn from_label(s: &str) -> Option<QosClass> {
        match s {
            "interactive" => Some(QosClass::Interactive),
            "standard" => Some(QosClass::Standard),
            "best-effort" => Some(QosClass::BestEffort),
            _ => None,
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// Hand impl: the derive shim only handles named-field structs, not enums.
impl serde::Serialize for QosClass {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// A session submission: everything the server needs besides the borrowed
/// scene/model/trajectory assets.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Human-readable session name (reports).
    pub name: String,
    /// Identifies the (scene, model) pair for reference-cache sharing.
    /// Sessions with equal keys and resolutions may exchange reference
    /// frames, so the key must change whenever the scene *or* the baked
    /// model does. Render-affecting configuration (variant, march
    /// parameters, traffic collection) is folded into the cache key
    /// automatically.
    pub scene_key: String,
    /// Quality-of-service class.
    pub qos: QosClass,
    /// When the client connects, in simulated seconds.
    pub start_offset_s: f64,
    /// Per-session pipeline configuration (variant, scenario, window, φ …).
    pub config: PipelineConfig,
}

/// Internal per-session scheduler state.
pub(crate) struct ServeSession<'a> {
    pub(crate) id: SessionId,
    pub(crate) spec: SessionSpec,
    pub(crate) pipe: PipelineSession<'a>,
    /// Seconds between successive frame arrivals (1 / trajectory fps).
    pub(crate) frame_interval_s: f64,
    /// Simulated availability time of each reference slot; `None` until the
    /// reference has been scheduled (or produced in-stream).
    pub(crate) ref_ready: Vec<Option<f64>>,
    /// Whether the reference slot's availability was fault-delayed (crash,
    /// straggler or fallback recovery); frames warping from a tainted slot
    /// are eligible for watchdog grants. Always all-`false` without an armed
    /// injector.
    pub(crate) ref_faulted: Vec<bool>,
    /// Cumulative pose-ingest delay at each delivered pose (injected stream
    /// stalls). Empty — adding exactly nothing to arrivals — without an
    /// armed injector.
    pub(crate) ingest_delay: Vec<f64>,
    /// Stream pose-push attempts seen so far (delivered or dropped): the
    /// deterministic key for stall/drop draws.
    pub(crate) pose_pushes: u64,
    /// Per-frame quality samples, for the session summary.
    pub(crate) psnrs: Vec<f64>,
    pub(crate) cache_hits: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) latencies: Vec<f64>,
    /// Full reference-cache key: the caller's `scene_key` plus the session's
    /// render-affecting configuration, so only compatible sessions share
    /// reference frames.
    pub(crate) cache_key: String,
    /// Worker occupancy committed at admission, released once drained.
    pub(crate) est_load: f64,
    pub(crate) load_released: bool,
    /// Earliest simulated time the session may serve or dispatch again —
    /// `0.0` (a no-op floor) except after a fleet failover, where it is the
    /// failed shard's death time: a migrated session cannot resume before
    /// its old home was declared dead.
    pub(crate) resume_floor_s: f64,
}

impl<'a> ServeSession<'a> {
    /// The scheduler state of a freshly admitted session, at the head of its
    /// schedule with nothing served yet.
    pub(crate) fn new(
        id: SessionId,
        spec: SessionSpec,
        pipe: PipelineSession<'a>,
        fps: f64,
        est_load: f64,
    ) -> Self {
        let n_refs = pipe.reference_count();
        // Reference frames are only interchangeable between sessions whose
        // render configuration matches: fold everything that changes the
        // pixels or the priced workload into the cache key alongside the
        // caller's scene/model identity.
        let cache_key = format!(
            "{}|{:?}|{:?}|traffic={}",
            spec.scene_key, spec.config.variant, spec.config.march, spec.config.collect_traffic
        );
        ServeSession {
            id,
            spec,
            pipe,
            frame_interval_s: 1.0 / fps,
            ref_ready: vec![None; n_refs],
            ref_faulted: vec![false; n_refs],
            ingest_delay: Vec::new(),
            pose_pushes: 0,
            psnrs: Vec::new(),
            cache_hits: 0,
            deadline_misses: 0,
            latencies: Vec::new(),
            cache_key,
            est_load,
            load_released: false,
            resume_floor_s: 0.0,
        }
    }

    /// Arrival time of frame `i`: the client expects one frame per interval
    /// starting at its connection offset, shifted by any injected
    /// pose-stream stall delay accumulated up to that pose (deadlines shift
    /// with arrivals, so a stalled stream is late, not doomed).
    pub(crate) fn arrival_s(&self, i: usize) -> f64 {
        let base = self.spec.start_offset_s + i as f64 * self.frame_interval_s;
        match self.ingest_delay.get(i).or(self.ingest_delay.last()) {
            Some(d) => base + d,
            None => base,
        }
    }

    /// Earliest simulated time the session's next frame may serve and its
    /// reference jobs dispatch: the frame's client arrival, floored by the
    /// resume floor (a no-op on sessions never queued or migrated).
    pub(crate) fn next_arrival_s(&self) -> f64 {
        self.arrival_s(self.pipe.cursor()).max(self.resume_floor_s)
    }

    /// Installs a cached reference into slot `r` under its *own* pose (which
    /// keeps the warp geometry consistent), usable from `ready_s`.
    pub(crate) fn install_cached(&mut self, r: usize, hit: &CachedReference, ready_s: f64) {
        self.pipe
            .install_reference(r, hit.pose, hit.frame.clone(), hit.workload.clone());
        self.ref_ready[r] = Some(ready_s);
    }

    /// Records one delivered streamed pose's ingest delay (`0.0` when the
    /// armed injector did not stall it), keeping the cumulative-delay ledger
    /// parallel to the delivered poses.
    pub(crate) fn note_ingest_delay(&mut self, stall_s: f64) {
        let total = self.ingest_delay.last().copied().unwrap_or(0.0) + stall_s;
        self.ingest_delay.push(total);
    }

    /// Grows the reference-availability ledger to match the pipeline's
    /// planned reference slots (streaming sessions plan incrementally).
    pub(crate) fn sync_ref_slots(&mut self) {
        let n = self.pipe.reference_count();
        if n > self.ref_ready.len() {
            self.ref_ready.resize(n, None);
            self.ref_faulted.resize(n, false);
        }
    }

    /// Deadline for frame `i` under the session's QoS class.
    pub(crate) fn deadline_s(&self, i: usize) -> f64 {
        self.arrival_s(i) + self.spec.qos.deadline_frames() * self.frame_interval_s
    }

    pub(crate) fn record_outcome(&mut self, outcome: &FrameOutcome) {
        if let Some(p) = outcome.psnr_db {
            self.psnrs.push(p);
        }
    }

    /// PSNR averaged over MSE, matching `PipelineRun::mean_psnr`.
    pub(crate) fn mean_psnr(&self) -> f64 {
        cicero_math::metrics::mean_psnr_db(&self.psnrs)
    }
}

/// Owns the sessions living on one shard and routes streaming pose
/// ingestion to them.
///
/// Slots are indexed by [`SessionId`]: a shard occupies the slots of the
/// sessions it admitted or adopted, and every other slot stays vacant — the
/// session lives on a sibling, or left this one when it died (a fleet
/// failover [`take`](Self::take)s it out). A fleet of one occupies every
/// slot. The manager is deliberately dumb about scheduling — policies and
/// the scheduler decide everything — but it is the single place that keeps
/// per-session serve bookkeeping (`ref_ready` ledgers) consistent as
/// streaming sessions grow their schedules.
pub(crate) struct SessionManager<'a> {
    slots: Vec<Option<ServeSession<'a>>>,
}

impl<'a> SessionManager<'a> {
    pub(crate) fn new() -> Self {
        SessionManager { slots: Vec::new() }
    }

    /// Moves a session in — admitted here or adopted — into its id's slot.
    pub(crate) fn insert(&mut self, sess: ServeSession<'a>) {
        let id = sess.id;
        if id >= self.slots.len() {
            self.slots.resize_with(id + 1, || None);
        }
        debug_assert!(self.slots[id].is_none(), "session ids are never reused");
        self.slots[id] = Some(sess);
    }

    /// Removes and returns session `id` for migration, leaving its slot
    /// vacant. `None` if the slot is already vacant or unknown.
    pub(crate) fn take(&mut self, id: SessionId) -> Option<ServeSession<'a>> {
        self.slots.get_mut(id).and_then(Option::take)
    }

    /// Occupied sessions, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ServeSession<'a>> {
        self.slots.iter().flatten()
    }

    /// Occupied sessions, mutably, in id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut ServeSession<'a>> {
        self.slots.iter_mut().flatten()
    }

    /// Disjoint `&mut`s to the sessions `ids` names, in `ids` order — the
    /// scheduler's batch step hands one to each lane of the host fan-out.
    /// Work and memory scale with the batch, not with every slot ever
    /// allocated. Panics unless the ids are distinct and resident.
    pub(crate) fn many_mut(&mut self, ids: &[SessionId]) -> Vec<&mut ServeSession<'a>> {
        let mut by_id: Vec<usize> = (0..ids.len()).collect();
        by_id.sort_unstable_by_key(|&k| ids[k]);
        let mut picked: Vec<Option<&mut ServeSession<'a>>> = ids.iter().map(|_| None).collect();
        // Walk the slots left to right, splitting off each wanted one.
        let (mut rest, mut base) = (&mut self.slots[..], 0);
        for k in by_id {
            let (slot, tail) = std::mem::take(&mut rest)[ids[k] - base..]
                .split_first_mut()
                .expect("batch ids are distinct and in range");
            picked[k] = slot.as_mut();
            (rest, base) = (tail, ids[k] + 1);
        }
        (picked.into_iter())
            .map(|s| s.expect("batch ids are resident"))
            .collect()
    }

    /// The streaming session `id`, validated for pose ingestion: the
    /// session must live here and stream, and (unless `allow_closed`, for
    /// the idempotent close) its feed must still be open.
    pub(crate) fn streaming_mut(
        &mut self,
        id: SessionId,
        allow_closed: bool,
    ) -> Result<&mut ServeSession<'a>, ServeError> {
        let sess = (self.slots.get_mut(id))
            .and_then(Option::as_mut)
            .ok_or(ServeError::UnknownSession { id })?;
        if !sess.pipe.is_streaming() {
            return Err(ServeError::NotStreaming { id });
        }
        if !allow_closed && sess.pipe.is_closed() {
            return Err(ServeError::StreamClosed { id });
        }
        Ok(sess)
    }
}

impl<'a> Index<SessionId> for SessionManager<'a> {
    type Output = ServeSession<'a>;

    fn index(&self, id: SessionId) -> &ServeSession<'a> {
        self.slots[id].as_ref().expect("session lives here")
    }
}

impl<'a> IndexMut<SessionId> for SessionManager<'a> {
    fn index_mut(&mut self, id: SessionId) -> &mut ServeSession<'a> {
        self.slots[id].as_mut().expect("session lives here")
    }
}
