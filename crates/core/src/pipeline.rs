//! The end-to-end Cicero pipeline: frames in, images + time/energy out.
//!
//! [`PipelineSession`] is the incremental heart of the pipeline: it holds the
//! warping-window [`Schedule`] cursor and the lazily rendered reference
//! frames, and advances one trajectory frame per [`PipelineSession::step`]
//! call. [`run_pipeline`] is a thin driver that steps a session to completion
//! under one of the paper's four variants (§V "Variants") and two scenarios
//! ("Application Scenarios"), producing per-frame [`FrameOutcome`]s that the
//! experiment harnesses aggregate into every speedup/energy/quality figure.
//! Which formula prices which frame under which scenario is
//! [`SocModel::price`]'s business, not this module's; the DS-2 and Temp-N
//! comparison frames come from [`crate::baselines`].
//!
//! The incremental API exists so an external scheduler (the `cicero-serve`
//! subsystem) can interleave frames from many concurrent sessions, batch the
//! expensive reference renders across a worker pool, and inject shared
//! reference frames via [`PipelineSession::install_reference`].

use crate::schedule::{FramePlan, RefPlacement, Schedule};
use crate::sparw::{render_target, WarpOptions, WarpScratch, WarpStats};
use crate::traffic::{
    build_workload, PixelCentricConfig, PixelCentricTraffic, StreamingConfig, StreamingTraffic,
};
use cicero_accel::config::SocConfig;
use cicero_accel::soc::{FrameKind, FrameReport, Scenario, SocModel, Variant};
use cicero_accel::FrameWorkload;
use cicero_field::render::RenderOptions;
use cicero_field::tiles::{render_tiled, TileOptions};
use cicero_field::{
    GatherSink, ModelSource, NerfModel, NullSink, RenderStats, DEFAULT_SAMPLE_BLOCK,
};
use cicero_math::{metrics, Camera, Intrinsics, Pose};
use cicero_scene::ground_truth::{background_frame, render_frame, Frame};
use cicero_scene::volume::MarchParams;
use cicero_scene::{AnalyticScene, Trajectory};
use cicero_telemetry as telemetry;
use std::sync::Arc;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Pipeline variant (Baseline / SpaRW / SpaRW+FS / Cicero).
    pub variant: Variant,
    /// Local or remote execution.
    pub scenario: Scenario,
    /// Warping window N (targets per reference).
    pub window: usize,
    /// Warp-angle threshold φ (radians); `None` disables the heuristic.
    pub phi: Option<f32>,
    /// Reference placement policy.
    pub ref_placement: RefPlacement,
    /// Ray-marching parameters.
    pub march: MarchParams,
    /// Hardware configuration.
    pub soc: SocConfig,
    /// Render analytic ground truth and compute PSNR/SSIM per frame.
    pub collect_quality: bool,
    /// Run the memory simulators (required for faithful timing).
    pub collect_traffic: bool,
    /// Host lanes per render/warp pass, served by the persistent worker
    /// pool (`cicero_field::pool`): `t` lanes = the calling thread plus
    /// `t - 1` checked-out pool workers. Affects wall-clock speed only:
    /// output frames, statistics and simulated timings are bit-identical at
    /// any value (or under a capped/contended pool serving fewer lanes).
    /// Defaults to 1; external schedulers re-partition it live via
    /// [`PipelineSession::set_render_threads`].
    pub render_threads: usize,
    /// Samples per SoA block of the batched sample engine (`1` = scalar
    /// marching). Like `render_threads`, a pure host-throughput knob:
    /// frames, statistics, traces and simulated timings are bit-identical
    /// at every value. Defaults to [`cicero_field::DEFAULT_SAMPLE_BLOCK`].
    pub sample_block: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            variant: Variant::Cicero,
            scenario: Scenario::Local,
            window: 16,
            phi: None,
            ref_placement: RefPlacement::Extrapolated,
            march: MarchParams::default(),
            soc: SocConfig::default(),
            collect_quality: true,
            collect_traffic: true,
            render_threads: 1,
            sample_block: DEFAULT_SAMPLE_BLOCK,
        }
    }
}

/// Per-frame result.
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// Trajectory frame index.
    pub frame_index: usize,
    /// Simulated time/energy report.
    pub report: FrameReport,
    /// PSNR vs analytic ground truth (when quality collection is on).
    pub psnr_db: Option<f64>,
    /// SSIM vs analytic ground truth.
    pub ssim: Option<f64>,
    /// Warp statistics (target frames only).
    pub warp_stats: Option<WarpStats>,
    /// Whether this frame was a full (reference/bootstrap) render.
    pub full_render: bool,
}

/// A completed pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-frame outcomes.
    pub outcomes: Vec<FrameOutcome>,
    /// Output frames, in trajectory order.
    pub frames: Vec<Frame>,
    /// The last reference frame's full-render workload (for harness reuse).
    pub reference_workload: Option<FrameWorkload>,
    /// Aggregate warp statistics over all target frames.
    pub warp_totals: WarpStats,
}

impl PipelineRun {
    /// Mean frames per second over the trajectory.
    pub fn mean_fps(&self) -> f64 {
        let t = self.mean_frame_time();
        if t > 0.0 {
            1.0 / t
        } else {
            f64::INFINITY
        }
    }

    /// Mean per-frame latency, seconds.
    pub fn mean_frame_time(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.report.time_s).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Mean per-frame energy, joules.
    pub fn mean_energy(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.report.energy.total())
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Mean PSNR over frames with quality data, dB.
    pub fn mean_psnr(&self) -> f64 {
        let vals: Vec<f64> = self.outcomes.iter().filter_map(|o| o.psnr_db).collect();
        metrics::mean_psnr_db(&vals)
    }
}

/// What a target frame warps from: the reference frame, the camera it was
/// rendered at, and the session's warp scratch.
type Target<'r> = (&'r Frame, &'r Camera, &'r mut WarpScratch);

fn pixel_cfg(cfg: &PipelineConfig) -> PixelCentricConfig {
    PixelCentricConfig {
        cache_bytes: cfg.soc.gpu.cache_bytes,
        dram: cfg.soc.dram,
        ..Default::default()
    }
}

fn streaming_cfg(cfg: &PipelineConfig) -> StreamingConfig {
    StreamingConfig {
        vft_bytes: cfg.soc.gu.vft_bytes,
        hashed_cache_bytes: cfg.soc.gpu.cache_bytes,
        dram: cfg.soc.dram,
        ..Default::default()
    }
}

/// The output of one [`PipelineSession::step`]: the displayed frame and its
/// simulated outcome.
#[derive(Debug, Clone)]
pub struct SessionStep {
    /// Per-frame result (timing, energy, quality, warp statistics).
    pub outcome: FrameOutcome,
    /// The displayed frame.
    pub frame: Frame,
    /// Device-occupancy time of *this frame alone*, seconds: full-render time
    /// for reference/baseline frames, warp + sparse-render time for target
    /// frames — **without** the amortized reference share folded into
    /// `outcome.report.time_s`. External schedulers that place reference
    /// renders explicitly (and would otherwise double-count them) bill
    /// workers with this figure.
    pub service_time_s: f64,
    /// The workload behind `service_time_s`: the full-render workload for
    /// reference/baseline frames, the sparse-render workload for target
    /// frames. Lets schedulers re-price the frame on different hardware via
    /// [`PipelineSession::service_time_on`].
    pub workload: FrameWorkload,
}

/// Where a session's poses come from: a complete borrowed trajectory, or an
/// owned one grown pose-by-pose as a streaming client feeds it.
enum TrajSource<'a> {
    /// The whole trajectory was known at submission.
    Borrowed(&'a Trajectory),
    /// Poses arrive incrementally via [`PipelineSession::push_pose`];
    /// `closed` marks end-of-stream (no further poses).
    Streaming { traj: Trajectory, closed: bool },
}

impl TrajSource<'_> {
    fn get(&self) -> &Trajectory {
        match self {
            TrajSource::Borrowed(t) => t,
            TrajSource::Streaming { traj, .. } => traj,
        }
    }

    fn closed(&self) -> bool {
        match self {
            TrajSource::Borrowed(_) => true,
            TrajSource::Streaming { closed, .. } => *closed,
        }
    }
}

/// Why [`PipelineSession::new_streaming`] refused to build a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionError {
    /// A warping variant asked for a window of 0 targets per reference.
    ZeroWindow,
    /// The stream's nominal pose rate is not a positive number.
    NonPositiveFps {
        /// The rate asked for.
        fps: f32,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ZeroWindow => write!(f, "warping window must be at least 1"),
            SessionError::NonPositiveFps { fps } => write!(f, "fps {fps} is not positive"),
        }
    }
}

impl std::error::Error for SessionError {}

/// An incremental pipeline execution over one trajectory.
///
/// A session owns the warping-window [`Schedule`], the cursor into it, and
/// the lazily materialized reference frames. Each [`step`](Self::step) call
/// produces exactly one trajectory frame, so an external scheduler can
/// interleave frames from many sessions, decide *when* each session's
/// reference render happens, and share reference frames between co-located
/// sessions ([`install_reference`](Self::install_reference)).
///
/// Sessions come in two ingestion modes. [`new`](Self::new) takes the whole
/// trajectory up front; [`new_streaming`](Self::new_streaming) starts empty
/// and accepts poses one at a time via [`push_pose`](Self::push_pose) — the
/// schedule extends window-atomically as poses arrive
/// ([`Schedule::extend`]), so feeding a captured trajectory pose-by-pose and
/// then [`close_stream`](Self::close_stream)ing produces **bit-identical**
/// frames, statistics and timings to submitting it whole. Streaming callers
/// gate stepping on [`can_step`](Self::can_step): a pushed pose becomes
/// steppable once its warping window is fully planned (its window's poses
/// all arrived, or the stream closed).
///
/// Driving a fresh session to completion is exactly [`run_pipeline`].
pub struct PipelineSession<'a> {
    scene: &'a AnalyticScene,
    model: &'a dyn NerfModel,
    traj: TrajSource<'a>,
    intrinsics: Intrinsics,
    cfg: PipelineConfig,
    soc: SocModel,
    opts: RenderOptions,
    pixels: u64,
    /// `None` under [`Variant::Baseline`] (every frame renders fully).
    schedule: Option<Schedule>,
    /// Targets per reference, for honest amortization of partial windows.
    ref_use: Vec<usize>,
    /// References that are rendered *in-stream* as displayed frames
    /// (bootstrap, on-trajectory placement); external schedulers must not
    /// pre-render these or the frame would be paid for twice.
    in_stream_refs: Vec<bool>,
    /// Lazily rendered reference frames and their workloads. `Arc` so a
    /// cross-session cache can share one render among many sessions without
    /// copying frame pixels.
    ref_frames: Vec<Option<(Arc<Frame>, FrameWorkload)>>,
    /// Actual render poses of installed references (cache injections may
    /// substitute a nearby pose; warping must use the true render pose).
    ref_pose_overrides: Vec<Option<Pose>>,
    cursor: usize,
    warp_totals: WarpStats,
    last_ref_workload: Option<FrameWorkload>,
    /// Reusable warp working memory: hoists the per-frame splat list and
    /// hole-fill buffers out of the frame loop (zero-allocation satellite of
    /// the tile-engine work).
    warp_scratch: WarpScratch,
    /// Session id attached to telemetry frame spans ([`set_telemetry_id`]
    /// (Self::set_telemetry_id)); serving layers stamp their `SessionId`
    /// here. Zero (the default) marks a standalone session.
    telemetry_id: u64,
}

impl<'a> PipelineSession<'a> {
    /// Creates a session at frame 0 of `traj`.
    ///
    /// # Panics
    ///
    /// Panics if the trajectory is empty or `cfg.window == 0` (for non-
    /// baseline variants).
    pub fn new(
        scene: &'a AnalyticScene,
        model: &'a dyn NerfModel,
        traj: &'a Trajectory,
        intrinsics: Intrinsics,
        cfg: &PipelineConfig,
    ) -> Self {
        assert!(!traj.is_empty());
        Self::over(scene, model, TrajSource::Borrowed(traj), intrinsics, cfg)
    }

    /// Creates an **empty streaming** session: poses arrive one at a time via
    /// [`push_pose`](Self::push_pose) at a nominal `fps`, and the schedule
    /// grows with them. Equivalent to [`new`](Self::new) once every pose of a
    /// trajectory has been pushed and the stream closed.
    ///
    /// # Errors
    ///
    /// [`SessionError::NonPositiveFps`] if `fps` is not positive (NaN
    /// included), [`SessionError::ZeroWindow`] if `cfg.window == 0` for a
    /// non-baseline variant; nothing is built.
    pub fn new_streaming(
        scene: &'a AnalyticScene,
        model: &'a dyn NerfModel,
        fps: f32,
        intrinsics: Intrinsics,
        cfg: &PipelineConfig,
    ) -> Result<Self, SessionError> {
        if fps.is_nan() || fps <= 0.0 {
            return Err(SessionError::NonPositiveFps { fps });
        }
        if cfg.window == 0 && cfg.variant != Variant::Baseline {
            return Err(SessionError::ZeroWindow);
        }
        let traj = TrajSource::Streaming {
            traj: Trajectory::streaming(fps),
            closed: false,
        };
        Ok(Self::over(scene, model, traj, intrinsics, cfg))
    }

    /// The constructor body: a session over `traj` with nothing planned,
    /// then one planning pass over the poses already there (all of them for
    /// a whole trajectory, none for a fresh stream).
    fn over(
        scene: &'a AnalyticScene,
        model: &'a dyn NerfModel,
        traj: TrajSource<'a>,
        intrinsics: Intrinsics,
        cfg: &PipelineConfig,
    ) -> Self {
        let mut session = PipelineSession {
            scene,
            model,
            traj,
            intrinsics,
            soc: SocModel::new(cfg.soc),
            opts: RenderOptions {
                march: cfg.march,
                use_occupancy: true,
                sample_block: cfg.sample_block,
            },
            pixels: intrinsics.pixel_count() as u64,
            cfg: cfg.clone(),
            schedule: (cfg.variant != Variant::Baseline).then(Schedule::empty),
            ref_use: Vec::new(),
            in_stream_refs: Vec::new(),
            ref_frames: Vec::new(),
            ref_pose_overrides: Vec::new(),
            cursor: 0,
            warp_totals: WarpStats::default(),
            last_ref_workload: None,
            warp_scratch: WarpScratch::new(),
            telemetry_id: 0,
        };
        session.extend_schedule();
        session
    }

    /// Appends one pose to a streaming session and extends the schedule as
    /// far as window-atomic planning allows.
    ///
    /// # Panics
    ///
    /// Panics on a whole-trajectory session or after
    /// [`close_stream`](Self::close_stream).
    pub fn push_pose(&mut self, pose: Pose) {
        match &mut self.traj {
            TrajSource::Borrowed(_) => {
                panic!("push_pose on a whole-trajectory session")
            }
            TrajSource::Streaming { traj, closed } => {
                assert!(!*closed, "push_pose after close_stream");
                traj.push(pose);
            }
        }
        self.extend_schedule();
    }

    /// Marks a streaming session's pose feed complete, flushing the final
    /// (possibly partial) warping window into the schedule. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics on a whole-trajectory session.
    pub fn close_stream(&mut self) {
        match &mut self.traj {
            TrajSource::Borrowed(_) => {
                panic!("close_stream on a whole-trajectory session")
            }
            TrajSource::Streaming { closed, .. } => *closed = true,
        }
        self.extend_schedule();
    }

    /// `true` once no further poses can arrive: always for whole-trajectory
    /// sessions, after [`close_stream`](Self::close_stream) for streaming
    /// ones.
    pub fn is_closed(&self) -> bool {
        self.traj.closed()
    }

    /// Re-plans after an ingestion event, growing the per-reference
    /// bookkeeping in lockstep with the schedule.
    fn extend_schedule(&mut self) {
        let Some(schedule) = &mut self.schedule else {
            return; // Baseline: every frame full-renders, no planning needed.
        };
        let (traj, closed) = match &self.traj {
            TrajSource::Streaming { traj, closed } => (traj, *closed),
            TrajSource::Borrowed(t) => (*t, true),
        };
        let planned_before = schedule.plans.len();
        schedule.extend(traj, self.cfg.window, self.cfg.ref_placement, closed);
        let n_refs = schedule.references.len();
        if n_refs > self.ref_frames.len() {
            self.ref_use.resize(n_refs, 0);
            self.in_stream_refs.resize(n_refs, false);
            self.ref_frames.resize_with(n_refs, || None);
            self.ref_pose_overrides.resize(n_refs, None);
        }
        for p in &schedule.plans[planned_before..] {
            match p {
                FramePlan::Warp { ref_index } => self.ref_use[*ref_index] += 1,
                FramePlan::FullRender { ref_index } => self.in_stream_refs[*ref_index] = true,
            }
        }
    }

    /// Total trajectory frames *arrived so far* (the final count once the
    /// session is closed).
    pub fn len(&self) -> usize {
        self.traj.get().len()
    }

    /// `true` when every frame has been produced — for a streaming session,
    /// only after the stream closed.
    pub fn is_done(&self) -> bool {
        self.traj.closed() && self.cursor >= self.traj.get().len()
    }

    /// `true` while a streaming session has received no poses yet.
    pub fn is_empty(&self) -> bool {
        self.traj.get().is_empty()
    }

    /// `true` for sessions fed pose-by-pose
    /// ([`new_streaming`](Self::new_streaming)), whether or not the feed has
    /// closed; `false` for whole-trajectory sessions.
    pub fn is_streaming(&self) -> bool {
        matches!(self.traj, TrajSource::Streaming { .. })
    }

    /// Whether [`step`](Self::step) can produce a frame right now. Always
    /// `!is_done()` for whole-trajectory sessions; a streaming session can
    /// additionally *starve* — its next frame's pose has not arrived, or its
    /// warping window is not yet fully planned (window-atomic planning keeps
    /// reference amortization bit-identical to whole-trajectory submission).
    pub fn can_step(&self) -> bool {
        match &self.schedule {
            None => self.cursor < self.traj.get().len(),
            Some(s) => self.cursor < s.plans.len(),
        }
    }

    /// Index of the next frame [`step`](Self::step) will produce.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The session's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Overrides the host lane count used by this session's renders and
    /// warps. Wall-clock only — frames, statistics and simulated timings
    /// are bit-identical at any value — so an external scheduler is free to
    /// re-partition its thread budget across live sessions between frames.
    pub fn set_render_threads(&mut self, threads: usize) {
        self.cfg.render_threads = threads.max(1);
    }

    /// The session's camera intrinsics.
    pub fn intrinsics(&self) -> Intrinsics {
        self.intrinsics
    }

    /// Number of reference slots planned so far. Fixed at construction for
    /// whole-trajectory sessions; grows with the schedule for streaming ones.
    pub fn reference_count(&self) -> usize {
        self.ref_frames.len()
    }

    /// Target frames planned (so far) to warp from reference slot `idx` —
    /// the blast radius of substituting that reference's warp source, which
    /// is what a recovery layer wants to account when it installs a stale
    /// fallback. Streaming sessions may plan more consumers later.
    pub fn reference_consumers(&self, idx: usize) -> usize {
        self.ref_use.get(idx).copied().unwrap_or(0)
    }

    /// The warping-window schedule (`None` under [`Variant::Baseline`]).
    pub fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// The plan for the next frame (`None` when done or baseline).
    pub fn next_plan(&self) -> Option<FramePlan> {
        self.schedule
            .as_ref()
            .and_then(|s| s.plans.get(self.cursor).copied())
    }

    /// Off-trajectory references needed by warp frames within the next
    /// `horizon` frames that have not been materialized yet, in first-use
    /// order. References produced in-stream by a `FullRender` frame
    /// (bootstrap, on-trajectory placement) are excluded — stepping the
    /// session pays for those. External schedulers use this to dispatch
    /// reference renders early enough to overlap the current window's warps
    /// (the multi-session generalization of Fig. 10/11b).
    pub fn upcoming_references(&self, horizon: usize) -> Vec<usize> {
        let Some(s) = &self.schedule else {
            return Vec::new();
        };
        let end = self
            .cursor
            .saturating_add(horizon.max(1))
            .min(s.plans.len());
        let mut out = Vec::new();
        for p in &s.plans[self.cursor..end] {
            if let FramePlan::Warp { ref_index } = p {
                if self.ref_frames[*ref_index].is_none()
                    && !self.in_stream_refs[*ref_index]
                    && !out.contains(ref_index)
                {
                    out.push(*ref_index);
                }
            }
        }
        out
    }

    /// The pose reference `idx` is scheduled to render at (or the actual pose
    /// of an installed substitute).
    ///
    /// # Panics
    ///
    /// Panics for baseline sessions or out-of-range indices.
    pub fn reference_pose(&self, idx: usize) -> Pose {
        self.ref_pose_overrides[idx].unwrap_or_else(|| {
            self.schedule
                .as_ref()
                .expect("baseline has no references")
                .references[idx]
        })
    }

    /// Renders reference `idx` without installing it, returning the frame and
    /// its full-render workload. External schedulers call this to produce a
    /// shareable reference (and price it as a [`FrameKind::Reference`]),
    /// then hand it back through
    /// [`install_reference`](Self::install_reference).
    pub fn render_reference(&self, idx: usize) -> (Frame, FrameWorkload) {
        let _span = telemetry::span_ab(
            telemetry::Phase::ReferenceRender,
            self.telemetry_id,
            idx as u64,
        );
        telemetry::add(telemetry::Counter::ReferenceRenders, 1);
        let cam = Camera::new(self.intrinsics, self.reference_pose(idx));
        let (frame, workload, _) = self.analyzed_render(&cam, None);
        (frame, workload)
    }

    /// Installs an externally produced reference frame for slot `idx`.
    ///
    /// `pose` must be the pose `frame` was actually rendered at; it replaces
    /// the scheduled pose so warping stays geometrically consistent when a
    /// nearby cached frame is substituted. Installing over an existing
    /// reference replaces it. The frame arrives behind an `Arc` so a shared
    /// cache can hand the same render to many sessions without copying
    /// pixels.
    pub fn install_reference(
        &mut self,
        idx: usize,
        pose: Pose,
        frame: Arc<Frame>,
        workload: FrameWorkload,
    ) {
        self.ref_pose_overrides[idx] = Some(pose);
        self.ref_frames[idx] = Some((frame, workload));
    }

    /// The materialized reference frame in slot `idx`, if any — behind the
    /// shared `Arc`, so callers (e.g. a cross-session cache) can publish it
    /// without copying pixels.
    pub fn reference_frame(&self, idx: usize) -> Option<Arc<Frame>> {
        self.ref_frames
            .get(idx)
            .and_then(|s| s.as_ref().map(|(f, _)| f.clone()))
    }

    /// Stamps the session id carried by telemetry frame spans. Serving
    /// layers call this at admission so every span of a multi-session run is
    /// attributable; purely observational — no output depends on it.
    pub fn set_telemetry_id(&mut self, id: u64) {
        self.telemetry_id = id;
    }

    /// Aggregate warp statistics over the target frames produced so far.
    pub fn warp_totals(&self) -> &WarpStats {
        &self.warp_totals
    }

    /// The last reference/full-render workload produced (for harness reuse).
    pub fn reference_workload(&self) -> Option<&FrameWorkload> {
        self.last_ref_workload.as_ref()
    }

    /// Prices `step`'s un-amortized service time on `soc` — the formula
    /// [`step`](Self::step) used for `service_time_s`, applied to different
    /// hardware. With the session's own SoC configuration this equals
    /// `step.service_time_s` exactly. Pool schedulers use it to bill each
    /// frame at the speed of the worker that actually executes it.
    pub fn service_time_on(&self, soc: &SocModel, step: &SessionStep) -> f64 {
        if step.outcome.full_render {
            self.price_on(soc, FrameKind::Full(&step.workload)).time_s
        } else {
            soc.target_frame(&step.workload, self.cfg.variant).time_s
        }
    }

    fn price_on(&self, soc: &SocModel, frame: FrameKind<'_>) -> FrameReport {
        soc.price(self.cfg.scenario, self.cfg.variant, self.pixels, frame)
    }

    /// The one analysed render behind every frame of the session: renders
    /// the frame at `cam` through the traffic sink the configuration calls
    /// for and assembles its workload. Without `target` that is a full
    /// render over the model's background (reference and baseline frames);
    /// with it, the target frame [`render_target`] warps from that reference
    /// and sparse-renders, whose warp statistics come back too.
    fn analyzed_render(
        &self,
        cam: &Camera,
        target: Option<Target<'_>>,
    ) -> (Frame, FrameWorkload, Option<WarpStats>) {
        let (model, cfg) = (self.model, &self.cfg);
        let decoder = model.decoder();
        // A target's warp produces every pixel of the frame.
        let warp = target.is_some().then_some((self.pixels, self.pixels));
        if !cfg.collect_traffic {
            let (frame, stats, warped) = self.render_into(cam, target, &mut NullSink);
            let workload = build_workload(&stats, decoder, None, None, warp);
            (frame, workload, warped)
        } else if cfg.variant.fully_streaming() {
            let mut sink = StreamingTraffic::new(model, streaming_cfg(cfg));
            let (frame, stats, warped) = self.render_into(cam, target, &mut sink);
            let workload = build_workload(&stats, decoder, None, Some(&sink.finish()), warp);
            (frame, workload, warped)
        } else {
            let mut sink = PixelCentricTraffic::new(model, pixel_cfg(cfg));
            let (frame, stats, warped) = self.render_into(cam, target, &mut sink);
            let workload = build_workload(&stats, decoder, Some(&sink.finish()), None, warp);
            (frame, workload, warped)
        }
    }

    /// [`analyzed_render`](Self::analyzed_render)'s render through `sink`,
    /// on the session's render lanes.
    fn render_into<S: GatherSink>(
        &self,
        cam: &Camera,
        target: Option<Target<'_>>,
        sink: &mut S,
    ) -> (Frame, RenderStats, Option<WarpStats>) {
        let (model, opts) = (self.model, &self.opts);
        let tile = TileOptions::with_threads(self.cfg.render_threads);
        match target {
            None => {
                let (w, h) = (cam.intrinsics.width, cam.intrinsics.height);
                let mut frame = background_frame(&ModelSource(model), w, h);
                let stats = render_tiled(model, cam, opts, None, &mut frame, sink, &tile);
                (frame, stats, None)
            }
            Some((reference, ref_cam, scratch)) => {
                let warp = WarpOptions { phi: self.cfg.phi };
                let t = render_target(
                    model, opts, reference, ref_cam, cam, &warp, scratch, &tile, sink,
                );
                (t.frame, t.render, Some(t.warp))
            }
        }
    }

    /// Reference `idx` and its full-render workload, rendered now if nothing
    /// installed it.
    fn reference(&mut self, idx: usize) -> (Arc<Frame>, FrameWorkload) {
        // The `Arc` clones are cheap, and end the `ref_frames` borrow so the
        // warp can take the session's scratch mutably.
        if let Some(slot) = &self.ref_frames[idx] {
            return slot.clone();
        }
        let (frame, workload) = self.render_reference(idx);
        let slot = (Arc::new(frame), workload);
        self.ref_frames[idx] = Some(slot.clone());
        slot
    }

    /// Produces the next trajectory frame, or `None` when the trajectory is
    /// exhausted.
    pub fn step(&mut self) -> Option<SessionStep> {
        // For whole-trajectory sessions this is exactly the cursor-at-end
        // check; streaming sessions additionally starve here until the next
        // frame's warping window is fully planned.
        if !self.can_step() {
            return None;
        }
        let t0 = telemetry::is_enabled().then(telemetry::now_ns);
        let mut frame_span = telemetry::span_ab(
            telemetry::Phase::Frame,
            self.telemetry_id,
            self.cursor as u64,
        );
        let step = self.step_inner();
        frame_span.set_arg_c(step.outcome.full_render as u64);
        telemetry::add(telemetry::Counter::FramesStepped, 1);
        drop(frame_span);
        if let Some(t0) = t0 {
            telemetry::observe(
                telemetry::Hist::FrameNs,
                telemetry::now_ns().saturating_sub(t0),
            );
        }
        Some(step)
    }

    /// Plans frame `cursor` and hands it to the step of its kind.
    fn step_inner(&mut self) -> SessionStep {
        let i = self.cursor;
        self.cursor += 1;
        let cam = self.traj.get().camera(i, self.intrinsics);
        match self.schedule.as_ref().map(|s| s.plans[i]) {
            // Baseline: every frame is an implicit full render, outside any
            // reference bookkeeping.
            None => {
                let (frame, workload, _) = self.analyzed_render(&cam, None);
                self.full_render_step(i, &cam, frame, workload)
            }
            // Bootstrap / on-trajectory reference frames pay full price.
            // The displayed frame is owned; the slot keeps the shared
            // render for the window's warps, so copy the pixels out.
            Some(FramePlan::FullRender { ref_index }) => {
                let (frame, workload) = self.reference(ref_index);
                self.full_render_step(i, &cam, (*frame).clone(), workload)
            }
            Some(FramePlan::Warp { ref_index }) => self.warped_step(i, &cam, ref_index),
        }
    }

    /// Prices and packages a full (reference/bootstrap/baseline) render as
    /// the step for frame `i`.
    fn full_render_step(
        &mut self,
        i: usize,
        cam: &Camera,
        frame: Frame,
        workload: FrameWorkload,
    ) -> SessionStep {
        let report = self.price_on(&self.soc, FrameKind::Full(&workload));
        self.last_ref_workload = Some(workload.clone());
        SessionStep {
            outcome: self.outcome(i, cam, &frame, report, None),
            frame,
            service_time_s: report.time_s,
            workload,
        }
    }

    /// A target frame, stage by stage: reference → warp and sparse render →
    /// price → package.
    fn warped_step(&mut self, i: usize, cam: &Camera, ref_index: usize) -> SessionStep {
        let (ref_frame, ref_w) = self.reference(ref_index);
        let ref_cam = Camera::new(self.intrinsics, self.reference_pose(ref_index));
        // Out of the session while it renders, which borrows the session.
        let mut scratch = std::mem::take(&mut self.warp_scratch);
        let (frame, workload, warped) = {
            let _span =
                telemetry::span_ab(telemetry::Phase::SparseRender, self.telemetry_id, i as u64);
            telemetry::add(telemetry::Counter::SparseRenders, 1);
            self.analyzed_render(cam, Some((&ref_frame, &ref_cam, &mut scratch)))
        };
        self.warp_scratch = scratch;
        let stats = warped.expect("a target render returns its warp statistics");
        // Priced once: the target's own report is the un-amortized service
        // time and an input to the amortized window report.
        let target = self.soc.target_frame(&workload, self.cfg.variant);
        let window = FrameKind::Window {
            reference: &ref_w,
            target: &target,
            window: self.ref_use[ref_index].max(1),
        };
        let report = self.price_on(&self.soc, window);
        self.last_ref_workload = Some(ref_w);
        self.warp_totals.accumulate(&stats);
        SessionStep {
            outcome: self.outcome(i, cam, &frame, report, Some(stats)),
            frame,
            service_time_s: target.time_s,
            workload,
        }
    }

    /// Packages frame `i`'s result, scoring it against the analytic ground
    /// truth when quality collection is on. A frame with warp statistics is
    /// a target frame; one without is a full render.
    fn outcome(
        &self,
        i: usize,
        cam: &Camera,
        frame: &Frame,
        report: FrameReport,
        warp_stats: Option<WarpStats>,
    ) -> FrameOutcome {
        let gt = self
            .cfg
            .collect_quality
            .then(|| render_frame(self.scene, cam, &self.cfg.march));
        FrameOutcome {
            frame_index: i,
            report,
            psnr_db: gt.as_ref().map(|gt| metrics::psnr(&frame.color, &gt.color)),
            ssim: gt.as_ref().map(|gt| metrics::ssim(&frame.color, &gt.color)),
            warp_stats,
            full_render: warp_stats.is_none(),
        }
    }
}

/// Runs a full trajectory through the configured pipeline.
///
/// A thin driver over [`PipelineSession`]: steps a fresh session to
/// completion and collects the results.
///
/// # Panics
///
/// Panics if the trajectory is empty or `cfg.window == 0`.
pub fn run_pipeline(
    scene: &AnalyticScene,
    model: &dyn NerfModel,
    traj: &Trajectory,
    intrinsics: Intrinsics,
    cfg: &PipelineConfig,
) -> PipelineRun {
    let mut session = PipelineSession::new(scene, model, traj, intrinsics, cfg);
    let mut outcomes = Vec::with_capacity(traj.len());
    let mut frames = Vec::with_capacity(traj.len());
    while let Some(step) = session.step() {
        outcomes.push(step.outcome);
        frames.push(step.frame);
    }
    PipelineRun {
        outcomes,
        frames,
        reference_workload: session.last_ref_workload,
        warp_totals: session.warp_totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cicero_field::{bake, GridConfig};
    use cicero_scene::library;

    fn small_setup() -> (
        AnalyticScene,
        cicero_field::GridModel,
        Trajectory,
        Intrinsics,
    ) {
        let scene = library::scene_by_name("lego").unwrap();
        let model = bake::bake_grid(
            &scene,
            &GridConfig {
                resolution: 40,
                ..Default::default()
            },
        );
        let traj = Trajectory::orbit(&scene, 6, 30.0);
        (scene, model, traj, Intrinsics::from_fov(40, 40, 0.9))
    }

    fn fast_cfg(variant: Variant) -> PipelineConfig {
        let mut cfg = PipelineConfig {
            variant,
            window: 4,
            march: MarchParams {
                step: 0.02,
                ..Default::default()
            },
            ..Default::default()
        };
        // Toy 40×40 frames: remove the fixed kernel-launch overheads that
        // would otherwise dominate and hide the workload scaling under test.
        cfg.soc.gpu.kernel_overhead_s = 0.0;
        cfg
    }

    #[test]
    fn baseline_pipeline_produces_quality_frames() {
        let (scene, model, traj, k) = small_setup();
        let run = run_pipeline(&scene, &model, &traj, k, &fast_cfg(Variant::Baseline));
        assert_eq!(run.outcomes.len(), 6);
        assert!(
            run.mean_psnr() > 16.0,
            "baseline PSNR {:.1}",
            run.mean_psnr()
        );
        assert!(run.outcomes.iter().all(|o| o.full_render));
        assert!(run.mean_frame_time() > 0.0);
    }

    #[test]
    fn cicero_is_faster_with_bounded_quality_loss() {
        let (scene, model, traj, k) = small_setup();
        let base = run_pipeline(&scene, &model, &traj, k, &fast_cfg(Variant::Baseline));
        let cicero = run_pipeline(&scene, &model, &traj, k, &fast_cfg(Variant::Cicero));
        assert!(
            cicero.mean_frame_time() < base.mean_frame_time(),
            "cicero {} vs baseline {}",
            cicero.mean_frame_time(),
            base.mean_frame_time()
        );
        assert!(cicero.mean_energy() < base.mean_energy());
        // Quality within a few dB of the baseline (paper: < 1 dB at window 6
        // on 800×800; small frames exaggerate splat cracks).
        assert!(
            cicero.mean_psnr() > base.mean_psnr() - 6.0,
            "cicero {:.1} vs base {:.1}",
            cicero.mean_psnr(),
            base.mean_psnr()
        );
        // Most pixels warped.
        assert!(cicero.warp_totals.overlap_fraction() > 0.7);
    }

    #[test]
    fn variant_ladder_speeds_up_monotonically() {
        let (scene, model, traj, k) = small_setup();
        let t = |v: Variant| run_pipeline(&scene, &model, &traj, k, &fast_cfg(v)).mean_frame_time();
        let base = t(Variant::Baseline);
        let sparw = t(Variant::Sparw);
        let cicero = t(Variant::Cicero);
        assert!(sparw < base, "SPARW {sparw} < baseline {base}");
        // At 40×40 the FS pipeline's fixed per-sample costs (RIT records,
        // compositing spill) are not yet amortized, so only require rough
        // parity here; the fig19 experiment asserts the paper-scale ordering.
        assert!(cicero <= sparw * 1.5, "Cicero {cicero} ≲ SPARW {sparw}");
    }

    #[test]
    fn remote_scenario_runs() {
        let (scene, model, traj, k) = small_setup();
        let mut cfg = fast_cfg(Variant::Cicero);
        cfg.scenario = Scenario::Remote;
        cfg.collect_quality = false;
        let run = run_pipeline(&scene, &model, &traj, k, &cfg);
        assert_eq!(run.outcomes.len(), 6);
        // Remote: wireless energy appears on warped frames.
        assert!(run
            .outcomes
            .iter()
            .filter(|o| !o.full_render)
            .all(|o| o.report.energy.wireless_j > 0.0));
    }

    #[test]
    fn quality_collection_can_be_disabled() {
        let (scene, model, traj, k) = small_setup();
        let mut cfg = fast_cfg(Variant::Cicero);
        cfg.collect_quality = false;
        let run = run_pipeline(&scene, &model, &traj, k, &cfg);
        assert!(run.outcomes.iter().all(|o| o.psnr_db.is_none()));
    }

    #[test]
    fn upcoming_references_never_hand_out_in_stream_refs() {
        let (scene, model, traj, k) = small_setup();
        for variant in [Variant::Sparw, Variant::Cicero] {
            for scenario in [Scenario::Local, Scenario::Remote] {
                let mut cfg = fast_cfg(variant);
                cfg.scenario = scenario;
                cfg.collect_quality = false;
                let mut sess = PipelineSession::new(&scene, &model, &traj, k, &cfg);
                let mut handed_out = 0;
                while !sess.is_done() {
                    // Horizon 1: what the next frame alone asks for.
                    for r in sess.upcoming_references(1) {
                        assert!(
                            !sess.in_stream_refs[r],
                            "in-stream ref {r} handed out for pre-render ({variant:?}/{scenario:?})"
                        );
                        assert!(
                            matches!(sess.next_plan(), Some(FramePlan::Warp { .. })),
                            "a reference handed out on a FullRender frame would double-bill it"
                        );
                        handed_out += 1;
                    }
                    sess.step().unwrap();
                }
                // Extrapolated placement has off-stream refs to hand out.
                assert!(handed_out > 0, "{variant:?}/{scenario:?} handed out none");
            }
        }
    }

    #[test]
    fn new_streaming_refuses_a_bad_rate_or_window_with_a_typed_error() {
        let (scene, model, _, k) = small_setup();
        let refused = |fps: f32, cfg: &PipelineConfig| {
            PipelineSession::new_streaming(&scene, &model, fps, k, cfg).err()
        };
        let cicero = fast_cfg(Variant::Cicero);
        for fps in [0.0, -0.0, -30.0, f32::NEG_INFINITY] {
            assert_eq!(
                refused(fps, &cicero),
                Some(SessionError::NonPositiveFps { fps })
            );
        }
        assert!(matches!(
            refused(f32::NAN, &cicero),
            Some(SessionError::NonPositiveFps { fps }) if fps.is_nan()
        ));
        let zero_window = PipelineConfig {
            window: 0,
            ..cicero.clone()
        };
        assert_eq!(refused(30.0, &zero_window), Some(SessionError::ZeroWindow));
        // The rate is checked first; a baseline session has no window.
        assert!(matches!(
            refused(0.0, &zero_window),
            Some(SessionError::NonPositiveFps { .. })
        ));
        let baseline = PipelineConfig {
            window: 0,
            ..fast_cfg(Variant::Baseline)
        };
        assert_eq!(refused(30.0, &baseline), None);
        assert_eq!(refused(30.0, &cicero), None);
        assert_eq!(
            SessionError::ZeroWindow.to_string(),
            "warping window must be at least 1"
        );
    }

    #[test]
    fn streaming_session_matches_whole_trajectory_session() {
        let (scene, model, traj, k) = small_setup();
        for variant in [Variant::Sparw, Variant::Cicero, Variant::Baseline] {
            let mut cfg = fast_cfg(variant);
            cfg.collect_quality = false;
            let whole = run_pipeline(&scene, &model, &traj, k, &cfg);

            // Feed poses one at a time, stepping greedily whenever the
            // window-atomic planner lets us.
            let mut sess =
                PipelineSession::new_streaming(&scene, &model, traj.fps(), k, &cfg).unwrap();
            let mut outcomes = Vec::new();
            let mut frames = Vec::new();
            assert!(!sess.can_step() && !sess.is_done());
            for pose in traj.poses() {
                sess.push_pose(*pose);
                while sess.can_step() {
                    let step = sess.step().unwrap();
                    outcomes.push(step.outcome);
                    frames.push(step.frame);
                }
            }
            assert!(!sess.is_done(), "open streams are never done");
            sess.close_stream();
            sess.close_stream(); // idempotent, even on a partial tail window
            while let Some(step) = sess.step() {
                outcomes.push(step.outcome);
                frames.push(step.frame);
            }
            assert!(sess.is_done());

            assert_eq!(outcomes.len(), whole.outcomes.len(), "{variant:?}");
            for (a, b) in whole.outcomes.iter().zip(&outcomes) {
                assert_eq!(a.frame_index, b.frame_index);
                assert_eq!(a.full_render, b.full_render);
                assert_eq!(a.report.time_s, b.report.time_s, "{variant:?}");
                assert_eq!(a.report.energy.total(), b.report.energy.total());
            }
            assert_eq!(frames, whole.frames, "{variant:?}: streamed frames");
            assert_eq!(whole.warp_totals.warped, sess.warp_totals().warped);
        }
    }

    #[test]
    fn service_time_on_own_soc_matches_step() {
        let (scene, model, traj, k) = small_setup();
        for variant in Variant::ALL {
            for scenario in [Scenario::Local, Scenario::Remote] {
                let mut cfg = fast_cfg(variant);
                cfg.scenario = scenario;
                cfg.collect_quality = false;
                let mut sess = PipelineSession::new(&scene, &model, &traj, k, &cfg);
                let own_soc = sess.soc.clone();
                while let Some(step) = sess.step() {
                    assert_eq!(
                        sess.service_time_on(&own_soc, &step),
                        step.service_time_s,
                        "{variant:?}/{scenario:?} frame {}",
                        step.outcome.frame_index
                    );
                }
            }
        }
    }
}
